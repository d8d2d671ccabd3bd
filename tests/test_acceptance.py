"""End-to-end acceptance checks.

Each test prints a single pass/fail line so the whole gate can be read
off the terminal:

    pytest tests/test_acceptance.py -s
"""

import time
from math import comb

import numpy as np
import pytest

from metamine.cli import main as cli_main
from metamine.data_model import HyperParams, PreferenceMatrix
from metamine.evaluation import (MetaMiningData, binomial_sign_test, run_lodo,
                                 run_lodwo, run_lowo)
from metamine.metric_learning import (Objective, ObjectiveKind, initialize,
                                      minimize, objective_value, gradient,
                                      train)
from metamine.recommend import Strategy
from metamine.synth import SynthConfig, SynthMode, centered_scores, generate


def report_line(label, ok):
    print(f"\n[acceptance] {label}: {'PASS' if ok else 'FAIL'}")
    return ok


def random_instance(rng, n=8, m=6, d=5, l=4, t=2):
    x = rng.standard_normal((n, d))
    a = rng.standard_normal((m, l))
    s_x = rng.standard_normal((n, n))
    s_x = 0.5 * (s_x + s_x.T)
    s_a = rng.standard_normal((m, m))
    s_a = 0.5 * (s_a + s_a.T)
    r = rng.standard_normal((n, m))
    u = rng.standard_normal((d, t))
    v = rng.standard_normal((l, t))
    return x, a, s_x, s_a, r, u, v


def finite_difference(obj, u, v, hyper, h=1e-5):
    gu = np.zeros_like(u)
    gv = np.zeros_like(v)
    for idx in np.ndindex(*u.shape):
        up, um = u.copy(), u.copy()
        up[idx] += h
        um[idx] -= h
        gu[idx] = (objective_value(obj, up, v, hyper)
                   - objective_value(obj, um, v, hyper)) / (2 * h)
    for idx in np.ndindex(*v.shape):
        vp, vm = v.copy(), v.copy()
        vp[idx] += h
        vm[idx] -= h
        gv[idx] = (objective_value(obj, u, vp, hyper)
                   - objective_value(obj, u, vm, hyper)) / (2 * h)
    return gu, gv


def test_1_gradients_match_finite_differences():
    hyper = HyperParams(mu1=0.3, mu2=0.7, alpha=0.9, beta=1.1, gamma=1.3)
    started = time.monotonic()
    worst = 0.0
    for kind in ObjectiveKind:
        for seed in range(50):
            rng = np.random.default_rng(seed)
            x, a, s_x, s_a, r, u, v = random_instance(rng)
            obj = Objective(kind=kind, x=x, a=a, s_x=s_x, s_a=s_a, r=r)
            gu, gv = gradient(obj, u, v, hyper)
            fu, fv = finite_difference(obj, u, v, hyper)
            scale = max(np.abs(fu).max(), np.abs(fv).max(), 1.0)
            worst = max(worst,
                        np.abs(gu - fu).max() / scale,
                        np.abs(gv - fv).max() / scale)
    elapsed = time.monotonic() - started
    ok = worst < 1e-5 and elapsed < 10.0
    assert report_line(
        f"1 gradient correctness (max rel err {worst:.2e}, {elapsed:.1f}s)", ok)


def test_2_descent_is_monotone():
    ok = True
    for kind in ObjectiveKind:
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            x, a, s_x, s_a, r, _, _ = random_instance(rng)
            obj = Objective(kind=kind, x=x, a=a, s_x=s_x, s_a=s_a, r=r)
            hyper = HyperParams(mu1=0.1, mu2=0.1, max_iters=200, seed=seed)
            u0, v0 = initialize(obj, 2, hyper)
            _, _, trace = minimize(obj, u0, v0, hyper)
            diffs = np.diff(trace.objective_values)
            ok = ok and bool(np.all(diffs <= 0))
    assert report_line("2 monotone descent on every training run", ok)


def test_3_exact_recovery_on_noiseless_synthetic():
    started = time.monotonic()
    result = generate(SynthConfig(n=30, m=12, d=10, l=8, latent_t=3, seed=1))
    target = centered_scores(result)
    hyper = HyperParams(mu1=0.0, mu2=0.0, t=3, max_iters=20000,
                        rel_tol=1e-16, seed=0)
    r = PreferenceMatrix(result.x.entity_ids, result.a.entity_ids, target)
    params, trace = train(ObjectiveKind.F3, result.x, result.a, r, hyper)
    ratio = trace.objective_values[-1] / trace.objective_values[0]
    x_std = params.x_standardization.apply(result.x.features)
    a_std = params.a_standardization.apply(result.a.features)
    predicted = x_std @ params.u @ params.v.T @ a_std.T
    pair_err = np.abs(predicted - target).max()
    elapsed = time.monotonic() - started
    ok = ratio < 1e-6 and pair_err < 1e-3 and elapsed < 30.0
    assert report_line(
        f"3 exact recovery (fit ratio {ratio:.2e}, pair err {pair_err:.2e}, "
        f"{elapsed:.1f}s)", ok)


def test_4_cold_start_advantage_over_baselines():
    started = time.monotonic()
    strategies = [Strategy.DEFAULT, Strategy.EUCLIDEAN, Strategy.F4_DIRECT]
    f4_beats_ec = 0
    means = {s: [] for s in strategies}
    for seed in range(20):
        res = generate(SynthConfig(n=40, m=15, d=10, l=8, latent_t=3,
                                   noise_sigma=0.5, seed=seed,
                                   mode=SynthMode.NOISY_BILINEAR))
        data = MetaMiningData(x=res.x, a=res.a, r=res.preferences,
                              performance=res.performance)
        hyper = HyperParams(mu1=0.1, mu2=0.1, max_iters=300, rel_tol=1e-8,
                            seed=seed)
        report = run_lodo(data, strategies, hyper)
        rho = {s: report.aggregate(s, "rho") for s in strategies}
        if rho[Strategy.F4_DIRECT] > rho[Strategy.EUCLIDEAN]:
            f4_beats_ec += 1
        for s in strategies:
            means[s].append(rho[s])
    elapsed = time.monotonic() - started
    mean_f4 = float(np.mean(means[Strategy.F4_DIRECT]))
    mean_def = float(np.mean(means[Strategy.DEFAULT]))
    ok = f4_beats_ec >= 13 and mean_f4 > mean_def and elapsed < 300.0
    assert report_line(
        f"4 cold-start advantage (beat ec on {f4_beats_ec}/20 seeds, "
        f"mean rho f4 {mean_f4:.3f} vs def {mean_def:.3f}, {elapsed:.0f}s)", ok)


def test_5_binomial_test_matches_published_values():
    checks = [
        ((46, 65), 0.001, 0.0005),
        ((40, 65), 0.082, 0.001),
        ((32, 65), 1.0, 1e-9),
    ]
    results = []
    for (wins, total), expected, tol in checks:
        p = binomial_sign_test(wins, total)
        results.append((wins, total, p, abs(p - expected) <= tol))
    # The paper prints 0.001 for 29 wins of 35, but the exact two-sided p
    # is 2 * sum_{k=29..35} C(35, k) / 2**35 = 1.168e-4, and no exact sign
    # test lies within 0.0005 of 0.001. The printed figure fits only as a
    # floor for smaller p or as a misprint, so this anchor is checked
    # against the exhaustive tail sum, and against 0.001 as an upper bound.
    wins, total = 29, 35
    p = binomial_sign_test(wins, total)
    exact = 2 * sum(comb(total, k) for k in range(wins, total + 1)) / 2 ** total
    results.append((wins, total, p,
                    p == pytest.approx(exact, rel=1e-12) and p <= 0.001))
    ok = all(hit for _, _, _, hit in results)
    detail = ", ".join(f"({w},{t})->{p:.6f}{'' if hit else ' MISS'}"
                       for w, t, p, hit in results)
    assert report_line(f"5 published binomial values ({detail})", ok)


def test_6_preference_invariants_over_randomized_generations():
    rng = np.random.default_rng(2024)
    ok = True
    for _ in range(1000):
        m = int(rng.integers(3, 7))
        cfg = SynthConfig(n=3, m=m, d=3, l=3, latent_t=2,
                          seed=int(rng.integers(0, 2**31)),
                          mode=SynthMode.OUTCOME_LEVEL,
                          instances_per_dataset=int(rng.integers(5, 60)))
        r = generate(cfg).preferences
        expected_sum = m * (m - 1) / 2.0
        ok = ok and bool(np.all(r.scores.sum(axis=1) == expected_sum))
        ok = ok and bool(np.all(r.scores * 2 == np.round(r.scores * 2)))
        ok = ok and bool(r.scores.min() >= 0 and r.scores.max() <= m - 1)
        if not ok:
            break
    assert report_line("6 preference invariants on 1000 generations", ok)


def test_7_degenerate_default_and_inapplicable_baseline():
    res = generate(SynthConfig(n=6, m=5, d=4, l=3, latent_t=2, seed=4))
    data = MetaMiningData(x=res.x, a=res.a, r=res.preferences,
                          performance=res.performance)
    hyper = HyperParams(max_iters=20, t=2, seed=0, mu1=0.01, mu2=0.01)
    lowo = run_lowo(data, [Strategy.DEFAULT, Strategy.F4_DIRECT], hyper)
    na_ok = lowo.aggregate(Strategy.DEFAULT, "rho") is None \
        and any("constant" in n for n in lowo.notices)
    preds = [f.predictions[Strategy.DEFAULT] for f in lowo.folds]
    constant_ok = all(np.ptp(p) == 0 for p in preds)
    lodwo = run_lodwo(data, [Strategy.DEFAULT, Strategy.EUCLIDEAN,
                             Strategy.F4_DIRECT], hyper)
    excluded_ok = Strategy.EUCLIDEAN not in lodwo.strategies \
        and any("not applicable" in n for n in lodwo.notices)
    ok = na_ok and constant_ok and excluded_ok
    assert report_line(
        "7 degenerate default is constant with rho NA; "
        "distance baseline excluded with notice", ok)


def test_8_end_to_end_determinism(tmp_path):
    digests = []
    for run_dir in (tmp_path / "run1", tmp_path / "run2"):
        raw = run_dir / "raw"
        bundle = run_dir / "bundle"
        model = run_dir / "model.json"
        report = run_dir / "report"
        assert cli_main(["synth", "--n", "8", "--m", "5", "--d", "5",
                         "--l", "4", "--latent-t", "2", "--seed", "11",
                         "--out", str(raw)]) == 0
        assert cli_main(["ingest", "--x", str(raw / "X.csv"),
                         "--a", str(raw / "A.csv"),
                         "--performance", str(raw / "performance.csv"),
                         "--preferences", str(raw / "R.csv"),
                         "--out", str(bundle)]) == 0
        assert cli_main(["train", "--bundle", str(bundle),
                         "--objective", "f4", "--max-iters", "150",
                         "--t", "2", "--seed", "11",
                         "--out", str(model)]) == 0
        assert cli_main(["evaluate", "--bundle", str(bundle),
                         "--protocol", "lodo", "--strategies", "def,ec,f4",
                         "--max-iters", "40", "--t", "2", "--seed", "11",
                         "--out", str(report)]) == 0
        digests.append((model.read_bytes(),
                        (report / "report.json").read_bytes()))
    ok = digests[0] == digests[1]
    assert report_line("8 end-to-end determinism (byte-identical artifacts)", ok)


def test_9_combined_objective_reduces_to_first():
    h4 = HyperParams(alpha=1.0, beta=0.0, gamma=0.0, mu1=0.6, mu2=0.0)
    h1 = HyperParams(mu1=0.6, mu2=0.0)
    ok = True
    for seed in range(20):
        rng = np.random.default_rng(300 + seed)
        x, a, s_x, s_a, r, u, v = random_instance(rng)
        obj4 = Objective(kind=ObjectiveKind.F4, x=x, a=a, s_x=s_x, s_a=s_a, r=r)
        obj1 = Objective(kind=ObjectiveKind.F1, x=x, a=a, s_x=s_x)
        f4 = objective_value(obj4, u, v, h4)
        f1 = objective_value(obj1, u, v, h1)
        ok = ok and abs(f4 - f1) <= 1e-10 * max(abs(f1), 1.0)
    assert report_line("9 combined objective equals first objective "
                       "when reduced", ok)
