from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metamine import metric_learning as ml
from metamine.data_model import HyperParams, InitScheme, PreferenceMatrix
from metamine.io import save_model
from metamine.metric_learning import (Objective, ObjectiveKind, StopReason,
                                      build_objective, gradient, initialize,
                                      minimize, objective_value, train)
from metamine.metric_learning import TrainTrace, minimize_many, train_many
from metamine.synth import SynthConfig, centered_scores, generate

from conftest import make_tables


def random_instance(seed, n=8, m=6, d=5, l=4, t=2):
    rng = np.random.default_rng(seed)
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


def naive_objective(kind, x, a, s_x, s_a, r, u, v, hyper):
    """Element-wise loop evaluation, independent of the library's
    matrix-product implementation."""
    def frob2(mat):
        total = 0.0
        for row in np.atleast_2d(mat):
            for val in row:
                total += float(val) * float(val)
        return total

    fit1 = frob2(s_x - x @ u @ u.T @ x.T)
    fit2 = frob2(s_a - a @ v @ v.T @ a.T)
    fit3 = frob2(r - x @ u @ v.T @ a.T)
    if kind is ObjectiveKind.F1:
        return fit1 + hyper.mu1 * frob2(u)
    if kind is ObjectiveKind.F2:
        return fit2 + hyper.mu2 * frob2(v)
    if kind is ObjectiveKind.F3:
        return fit3 + hyper.mu1 * frob2(u) + hyper.mu2 * frob2(v)
    return (hyper.alpha * fit1 + hyper.beta * fit2 + hyper.gamma * fit3
            + hyper.mu1 * frob2(u) + hyper.mu2 * frob2(v))


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


def make_objective(kind, seed):
    x, a, s_x, s_a, r, u, v = random_instance(seed)
    return Objective(kind=kind, x=x, a=a, s_x=s_x, s_a=s_a, r=r), u, v


class TestObjectiveValue:
    def test_zero_params_f3_equals_r_norm(self):
        obj, u, v = make_objective(ObjectiveKind.F3, 0)
        hyper = HyperParams(mu1=0.0, mu2=0.0)
        value = objective_value(obj, np.zeros_like(u), np.zeros_like(v), hyper)
        assert value == pytest.approx(np.sum(obj.r ** 2))

    def test_exact_fit_is_zero(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((8, 5))
        a = rng.standard_normal((6, 4))
        u = rng.standard_normal((5, 2))
        v = rng.standard_normal((4, 2))
        r = x @ u @ v.T @ a.T
        obj = Objective(kind=ObjectiveKind.F3, x=x, a=a, r=r)
        hyper = HyperParams(mu1=0.0, mu2=0.0)
        assert objective_value(obj, u, v, hyper) == pytest.approx(0.0, abs=1e-18)

    @pytest.mark.parametrize("kind", list(ObjectiveKind))
    def test_matches_naive_loop_evaluation(self, kind):
        x, a, s_x, s_a, r, u, v = random_instance(42)
        obj = Objective(kind=kind, x=x, a=a, s_x=s_x, s_a=s_a, r=r)
        hyper = HyperParams(mu1=0.3, mu2=0.7, alpha=0.9, beta=1.1, gamma=1.3)
        expected = naive_objective(kind, x, a, s_x, s_a, r, u, v, hyper)
        assert objective_value(obj, u, v, hyper) == pytest.approx(expected, rel=1e-12)

    def test_missing_target_rejected(self):
        x, a, s_x, s_a, r, u, v = random_instance(2)
        with pytest.raises(ValueError, match="requires s_x"):
            Objective(kind=ObjectiveKind.F1, x=x, a=a)


# the targets each objective fits, as the paper defines f1-f4
FITTED = {ObjectiveKind.F1: {"s_x"}, ObjectiveKind.F2: {"s_a"},
          ObjectiveKind.F3: {"r"}, ObjectiveKind.F4: {"s_x", "s_a", "r"}}


class TestTargetsOfEachKind:
    @pytest.mark.parametrize("name", ["s_x", "s_a", "r"])
    @pytest.mark.parametrize("kind", list(ObjectiveKind))
    def test_objective_requires_exactly_the_fitted_targets(self, kind, name):
        x, a, s_x, s_a, r, u, v = random_instance(3)
        targets = {"s_x": s_x, "s_a": s_a, "r": r, name: None}
        if name in FITTED[kind]:
            with pytest.raises(ValueError, match=f"objective {kind.value} "
                                                 f"requires {name}$"):
                Objective(kind=kind, x=x, a=a, **targets)
        else:
            obj = Objective(kind=kind, x=x, a=a, **targets)
            assert getattr(obj, name) is None

    @pytest.mark.parametrize("kind", list(ObjectiveKind))
    def test_build_objective_sets_exactly_the_fitted_targets(self, kind):
        res = generate(SynthConfig(n=6, m=5, d=4, l=3, latent_t=2, seed=4))
        obj = build_objective(kind, res.x.features, res.a.features,
                              res.preferences)
        built = {name for name in ("s_x", "s_a", "r")
                 if getattr(obj, name) is not None}
        assert built == FITTED[kind]
        if "r" in built:
            np.testing.assert_array_equal(obj.r, res.preferences.scores)


class TestGradient:
    def test_zero_at_exact_fit_without_regularization(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((8, 5))
        a = rng.standard_normal((6, 4))
        u = rng.standard_normal((5, 2))
        v = rng.standard_normal((4, 2))
        obj = Objective(kind=ObjectiveKind.F3, x=x, a=a, r=x @ u @ v.T @ a.T)
        hyper = HyperParams(mu1=0.0, mu2=0.0)
        gu, gv = gradient(obj, u, v, hyper)
        np.testing.assert_allclose(gu, 0.0, atol=1e-9)
        np.testing.assert_allclose(gv, 0.0, atol=1e-9)

    def test_regularizer_only_gradient(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((8, 5))
        a = rng.standard_normal((6, 4))
        u = rng.standard_normal((5, 2))
        v = np.zeros((4, 2))
        obj = Objective(kind=ObjectiveKind.F1, x=x, a=a, s_x=x @ u @ u.T @ x.T)
        hyper = HyperParams(mu1=0.8, mu2=0.0)
        gu, _ = gradient(obj, u, v, hyper)
        np.testing.assert_allclose(gu, 2 * 0.8 * u, atol=1e-9)

    @pytest.mark.parametrize("kind", list(ObjectiveKind))
    def test_finite_difference_agreement(self, kind):
        hyper = HyperParams(mu1=0.2, mu2=0.4, alpha=0.7, beta=1.2, gamma=0.9)
        for seed in range(5):
            obj, u, v = make_objective(kind, seed)
            gu, gv = gradient(obj, u, v, hyper)
            fu, fv = finite_difference(obj, u, v, hyper)
            scale = max(np.abs(fu).max(), np.abs(fv).max(), 1.0)
            assert np.abs(gu - fu).max() / scale < 1e-5
            assert np.abs(gv - fv).max() / scale < 1e-5


class TestTrain:
    def test_noiseless_synthetic_recovery(self):
        result = generate(SynthConfig(n=20, m=10, d=6, l=5, latent_t=2, seed=6))
        target = centered_scores(result)
        hyper = HyperParams(mu1=0.0, mu2=0.0, t=2, max_iters=20000,
                            rel_tol=1e-16, seed=0)
        params, trace = train(ObjectiveKind.F3, result.x, result.a,
                              result.preferences, hyper, fit_matrix=target)
        assert trace.objective_values[-1] < 1e-6 * np.sum(target ** 2)

    def test_max_iters_zero_returns_initialization(self, small_tables):
        x, a, _ = small_tables
        r = PreferenceMatrix(x.entity_ids, a.entity_ids,
                             np.tile([3.0, 2.0, 1.0, 0.0], (3, 1)))
        hyper = HyperParams(max_iters=0, t=2, seed=9)
        params, trace = train(ObjectiveKind.F3, x, a, r, hyper)
        assert trace.iterations == 0
        obj = build_objective(ObjectiveKind.F3,
                              params.transform_dataset(x.features),
                              params.transform_workflow(a.features), r)
        u0, v0 = initialize(obj, 2, hyper)
        np.testing.assert_array_equal(params.u, u0)
        np.testing.assert_array_equal(params.v, v0)

    def test_same_seed_identical_trace(self, small_tables):
        x, a, _ = small_tables
        r = PreferenceMatrix(x.entity_ids, a.entity_ids,
                             [[3, 2, 1, 0], [0, 1, 2, 3], [1.5, 1.5, 1.5, 1.5]])
        hyper = HyperParams(max_iters=50, seed=21)
        _, t1 = train(ObjectiveKind.F4, x, a, r, hyper)
        _, t2 = train(ObjectiveKind.F4, x, a, r, hyper)
        assert t1.objective_values == t2.objective_values
        assert t1.step_sizes == t2.step_sizes

    @pytest.mark.parametrize("kind", list(ObjectiveKind))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_monotone_descent(self, kind, seed):
        obj, u, v = make_objective(kind, seed)
        hyper = HyperParams(mu1=0.1, mu2=0.1, max_iters=200, seed=seed)
        u0, v0 = initialize(obj, 2, hyper)
        _, _, trace = minimize(obj, u0, v0, hyper)
        values = np.array(trace.objective_values)
        assert np.all(np.diff(values) <= 0)

    def test_psd_induced_metrics(self):
        obj, _, _ = make_objective(ObjectiveKind.F4, 7)
        hyper = HyperParams(max_iters=100, seed=7)
        u0, v0 = initialize(obj, 2, hyper)
        u, v, _ = minimize(obj, u0, v0, hyper)
        for w in (u @ u.T, v @ v.T):
            eigvals = np.linalg.eigvalsh(w)
            assert eigvals.min() > -1e-10

    def test_default_t_is_min_numeric_rank(self, small_tables):
        x, a, _ = small_tables
        r = PreferenceMatrix(x.entity_ids, a.entity_ids,
                             [[3, 2, 1, 0], [0, 1, 2, 3], [2, 0.5, 0.5, 3]])
        hyper = HyperParams(max_iters=1, seed=0)
        params, _ = train(ObjectiveKind.F3, x, a, r, hyper)
        # n=3 datasets of 5 features standardized: rank <= 2 (centered rows)
        assert params.t == 2

    def test_svd_warm_start_exact_target(self):
        result = generate(SynthConfig(n=20, m=10, d=6, l=5, latent_t=2, seed=12))
        target = centered_scores(result)
        hyper = HyperParams(mu1=0.0, mu2=0.0, t=2, max_iters=5,
                            init=InitScheme.SVD_WARM_START, seed=0)
        params, trace = train(ObjectiveKind.F3, result.x, result.a,
                              result.preferences, hyper, fit_matrix=target)
        assert trace.objective_values[0] < 1e-12 * np.sum(target ** 2)


class TestF4SpecialCases:
    def test_f4_reduces_to_f1(self):
        rng = np.random.default_rng(30)
        for seed in range(20):
            obj4, u, v = make_objective(ObjectiveKind.F4, seed + 100)
            obj1 = Objective(kind=ObjectiveKind.F1, x=obj4.x, a=obj4.a, s_x=obj4.s_x)
            h4 = HyperParams(alpha=1.0, beta=0.0, gamma=0.0, mu1=0.6, mu2=0.0)
            h1 = HyperParams(mu1=0.6, mu2=0.0)
            f4 = objective_value(obj4, u, v, h4)
            f1 = objective_value(obj1, u, v, h1)
            assert abs(f4 - f1) <= 1e-10 * max(abs(f1), 1.0)

    def test_gamma_zero_decouples_u_trajectory(self):
        obj4, _, _ = make_objective(ObjectiveKind.F4, 55)
        obj1 = Objective(kind=ObjectiveKind.F1, x=obj4.x, a=obj4.a, s_x=obj4.s_x)
        h4 = HyperParams(alpha=1.0, beta=0.0, gamma=0.0, mu1=0.3, mu2=0.0,
                         max_iters=60, seed=55)
        h1 = HyperParams(mu1=0.3, mu2=0.0, max_iters=60, seed=55)
        u0, v0 = initialize(obj4, 2, h4)
        u4, _, _ = minimize(obj4, u0, v0.copy(), h4)
        u1, _, _ = minimize(obj1, u0, v0.copy(), h1)
        np.testing.assert_allclose(u4, u1, atol=1e-10)


def unreduced(kind, obj, u, v, hyper):
    """Objective value and gradient straight from the definitions, with
    every residual taken in the full n x n, m x m and n x m spaces."""
    x, a = obj.x, obj.a
    weights = {ObjectiveKind.F1: (1.0, 0.0, 0.0, hyper.mu1, 0.0),
               ObjectiveKind.F2: (0.0, 1.0, 0.0, 0.0, hyper.mu2),
               ObjectiveKind.F3: (0.0, 0.0, 1.0, hyper.mu1, hyper.mu2),
               ObjectiveKind.F4: (hyper.alpha, hyper.beta, hyper.gamma,
                                  hyper.mu1, hyper.mu2)}[kind]
    wx, wa, wr, mu1, mu2 = weights
    value = mu1 * np.sum(u * u) + mu2 * np.sum(v * v)
    gu, gv = 2 * mu1 * u, 2 * mu2 * v
    if wx:
        e = obj.s_x - x @ u @ u.T @ x.T
        value += wx * np.sum(e * e)
        gu = gu - 4 * wx * x.T @ e @ x @ u
    if wa:
        e = obj.s_a - a @ v @ v.T @ a.T
        value += wa * np.sum(e * e)
        gv = gv - 4 * wa * a.T @ e @ a @ v
    if wr:
        e = obj.r - x @ u @ v.T @ a.T
        value += wr * np.sum(e * e)
        gu = gu - 2 * wr * x.T @ e @ a @ v
        gv = gv - 2 * wr * a.T @ e.T @ x @ u
    return value, gu, gv


weight = st.one_of(st.just(0.0), st.floats(1e-3, 3.0))


@st.composite
def problems(draw):
    """Random shapes, n < d and m < l included, plus hyperparameters."""
    n, m = draw(st.integers(2, 12)), draw(st.integers(2, 12))
    d, l = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    t = draw(st.integers(1, 4))
    hyper = HyperParams(mu1=draw(weight), mu2=draw(weight), alpha=draw(weight),
                        beta=draw(weight), gamma=draw(weight))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x, a = rng.standard_normal((n, d)), rng.standard_normal((m, l))
    u, v = rng.standard_normal((d, t)), rng.standard_normal((l, t))
    return rng, x, a, u, v, hyper


def symmetric(rng, k):
    s = rng.standard_normal((k, k))
    return 0.5 * (s + s.T)


class TestReducedObjectiveOracle:
    """objective_value and gradient work in the space of the thin QRs of X
    and A; they must agree with the unreduced definitions."""

    @settings(deadline=None, max_examples=200)
    @given(problems())
    def test_value_and_gradient_match_unreduced_oracle(self, problem):
        rng, x, a, u, v, hyper = problem
        s_x, s_a = symmetric(rng, len(x)), symmetric(rng, len(a))
        r = rng.standard_normal((len(x), len(a)))
        for kind in ObjectiveKind:
            obj = Objective(kind=kind, x=x, a=a, s_x=s_x, s_a=s_a, r=r)
            value, gu, gv = unreduced(kind, obj, u, v, hyper)
            assert objective_value(obj, u, v, hyper) == pytest.approx(
                value, rel=1e-10)
            got_u, got_v = gradient(obj, u, v, hyper)
            scale = max(np.abs(gu).max(), np.abs(gv).max())
            np.testing.assert_allclose(got_u, gu, rtol=1e-10, atol=1e-10 * scale)
            np.testing.assert_allclose(got_v, gv, rtol=1e-10, atol=1e-10 * scale)

    @settings(deadline=None, max_examples=150)
    @given(problems(), st.booleans())
    def test_constants_nonnegative_and_zero_in_span(self, problem, in_span):
        rng, x, a, _, _, _ = problem
        if in_span:   # every target of the form X B X', A D A', X C A'
            s_x = x @ symmetric(rng, x.shape[1]) @ x.T
            s_a = a @ symmetric(rng, a.shape[1]) @ a.T
            r = x @ rng.standard_normal((x.shape[1], a.shape[1])) @ a.T
        else:
            s_x, s_a = symmetric(rng, len(x)), symmetric(rng, len(a))
            r = rng.standard_normal((len(x), len(a)))
        red = Objective(kind=ObjectiveKind.F4, x=x, a=a, s_x=s_x, s_a=s_a,
                        r=r).reduced
        for c, target in ((red.c_x, s_x), (red.c_a, s_a), (red.c_r, r)):
            assert c >= 0.0
            if in_span:
                assert c <= 1e-12 * np.sum(target * target)


def descend_alone(obj, u0, v0, hyper):
    """The Armijo descent of minimize written out for one problem, on
    Python floats: the trajectory that every problem of a stack must
    reproduce bit for bit."""
    u, v = u0.copy(), v0.copy()
    f = objective_value(obj, u, v, hyper)
    values, steps, norms = [f], [], []
    step, reason = 1.0, StopReason.MAX_ITERS
    for _ in range(hyper.max_iters):
        gu, gv = gradient(obj, u, v, hyper)
        g_sq = float(np.vdot(gu, gu)) + float(np.vdot(gv, gv))
        norms.append(float(np.sqrt(g_sq)))
        if g_sq == 0.0:
            reason = StopReason.REL_TOL
            break
        s = step * 2.0
        for _ in range(ml.MAX_BACKTRACKS):
            f_new = objective_value(obj, u - s * gu, v - s * gv, hyper)
            if f_new <= f - ml.ARMIJO_ACCEPT * s * g_sq:
                break
            s *= ml.ARMIJO_SHRINK
        else:
            norms.pop()
            reason = StopReason.LINE_SEARCH_FAILURE
            break
        u, v, step = u - s * gu, v - s * gv, s
        steps.append(s)
        values.append(f_new)
        decrease = (f - f_new) / max(abs(f), np.finfo(float).tiny)
        f = f_new
        if decrease < hyper.rel_tol:
            reason = StopReason.REL_TOL
            break
    return u, v, TrainTrace(values, steps, norms, reason)


def assert_same_descent(got, expected):
    (u, v, trace), (u_ref, v_ref, ref) = got, expected
    np.testing.assert_array_equal(u, u_ref, strict=True)
    np.testing.assert_array_equal(v, v_ref, strict=True)
    assert trace.objective_values == ref.objective_values
    assert trace.step_sizes == ref.step_sizes
    assert trace.gradient_norms == ref.gradient_norms
    assert trace.reason is ref.reason
    assert all(type(x) is float for x in (trace.objective_values
                                          + trace.step_sizes
                                          + trace.gradient_norms))


@st.composite
def stacks(draw):
    """Problems of shared shapes (n <= d and t = 1 included), with kinds
    and targets drawn per problem, some starting from U = V = 0, where every
    gradient is exactly zero; plus hyperparameters under which problems
    stop on rel_tol, on line_search_failure or at max_iters."""
    n, m = draw(st.integers(2, 9)), draw(st.integers(2, 9))
    d, l, t = draw(st.integers(1, 7)), draw(st.integers(1, 7)), draw(st.integers(1, 3))
    hyper = HyperParams(mu1=draw(weight), mu2=draw(weight), alpha=draw(weight),
                        beta=draw(weight), gamma=draw(weight),
                        max_iters=draw(st.integers(0, 40)),
                        rel_tol=draw(st.sampled_from((1e-12, 1e-5, 1e-3, 3e-2))))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    problems = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(ObjectiveKind))
        targets = {"s_x": symmetric(rng, n), "s_a": symmetric(rng, m),
                   "r": rng.standard_normal((n, m))}
        if draw(st.booleans()):      # only the targets the kind needs
            needs = {ObjectiveKind.F1: ("s_x",), ObjectiveKind.F2: ("s_a",),
                     ObjectiveKind.F3: ("r",)}.get(kind, tuple(targets))
            targets = {name: targets[name] for name in needs}
        obj = Objective(kind=kind, x=rng.standard_normal((n, d)),
                        a=rng.standard_normal((m, l)), **targets)
        scale = draw(st.sampled_from((0.0, 0.3, 1.0, 5.0)))
        problems.append((obj, scale * rng.standard_normal((d, t)),
                         scale * rng.standard_normal((l, t))))
    return problems, hyper, draw(st.sampled_from((ml.MAX_BACKTRACKS, 1, 2)))


class TestStackedDescentOracle:
    """minimize_many descends every problem of a stack in one loop; each
    problem must follow, bit for bit, the descent it takes alone."""

    @settings(deadline=None, max_examples=150)
    @given(stacks())
    def test_stack_equals_one_at_a_time(self, case):
        problems, hyper, backtracks = case
        with mock.patch.object(ml, "MAX_BACKTRACKS", backtracks):
            stacked = minimize_many(problems, hyper)
            for problem, got in zip(problems, stacked):
                expected = descend_alone(*problem, hyper)
                assert_same_descent(got, expected)
                assert_same_descent(minimize(*problem, hyper), expected)

    @staticmethod
    def stack_of_four(kind, seed):
        rng = np.random.default_rng(seed)
        problems = []
        for _ in range(4):
            obj = Objective(kind=kind, x=rng.standard_normal((6, 7)),
                            a=rng.standard_normal((5, 3)),
                            s_x=symmetric(rng, 6), s_a=symmetric(rng, 5),
                            r=rng.standard_normal((6, 5)))
            problems.append((obj, rng.standard_normal((7, 2)),
                             rng.standard_normal((3, 2))))
        return problems

    @pytest.mark.parametrize("kind", list(ObjectiveKind))
    @pytest.mark.parametrize("stop", ["rel_tol", "zero_gradient",
                                      "line_search_failure"])
    def test_one_problem_stops_while_the_others_go_on(self, kind, stop):
        problems = self.stack_of_four(kind, 17)
        hyper = HyperParams(mu1=0.2, mu2=0.3, max_iters=30, rel_tol=1e-6)
        obj, u0, v0 = problems[1]
        if stop == "rel_tol":              # a start near a stationary point
            u0, v0, _ = minimize(obj, u0, v0, HyperParams(
                mu1=0.2, mu2=0.3, max_iters=3000, rel_tol=1e-15))
        elif stop == "zero_gradient":      # every gradient is 0 at U = V = 0
            u0, v0 = np.zeros_like(u0), np.zeros_like(v0)
        else:                              # so far out that no step is short enough
            u0, v0 = 1e10 * u0, 1e10 * v0
        problems[1] = (obj, u0, v0)
        stacked = minimize_many(problems, hyper)
        for problem, got in zip(problems, stacked):
            assert_same_descent(got, descend_alone(*problem, hyper))
        traces = [trace for _, _, trace in stacked]
        assert traces[1].reason.value == stop.replace("zero_gradient", "rel_tol")
        assert traces[1].iterations < min(traces[i].iterations for i in (0, 2, 3))

    def test_zero_gradient_reached_after_a_step(self):
        # f3 on R = 0 from V = 0: gU = 2 mu1 U and gV = 0, so with
        # mu1 = 0.25 the first trial step, 2, lands exactly on U = 0,
        # where every gradient is 0
        problems = self.stack_of_four(ObjectiveKind.F3, 5)
        obj, u0, v0 = problems[2]
        problems[2] = (Objective(kind=ObjectiveKind.F3, x=obj.x, a=obj.a,
                                 r=np.zeros_like(obj.r)), u0, np.zeros_like(v0))
        hyper = HyperParams(mu1=0.25, mu2=0.3, max_iters=30, rel_tol=1e-12)
        stacked = minimize_many(problems, hyper)
        for problem, got in zip(problems, stacked):
            assert_same_descent(got, descend_alone(*problem, hyper))
        trace = stacked[2][2]
        assert trace.reason is StopReason.REL_TOL and trace.iterations == 1
        assert trace.gradient_norms[0] > 0.0 and trace.gradient_norms[1] == 0.0
        assert all(t.iterations > 1 for i, (_, _, t) in enumerate(stacked) if i != 2)

    def test_long_run_after_a_stop(self):
        # a problem stopped at a zero gradient in iteration 0 keeps step 0
        # while the others run past iteration 1,024, where a step doubled
        # once per iteration from 1 overflows
        problems = self.stack_of_four(ObjectiveKind.F4, 11)
        obj, u0, v0 = problems[0]
        problems[0] = (obj, np.zeros_like(u0), np.zeros_like(v0))
        hyper = HyperParams(mu1=0.01, mu2=0.01, max_iters=1500, rel_tol=1e-300)
        stacked = minimize_many(problems, hyper)
        for problem, got in zip(problems, stacked):
            assert_same_descent(got, descend_alone(*problem, hyper))
        first, *others = [trace for _, _, trace in stacked]
        assert first.reason is StopReason.REL_TOL and first.iterations == 0
        assert min(t.iterations for t in others) >= 1100

    def test_max_iters_zero_returns_each_start(self):
        problems = self.stack_of_four(ObjectiveKind.F4, 3)
        for (_, u0, v0), (u, v, trace) in zip(
                problems, minimize_many(problems, HyperParams(max_iters=0))):
            np.testing.assert_array_equal(u, u0)
            np.testing.assert_array_equal(v, v0)
            assert trace.iterations == 0 and trace.reason is StopReason.MAX_ITERS
            assert len(trace.objective_values) == 1

    def test_train_many_equals_train(self, small_tables, tmp_path):
        x, a, _ = small_tables
        r = PreferenceMatrix(x.entity_ids, a.entity_ids,
                             [[3, 2, 1, 0], [0, 1, 2, 3], [2, 0.5, 0.5, 3]])
        hyper = HyperParams(max_iters=40, seed=4)
        problems = [(kind, x, a, r) for kind in ObjectiveKind]
        problems += [(ObjectiveKind.F4, x.drop_entity(i), a,
                      r.drop(dataset_index=i)) for i in range(3)]
        for k, (problem, (params, trace)) in enumerate(
                zip(problems, train_many(problems, hyper))):
            alone, alone_trace = train(*problem, hyper)
            save_model(tmp_path / f"many{k}.json", params)
            save_model(tmp_path / f"alone{k}.json", alone)
            assert (tmp_path / f"many{k}.json").read_bytes() \
                == (tmp_path / f"alone{k}.json").read_bytes()
            assert trace == alone_trace
