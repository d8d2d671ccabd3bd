import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metamine.data_model import (DescriptorTable, HyperParams, IngestError,
                                 PreferenceMatrix)
from metamine.evaluation import (MetaMiningData, Protocol, binomial_sign_test,
                                 compare_strategies, run_lodo, run_lodwo,
                                 run_lowo, top_k_performance)
from metamine.metric_learning import train
from metamine.recommend import OBJECTIVES, TASKS, Strategy, Task, predict
from metamine.synth import SynthConfig, SynthMode, generate

from conftest import make_tables


def synth_data(seed=0, n=8, m=5, noise=0.0,
               mode=SynthMode.EXACT_BILINEAR):
    res = generate(SynthConfig(n=n, m=m, d=4, l=3, latent_t=2,
                               noise_sigma=noise, seed=seed, mode=mode))
    return MetaMiningData(x=res.x, a=res.a, r=res.preferences,
                          performance=res.performance)


FAST = HyperParams(max_iters=60, rel_tol=1e-8, seed=0, t=2,
                   mu1=0.01, mu2=0.01)


class TestBinomialSignTest:
    def test_paper_values(self):
        assert binomial_sign_test(46, 65) == pytest.approx(0.001, abs=0.0005)
        assert binomial_sign_test(40, 65) == pytest.approx(0.082, abs=0.001)
        assert binomial_sign_test(32, 65) == pytest.approx(1.0)

    def test_single_loss(self):
        assert binomial_sign_test(0, 1) == 1.0

    def test_symmetry(self):
        for total in (5, 10, 35, 65):
            for wins in range(total + 1):
                assert binomial_sign_test(wins, total) == pytest.approx(
                    binomial_sign_test(total - wins, total), rel=1e-12)

    def test_all_wins(self):
        assert binomial_sign_test(10, 10) == pytest.approx(2 * 0.5 ** 10)

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError):
            binomial_sign_test(0, 0)

    def test_matches_exhaustive_tail_sum(self):
        # oracle: explicit sum of binomial pmf terms
        from math import comb
        total, wins = 12, 9
        upper = sum(comb(total, k) for k in range(wins, total + 1)) / 2 ** total
        lower = sum(comb(total, k) for k in range(0, wins + 1)) / 2 ** total
        expected = min(1.0, 2 * min(upper, lower))
        assert binomial_sign_test(wins, total) == pytest.approx(expected, rel=1e-12)

    def test_correctly_rounded_exact_value(self):
        from fractions import Fraction
        from math import comb
        for total in range(1, 81):
            for wins in range(total + 1):
                tail = sum(comb(total, k)
                           for k in range(min(wins, total - wins) + 1))
                expected = min(1.0, float(Fraction(2 * tail, 2 ** total)))
                assert binomial_sign_test(wins, total) == expected, (wins, total)

    def test_numpy_integers_count_as_python_integers(self):
        assert binomial_sign_test(np.int64(10), np.int64(70)) \
            == binomial_sign_test(10, 70)


class TestTopKPerformance:
    def test_k_equals_m_gives_overall_mean(self):
        perf = np.array([0.7, 0.9, 0.5, 0.6])
        assert top_k_performance(np.array([1, 2, 3, 4.0]), perf, 4) \
            == pytest.approx(perf.mean())

    def test_perfect_order_maximal(self):
        perf = np.array([0.7, 0.9, 0.5, 0.6])
        value = top_k_performance(perf, perf, 2)
        assert value == pytest.approx(np.sort(perf)[-2:].mean())

    def test_matches_sort_and_average_oracle(self):
        rng = np.random.default_rng(1)
        pred = rng.random(7)
        perf = rng.random(7)
        k = 3
        expected = perf[np.argsort(-pred, kind="stable")[:k]].mean()
        assert top_k_performance(pred, perf, k) == pytest.approx(expected)

    def test_ties_break_by_index(self):
        pred = np.array([1.0, 1.0, 1.0])
        perf = np.array([0.2, 0.9, 0.5])
        assert top_k_performance(pred, perf, 1) == pytest.approx(0.2)


class TestRunLodo:
    def test_fold_count_equals_n(self):
        data = synth_data(seed=2)
        report = run_lodo(data, [Strategy.DEFAULT, Strategy.EUCLIDEAN], FAST)
        assert len(report.folds) == data.x.n_entities

    def test_default_rho_computable(self):
        data = synth_data(seed=3)
        report = run_lodo(data, [Strategy.DEFAULT], FAST)
        assert report.aggregate(Strategy.DEFAULT, "rho") is not None

    def test_learning_strategies_run(self):
        data = synth_data(seed=4)
        report = run_lodo(data, [Strategy.DEFAULT, Strategy.EUCLIDEAN,
                                 Strategy.F1_KNN, Strategy.F3_DIRECT,
                                 Strategy.F4_DIRECT, Strategy.F4_KNN], FAST)
        for s in report.strategies:
            assert report.aggregate(s, "mae") is not None

    def test_aggregate_mae_is_mean_of_folds(self):
        data = synth_data(seed=5)
        report = run_lodo(data, [Strategy.DEFAULT], FAST)
        per_fold = [f.metrics[Strategy.DEFAULT]["mae"] for f in report.folds]
        assert report.aggregate(Strategy.DEFAULT, "mae") \
            == pytest.approx(np.mean(per_fold))

    def test_too_few_datasets_rejected(self):
        data = synth_data(seed=6)
        shrunk = MetaMiningData(
            x=data.x.drop_entity(0).drop_entity(0).drop_entity(0).drop_entity(0)
               .drop_entity(0).drop_entity(0),
            a=data.a, r=data.r, performance=data.performance)
        with pytest.raises(ValueError, match="at least 3"):
            run_lodo(shrunk, [Strategy.DEFAULT], FAST)

    def test_without_performance_rejected(self):
        # t5p needs P; a bundle read without it is a ValueError before any
        # fold, while LOWO, which scores no t5p, runs without P
        data = synth_data(seed=6)
        bare = MetaMiningData(x=data.x, a=data.a, r=data.r)
        with pytest.raises(ValueError, match="performance matrix P"):
            run_lodo(bare, [Strategy.DEFAULT], FAST)
        assert len(run_lowo(bare, [Strategy.DEFAULT], FAST).folds) == 5

    def test_no_leakage_from_held_out_row(self):
        """Perturbing the held-out row of R never changes training-fold
        models: predictions for that fold are bitwise identical."""
        from metamine.metric_learning import ObjectiveKind, train as train_model
        data = synth_data(seed=7)
        i = 2
        scores = data.r.scores.copy()
        scores[i] = scores[i][::-1].copy()
        perturbed = PreferenceMatrix(data.r.dataset_ids, data.r.workflow_ids, scores)
        m1, _ = train_model(ObjectiveKind.F3, data.x.drop_entity(i), data.a,
                            data.r.drop(dataset_index=i), FAST)
        m2, _ = train_model(ObjectiveKind.F3, data.x.drop_entity(i), data.a,
                            perturbed.drop(dataset_index=i), FAST)
        np.testing.assert_array_equal(m1.u, m2.u)
        np.testing.assert_array_equal(m1.v, m2.v)


class TestRunLowo:
    def test_fold_count_equals_m(self):
        data = synth_data(seed=9)
        report = run_lowo(data, [Strategy.DEFAULT, Strategy.EUCLIDEAN], FAST)
        assert len(report.folds) == data.a.n_entities

    def test_default_rho_is_na(self):
        data = synth_data(seed=10)
        report = run_lowo(data, [Strategy.DEFAULT], FAST)
        assert report.aggregate(Strategy.DEFAULT, "rho") is None
        assert all(math.isnan(f.metrics[Strategy.DEFAULT]["rho"])
                   for f in report.folds)
        assert any("constant" in n for n in report.notices)

    def test_f2_and_direct_strategies_run(self):
        data = synth_data(seed=11)
        report = run_lowo(data, [Strategy.DEFAULT, Strategy.F2_KNN,
                                 Strategy.F4_DIRECT], FAST)
        assert report.aggregate(Strategy.F2_KNN, "mae") is not None
        assert report.aggregate(Strategy.F4_DIRECT, "rho") is not None


class TestRunLodwo:
    def test_fold_count_is_n_times_m(self):
        data = synth_data(seed=12, n=4, m=4)
        hyper = HyperParams(max_iters=10, seed=0, t=2, mu1=0.01, mu2=0.01)
        report = run_lodwo(data, [Strategy.DEFAULT, Strategy.F3_DIRECT], hyper)
        assert len(report.folds) == 16

    def test_euclidean_excluded_with_notice(self):
        data = synth_data(seed=13, n=4, m=4)
        hyper = HyperParams(max_iters=5, seed=0, t=2)
        report = run_lodwo(data, [Strategy.DEFAULT, Strategy.EUCLIDEAN,
                                  Strategy.F4_DIRECT], hyper)
        assert Strategy.EUCLIDEAN not in report.strategies
        assert any("ec" in n and "not applicable" in n for n in report.notices)

    def test_default_prediction_is_training_grand_mean(self):
        data = synth_data(seed=14, n=4, m=4)
        hyper = HyperParams(max_iters=0, seed=0, t=2)
        report = run_lodwo(data, [Strategy.DEFAULT], hyper)
        for fold, (i, j) in zip(report.folds,
                                [(i, j) for i in range(4) for j in range(4)]):
            expected = data.r.drop(dataset_index=i, workflow_index=j).scores.mean()
            truth = data.r.scores[i, j]
            assert fold.metrics[Strategy.DEFAULT]["mae"] \
                == pytest.approx(abs(expected - truth))


class TestStrategyApplicability:
    @pytest.mark.parametrize("runner, strategy, task", [
        (run_lodo, Strategy.F2_KNN, "workflow ranking"),
        (run_lowo, Strategy.F1_KNN, "dataset ranking"),
        (run_lodwo, Strategy.F4_KNN, "pair scoring"),
    ])
    def test_inapplicable_strategy_excluded_with_notice(self, runner, strategy,
                                                        task):
        # f1 trains only U and f2 only V: neither can rank the other side
        data = synth_data(seed=4, n=4, m=4)
        report = runner(data, [Strategy.DEFAULT, strategy], FAST)
        assert report.strategies == [Strategy.DEFAULT]
        assert report.notices[0] == (f"strategy {strategy.value} is not "
                                     f"applicable to {task}; excluded")
        assert all(strategy not in f.metrics for f in report.folds)


class TestFoldErrors:
    @pytest.mark.parametrize("error", [
        pytest.param(KeyError("missing"), id="KeyError"),
        pytest.param(ValueError("empty training set"), id="ValueError")])
    def test_programming_error_propagates(self, monkeypatch, error):
        import metamine.recommend

        def broken(*args, **kwargs):
            raise error
        monkeypatch.setattr(metamine.recommend, "default_strategy", broken)
        with pytest.raises(type(error)):
            run_lodo(synth_data(seed=18), [Strategy.DEFAULT], FAST)


class TestBatchedRho:
    """Every rho of a protocol run comes from one stacked call, and equals
    what spearman gives for that fold and strategy alone."""

    def test_rho_equals_per_pair_spearman(self, monkeypatch):
        import dataclasses
        import metamine.evaluation
        from metamine.preference import spearman
        served = metamine.evaluation.predict
        altered = {}    # fold index -> what the default strategy predicts

        def predict(strategy, task, *args):
            pred = served(strategy, task, *args)
            if strategy is Strategy.DEFAULT:
                values = pred.values.copy()
                # a row per fold served, in fold order: one call may serve
                # one fold or a stack of them
                for row in values.reshape(-1, values.shape[-1]):
                    change = len(altered) % 3
                    if change == 1:
                        row[0] = math.nan          # rho is nan
                    elif change == 2:
                        row[:] = 1.0               # constant: rho is nan
                    altered[len(altered)] = row
                pred = dataclasses.replace(pred, values=values)
            return pred
        monkeypatch.setattr(metamine.evaluation, "predict", predict)
        data = synth_data(seed=6, n=9, m=6)
        strategies = [Strategy.DEFAULT, Strategy.EUCLIDEAN, Strategy.F4_DIRECT]
        for runner, truths in ((run_lodo, data.r.scores),
                               (run_lowo, data.r.scores.T)):
            altered.clear()
            report = runner(data, strategies, FAST)
            for k, (fold, truth) in enumerate(zip(report.folds, truths)):
                for s in strategies:
                    pred = (altered[k] if s is Strategy.DEFAULT
                            else fold.predictions[s])
                    want = spearman(pred, truth)
                    got = fold.metrics[s]["rho"]
                    assert np.float64(got).tobytes() == np.float64(want).tobytes()
                    assert list(fold.metrics[s])[:2] == ["rho", "mae"]
            assert all(f.failed == {} for f in report.folds)

    def test_rank_calls_independent_of_fold_count(self, monkeypatch):
        import metamine.preference
        ranked = metamine.preference._rank_correlations
        calls = []

        def counted(vectors):
            calls.append(vectors.shape)
            return ranked(vectors)
        monkeypatch.setattr(metamine.preference, "_rank_correlations", counted)
        hyper = HyperParams(max_iters=3, seed=0, t=2)
        counts = {}
        for n in (6, 20):
            data = synth_data(seed=7, n=n, m=6)
            for runner in (run_lodo, run_lowo, run_lodwo):
                for strategies in ([Strategy.DEFAULT, Strategy.EUCLIDEAN,
                                    Strategy.F3_DIRECT],
                                   [Strategy.DEFAULT, Strategy.F4_DIRECT]):
                    calls.clear()
                    runner(data, strategies, hyper)
                    counts.setdefault((runner.__name__, len(strategies)),
                                      []).append(len(calls))
        # every rho in one call (LODWO scores pairs: no rho), and the f4
        # models' similarity targets in one call per axis for all folds
        assert counts == {("run_lodo", 3): [1, 1], ("run_lodo", 2): [3, 3],
                          ("run_lowo", 3): [1, 1], ("run_lowo", 2): [3, 3],
                          ("run_lodwo", 3): [0, 0], ("run_lodwo", 2): [2, 2]}


class TestStackedMetricsBitForBit:
    """A protocol scores all its folds as one stack; each fold's metrics
    keep the bits of that fold scored alone. 140 entities a row reach
    numpy's recursive pairwise sum, which rows of 8 to 128 never do."""

    @pytest.mark.parametrize("runner, n, m", [(run_lowo, 140, 3),
                                              (run_lodo, 4, 140)])
    def test_each_fold_as_scored_alone(self, runner, n, m):
        from metamine.preference import spearman
        data = synth_data(seed=23, n=n, m=m, noise=0.5,
                          mode=SynthMode.NOISY_BILINEAR)
        report = runner(data, [Strategy.DEFAULT, Strategy.EUCLIDEAN], FAST)
        truths = data.r.scores if runner is run_lodo else data.r.scores.T
        for k, (fold, truth) in enumerate(zip(report.folds, truths)):
            for s, pred in fold.predictions.items():
                alone = {"rho": spearman(pred, truth),
                         "mae": float(np.mean(np.abs(pred - truth)))}
                if runner is run_lodo:
                    perf = data.performance.values[k]
                    alone["t5p"] = top_k_performance(pred, perf, 5)
                assert list(fold.metrics[s]) == list(alone)
                for name, value in alone.items():
                    got = fold.metrics[s][name]
                    assert type(got) is float
                    assert np.float64(got).tobytes() == np.float64(value).tobytes()

    def test_stacked_top_k_equals_its_rows(self):
        rng = np.random.default_rng(29)
        pred = rng.random((3, 7, 140))
        pred[0, 0, :9] = pred[0, 0, 0]          # ties break by index
        perf = rng.random((7, 140))
        stacked = top_k_performance(pred, perf, 5)
        assert stacked.shape == (3, 7)
        for s, rows in enumerate(pred):
            for k, row in enumerate(rows):
                alone = top_k_performance(row, perf[k], 5)
                assert type(alone) is float
                assert stacked[s, k].tobytes() == np.float64(alone).tobytes()


class TestSharedSetUp:
    """A protocol's folds share their set-up: no fold gets its own copy of
    X or A (drop_entity), the folds' R are gathered to predict by one drop
    of a stack of folds, each distinct target is built once (S_X of R less
    each held-out workflow, S_A of R less each held-out dataset) and each
    distinct fold X and A is standardized once, for f3 and f4 alike: n + m
    tables in LODWO, not 2nm."""

    @pytest.mark.parametrize("runner", [run_lodo, run_lowo, run_lodwo])
    def test_set_up_counts(self, monkeypatch, runner):
        import metamine.metric_learning as ml
        n, m = 6, 4
        counts = {"drop_entity": 0, "drop": 0, "s_x": 0, "s_a": 0, "standardized": 0}

        def counted(holder, name, count):
            method = getattr(holder, name)

            def wrapper(*args, **kwargs):
                count(*args)
                return method(*args, **kwargs)
            monkeypatch.setattr(holder, name, wrapper)

        def add(key, amount=1):
            counts[key] += amount
        counted(DescriptorTable, "drop_entity", lambda *_: add("drop_entity"))
        counted(PreferenceMatrix, "drop", lambda *_: add("drop"))
        # a stack of S_X's sources has n - 1 or n rows (datasets), S_A's m or fewer
        counted(ml, "similarity_stack", lambda scores: add(
            "s_x" if scores.shape[-2] >= n - 1 else "s_a", len(scores)))
        counted(ml, "standardize_stack", lambda features: add("standardized", len(features)))
        hyper = HyperParams(max_iters=3, seed=0, t=2)
        runner(synth_data(seed=19, n=n, m=m),
               [Strategy.DEFAULT, Strategy.F3_DIRECT, Strategy.F4_DIRECT], hyper)
        assert counts == {
            run_lodo: {"drop_entity": 0, "drop": 1, "s_x": 1, "s_a": n,
                       "standardized": n + 1},
            run_lowo: {"drop_entity": 0, "drop": 1, "s_x": m, "s_a": 1,
                       "standardized": 1 + m},
            run_lodwo: {"drop_entity": 0, "drop": 1, "s_x": m, "s_a": n,
                        "standardized": n + m}}[runner]


class TestCompareStrategies:
    def make_report(self, a_vals, b_vals, metric="mae"):
        from metamine.evaluation import EvaluationReport, FoldResult
        folds = [FoldResult(held_out=i,
                            metrics={Strategy.F4_DIRECT: {metric: av},
                                     Strategy.DEFAULT: {metric: bv}})
                 for i, (av, bv) in enumerate(zip(a_vals, b_vals))]
        return EvaluationReport(protocol=Protocol.LODO,
                                strategies=[Strategy.DEFAULT, Strategy.F4_DIRECT],
                                folds=folds)

    def test_identical_predictions_no_wins(self):
        report = self.make_report([1.0] * 6, [1.0] * 6)
        wins, total, p = compare_strategies(report, Strategy.F4_DIRECT,
                                            Strategy.DEFAULT, "mae")
        assert (wins, total) == (0, 6)
        assert p == pytest.approx(min(1.0, 2 * 0.5 ** 6))

    def test_dominant_strategy(self):
        report = self.make_report([0.1] * 8, [0.9] * 8)  # lower mae wins
        wins, total, p = compare_strategies(report, Strategy.F4_DIRECT,
                                            Strategy.DEFAULT, "mae")
        assert (wins, total) == (8, 8)
        assert p == pytest.approx(min(1.0, 2 * 0.5 ** 8))

    def test_mixed_tally(self):
        rng = np.random.default_rng(15)
        a = rng.random(20)
        b = rng.random(20)
        report = self.make_report(list(a), list(b))
        wins, total, p = compare_strategies(report, Strategy.F4_DIRECT,
                                            Strategy.DEFAULT, "mae")
        assert wins == int(np.sum(a < b))
        assert total == 20
        assert p == pytest.approx(binomial_sign_test(wins, 20))

    def test_higher_is_better_for_rho(self):
        report = self.make_report([0.9, 0.9], [0.1, 0.1], metric="rho")
        wins, total, _ = compare_strategies(report, Strategy.F4_DIRECT,
                                            Strategy.DEFAULT, "rho")
        assert (wins, total) == (2, 2)

    def test_na_folds_skipped(self):
        report = self.make_report([0.5, float("nan"), 0.5],
                                  [0.9, 0.9, float("nan")])
        wins, total, _ = compare_strategies(report, Strategy.F4_DIRECT,
                                            Strategy.DEFAULT, "mae")
        assert (wins, total) == (1, 1)

    def test_all_na_gives_none_p(self):
        report = self.make_report([float("nan")] * 3, [1.0] * 3)
        wins, total, p = compare_strategies(report, Strategy.F4_DIRECT,
                                            Strategy.DEFAULT, "mae")
        assert (wins, total, p) == (0, 0, None)

    def test_unshared_fold_raises_in_to_dict_as_in_compare(self):
        report = self.make_report([0.1, 0.2, 0.3], [0.9, 0.8, 0.7])
        del report.folds[1].metrics[Strategy.DEFAULT]
        with pytest.raises(ValueError, match="share every fold") as compared:
            compare_strategies(report, Strategy.F4_DIRECT, Strategy.DEFAULT,
                               "mae")
        with pytest.raises(ValueError) as serialized:
            report.to_dict()
        assert str(serialized.value) == str(compared.value)


class TestReportSerialization:
    def test_json_round_trip_and_na_rendering(self):
        import json
        data = synth_data(seed=16)
        report = run_lowo(data, [Strategy.DEFAULT, Strategy.EUCLIDEAN], FAST)
        doc = report.to_dict()
        text = json.dumps(doc, sort_keys=True)
        assert json.loads(text) == doc
        assert doc["aggregates"]["def"]["rho"] is None

    def test_text_table_mentions_strategies_and_na(self):
        data = synth_data(seed=17)
        report = run_lowo(data, [Strategy.DEFAULT, Strategy.EUCLIDEAN], FAST)
        table = report.render_table()
        assert "def" in table and "ec" in table
        assert "NA" in table
        assert "delta" in table


class TestValidationErrors:
    """The checks each protocol and helper makes on its input."""

    @staticmethod
    def data(n, m):
        x, a, p = make_tables(n=n, m=m)
        r = PreferenceMatrix(x.entity_ids, a.entity_ids,
                             np.tile(np.arange(m, dtype=float), (n, 1)))
        return MetaMiningData(x=x, a=a, r=r, performance=p)

    def test_lowo_needs_three_workflows(self):
        with pytest.raises(ValueError, match="needs at least 3 workflows"):
            run_lowo(self.data(n=4, m=2), [Strategy.DEFAULT], FAST)

    def test_lodo_needs_two_workflows(self):
        # one workflow leaves every fold one value to rank
        with pytest.raises(ValueError, match="and 2 workflows"):
            run_lodo(self.data(n=5, m=1), [Strategy.DEFAULT], FAST)

    def test_lowo_needs_two_datasets(self):
        with pytest.raises(ValueError, match="and 2 datasets"):
            run_lowo(self.data(n=1, m=4), [Strategy.DEFAULT], FAST)

    def test_lodwo_needs_three_of_each(self):
        with pytest.raises(ValueError, match="needs at least 3 of each entity"):
            run_lodwo(self.data(n=2, m=4), [Strategy.DEFAULT], FAST)

    @pytest.mark.parametrize("runner, n, m, message", [
        (run_lodo, 2, 2, "leave-one-dataset-out needs at least 3 datasets "
                         "and 2 workflows"),
        (run_lodo, 3, 1, "leave-one-dataset-out needs at least 3 datasets "
                         "and 2 workflows"),
        (run_lodo, 3, 2, None),
        (run_lowo, 1, 3, "leave-one-workflow-out needs at least 3 workflows "
                         "and 2 datasets"),
        (run_lowo, 2, 2, "leave-one-workflow-out needs at least 3 workflows "
                         "and 2 datasets"),
        (run_lowo, 2, 3, None),
        (run_lodwo, 2, 3, "leave-one-of-each-out needs at least 3 of each entity"),
        (run_lodwo, 3, 2, "leave-one-of-each-out needs at least 3 of each entity"),
        (run_lodwo, 3, 3, None),
    ])
    def test_size_bounds(self, runner, n, m, message):
        # one entity short on either axis is an IngestError with the
        # protocol's message; the fewest of each runs every fold
        data = self.data(n=n, m=m)
        strategies = [Strategy.DEFAULT, Strategy.F4_DIRECT]
        if message is not None:
            with pytest.raises(IngestError) as raised:
                runner(data, strategies, FAST)
            assert str(raised.value) == message
        else:
            report = runner(data, strategies, FAST)
            assert len(report.folds) == {run_lodo: n, run_lowo: m,
                                         run_lodwo: n * m}[runner]
            assert report.strategies == strategies

    @pytest.mark.parametrize("wins, total, message", [
        (5, 3, r"wins must lie in \[0, total\]"),
        (-1, 3, r"wins must lie in \[0, total\]"),
        (0, 0, "total must be positive"),
    ])
    def test_sign_test_arguments(self, wins, total, message):
        with pytest.raises(ValueError, match=message):
            binomial_sign_test(wins, total)

    def test_top_k_beyond_the_workflows(self):
        with pytest.raises(ValueError, match="k exceeds the number of workflows"):
            top_k_performance([0.3, 0.1, 0.2], [0.5, 0.6, 0.7], k=4)


def oracle_data(seed=3, n=7, m=6):
    """A noisy synth bundle with d = 3 < l = 4, whose first X column is 1
    on dataset 2 and 0 elsewhere: the folds that hold dataset 2 out see
    that column constant, so their X has rank 2, and at t = None their
    models get t = 2 where every other fold's get 3."""
    res = generate(SynthConfig(n=n, m=m, d=3, l=4, latent_t=2, noise_sigma=0.4,
                               seed=seed, mode=SynthMode.NOISY_BILINEAR))
    features = res.x.features.copy()
    features[:, 0] = np.arange(n) == 2
    x = DescriptorTable(res.x.entity_ids, features, res.x.feature_names)
    return MetaMiningData(x=x, a=res.a, r=res.preferences,
                          performance=res.performance)


ORACLE = HyperParams(max_iters=40, seed=0, mu1=0.05, mu2=0.05, n_neighbors=3)
# runner -> its task, the held-out (dataset, workflow) of fold k of an n x m
# bundle (None for an axis kept whole), and the middle fold the oracle
# checks: on LODO and LODWO one that holds dataset 2 out
PROTOCOL_FOLDS = {
    run_lodo: (Task.WORKFLOW_PREFS, lambda k, n, m: (k, None), lambda n, m: 2),
    run_lowo: (Task.DATASET_PREFS, lambda k, n, m: (None, k), lambda n, m: m // 2),
    run_lodwo: (Task.PAIR_SCORE, lambda k, n, m: divmod(k, m), lambda n, m: 2 * m + 3),
}


def fold_built_alone(runner, data, i, j, hyper, r=None):
    """What a fold holding out (i, j) predicts when built on its own:
    drop_entity, PreferenceMatrix.drop (of r, the bundle's R by default),
    train alone per learning strategy and predict alone, for every
    strategy that serves the protocol's task. Returns (strategy ->
    values, flags), the flags tagged as a report tags them."""
    task, _, _ = PROTOCOL_FOLDS[runner]
    x = data.x if i is None else data.x.drop_entity(i)
    a = data.a if j is None else data.a.drop_entity(j)
    r = (data.r if r is None else r).drop(dataset_index=i, workflow_index=j)
    x_new = None if i is None else data.x.features[i]
    a_new = None if j is None else data.a.features[j]
    values, flags = {}, []
    for s in Strategy:
        if task not in TASKS[s]:
            continue
        model = train(OBJECTIVES[s], x, a, r, hyper)[0] if s in OBJECTIVES else None
        pred = predict(s, task, x_new, a_new, x, a, r, model, hyper.n_neighbors)
        values[s] = pred.values
        flags += [f"{s.value}:{flag}" for flag in pred.flags]
    return values, flags


def fold_differences(fold, expected):
    """Where a report's fold differs from (values, flags), byte for byte."""
    values, flags = expected
    found = [s for s in values if np.asarray(fold.predictions[s]).tobytes()
             != np.asarray(values[s]).tobytes()
             or np.shape(fold.predictions[s]) != np.shape(values[s])]
    if list(fold.predictions) != list(values):
        found.append("strategies")
    return found + (["flags"] if fold.flags != flags else [])


class TestFoldOracle:
    """Each fold of a protocol run is the fold built on its own: the
    first, a middle and the last fold of LODO, LOWO and LODWO predict and
    flag byte for byte what drop_entity, PreferenceMatrix.drop, train
    alone and predict alone give them, with every strategy that serves
    the task, kNN ones included, at t = None (one fold's t differs)."""

    @pytest.mark.parametrize("runner", [run_lodo, run_lowo, run_lodwo])
    def test_folds_equal_folds_built_alone(self, runner):
        data = oracle_data()
        n, m = data.r.scores.shape
        report = runner(data, list(Strategy), ORACLE)
        _, where, middle = PROTOCOL_FOLDS[runner]
        for k in (0, middle(n, m), len(report.folds) - 1):
            expected = fold_built_alone(runner, data, *where(k, n, m), ORACLE)
            assert fold_differences(report.folds[k], expected) == [], k

    def test_one_fold_picks_another_t(self):
        data = oracle_data()
        ts = [train("f4", data.x.drop_entity(i), data.a, data.r.drop(dataset_index=i),
                    HyperParams(max_iters=0))[0].t for i in range(7)]
        assert ts == [3, 3, 2, 3, 3, 3, 3]

    @pytest.mark.parametrize("runner", [run_lodo, run_lowo, run_lodwo])
    def test_a_fold_fed_its_neighbours_r_differs(self, runner):
        """The check can fail: fold k built from the R that fold k + 1
        trains on (the bundle's R with k + 1's held-out entries in k's
        place) predicts other bytes than the run's fold k."""
        data = oracle_data()
        n, m = data.r.scores.shape
        report = runner(data, list(Strategy), ORACLE)
        _, where, middle = PROTOCOL_FOLDS[runner]
        for k in (0, middle(n, m)):
            i, j = where(k, n, m)
            ni, nj = where(k + 1, n, m)
            scores = data.r.scores.copy()
            if i is not None:
                scores[[i, ni]] = scores[[ni, i]]
            if j is not None:
                scores[:, [j, nj]] = scores[:, [nj, j]]
            swapped = PreferenceMatrix(data.r.dataset_ids, data.r.workflow_ids, scores)
            expected = fold_built_alone(runner, data, i, j, ORACLE, r=swapped)
            assert fold_differences(report.folds[k], expected) != [], k


@st.composite
def held_out_changes(draw, runner):
    """A fold k of a drawn bundle under the protocol runner, and new values
    for the R entries fold k holds out (its row, its column, or both),
    drawn on the half-point grid or off it."""
    n, m = draw(st.integers(3, 6)), draw(st.integers(3, 5))
    data = synth_data(seed=draw(st.integers(0, 50)), n=n, m=m, noise=0.3,
                      mode=SynthMode.NOISY_BILINEAR)
    _, where, _ = PROTOCOL_FOLDS[runner]
    k = draw(st.integers(0, {run_lodo: n, run_lowo: m, run_lodwo: n * m}[runner] - 1))
    held = held_mask(n, m, *where(k, n, m))
    values = st.one_of(st.integers(0, 2 * m - 2).map(lambda v: v / 2.0),
                       st.floats(-10, 10, allow_nan=False))
    new = draw(st.lists(values, min_size=int(held.sum()), max_size=int(held.sum())))
    return data, k, held, new


def held_mask(n, m, i, j):
    """The R entries a fold holding out (i, j) does not train on."""
    held = np.zeros((n, m), dtype=bool)
    if i is not None:
        held[i] = True
    if j is not None:
        held[:, j] = True
    return held


def with_entries(data, mask, new):
    scores = data.r.scores.copy()
    scores[mask] = new
    return MetaMiningData(x=data.x, a=data.a, performance=data.performance,
                          r=PreferenceMatrix(data.r.dataset_ids, data.r.workflow_ids,
                                             scores))


class TestHeldOutEntriesUnseen:
    """A fold never sees the R entries it holds out: any change to them
    leaves that fold's predictions and flags byte-identical, with every
    strategy that serves the task; a property per protocol."""

    HYPER = HyperParams(max_iters=8, seed=1, mu1=0.05, mu2=0.05, n_neighbors=2)

    @pytest.mark.parametrize("runner", [run_lodo, run_lowo, run_lodwo])
    @settings(deadline=None, max_examples=25)
    @given(case=st.data())
    def test_changing_held_out_entries_changes_nothing(self, runner, case):
        data, k, held, new = case.draw(held_out_changes(runner))
        before = runner(data, list(Strategy), self.HYPER).folds[k]
        after = runner(with_entries(data, held, new), list(Strategy), self.HYPER).folds[k]
        assert fold_differences(after, (before.predictions, before.flags)) == []

    @pytest.mark.parametrize("runner", [run_lodo, run_lowo, run_lodwo])
    def test_changing_a_neighbours_entries_does(self, runner):
        """The property can fail: reversing the entries that fold 1 holds
        out, some of which fold 0 trains on, changes fold 0's predictions."""
        data = synth_data(seed=5, n=6, m=5, noise=0.3, mode=SynthMode.NOISY_BILINEAR)
        n, m = data.r.scores.shape
        held = held_mask(n, m, *PROTOCOL_FOLDS[runner][1](1, n, m))
        before = runner(data, list(Strategy), self.HYPER).folds[0]
        after = runner(with_entries(data, held, data.r.scores[held][::-1]),
                       list(Strategy), self.HYPER).folds[0]
        assert fold_differences(after, (before.predictions, before.flags)) != []
