import math

import numpy as np
import pytest

from metamine.data_model import (DescriptorTable, HyperParams, IngestError,
                                 PreferenceMatrix)
from metamine.evaluation import (MetaMiningData, Protocol, binomial_sign_test,
                                 compare_strategies, run_lodo, run_lodwo,
                                 run_lowo, top_k_performance)
from metamine.recommend import Strategy
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
                change = len(altered) % 3
                if change == 1:
                    values[0] = math.nan           # rho is nan
                elif change == 2:
                    values[:] = 1.0                # constant: rho is nan
                altered[len(altered)] = values
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


class TestSharedDrops:
    """The folds that hold out one entity share its one dropped X or A:
    each entity is dropped once per run, and R once per fold."""

    @pytest.mark.parametrize("runner", [run_lodo, run_lowo, run_lodwo])
    def test_drop_counts(self, monkeypatch, runner):
        counts = {"drop_entity": 0, "drop": 0}

        def counted(cls, name):
            method = getattr(cls, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return method(*args, **kwargs)
            monkeypatch.setattr(cls, name, wrapper)
        counted(DescriptorTable, "drop_entity")
        counted(PreferenceMatrix, "drop")
        n, m = 5, 4
        hyper = HyperParams(max_iters=3, seed=0, t=2)
        runner(synth_data(seed=19, n=n, m=m),
               [Strategy.DEFAULT, Strategy.F3_DIRECT, Strategy.F4_DIRECT], hyper)
        assert (counts["drop_entity"], counts["drop"]) == {
            run_lodo: (n, n), run_lowo: (m, m), run_lodwo: (n + m, n * m)}[runner]


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
