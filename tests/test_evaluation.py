import math

import numpy as np
import pytest

from metamine.data_model import HyperParams, PreferenceMatrix
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

    def test_parallel_folds_identical(self):
        data = synth_data(seed=8)
        strategies = [Strategy.DEFAULT, Strategy.F3_DIRECT]
        serial = run_lodo(data, strategies, FAST, jobs=1)
        parallel = run_lodo(data, strategies, FAST, jobs=4)
        for f1, f2 in zip(serial.folds, parallel.folds):
            assert f1.metrics == f2.metrics


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
    def test_value_error_marks_strategy_failed(self, monkeypatch):
        import metamine.recommend

        def refuse(*args, **kwargs):
            raise ValueError("empty training set")
        monkeypatch.setattr(metamine.recommend, "default_strategy", refuse)
        report = run_lodo(synth_data(seed=18), [Strategy.DEFAULT], FAST)
        assert all(f.failed == {Strategy.DEFAULT: "empty training set"}
                   for f in report.folds)
        assert report.aggregate(Strategy.DEFAULT, "mae") is None

    def test_programming_error_propagates(self, monkeypatch):
        import metamine.recommend

        def broken(*args, **kwargs):
            raise KeyError("missing")
        monkeypatch.setattr(metamine.recommend, "default_strategy", broken)
        with pytest.raises(KeyError):
            run_lodo(synth_data(seed=18), [Strategy.DEFAULT], FAST)


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
