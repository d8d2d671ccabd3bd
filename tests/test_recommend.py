import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metamine.data_model import (HyperParams, ModelParams, PreferenceMatrix,
                                 StandardizationRecord, standardize)
from metamine.preference import spearman
from metamine.recommend import (TASKS, Strategy, Task, default_strategy,
                                euclidean_strategy, knn_predict_dataset_prefs,
                                knn_predict_workflow_prefs, learned_similarity,
                                predict, predict_pair)

from conftest import make_tables


def identity_record(k):
    return StandardizationRecord(mean=np.zeros(k), scale=np.ones(k),
                                 constant_columns=())


def make_params(u, v, objective="f3"):
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return ModelParams(u=u, v=v, t=u.shape[1], hyper=HyperParams(),
                       x_standardization=identity_record(u.shape[0]),
                       a_standardization=identity_record(v.shape[0]),
                       objective=objective)


def make_r(scores):
    scores = np.asarray(scores, dtype=float)
    n, m = scores.shape
    return PreferenceMatrix(tuple(f"d{i}" for i in range(n)),
                            tuple(f"w{j}" for j in range(m)), scores)


class TestLearnedSimilarity:
    def test_self_similarity_nonnegative(self):
        rng = np.random.default_rng(0)
        params = make_params(rng.standard_normal((5, 2)), rng.standard_normal((4, 2)))
        for _ in range(20):
            x = rng.standard_normal(5)
            assert learned_similarity(x, x, params.u) >= 0

    def test_identity_projection_is_inner_product(self):
        params = make_params(np.eye(3), np.eye(3))
        x1 = np.array([1.0, 2.0, -1.0])
        x2 = np.array([0.5, -1.0, 2.0])
        assert learned_similarity(x1, x2, params.u) \
            == pytest.approx(x1 @ x2)

    def test_matches_two_step_projection(self):
        rng = np.random.default_rng(1)
        u = rng.standard_normal((6, 3))
        params = make_params(u, rng.standard_normal((4, 3)))
        x1, x2 = rng.standard_normal(6), rng.standard_normal(6)
        expected = (u.T @ x1) @ (u.T @ x2)
        assert learned_similarity(x1, x2, params.u) \
            == pytest.approx(expected)
        assert learned_similarity(x2, x1, params.u) \
            == pytest.approx(expected)

    def test_rotation_of_u_columns_leaves_similarity_unchanged(self):
        rng = np.random.default_rng(2)
        u = rng.standard_normal((5, 3))
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        p1 = make_params(u, rng.standard_normal((4, 3)))
        p2 = make_params(u @ q, p1.v)
        x1, x2 = rng.standard_normal(5), rng.standard_normal(5)
        s1 = learned_similarity(x1, x2, p1.u)
        s2 = learned_similarity(x1, x2, p2.u)
        assert s1 == pytest.approx(s2, abs=1e-10)


class TestKnnWorkflowPrefs:
    def test_single_neighbor_copies_row(self):
        rng = np.random.default_rng(3)
        u = rng.standard_normal((4, 2))
        params = make_params(u, rng.standard_normal((3, 2)))
        train = rng.standard_normal((5, 4))
        r = make_r(rng.random((5, 3)))
        query = rng.standard_normal(4)
        pred = knn_predict_workflow_prefs(query, train, r, params, n=1)
        sims = (train @ u) @ (u.T @ query)
        top = int(np.argmax(sims))
        np.testing.assert_allclose(pred.values, r.scores[top])

    def test_equal_weights_give_mean(self):
        # two training points symmetric around the query project identically
        u = np.eye(2)
        params = make_params(u, np.eye(2))
        train = np.array([[1.0, 0.0], [1.0, 0.0]])
        r = make_r([[2.0, 1.0, 0.0], [0.0, 1.0, 2.0]])
        query = np.array([1.0, 0.0])
        pred = knn_predict_workflow_prefs(query, train, r, params, n=2)
        np.testing.assert_allclose(pred.values, [1.0, 1.0, 1.0])

    def test_hand_computed_weighted_mean(self):
        # similarities 3 and 1 on rows [2,1,0] and [0,1,2]
        params = make_params(np.eye(1), np.eye(1))
        train = np.array([[3.0], [1.0]])
        r = make_r([[2.0, 1.0, 0.0], [0.0, 1.0, 2.0]])
        pred = knn_predict_workflow_prefs(np.array([1.0]), train, r, params, n=2)
        np.testing.assert_allclose(pred.values, [1.5, 1.0, 0.5])

    def test_nonpositive_similarities_fall_back_to_uniform(self):
        params = make_params(np.eye(1), np.eye(1))
        train = np.array([[-1.0], [-2.0]])
        r = make_r([[2.0, 1.0, 0.0], [0.0, 1.0, 2.0]])
        pred = knn_predict_workflow_prefs(np.array([1.0]), train, r, params, n=2)
        assert "nonpositive_similarity_fallback" in pred.flags
        np.testing.assert_allclose(pred.values, [1.0, 1.0, 1.0])

    def test_prediction_is_convex_combination(self):
        rng = np.random.default_rng(5)
        u = rng.standard_normal((4, 2))
        params = make_params(u, rng.standard_normal((3, 2)))
        train = rng.standard_normal((6, 4))
        r = make_r(rng.random((6, 3)))
        pred = knn_predict_workflow_prefs(rng.standard_normal(4), train, r,
                                          params, n=3)
        assert np.all(pred.values >= r.scores.min(axis=0) - 1e-12)
        assert np.all(pred.values <= r.scores.max(axis=0) + 1e-12)

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError, match="empty training set"):
            knn_predict_workflow_prefs(
                np.array([1.0]), np.zeros((0, 1)),
                PreferenceMatrix((), ("w0", "w1"), np.zeros((0, 2))),
                make_params(np.eye(1), np.eye(1)), n=1)


class TestKnnDatasetPrefs:
    def test_single_neighbor_copies_column(self):
        rng = np.random.default_rng(6)
        v = rng.standard_normal((3, 2))
        params = make_params(rng.standard_normal((4, 2)), v)
        train = rng.standard_normal((5, 3))
        r = make_r(rng.random((4, 5)))
        pred = knn_predict_dataset_prefs(train[1], train, r, params, n=1)
        np.testing.assert_allclose(pred.values, r.scores[:, 1])

    def test_matches_brute_force_weighted_average(self):
        rng = np.random.default_rng(7)
        v = rng.standard_normal((3, 2))
        params = make_params(rng.standard_normal((4, 2)), v)
        train = rng.standard_normal((5, 3))
        r = make_r(rng.random((4, 5)))
        query = rng.standard_normal(3)
        n = 3
        sims = np.array([ (v.T @ row) @ (v.T @ query) for row in train ])
        picked = np.argsort(-sims, kind="stable")[:n]
        w = np.maximum(sims[picked], 0)
        expected = (r.scores[:, picked] * w).sum(axis=1) / w.sum()
        pred = knn_predict_dataset_prefs(query, train, r, params, n=n)
        np.testing.assert_allclose(pred.values, expected)


class TestPredictPair:
    def test_zero_factors_give_zero(self):
        params = make_params(np.zeros((3, 2)), np.zeros((4, 2)))
        assert predict_pair(np.ones(3), np.ones(4), params) == 0.0

    def test_bilinearity_in_x(self):
        rng = np.random.default_rng(8)
        params = make_params(rng.standard_normal((3, 2)), rng.standard_normal((4, 2)))
        x, a = rng.standard_normal(3), rng.standard_normal(4)
        base = predict_pair(x, a, params)
        assert predict_pair(2.5 * x, a, params) == pytest.approx(2.5 * base)

    def test_identity_projection_reduces_to_inner_product(self):
        params = make_params(np.eye(3), np.vstack([np.eye(3), np.zeros((1, 3))]))
        x = np.array([1.0, -2.0, 0.5])
        a = np.array([2.0, 1.0, 3.0, 99.0])  # 4th coordinate projected away
        assert predict_pair(x, a, params) == pytest.approx(x @ a[:3])

    @pytest.mark.parametrize("t", range(1, 41))
    def test_table_equals_per_pair_formula_bit_for_bit(self, t):
        # A pair-score query scores one dataset against a whole table of
        # workflows; every score must be the per-pair value to the last bit
        # (one matrix product of the projections is not, on OpenBLAS).
        rng = np.random.default_rng(100 + t)
        u, v = rng.standard_normal((37, t)), rng.standard_normal((33, t))
        params = make_params(u, v)
        x, table = rng.standard_normal(37), rng.standard_normal((50, 33))
        expected = [float((u.T @ x) @ (v.T @ a)) for a in table]
        scores = predict_pair(x, table, params)
        assert scores.shape == (50,)
        assert [float(s) for s in scores] == expected
        assert [predict_pair(x, a, params) for a in table] == expected


class TestDefaultStrategy:
    def test_workflow_prefs_column_mean(self):
        r = make_r([[2, 1, 0], [0, 1, 2]])
        pred = default_strategy(Task.WORKFLOW_PREFS, r)
        np.testing.assert_allclose(pred.values, [1.0, 1.0, 1.0])

    def test_dataset_prefs_constant_by_row_sum_identity(self):
        rng = np.random.default_rng(9)
        # a valid R: every row a permutation of 0..m-1
        m = 5
        scores = np.array([rng.permutation(m).astype(float) for _ in range(4)])
        # the R predict passes on a fold that holds workflow 0 out; its row
        # means, (m(m-1)/2 - truth) / (m-1), are not constant
        fold_r = make_r(scores).drop(workflow_index=0)
        pred = default_strategy(Task.DATASET_PREFS, fold_r)
        np.testing.assert_allclose(pred.values, (m - 1) / 2)
        # spearman against a constant vector is NA, as reported
        assert np.isnan(spearman(pred.values, scores[:, 0]))

    def test_pair_score_grand_mean(self):
        r = make_r([[3.0]])
        pred = default_strategy(Task.PAIR_SCORE, r)
        assert float(pred.values) == 3.0


class TestEuclideanStrategy:
    def test_exact_match_is_top_neighbor_weight_one(self):
        rng = np.random.default_rng(10)
        train = rng.standard_normal((4, 3))
        r = make_r(rng.random((4, 2)))
        pred = euclidean_strategy(train[2], train, r.scores, n=1)
        np.testing.assert_allclose(pred.values, r.scores[2])

    def test_equidistant_pair_averages_rows(self):
        train = np.array([[1.0, 0.0], [-1.0, 0.0]])
        r = make_r([[2.0, 0.0], [0.0, 2.0]])
        pred = euclidean_strategy(np.zeros(2), train, r.scores, n=2)
        np.testing.assert_allclose(pred.values, [1.0, 1.0])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        train = rng.standard_normal((6, 3))
        r = make_r(rng.random((6, 4)))
        query = rng.standard_normal(3)
        dists = np.linalg.norm(train - query, axis=1)
        picked = np.argsort(dists, kind="stable")[:3]
        w = 1.0 / (1.0 + dists[picked])
        expected = (w[:, None] * r.scores[picked]).sum(axis=0) / w.sum()
        pred = euclidean_strategy(query, train, r.scores, n=3)
        np.testing.assert_allclose(pred.values, expected)


class TestPredict:
    def problem(self, seed=12):
        rng = np.random.default_rng(seed)
        x, a, _ = make_tables(n=4, m=5, d=4, l=3, seed=seed)
        params = make_params(rng.standard_normal((4, 2)),
                             rng.standard_normal((3, 2)))
        r = make_r(rng.random((4, 5)))
        return rng, x, a, r, params

    def test_tasks_outside_table_rejected(self):
        rng, x, a, r, params = self.problem()
        for strategy in Strategy:
            for task in set(Task) - TASKS[strategy]:
                with pytest.raises(ValueError, match="cannot serve"):
                    predict(strategy, task, rng.standard_normal(4),
                            rng.standard_normal(3), x, a, r, params, 2)

    def test_knn_uses_the_query_side_metric(self):
        rng, x, a, r, params = self.problem()
        q = rng.standard_normal(3)
        pred = predict(Strategy.F2_KNN, Task.DATASET_PREFS, None, q, x, a, r,
                       params, 2)
        expected = knn_predict_dataset_prefs(q, a.features, r, params, 2)
        np.testing.assert_array_equal(pred.values, expected.values)

    def test_dataset_default_does_not_leak_held_out_column(self):
        rng = np.random.default_rng(13)
        m = 5
        scores = np.array([rng.permutation(m).astype(float) for _ in range(6)])
        r_fold = make_r(scores[:, 1:])  # workflow 0 held out
        pred = predict(Strategy.DEFAULT, Task.DATASET_PREFS, None, np.zeros(3),
                       None, None, r_fold, None, 2)
        np.testing.assert_array_equal(pred.values, (m - 1) / 2)
        # the fold's row means would rank the held-out column exactly backwards
        assert spearman(r_fold.scores.mean(axis=1), scores[:, 0]) \
            == pytest.approx(-1.0)

    def test_default_serves_default_strategy_on_every_fold(self):
        # a LODO, a LOWO and a LODWO fold's R from one valid R (rows are
        # permutations of 0..m-1); def broadcasts default_strategy's values
        # over one query, and over a table of three
        rng = np.random.default_rng(14)
        r = make_r([rng.permutation(5).astype(float) for _ in range(4)])
        for r_fold in (r.drop(dataset_index=1), r.drop(workflow_index=2),
                       r.drop(dataset_index=1, workflow_index=2)):
            for task in Task:
                for lead in ((), (3,)):
                    q = np.zeros(lead + (2,))
                    pred = predict(Strategy.DEFAULT, task, q, q, None, None,
                                   r_fold, None, 2)
                    values = default_strategy(task, r_fold).values
                    want = np.broadcast_to(values, lead + values.shape)
                    assert pred.values.shape == want.shape, task
                    assert pred.values.tobytes() == want.tobytes(), task


class TestEuclideanEmptyTraining:
    def test_empty_training_table_rejected(self):
        r = make_r(np.zeros((0, 3)))
        with pytest.raises(ValueError, match="empty training set"):
            euclidean_strategy(np.zeros(4), np.zeros((0, 4)), r.scores, n=2)


class TestQueryTable:
    """predict on a k-row query table is, row for row, the bits and flags
    of k one-query calls, for every (strategy, task) of TASKS."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 5),
           at_mean=st.integers(0, 4), n=st.integers(1, 7),
           t=st.integers(1, 40), scale=st.sampled_from([1e-3, 1.0, 1e3]))
    def test_table_equals_one_call_per_query(self, seed, k, at_mean, n, t,
                                             scale):
        rng = np.random.default_rng(seed)
        x, a, _ = make_tables(n=int(rng.integers(2, 9)), m=int(rng.integers(2, 8)),
                              d=int(rng.integers(1, 41)), l=int(rng.integers(1, 41)),
                              seed=seed % 1000)
        params = ModelParams(u=rng.standard_normal((x.n_features, t)),
                             v=rng.standard_normal((a.n_features, t)), t=t,
                             hyper=HyperParams(),
                             x_standardization=standardize(x)[1],
                             a_standardization=standardize(a)[1],
                             objective="f4")
        r = make_r(rng.integers(0, 7, (x.n_entities, a.n_entities)) / 2.0)
        # one query of each table sits at the training column means, where
        # every learned similarity is 0 and kNN falls back to uniform weights
        qx = scale * rng.standard_normal((k, x.n_features))
        qa = scale * rng.standard_normal((k + 1, a.n_features))
        qx[at_mean % k] = params.x_standardization.mean
        qa[at_mean % k] = params.a_standardization.mean
        for strategy, tasks in TASKS.items():
            for task in tasks:
                if task is Task.DATASET_PREFS:
                    table = predict(strategy, task, None, qa, x, a, r, params, n)
                    one = [predict(strategy, task, None, q, x, a, r, params, n)
                           for q in qa]
                else:
                    pair = qa if task is Task.PAIR_SCORE else None
                    table = predict(strategy, task, qx, pair, x, a, r, params, n)
                    one = [predict(strategy, task, q, pair, x, a, r, params, n)
                           for q in qx]
                want = np.stack([p.values for p in one])
                assert table.values.shape == want.shape, (strategy, task)
                assert table.values.tobytes() == want.tobytes(), (strategy, task)
                assert table.flags == tuple(p.flags for p in one), (strategy, task)
                if strategy in (Strategy.F1_KNN, Strategy.F2_KNN,
                                Strategy.F4_KNN):
                    assert one[at_mean % k].flags == (
                        "nonpositive_similarity_fallback",), (strategy, task)
