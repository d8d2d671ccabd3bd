import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metamine.data_model import IngestError, PreferenceMatrix
from metamine.preference import (OutcomeCube, _average_ranks, _rank_correlations,
                                 build_preference_from_significance,
                                 build_preference_matrix, mcnemar_wins, points,
                                 similarity_stack, similarity_target, spearman,
                                 spearman_many)


def pearson(x, y):
    x = np.asarray(x, dtype=float) - np.mean(x)
    y = np.asarray(y, dtype=float) - np.mean(y)
    return float(x @ y / math.sqrt((x @ x) * (y @ y)))


def average_ranks(v):
    """Brute-force tie-aware ranking, independent of scipy."""
    v = list(v)
    ranks = []
    for value in v:
        less = sum(1 for w in v if w < value)
        equal = sum(1 for w in v if w == value)
        ranks.append(less + (equal + 1) / 2.0)
    return ranks


def vectors_with_discordants(b, c, both=5, neither=5):
    k = [1] * b + [0] * c + [1] * both + [0] * neither
    l = [0] * b + [1] * c + [1] * both + [0] * neither
    return np.array(k), np.array(l)


def dataset_points(correct):
    """The comparison points of every workflow on one dataset: R's row of
    a one-dataset cube."""
    cube = OutcomeCube(("d0",), tuple(f"w{j}" for j in range(correct.shape[1])),
                       (correct,))
    return build_preference_matrix(cube).scores[0]


def pair_outcome(k, l):
    """The McNemar outcome of two workflows' 0/1 correctness vectors:
    mcnemar_wins on the two columns."""
    wins = mcnemar_wins(np.column_stack([k, l]))
    if wins[0, 1]:
        return "k_wins"
    return "l_wins" if wins[1, 0] else "tie"


class TestMcnemar:
    def test_large_imbalance_significant(self):
        # b=10, c=0: statistic (10-1)^2/10 = 8.1 > 3.841 (chi2_1 at 0.05)
        k, l = vectors_with_discordants(10, 0)
        assert pair_outcome(k, l) == "k_wins"
        assert pair_outcome(l, k) == "l_wins"

    def test_balanced_discordants_tie(self):
        # b=c=5: statistic (0-1)^2/10 = 0.1, not significant
        k, l = vectors_with_discordants(5, 5)
        assert pair_outcome(k, l) == "tie"

    def test_identical_vectors_tie(self):
        v = np.array([1, 0, 1, 1, 0])
        assert pair_outcome(v, v) == "tie"

    def test_few_discordants_follow_the_chi_square_rule(self):
        # b=6, c=0: 25/6 > 3.841; b=5, c=0: 16/5 < 3.841. b=4, c=13:
        # 64/17 < 3.841, a tie, though the exact binomial p = 2 * 3214 /
        # 2^17 ~ 0.049 would call it: no exact variant below 25 discordants
        for b, c, outcome in ((6, 0, "k_wins"),
                              (5, 0, "tie"),
                              (4, 13, "tie")):
            k, l = vectors_with_discordants(b, c)
            assert pair_outcome(k, l) == outcome, (b, c)

    def test_win_matrix_holds_each_pair_one_way_at_most(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            m = int(rng.integers(2, 7))
            correct = (rng.random((int(rng.integers(1, 60)), m))
                       < rng.uniform(0.05, 0.95, size=m)).astype(float)
            wins = mcnemar_wins(correct)
            assert wins.shape == (m, m) and wins.dtype == bool
            assert not np.diagonal(wins).any()
            assert not (wins & wins.T).any()

    def test_critical_value_is_the_chi2_quantile(self):
        # a literal, so that importing the package does not import
        # scipy.stats; it must be the quantile exactly
        from scipy import stats

        from metamine import preference
        assert preference._CHI2_CRITICAL == stats.chi2.ppf(
            1 - preference.ALPHA, 1)


class TestDatasetPoints:
    def test_all_ties_symmetric(self):
        correct = np.ones((10, 3))
        np.testing.assert_array_equal(dataset_points(correct), [1.0, 1.0, 1.0])

    def test_one_clear_winner(self):
        # workflow 0 right on 30 instances where 1 and 2 are wrong;
        # workflows 1 and 2 are identical (tie)
        block = np.zeros((30, 3))
        block[:, 0] = 1.0
        rest = np.ones((5, 3))
        correct = np.vstack([block, rest])
        np.testing.assert_array_equal(dataset_points(correct), [2.0, 0.5, 0.5])

    def test_matches_exhaustive_pairwise_tally(self):
        rng = np.random.default_rng(11)
        correct = (rng.random((60, 4)) < rng.uniform(0.3, 0.9, size=4)).astype(float)
        scores = dataset_points(correct)
        expected = np.zeros(4)
        for k, l in itertools.combinations(range(4), 2):
            outcome = pair_outcome(correct[:, k], correct[:, l])
            if outcome == "k_wins":
                expected[k] += 1
            elif outcome == "l_wins":
                expected[l] += 1
            else:
                expected[k] += 0.5
                expected[l] += 0.5
        np.testing.assert_array_equal(scores, expected)
        assert scores.sum() == 4 * 3 / 2

    def test_pair_order_invariance(self):
        rng = np.random.default_rng(4)
        correct = (rng.random((40, 5)) < 0.7).astype(float)
        perm = [3, 1, 4, 0, 2]
        permuted = dataset_points(correct[:, perm])
        direct = dataset_points(correct)
        np.testing.assert_array_equal(permuted, direct[perm])


def oracle_scores(correct):
    """McNemar at alpha = 0.05 one pair at a time, independent of the
    program: continuity-corrected chi-square against the published
    chi-square(1) critical value."""
    m = correct.shape[1]
    scores = [0.0] * m
    for k, l in itertools.combinations(range(m), 2):
        b = sum(1 for u, v in zip(correct[:, k], correct[:, l]) if u == 1 and v == 0)
        c = sum(1 for u, v in zip(correct[:, k], correct[:, l]) if u == 0 and v == 1)
        n = b + c
        significant = n > 0 and (abs(b - c) - 1) ** 2 / n > 3.841458820694124
        if significant and b > c:
            scores[k] += 1.0
        elif significant and c > b:
            scores[l] += 1.0
        else:
            scores[k] += 0.5
            scores[l] += 0.5
    return scores


class TestMcnemarOracle:
    def test_dataset_points_match_per_pair_formula(self):
        rng = np.random.default_rng(21)
        for _ in range(150):
            instances = int(rng.integers(1, 70))
            m = int(rng.integers(2, 7))
            correct = (rng.random((instances, m))
                       < rng.uniform(0.05, 0.95, size=m)).astype(float)
            if rng.random() < 0.3:          # an identical pair: b + c = 0
                correct[:, -1] = correct[:, 0]
            assert dataset_points(correct).tolist() == oracle_scores(correct)

    def test_every_discordant_count_up_to_40(self):
        for b in range(41):
            for c in range(41 - b):
                k, l = vectors_with_discordants(b, c)
                correct = np.column_stack([k, l]).astype(float)
                assert dataset_points(correct).tolist() == oracle_scores(correct)

    def test_pair_rule_matches_per_pair_formula(self):
        rng = np.random.default_rng(22)
        for _ in range(150):
            correct = (rng.random((int(rng.integers(1, 70)), 2))
                       < rng.uniform(0.05, 0.95, size=2)).astype(float)
            expected = {(1.0, 0.0): "k_wins",
                        (0.0, 1.0): "l_wins",
                        (0.5, 0.5): "tie"}[tuple(oracle_scores(correct))]
            assert pair_outcome(correct[:, 0], correct[:, 1]) == expected


@st.composite
def tournaments(draw):
    """An n x m x m stack of win matrices in which each unordered pair of
    workflows is won by k, won by l, or tied, the form of every source's
    wins (McNemar's, the significance reader's and synth's)."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 12))
    outcomes = draw(st.lists(st.sampled_from((-1, 0, 1)), min_size=n * m * m,
                             max_size=n * m * m))
    sign = np.triu(np.reshape(outcomes, (n, m, m)), 1)
    return (sign - sign.transpose(0, 2, 1)) > 0


class TestPoints:
    def test_wins_losses_and_neither(self):
        # w0 beats w1 and w2; w1 and w2 tie; w3 beats w1
        wins = np.zeros((4, 4), dtype=bool)
        wins[0, 1] = wins[0, 2] = wins[3, 1] = True
        np.testing.assert_array_equal(points(wins), [2.5, 0.5, 1.0, 2.0])

    def test_stack_scores_each_matrix(self):
        rng = np.random.default_rng(23)
        sign = np.triu(rng.integers(-1, 2, size=(5, 4, 4)), 1)
        stack = (sign - sign.transpose(0, 2, 1)) > 0   # k beats l, l beats k or tie
        np.testing.assert_array_equal(points(stack),
                                      np.vstack([points(w) for w in stack]))
        assert np.all(points(stack).sum(axis=1) == 6)

    @settings(max_examples=150, deadline=None)
    @given(tournaments())
    def test_tournament_rows_keep_the_invariants(self, wins):
        # the rows sum to m(m-1)/2 and lie on the half-point grid in
        # [0, m-1], so an R built from wins needs no check of its own
        n, m, _ = wins.shape
        r = PreferenceMatrix(range(n), range(m), points(wins))
        assert r.invariant_violations() == []


class TestBuildPreferenceMatrix:
    def make_cube(self, n=4, m=3, seed=0):
        rng = np.random.default_rng(seed)
        mats = tuple((rng.random((50, m)) < rng.uniform(0.4, 0.95, size=m)).astype(float)
                     for _ in range(n))
        return OutcomeCube(dataset_ids=tuple(f"d{i}" for i in range(n)),
                           workflow_ids=tuple(f"w{j}" for j in range(m)),
                           matrices=mats)

    def test_single_dataset_reduces_to_points_of_its_wins(self):
        cube = self.make_cube(n=1, m=4, seed=2)
        r = build_preference_matrix(cube)
        np.testing.assert_array_equal(r.scores[0],
                                      points(mcnemar_wins(cube.matrices[0])))

    def test_each_row_is_its_dataset_alone(self):
        cube = self.make_cube(n=5, m=4, seed=6)
        r = build_preference_matrix(cube)
        for row, mat in zip(r.scores, cube.matrices):
            assert row.tobytes() == dataset_points(mat).tobytes()

    def test_one_workflow_rejected(self):
        with pytest.raises(IngestError, match="need at least two workflows "
                                              "to compare"):
            build_preference_matrix(self.make_cube(n=2, m=1))

    def test_row_sum_identity(self):
        r = build_preference_matrix(self.make_cube(n=6, m=5, seed=3))
        m = r.n_workflows
        assert np.all(r.scores.sum(axis=1) == m * (m - 1) / 2)

    def test_workflow_permutation_permutes_columns(self):
        cube = self.make_cube(n=3, m=4, seed=5)
        perm = [2, 0, 3, 1]
        permuted = OutcomeCube(cube.dataset_ids,
                               tuple(cube.workflow_ids[j] for j in perm),
                               tuple(m[:, perm] for m in cube.matrices))
        r = build_preference_matrix(cube)
        rp = build_preference_matrix(permuted)
        np.testing.assert_array_equal(rp.scores, r.scores[:, perm])

    def test_significance_tensor_path_matches_mcnemar_path(self):
        cube = self.make_cube(n=3, m=4, seed=8)
        wins = np.zeros((3, 4, 4), dtype=bool)
        for i, mat in enumerate(cube.matrices):
            for k, l in itertools.combinations(range(4), 2):
                outcome = pair_outcome(mat[:, k], mat[:, l])
                wins[i, k, l] = outcome == "k_wins"
                wins[i, l, k] = outcome == "l_wins"
        r1 = build_preference_matrix(cube)
        r2 = build_preference_from_significance(cube.dataset_ids,
                                                cube.workflow_ids, wins)
        np.testing.assert_array_equal(r1.scores, r2.scores)

    def test_zero_instances_rejected(self):
        with pytest.raises(ValueError, match="at least one instance"):
            OutcomeCube(("d0",), ("w0", "w1"), (np.zeros((0, 2)),))


class TestSpearman:
    def test_identical_order(self):
        assert spearman([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)

    def test_reversed_order(self):
        assert spearman([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_ties_match_rank_then_pearson_oracle(self):
        x = [1, 1, 2, 3]
        y = [2, 1, 1, 3]
        expected = pearson(average_ranks(x), average_ranks(y))
        assert spearman(x, y) == pytest.approx(expected, abs=1e-12)

    def test_constant_vector_not_computable(self):
        assert math.isnan(spearman([5, 5, 5], [1, 2, 3]))
        assert math.isnan(spearman([1, 2, 3], [5, 5, 5]))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            spearman([1, 2], [1, 2, 3])

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            x = rng.standard_normal(8)
            y = rng.standard_normal(8)
            base = spearman(x, y)
            assert spearman(np.exp(x), y) == pytest.approx(base, abs=1e-12)
            assert spearman(x, 3 * y + 7) == pytest.approx(base, abs=1e-12)


class TestSimilarityTarget:
    def test_identical_rows_give_unit_similarity(self):
        target = similarity_target(np.array([[2.0, 1, 0], [2, 1, 0], [0, 1, 2]]))
        assert target.matrix[0, 1] == pytest.approx(1.0)
        assert target.matrix[0, 2] == pytest.approx(-1.0)

    def test_matches_elementwise_spearman(self):
        rng = np.random.default_rng(13)
        scores = rng.random((4, 3))
        target = similarity_target(scores)
        for i in range(4):
            for j in range(4):
                expected = 1.0 if i == j else spearman(scores[i], scores[j])
                assert target.matrix[i, j] == pytest.approx(expected, abs=1e-12)

    def test_symmetry_and_unit_diagonal(self):
        rng = np.random.default_rng(15)
        target = similarity_target(rng.random((6, 5)))
        np.testing.assert_allclose(target.matrix, target.matrix.T, atol=1e-12)
        np.testing.assert_array_equal(np.diag(target.matrix), np.ones(6))

    def test_constant_vector_flagged_and_zeroed(self):
        target = similarity_target(np.array([[1.0, 1, 1], [2, 1, 0], [0, 1, 2]]))
        assert target.constant_entities == (0,)
        assert target.matrix[0, 1] == 0.0 and target.matrix[0, 0] == 1.0


def oracle_similarity(vectors):
    """Per-pair pearson(average_ranks(.)): 0 for a pair with a constant
    vector, 1 on the diagonal; also the indices of the constant vectors."""
    constant = tuple(i for i, v in enumerate(vectors)
                     if all(w == v[0] for w in v))
    ranks = [average_ranks(v) for v in vectors]
    out = np.eye(len(vectors))
    for i, j in itertools.combinations(range(len(vectors)), 2):
        if i not in constant and j not in constant:
            out[i, j] = out[j, i] = pearson(ranks[i], ranks[j])
    return out, constant


@st.composite
def tied_values(draw, m):
    """Half-integer points, or finite floats (subnormal to huge) drawn from
    a small pool, so that ties are common."""
    if draw(st.booleans()):
        return st.integers(0, 2 * (m - 1)).map(lambda v: v / 2.0)
    pool = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                         min_size=1, max_size=m))
    return st.sampled_from(pool)


@st.composite
def score_matrices(draw):
    n, m = draw(st.integers(2, 7)), draw(st.integers(2, 7))
    values = draw(tied_values(m))
    scores = np.array(draw(st.lists(values, min_size=n * m, max_size=n * m)),
                      dtype=float).reshape(n, m)
    fill = draw(values)  # one value keeps forced rows and columns constant
    scores[sorted(draw(st.sets(st.integers(0, n - 1), max_size=n))), :] = fill
    scores[:, sorted(draw(st.sets(st.integers(0, m - 1), max_size=m)))] = fill
    return scores


class TestRankCorrelationOracle:
    @settings(deadline=None, max_examples=150)
    @given(score_matrices())
    def test_similarity_target_equals_per_pair_oracle(self, scores):
        # R's rows (datasets) and R's columns (workflows)
        for vectors in (scores, scores.T):
            expected, constant = oracle_similarity(vectors.tolist())
            target = similarity_target(vectors)
            assert np.array_equal(target.matrix, expected)
            assert target.constant_entities == constant

    @settings(deadline=None, max_examples=150)
    @given(score_matrices())
    def test_spearman_equals_per_pair_oracle(self, scores):
        x, y = scores[0].tolist(), scores[1].tolist()
        expected, constant = oracle_similarity([x, y])
        if constant:
            assert math.isnan(spearman(x, y))
        else:
            assert spearman(x, y) == expected[0, 1]


def matrix_rank_correlations(vectors):
    """The rank correlations of the rows of one matrix (k x m) as the
    2-d kernel computed them before it took stacks."""
    from scipy import stats
    ranks = stats.rankdata(vectors, method="average", axis=1)
    ranks -= ranks.mean(axis=1, keepdims=True)
    sq = (ranks ** 2).sum(axis=1)
    with np.errstate(invalid="ignore"):
        corr = ranks @ ranks.T / np.sqrt(np.outer(sq, sq))
    return corr, sq == 0.0


@st.composite
def rank_stacks(draw):
    """A stack (s, k, m) of vectors, k >= 1 and m >= 2, with common ties;
    some rows constant, some holding nan, +inf or -inf."""
    s, k, m = (draw(st.integers(1, 4)), draw(st.integers(1, 5)),
               draw(st.integers(2, 7)))
    values = draw(tied_values(m))
    stack = np.array(draw(st.lists(values, min_size=s * k * m,
                                   max_size=s * k * m)),
                     dtype=float).reshape(s, k, m)
    rows = st.tuples(st.integers(0, s - 1), st.integers(0, k - 1))
    for i, j in draw(st.lists(rows, max_size=3)):
        stack[i, j] = draw(values)
    for special in (np.nan, np.inf, -np.inf):
        for i, j in draw(st.lists(rows, max_size=2)):
            stack[i, j, draw(st.integers(0, m - 1))] = special
    return stack


class TestStackedRanks:
    """A stack is ranked in one call, and each of its matrices comes out
    as the 2-d kernel gives it alone, bit for bit."""

    @settings(deadline=None, max_examples=200)
    @given(rank_stacks())
    def test_stack_equals_per_matrix_calls(self, stack):
        corr, constant = _rank_correlations(stack)
        assert corr.shape == stack.shape[:2] + stack.shape[1:2]
        for got, mask, matrix in zip(corr, constant, stack):
            for want, want_mask in (_rank_correlations(matrix),
                                    matrix_rank_correlations(matrix)):
                assert got.tobytes() == want.tobytes()
                assert np.array_equal(mask, want_mask)

    @settings(deadline=None, max_examples=100)
    @given(rank_stacks())
    def test_spearman_many_equals_one_at_a_time(self, stack):
        # each matrix's rows against its rows reversed and against its
        # first row (broadcast), then all of them less their first entry
        pairs = [(stack, stack[:, ::-1]), (stack, stack[:, :1])]
        if stack.shape[-1] > 2:
            pairs += [(x[..., 1:], y[..., 1:]) for x, y in pairs]
        for x, y in pairs:
            got = spearman_many(x, y)
            assert got.shape == stack.shape[:2]
            xs, ys = (np.broadcast_to(v, x.shape).reshape(-1, x.shape[-1])
                      for v in (x, y))
            for rho, row_x, row_y in zip(got.ravel(), xs, ys):
                want = spearman(row_x, row_y)
                assert np.float64(rho).tobytes() == np.float64(want).tobytes()

    def test_spearman_many_of_no_pairs_is_empty(self):
        assert spearman_many(np.empty((0, 3)), np.empty((0, 3))).shape == (0,)

    def test_spearman_many_rejects_pairs_of_two_lengths(self):
        with pytest.raises(ValueError):
            spearman_many([[1.0, 2.0, 3.0]], [[2.0, 1.0]])

    @settings(deadline=None, max_examples=300)
    @given(rank_stacks())
    def test_average_ranks_equal_scipy_rankdata(self, stack):
        from scipy import stats
        want = stats.rankdata(stack, method="average", axis=-1)
        assert _average_ranks(stack).tobytes() == want.tobytes()


@st.composite
def tied_preference_matrices(draw):
    """A valid R, 3-8 x 3-8: each row the points of the tournament that
    latent scores from {0, 1, 2} decide, with at least one row constant
    (every workflow tied) and one to m - 2 columns copies of the first."""
    n, m = draw(st.integers(3, 8)), draw(st.integers(3, 8))
    latent = np.array(draw(st.lists(st.integers(0, 2), min_size=n * m,
                                    max_size=n * m))).reshape(n, m)
    latent[sorted(draw(st.sets(st.integers(0, n - 1), min_size=1,
                               max_size=n - 1))), :] = 1
    copies = draw(st.sets(st.integers(1, m - 1), min_size=1, max_size=m - 2))
    latent[:, sorted(copies)] = latent[:, :1]
    return points(latent[:, :, None] > latent[:, None, :])


def sliced_target(vectors, column, vector):
    """similarity_stack over the rows of `vectors` without `column`, less
    row and column `vector` of the matrix and entry `vector` of the mask."""
    corr, constant = similarity_stack(np.delete(vectors, column, axis=1))
    keep = np.arange(len(vectors)) != vector
    return corr[np.ix_(keep, keep)], constant[keep]


def same_target(got, want):
    return (got[0].shape == want[0].shape and got[0].tobytes() == want[0].tobytes()
            and np.array_equal(got[1], want[1]))


class TestSharedFoldTargets:
    """A LODWO fold's similarity targets are slices of targets the folds
    share, bit for bit: its S_X is the S_X of R without column j, less row
    and column i; its S_A the S_A of R without row i, less row and column j."""

    @staticmethod
    def fold(scores, i, j):
        n, m = scores.shape
        return PreferenceMatrix(range(n), range(m), scores).drop(i, j).scores

    @settings(deadline=None, max_examples=60)
    @given(tied_preference_matrices())
    def test_fold_targets_are_slices_of_shared_targets(self, scores):
        for i, j in itertools.product(*map(range, scores.shape)):
            fold = self.fold(scores, i, j)
            assert same_target(sliced_target(scores, j, i), similarity_stack(fold))
            assert same_target(sliced_target(scores.T, i, j),
                               similarity_stack(fold.T))

    def test_slicing_the_wrong_entity_differs(self):
        # distinct rows and columns: a slice that drops row i + 1 (or
        # column j + 1) is not the fold's target
        rng = np.random.default_rng(31)
        scores = np.array([rng.permutation(6) for _ in range(5)], dtype=float)
        for i, j in itertools.product(range(4), range(5)):
            fold = self.fold(scores, i, j)
            assert not same_target(sliced_target(scores, j, i + 1),
                                   similarity_stack(fold))
            assert not same_target(sliced_target(scores.T, i, j + 1),
                                   similarity_stack(fold.T))


class TestValidationErrors:
    def test_spearman_needs_two_values(self):
        with pytest.raises(ValueError, match="need at least two observations"):
            spearman([1.0], [2.0])
        with pytest.raises(ValueError, match=r"length mismatch: \(2,\) vs \(3,\)"):
            spearman([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_cube_needs_one_matrix_per_dataset(self):
        with pytest.raises(ValueError, match="one correctness matrix required"):
            OutcomeCube(("d0", "d1"), ("w0", "w1"), [np.ones((3, 2))])

    def test_cube_matrix_needs_a_column_per_workflow(self):
        with pytest.raises(ValueError, match="dataset 1: matrix must have 2 "
                                             "workflow columns"):
            OutcomeCube(("d0", "d1"), ("w0", "w1"),
                        [np.ones((3, 2)), np.ones((3, 3))])
        with pytest.raises(ValueError, match="dataset 0: matrix must have 2 "
                                             "workflow columns"):
            OutcomeCube(("d0",), ("w0", "w1"), [np.ones(2)])

    def test_cube_entries_are_zero_or_one(self):
        with pytest.raises(ValueError, match="dataset 0: correctness entries "
                                             "must be 0/1"):
            OutcomeCube(("d0",), ("w0", "w1"), [[[1.0, 0.5], [0.0, 1.0]]])
