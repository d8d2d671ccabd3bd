import numpy as np
import pytest

from metamine.data_model import (DescriptorTable, HyperParams, InitScheme,
                                 PerformanceMatrix, PreferenceMatrix,
                                 numeric_rank, standardize, validate_tables)

from hypothesis import given, settings
from hypothesis import strategies as st

from metamine.data_model import ModelParams, StandardizationRecord
from metamine.preference import SimilarityTarget


class TestValidateTables:
    def test_well_formed_inputs_pass(self, small_tables):
        x, a, p = small_tables
        assert validate_tables(x, a, p).passed

    def test_out_of_range_performance_reported_with_coordinate(self, small_tables):
        x, a, p = small_tables
        values = p.values.copy()
        values[1, 2] = 1.2
        bad = PerformanceMatrix(p.dataset_ids, p.workflow_ids, values)
        report = validate_tables(x, a, bad)
        assert not report.passed
        assert any("(1,2)" in str(i) and "out of [0,1]" in str(i)
                   for i in report.issues)

    def test_duplicate_dataset_id_named(self, small_tables):
        x, a, p = small_tables
        dup = DescriptorTable(("ds0", "ds0", "ds2"), x.features,
                              x.feature_names)
        report = validate_tables(dup, a, p)
        assert not report.passed
        assert any("'ds0'" in str(i) for i in report.issues)

    def test_nonfinite_feature_reported(self, small_tables):
        x, a, p = small_tables
        feats = x.features.copy()
        feats[0, 1] = np.nan
        bad = DescriptorTable(x.entity_ids, feats, x.feature_names)
        report = validate_tables(bad, a, p)
        assert any("non-finite" in str(i) for i in report.issues)

    def test_id_mismatch_reported(self, small_tables):
        x, a, p = small_tables
        shuffled = PerformanceMatrix(("dsX", *p.dataset_ids[1:]),
                                     p.workflow_ids, p.values)
        report = validate_tables(x, a, shuffled)
        assert not report.passed

    def test_collects_every_violation(self, small_tables):
        x, a, p = small_tables
        values = p.values.copy()
        values[0, 0] = -0.5
        values[2, 1] = 2.0
        bad = PerformanceMatrix(p.dataset_ids, p.workflow_ids, values)
        report = validate_tables(x, a, bad)
        assert len(report.issues) == 2


def _preferences(x, a, scores):
    return PreferenceMatrix(x.entity_ids, a.entity_ids, scores)


class TestValidateTablesWithPreferences:
    """R is checked by the same rule as X, A and P: its invariants, its
    finiteness and its ids against X's and A's."""

    valid = [[3.0, 1.5, 1.0, 0.5], [0.0, 1.0, 2.0, 3.0], [1.5, 1.5, 1.5, 1.5]]

    def test_valid_preferences_pass(self, small_tables):
        x, a, p = small_tables
        assert validate_tables(x, a, p, _preferences(x, a, self.valid)).passed

    def test_each_invariant_is_an_issue(self, small_tables):
        x, a, p = small_tables
        scores = np.array(self.valid)
        scores[0, 0] = 1e9      # row 0 sum and range
        scores[1, 0] = 0.25     # row 1 sum and half-point grid
        scores[2, 3] = np.nan   # row 2 sum and non-finite
        issues = [str(i) for i in validate_tables(
            x, a, p, _preferences(x, a, scores)).issues]
        assert issues == [
            "R[(2,3)]: non-finite value nan",
            "R[row 0]: sums to 1000000003.0, expected 6.0",
            "R[row 1]: sums to 6.25, expected 6.0",
            "R[row 2]: sums to nan, expected 6.0",
            "R[(0,0)]: preference score 1000000000.0 outside [0, 3]",
            "R[(1,0)]: preference score 0.25 not a multiple of 0.5",
        ]

    def test_renamed_id_does_not_match(self, small_tables):
        x, a, p = small_tables
        r = PreferenceMatrix(("stranger", *x.entity_ids[1:]), a.entity_ids,
                             self.valid)
        issues = validate_tables(x, a, p, r).issues
        assert [(i.where, i.coordinate) for i in issues] == [("R", "dataset_ids")]
        assert "do not match" in issues[0].reason
        assert "'stranger'" in issues[0].reason

    def test_without_performance_the_p_checks_are_skipped(self, small_tables):
        # a command that reads no P (train, predict) checks X, A and R alone;
        # the same P is still an issue wherever it is given
        x, a, p = small_tables
        values = p.values.copy()
        values[0, 1] = 2.0
        bad = PerformanceMatrix(("stranger", *p.dataset_ids[1:]),
                                p.workflow_ids, values)
        r = _preferences(x, a, self.valid)
        assert validate_tables(x, a, None, r).passed
        issues = validate_tables(x, a, bad, r).issues
        assert [(i.where, i.coordinate) for i in issues] == [
            ("P", "(0,1)"), ("P", "dataset_ids")]
        scores = np.array(self.valid)
        scores[0, 0] = 1e9
        issues = validate_tables(x, a, None, _preferences(x, a, scores)).issues
        assert {i.where for i in issues} == {"R"}

    def test_invariant_violations_name_each_issue(self):
        r = PreferenceMatrix(("d0",), ("w0", "w1", "w2"), [[0.0, 1.0, 2.0]])
        assert r.invariant_violations() == []
        r = PreferenceMatrix(("d0",), ("w0", "w1", "w2"), [[-1.0, 2.0, 2.0]])
        assert r.invariant_violations() == [
            ("(0,0)", "preference score -1.0 outside [0, 2]")]


class TestHyperParamsChecks:
    @pytest.mark.parametrize("t", [0, -2])
    def test_t_below_one_rejected(self, t):
        with pytest.raises(ValueError, match="t must be positive"):
            HyperParams(t=t)

    @pytest.mark.parametrize("field", ["mu1", "alpha", "rel_tol"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_weight_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            HyperParams(**{field: value})

    @pytest.mark.parametrize("scheme", list(InitScheme))
    def test_init_value_builds_its_member(self, scheme):
        assert HyperParams(init=scheme.value).init is scheme
        assert HyperParams(init=scheme).init is scheme

    def test_unknown_init_rejected(self):
        with pytest.raises(ValueError, match="bogus"):
            HyperParams(init="bogus")


class TestStandardize:
    def test_column_oracle(self):
        # population std of [1,2,3] is sqrt(2/3)
        table = DescriptorTable(("a", "b", "c"), [[1.0], [2.0], [3.0]],
                                ("f",))
        out, record = standardize(table)
        expected = np.array([-1.2247448713915892, 0.0, 1.2247448713915892])
        np.testing.assert_allclose(out.features[:, 0], expected, atol=1e-12)
        assert record.constant_columns == ()

    def test_constant_column_zeroed_and_flagged(self):
        table = DescriptorTable(("a", "b", "c"), [[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]],
                                ("f0", "f1"))
        out, record = standardize(table)
        assert np.all(out.features[:, 0] == 0.0)
        assert record.constant_columns == (0,)

    def test_idempotent_on_standardized_output(self, small_tables):
        x, _, _ = small_tables
        once, _ = standardize(x)
        twice, _ = standardize(once)
        np.testing.assert_allclose(twice.features, once.features, atol=1e-12)

    def test_record_transforms_unseen_entities_identically(self, small_tables):
        x, _, _ = small_tables
        out, record = standardize(x)
        np.testing.assert_array_equal(record.apply(x.features), out.features)


class TestNumericRank:
    def test_identity_full_rank(self):
        assert numeric_rank(np.eye(3)) == 3

    def test_outer_product_rank_one(self):
        u = np.array([1.0, -2.0, 0.5])
        v = np.array([3.0, 1.0])
        assert numeric_rank(np.outer(u, v)) == 1

    def test_duplicated_columns(self):
        rng = np.random.default_rng(7)
        base = rng.standard_normal((6, 3))
        m = np.column_stack([base, base[:, 0]])  # 6x4, two equal columns
        # oracle: count singular values explicitly
        s = np.linalg.svd(m, compute_uv=False)
        tol = s[0] * max(m.shape) * np.finfo(float).eps
        assert numeric_rank(m) == int(np.sum(s > tol)) == 3

    def test_zero_matrix(self):
        assert numeric_rank(np.zeros((4, 2))) == 0

    def test_transpose_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            rows, cols = rng.integers(2, 8, size=2)
            rank = int(rng.integers(1, min(rows, cols) + 1))
            m = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
            assert numeric_rank(m) == numeric_rank(m.T)


class TestPreferenceMatrixInvariants:
    def test_row_sum_violation_detected(self):
        r = PreferenceMatrix(("d0", "d1"), ("w0", "w1", "w2"),
                             [[2.0, 1.0, 0.0], [2.0, 1.0, 0.5]])
        assert r.invariant_violations() == [("row 1", "sums to 3.5, expected 3.0")]

    def test_half_point_grid_enforced(self):
        r = PreferenceMatrix(("d0",), ("w0", "w1", "w2"),
                             [[1.75, 1.0, 0.25]])
        assert r.invariant_violations() == [
            ("(0,0)", "preference score 1.75 not a multiple of 0.5"),
            ("(0,2)", "preference score 0.25 not a multiple of 0.5")]


class TestIdsInAnotherOrder:
    """Ids that equal their table's as a set are named where they first
    differ; any other mismatch keeps listing the ids on one side only."""

    valid = TestValidateTablesWithPreferences.valid

    def test_swapped_ids_name_the_first_position(self, small_tables):
        x, a, p = small_tables
        r = PreferenceMatrix(x.entity_ids, (a.entity_ids[0], a.entity_ids[2],
                                            a.entity_ids[1], a.entity_ids[3]),
                             self.valid)
        assert [str(i) for i in validate_tables(x, a, p, r).issues] == [
            "R[workflow_ids]: workflow ids do not match A entity ids "
            "(position 1 holds 'wf2' where A holds 'wf1')"]

    def test_repeated_id_names_the_position(self, small_tables):
        x, a, p = small_tables
        r = PreferenceMatrix((*x.entity_ids, "ds0"), a.entity_ids,
                             [*self.valid, self.valid[0]])
        assert [str(i) for i in validate_tables(x, a, None, r).issues] == [
            "R[row 3]: duplicate id 'ds0' (first at row 0)",
            "R[dataset_ids]: dataset ids do not match X entity ids "
            "(R holds 4 ids where X holds 3)"]

    def test_repeated_id_on_the_x_side_names_the_counts(self, small_tables):
        x, a, _ = small_tables
        x = DescriptorTable((*x.entity_ids, "ds0"), [*x.features, x.features[0]],
                            x.feature_names)
        r = PreferenceMatrix(x.entity_ids[:3], a.entity_ids, self.valid)
        assert [str(i) for i in validate_tables(x, a, None, r).issues] == [
            "X[row 3]: duplicate id 'ds0' (first at row 0)",
            "R[dataset_ids]: dataset ids do not match X entity ids "
            "(R holds 3 ids where X holds 4)"]

    def test_repeated_ids_of_p_and_r_columns(self, small_tables):
        x, a, p = small_tables
        workflows = (*a.entity_ids[:3], "wf0")
        p = PerformanceMatrix(("ds0", "ds1", "ds0"), workflows, p.values)
        r = PreferenceMatrix(x.entity_ids, workflows, self.valid)
        issues = [str(i) for i in validate_tables(x, a, p, r).issues]
        assert [i for i in issues if "duplicate" in i] == [
            "P[row 2]: duplicate id 'ds0' (first at row 0)",
            "P[column 3]: duplicate id 'wf0' (first at column 0)",
            "R[column 3]: duplicate id 'wf0' (first at column 0)"]

    def test_other_mismatches_list_the_ids(self, small_tables):
        x, a, p = small_tables
        r = PreferenceMatrix(("ds1", "ds0", "ds9"), a.entity_ids, self.valid)
        assert [str(i) for i in validate_tables(x, a, p, r).issues] == [
            "R[dataset_ids]: dataset ids do not match X entity ids "
            "(mismatch: ['ds2', 'ds9'])"]


def rank_by_formula(m):
    """The rank rule written out: the singular values above s_max *
    max(rows, cols) * eps, and 0 for an empty or all-zero matrix."""
    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.sum(s > s[0] * max(m.shape) * np.finfo(float).eps))


@st.composite
def rank_matrices(draw, rows=None, cols=None):
    """A rows x cols matrix (0-11 each unless given) that is a product
    through `inner` columns, so of rank at most `inner` (0 gives the zero
    matrix), with some columns zeroed and scaled by 10^-300 .. 10^300."""
    rows = draw(st.integers(0, 11)) if rows is None else rows
    cols = draw(st.integers(0, 11)) if cols is None else cols
    inner = draw(st.integers(0, max(rows, cols, 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = rng.standard_normal((rows, inner)) @ rng.standard_normal((inner, cols))
    m[:, draw(st.lists(st.booleans(), min_size=cols, max_size=cols))] = 0.0
    return m * 10.0 ** draw(st.integers(-300, 300))


class TestNumericRankOracle:
    """numeric_rank is numpy's matrix_rank at its default tolerance, which
    equals the rule written out: scaling by eps, a power of two, commutes
    with rounding."""

    @settings(max_examples=400, deadline=None)
    @given(rank_matrices())
    def test_matches_the_formula(self, m):
        assert numeric_rank(m) == rank_by_formula(m)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 11), st.integers(0, 11), st.data())
    def test_a_stack_gives_each_matrix_its_rank(self, k, rows, cols, data):
        stack = np.stack([data.draw(rank_matrices(rows, cols)) for _ in range(k)])
        assert np.linalg.matrix_rank(stack).tolist() == [
            numeric_rank(m) for m in stack] == [rank_by_formula(m) for m in stack]


def _record(given):
    return StandardizationRecord(mean=given[0], scale=given[1],
                                 constant_columns=[2])


# container -> (build from the caller's 2 x 3 array, id fields, array fields)
STORED = {
    "DescriptorTable": (lambda given: DescriptorTable(
        ["d0", "d1"], given, ["f0", "f1", "f2"]),
        ("entity_ids", "feature_names"), ("features",)),
    "PerformanceMatrix": (lambda given: PerformanceMatrix(
        ["d0", "d1"], ["w0", "w1", "w2"], given),
        ("dataset_ids", "workflow_ids"), ("values",)),
    "PreferenceMatrix": (lambda given: PreferenceMatrix(
        ["d0", "d1"], ["w0", "w1", "w2"], given),
        ("dataset_ids", "workflow_ids"), ("scores",)),
    "StandardizationRecord": (_record, ("constant_columns",), ("mean", "scale")),
    "ModelParams": (lambda given: ModelParams(
        u=given, v=given[:1], t=3, hyper=HyperParams(),
        x_standardization=_record(given), a_standardization=_record(given),
        objective="f3", x_feature_names=["f0", "f1"], a_feature_names=["p0"]),
        ("x_feature_names", "a_feature_names"), ("u", "v")),
    "SimilarityTarget": (lambda given: SimilarityTarget(given, [1]),
                         ("constant_entities",), ("matrix",)),
}


class TestStorageRule:
    """Every frozen container stores ids as tuples and arrays as read-only
    float copies, leaving the caller's own array as it was."""

    @pytest.mark.parametrize("build, ids, arrays", STORED.values(),
                             ids=STORED.keys())
    def test_ids_are_tuples_and_arrays_read_only_copies(self, build, ids, arrays):
        given = np.arange(6.0).reshape(2, 3)
        stored = build(given)
        for name in ids:
            assert isinstance(getattr(stored, name), tuple), name
        for name in arrays:
            array = getattr(stored, name)
            assert not array.flags.writeable, name
            assert not np.shares_memory(array, given), name
        assert given.flags.writeable
        np.testing.assert_array_equal(given, np.arange(6.0).reshape(2, 3))
