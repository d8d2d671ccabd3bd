"""Core numeric containers: descriptor tables, performance and preference
matrices, the bundle of all three, learned-model parameters, and the shared
numeric utilities (validation, column standardization, numeric rank)."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Optional

import numpy as np


class IngestError(ValueError):
    """Input the command cannot use: a file, a flag, a config value or a
    setting. The one error the CLI reports as a validation error (exit 1)."""


class InitScheme(str, Enum):
    SEEDED_GAUSSIAN = "seeded_gaussian"
    SVD_WARM_START = "svd_warm_start"


def _as_readonly(a):
    out = np.array(a, dtype=float, copy=True)
    out.setflags(write=False)
    return out


def _store(obj, **convert):
    """Set each named field of the frozen dataclass obj to its value passed
    through convert[name]: the one way a container stores its fields."""
    for name, to_stored in convert.items():
        object.__setattr__(obj, name, to_stored(getattr(obj, name)))


@dataclass(frozen=True)
class DescriptorTable:
    """Dense entity-by-feature matrix with row ids and column names.

    Rows are entities (datasets or workflows), columns are named numeric
    descriptors. Immutable after construction.
    """

    entity_ids: tuple
    features: np.ndarray
    feature_names: tuple

    def __post_init__(self):
        _store(self, entity_ids=tuple, feature_names=tuple, features=_as_readonly)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-d matrix")
        n, d = self.features.shape
        if n != len(self.entity_ids):
            raise ValueError(
                f"{n} feature rows but {len(self.entity_ids)} entity ids"
            )
        if d != len(self.feature_names):
            raise ValueError(
                f"{d} feature columns but {len(self.feature_names)} names"
            )

    @property
    def n_entities(self):
        return self.features.shape[0]

    @property
    def n_features(self):
        return self.features.shape[1]

    def drop_entity(self, index: int) -> "DescriptorTable":
        keep = [i for i in range(self.n_entities) if i != index]
        return replace(self, entity_ids=[self.entity_ids[i] for i in keep],
                       features=self.features[keep])


@dataclass(frozen=True)
class PerformanceMatrix:
    """Raw estimated performance (e.g. CV accuracy in [0,1]) per
    dataset-workflow cell. Dense: missing entries are rejected upstream."""

    dataset_ids: tuple
    workflow_ids: tuple
    values: np.ndarray

    def __post_init__(self):
        _store(self, dataset_ids=tuple, workflow_ids=tuple, values=_as_readonly)
        if self.values.shape != (len(self.dataset_ids), len(self.workflow_ids)):
            raise ValueError("performance matrix shape does not match id lists")


@dataclass(frozen=True)
class PreferenceMatrix:
    """Dataset-by-workflow matrix of pairwise-comparison points.

    Each row sums to m(m-1)/2 where m is the number of workflows; every
    entry is a multiple of 0.5 in [0, m-1].
    """

    dataset_ids: tuple
    workflow_ids: tuple
    scores: np.ndarray

    def __post_init__(self):
        _store(self, dataset_ids=tuple, workflow_ids=tuple, scores=_as_readonly)
        if self.scores.shape != (len(self.dataset_ids), len(self.workflow_ids)):
            raise ValueError("preference matrix shape does not match id lists")

    @property
    def n_datasets(self):
        return self.scores.shape[0]

    @property
    def n_workflows(self):
        return self.scores.shape[1]

    def invariant_violations(self):
        """(coordinate, reason) of every violated preference-matrix
        invariant: the row sums, then the [0, m-1] range and the half-point
        grid of the finite entries."""
        m = self.n_workflows
        expected = m * (m - 1) / 2.0
        sums = self.scores.sum(axis=1)
        found = [(f"row {i}", f"sums to {sums[i]}, expected {expected}")
                 for i in np.flatnonzero(sums != expected)]
        doubled = 2.0 * self.scores
        for reason, bad in (
                (f"outside [0, {m - 1}]", (self.scores < 0) | (self.scores > m - 1)),
                ("not a multiple of 0.5", doubled != np.round(doubled))):
            found += [(f"({i},{j})", f"preference score {self.scores[i, j]} {reason}")
                      for i, j in np.argwhere(np.isfinite(self.scores) & bad)]
        return found

    def drop(self, dataset_index=None, workflow_index=None) -> "PreferenceMatrix":
        """Submatrix with one row and/or one column removed. The result is a
        plain score table; row-sum invariants no longer apply."""
        rows = [i for i in range(self.n_datasets) if i != dataset_index]
        cols = [j for j in range(self.n_workflows) if j != workflow_index]
        return PreferenceMatrix(
            dataset_ids=[self.dataset_ids[i] for i in rows],
            workflow_ids=[self.workflow_ids[j] for j in cols],
            scores=self.scores[np.ix_(rows, cols)],
        )


@dataclass(frozen=True)
class MetaMiningData:
    """One bundle: the descriptor tables X and A, the preference matrix R
    and the performance matrix P (None where it was not read)."""

    x: DescriptorTable
    a: DescriptorTable
    r: PreferenceMatrix
    performance: Optional[PerformanceMatrix] = None


@dataclass(frozen=True)
class StandardizationRecord:
    """Per-column mean/scale needed to transform unseen entities exactly as
    the training table was transformed. Zero-variance columns keep scale 1
    and are flagged."""

    mean: np.ndarray
    scale: np.ndarray
    constant_columns: tuple

    def __post_init__(self):
        _store(self, mean=_as_readonly, scale=_as_readonly, constant_columns=tuple)

    def apply(self, features: np.ndarray) -> np.ndarray:
        return (np.asarray(features, dtype=float) - self.mean) / self.scale


@dataclass(frozen=True)
class HyperParams:
    """Training configuration shared by all four objectives.

    mu1/mu2 weight the Frobenius regularizers of the dataset-side (U) and
    workflow-side (V) factors; alpha/beta/gamma weight the three data terms
    of the combined objective.
    """

    mu1: float = 0.5
    mu2: float = 0.5
    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 1.0
    n_neighbors: int = 5
    max_iters: int = 5000
    rel_tol: float = 1e-8
    seed: int = 0
    init: InitScheme = InitScheme.SEEDED_GAUSSIAN
    t: Optional[int] = None  # None -> min(numeric_rank(X), numeric_rank(A))

    def __post_init__(self):
        _store(self, init=InitScheme)
        for name in ("mu1", "mu2", "alpha", "beta", "gamma"):
            if not 0 <= getattr(self, name) < np.inf:  # nan fails too
                raise IngestError(f"{name} must be finite and nonnegative")
        if self.n_neighbors < 1:
            raise IngestError("n_neighbors must be positive")
        if self.max_iters < 0:
            raise IngestError("max_iters must be nonnegative")
        if self.seed < 0:
            raise IngestError("seed must be nonnegative")
        if not 0 < self.rel_tol < np.inf:
            raise IngestError("rel_tol must be finite and positive")
        if self.t is not None and self.t < 1:
            raise IngestError("t must be positive")


@dataclass(frozen=True)
class ModelParams:
    """Learned projections plus everything needed to apply them to unseen
    entities: U (d x t), V (l x t), the hyperparameters, and the feature
    standardization records of the training tables.

    The induced metric matrices U U^T and V V^T are PSD by construction;
    U V^T scores dataset-workflow pairs directly.
    """

    u: np.ndarray
    v: np.ndarray
    t: int
    hyper: HyperParams
    x_standardization: StandardizationRecord
    a_standardization: StandardizationRecord
    objective: str  # which objective produced this model ("f1".."f4")
    x_feature_names: Optional[tuple] = None
    a_feature_names: Optional[tuple] = None

    def __post_init__(self):
        _store(self, u=_as_readonly, v=_as_readonly, **{
            name: tuple for name in ("x_feature_names", "a_feature_names")
            if getattr(self, name) is not None})
        if self.u.shape[1] != self.t or self.v.shape[1] != self.t:
            raise ValueError("u and v must both have t columns")


@dataclass(frozen=True)
class ValidationIssue:
    where: str        # table or matrix name
    coordinate: str   # row/column or id description
    reason: str

    def __str__(self):
        return f"{self.where}[{self.coordinate}]: {self.reason}"


@dataclass
class ValidationReport:
    issues: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.issues

    def add(self, where, coordinate, reason):
        self.issues.append(ValidationIssue(where, coordinate, reason))

    def __str__(self):
        if self.passed:
            return "validation passed"
        return "\n".join(str(i) for i in self.issues)


def _check_ids(report, where, ids, axis="row"):
    seen = {}
    for i, eid in enumerate(ids):
        if eid in seen:
            report.add(where, f"{axis} {i}",
                       f"duplicate id {eid!r} (first at {axis} {seen[eid]})")
        else:
            seen[eid] = i


def _check_finite(report, where, values):
    for i, j in np.argwhere(~np.isfinite(values)):
        report.add(where, f"({i},{j})", f"non-finite value {float(values[i, j])!r}")


def _check_same_ids(report, where, axis, ids, table, expected):
    if tuple(ids) != tuple(expected):
        detail = f"mismatch: {sorted(set(ids) ^ set(expected))}"
        if set(ids) == set(expected) and len(ids) != len(expected):
            detail = f"{where} holds {len(ids)} ids where {table} holds {len(expected)}"
        elif set(ids) == set(expected):   # the same ids: name where they part
            i, (got, want) = next((i, pair) for i, pair in enumerate(
                zip(ids, expected)) if pair[0] != pair[1])
            detail = f"position {i} holds {got!r} where {table} holds {want!r}"
        report.add(where, f"{axis}_ids", f"{axis} ids do not match {table} "
                                         f"entity ids ({detail})")


def _check_standardizes(report, where, table):
    """Each all-finite column whose standardization record (the mean and
    scale a model stores) is not finite: a value near 1e154 or beyond
    overflows the column's variance."""
    with np.errstate(over="ignore", invalid="ignore"):
        _, record = standardize(table)
    ok = np.isfinite(record.mean) & np.isfinite(record.scale)
    largest = np.abs(table.features).max(axis=0, initial=0.0)
    for j in np.flatnonzero(~ok & np.isfinite(table.features).all(axis=0)):
        report.add(where, f"column {table.feature_names[j]!r}",
                   f"does not standardize to finite values "
                   f"(largest magnitude {float(largest[j])!r})")


def validate_tables(x: DescriptorTable, a: DescriptorTable,
                    p: Optional[PerformanceMatrix],
                    r: Optional[PreferenceMatrix] = None) -> ValidationReport:
    """Cross-check the descriptor tables and, when given, the performance
    and preference matrices: the one rule for a valid bundle.

    Collects every violation (never aborts): duplicate ids, non-finite
    values, descriptor columns that do not standardize to finite values,
    out-of-range performances, R's invariants (row sums, range, half-point
    grid), and id mismatches between the descriptor tables and the P and R
    matrices.
    """
    report = ValidationReport()
    _check_ids(report, "X", x.entity_ids)
    _check_ids(report, "A", a.entity_ids)
    _check_finite(report, "X", x.features)
    _check_finite(report, "A", a.features)
    _check_standardizes(report, "X", x)
    _check_standardizes(report, "A", a)
    for where, matrix in (("P", p), ("R", r)):
        if matrix is None:
            continue
        values = matrix.values if where == "P" else matrix.scores
        _check_ids(report, where, matrix.dataset_ids)
        _check_ids(report, where, matrix.workflow_ids, "column")
        _check_finite(report, where, values)
        found = (matrix.invariant_violations() if where == "R" else
                 [(f"({i},{j})", f"performance {values[i, j]} out of [0,1]") for i, j
                  in np.argwhere(np.isfinite(values) & ((values < 0) | (values > 1)))])
        for coordinate, reason in found:
            report.add(where, coordinate, reason)
        _check_same_ids(report, where, "dataset", matrix.dataset_ids, "X", x.entity_ids)
        _check_same_ids(report, where, "workflow", matrix.workflow_ids, "A", a.entity_ids)
    return report


def validate_queries(where, table: DescriptorTable, feature_names,
                     n_features) -> ValidationReport:
    """Check a table of query entities, labelled where ("X" or "A"), by
    the bundle's rules for ids and values, and its features against a
    model's: their names where the model stores them, else their count,
    n_features (the rows of U or V)."""
    report = ValidationReport()
    if feature_names is not None:
        if table.feature_names != tuple(feature_names):
            report.add(where, "feature_names", "feature names do not match the model")
    elif table.n_features != n_features:
        report.add(where, "features", f"{table.n_features} features where "
                                      f"the model has {n_features}")
    _check_ids(report, where, table.entity_ids)
    _check_finite(report, where, table.features)
    return report


def standardize_stack(features: np.ndarray):
    """Z-score each column (population std) of each matrix of a stack
    (k, n, d); a zero-variance column is left at 0 and flagged in its
    matrix's record. Returns (standardized stack, k records)."""
    mean, std = features.mean(axis=-2), features.std(axis=-2)
    scale = np.where(std == 0.0, 1.0, std)
    records = [StandardizationRecord(mu, sc, np.flatnonzero(sd == 0.0).tolist())
               for mu, sc, sd in zip(mean, scale, std)]
    return (features - mean[:, None]) / scale[:, None], records


def standardize(table: DescriptorTable):
    """standardize_stack of one table: (standardized table, record)."""
    (features,), (record,) = standardize_stack(table.features[None])
    return replace(table, features=features), record


def numeric_rank(matrix: np.ndarray) -> int:
    """Count of singular values above s_max * max(rows, cols) *
    machine_eps: np.linalg.matrix_rank at its default tolerance."""
    return int(np.linalg.matrix_rank(np.asarray(matrix, dtype=float)))
