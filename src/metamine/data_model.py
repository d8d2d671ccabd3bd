"""Core numeric containers: descriptor tables, performance and preference
matrices, learned-model parameters, and the shared numeric utilities
(validation, column standardization, numeric rank)."""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from enum import Enum
from typing import Optional, Sequence

import numpy as np


class TableKind(str, Enum):
    DATASET = "dataset"
    WORKFLOW = "workflow"


class InitScheme(str, Enum):
    SEEDED_GAUSSIAN = "seeded_gaussian"
    SVD_WARM_START = "svd_warm_start"


def _as_readonly(a, dtype=float):
    out = np.array(a, dtype=dtype, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class DescriptorTable:
    """Dense entity-by-feature matrix with row ids and column names.

    Rows are entities (datasets or workflows), columns are named numeric
    descriptors. Immutable after construction.
    """

    entity_ids: tuple
    features: np.ndarray
    feature_names: tuple
    kind: TableKind

    def __post_init__(self):
        object.__setattr__(self, "entity_ids", tuple(self.entity_ids))
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        object.__setattr__(self, "features", _as_readonly(self.features))
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

    def row(self, entity_id) -> np.ndarray:
        return self.features[self.entity_ids.index(entity_id)]

    def drop_entity(self, index: int) -> "DescriptorTable":
        keep = [i for i in range(self.n_entities) if i != index]
        return DescriptorTable(
            entity_ids=tuple(self.entity_ids[i] for i in keep),
            features=self.features[keep],
            feature_names=self.feature_names,
            kind=self.kind,
        )


@dataclass(frozen=True)
class PerformanceMatrix:
    """Raw estimated performance (e.g. CV accuracy in [0,1]) per
    dataset-workflow cell. Dense: missing entries are rejected upstream."""

    dataset_ids: tuple
    workflow_ids: tuple
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dataset_ids", tuple(self.dataset_ids))
        object.__setattr__(self, "workflow_ids", tuple(self.workflow_ids))
        object.__setattr__(self, "values", _as_readonly(self.values))
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
        object.__setattr__(self, "dataset_ids", tuple(self.dataset_ids))
        object.__setattr__(self, "workflow_ids", tuple(self.workflow_ids))
        object.__setattr__(self, "scores", _as_readonly(self.scores))
        if self.scores.shape != (len(self.dataset_ids), len(self.workflow_ids)):
            raise ValueError("preference matrix shape does not match id lists")

    @property
    def n_datasets(self):
        return self.scores.shape[0]

    @property
    def n_workflows(self):
        return self.scores.shape[1]

    def check_invariants(self, atol=0.0):
        """Raise ValueError on any violated preference-matrix invariant."""
        m = self.n_workflows
        expected = m * (m - 1) / 2.0
        sums = self.scores.sum(axis=1)
        if not np.all(sums == expected):
            bad = int(np.argmax(sums != expected))
            raise ValueError(
                f"row {bad} sums to {sums[bad]}, expected {expected}"
            )
        if np.any(self.scores < 0) or np.any(self.scores > m - 1):
            raise ValueError("preference score outside [0, m-1]")
        doubled = 2.0 * self.scores
        if not np.all(doubled == np.round(doubled)):
            raise ValueError("preference score not a multiple of 0.5")

    def drop(self, dataset_index=None, workflow_index=None) -> "PreferenceMatrix":
        """Submatrix with one row and/or one column removed. The result is a
        plain score table; row-sum invariants no longer apply."""
        rows = [i for i in range(self.n_datasets) if i != dataset_index]
        cols = [j for j in range(self.n_workflows) if j != workflow_index]
        return PreferenceMatrix(
            dataset_ids=tuple(self.dataset_ids[i] for i in rows),
            workflow_ids=tuple(self.workflow_ids[j] for j in cols),
            scores=self.scores[np.ix_(rows, cols)],
        )


@dataclass(frozen=True)
class StandardizationRecord:
    """Per-column mean/scale needed to transform unseen entities exactly as
    the training table was transformed. Zero-variance columns keep scale 1
    and are flagged."""

    mean: np.ndarray
    scale: np.ndarray
    constant_columns: tuple

    def __post_init__(self):
        object.__setattr__(self, "mean", _as_readonly(self.mean))
        object.__setattr__(self, "scale", _as_readonly(self.scale))
        object.__setattr__(self, "constant_columns", tuple(self.constant_columns))

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
        for name in ("mu1", "mu2", "alpha", "beta", "gamma"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.n_neighbors < 1:
            raise ValueError("n_neighbors must be positive")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if self.rel_tol <= 0:
            raise ValueError("rel_tol must be positive")

    def to_dict(self):
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["init"] = self.init.value
        return d

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        d["init"] = InitScheme(d.get("init", InitScheme.SEEDED_GAUSSIAN))
        return cls(**d)


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
        object.__setattr__(self, "u", _as_readonly(self.u))
        object.__setattr__(self, "v", _as_readonly(self.v))
        if self.x_feature_names is not None:
            object.__setattr__(self, "x_feature_names", tuple(self.x_feature_names))
        if self.a_feature_names is not None:
            object.__setattr__(self, "a_feature_names", tuple(self.a_feature_names))
        if self.u.shape[1] != self.t or self.v.shape[1] != self.t:
            raise ValueError("u and v must both have t columns")

    def transform_dataset(self, features: np.ndarray) -> np.ndarray:
        return self.x_standardization.apply(features)

    def transform_workflow(self, features: np.ndarray) -> np.ndarray:
        return self.a_standardization.apply(features)


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


def _check_ids(report, where, ids):
    seen = {}
    for i, eid in enumerate(ids):
        if eid in seen:
            report.add(where, f"row {i}", f"duplicate id {eid!r} (first at row {seen[eid]})")
        else:
            seen[eid] = i


def _check_finite(report, where, values):
    bad = np.argwhere(~np.isfinite(values))
    for i, j in bad:
        report.add(where, f"({i},{j})", f"non-finite value {values[i, j]!r}")


def validate_tables(x: DescriptorTable, a: DescriptorTable,
                    p: PerformanceMatrix) -> ValidationReport:
    """Cross-check the descriptor tables and the performance matrix.

    Collects every violation (never aborts): duplicate ids, non-finite
    values, out-of-range performances, and id mismatches between the
    descriptor tables and the performance matrix.
    """
    report = ValidationReport()
    _check_ids(report, "X", x.entity_ids)
    _check_ids(report, "A", a.entity_ids)
    _check_finite(report, "X", x.features)
    _check_finite(report, "A", a.features)
    _check_finite(report, "P", p.values)

    finite = np.isfinite(p.values)
    out = np.argwhere(finite & ((p.values < 0) | (p.values > 1)))
    for i, j in out:
        report.add("P", f"({i},{j})", f"performance {p.values[i, j]} out of [0,1]")

    if tuple(p.dataset_ids) != tuple(x.entity_ids):
        missing = set(p.dataset_ids) ^ set(x.entity_ids)
        report.add("P", "dataset_ids",
                   f"dataset ids do not match X entity ids (mismatch: {sorted(missing)})")
    if tuple(p.workflow_ids) != tuple(a.entity_ids):
        missing = set(p.workflow_ids) ^ set(a.entity_ids)
        report.add("P", "workflow_ids",
                   f"workflow ids do not match A entity ids (mismatch: {sorted(missing)})")
    return report


def standardize(table: DescriptorTable):
    """Z-score each column (population std). Zero-variance columns are left
    at 0 and flagged in the record. Returns (standardized table, record)."""
    f = table.features
    mean = f.mean(axis=0)
    std = f.std(axis=0)  # population std
    constant = np.flatnonzero(std == 0.0)
    scale = np.where(std == 0.0, 1.0, std)
    record = StandardizationRecord(mean=mean, scale=scale,
                                   constant_columns=tuple(int(c) for c in constant))
    return replace(table, features=record.apply(f)), record


def numeric_rank(matrix: np.ndarray, tol_factor: float = 1.0) -> int:
    """Count of singular values above
    tol_factor * s_max * max(rows, cols) * machine_eps."""
    m = np.asarray(matrix, dtype=float)
    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    tol = tol_factor * s[0] * max(m.shape) * np.finfo(float).eps
    return int(np.sum(s > tol))
