"""Preference-matrix construction from paired base-level outcomes, and the
rank-correlation similarity targets the metric objectives fit against."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_model import IngestError, PreferenceMatrix, _as_readonly, _store

# the level of every McNemar comparison, and its chi-square(1) critical
# value, scipy.stats.chi2.ppf(1 - ALPHA, 1) (tests/test_preference.py
# checks it)
ALPHA = 0.05
_CHI2_CRITICAL = 3.841458820694124


@dataclass(frozen=True)
class OutcomeCube:
    """Per-dataset matrices of per-instance correctness indicators.

    matrices[i] has shape (instances_i, m): rows are held-out instances
    pooled across CV folds, columns follow workflow_ids. All workflows of a
    dataset share the same instance axis, so comparisons are paired.
    """

    dataset_ids: tuple
    workflow_ids: tuple
    matrices: tuple  # one (instances_i x m) array per dataset

    def __post_init__(self):
        _store(self, dataset_ids=tuple, workflow_ids=tuple,
               matrices=lambda ms: tuple(np.asarray(m, dtype=float) for m in ms))
        if len(self.matrices) != len(self.dataset_ids):
            raise ValueError("one correctness matrix required per dataset")
        m = len(self.workflow_ids)
        for i, mat in enumerate(self.matrices):
            if mat.ndim != 2 or mat.shape[1] != m:
                raise ValueError(f"dataset {i}: matrix must have {m} workflow columns")
            if mat.shape[0] < 1:
                raise ValueError(f"dataset {i}: needs at least one instance")
            if not np.isin(mat, (0.0, 1.0)).all():
                raise ValueError(f"dataset {i}: correctness entries must be 0/1")


@dataclass(frozen=True)
class SimilarityTarget:
    """Symmetric rank-correlation matrix over entities of one axis.

    Entities with constant preference vectors (correlation undefined) get 0
    off-diagonal / 1 on-diagonal and are listed in constant_entities.
    """

    matrix: np.ndarray
    constant_entities: tuple = ()

    def __post_init__(self):
        _store(self, matrix=_as_readonly, constant_entities=tuple)


def points(wins) -> np.ndarray:
    """Comparison points from win matrices, wins[k, l] true when workflow
    k beats l: 1 per win plus 0.5 per pair that neither side wins, so a row
    sums to m(m-1)/2. Takes one m x m matrix or an n x m x m stack."""
    wins = np.asarray(wins, dtype=bool)
    won = wins.sum(axis=-1)
    lost = wins.sum(axis=-2)
    return won + 0.5 * (wins.shape[-1] - 1 - won - lost)


def mcnemar_wins(correctness) -> np.ndarray:
    """Win matrix of one dataset from paired McNemar comparisons.

    correctness: (instances x m) 0/1 matrix. Workflow k beats l when the
    continuity-corrected statistic (|b-c|-1)^2/(b+c) exceeds the
    chi-square(1) critical value at level ALPHA and b > c, where b counts
    the instances k gets right and l wrong, c the reverse. A pair with
    b+c = 0 never wins.
    """
    c = np.asarray(correctness, dtype=float)
    b = c.T @ (1.0 - c)                  # b[k, l]: k right, l wrong
    with np.errstate(divide="ignore"):
        statistic = (np.abs(b - b.T) - 1.0) ** 2 / (b + b.T)
    return (statistic > _CHI2_CRITICAL) & (b > b.T)  # b > c rules out b+c = 0


def build_preference_matrix(cube: OutcomeCube) -> PreferenceMatrix:
    """Populate R: row i holds the points of all workflows on dataset i,
    each workflow pair compared once with McNemar (mcnemar_wins)."""
    if len(cube.workflow_ids) < 2:
        raise IngestError("need at least two workflows to compare")
    return PreferenceMatrix(cube.dataset_ids, cube.workflow_ids,
                            points([mcnemar_wins(mat) for mat in cube.matrices]))


def build_preference_from_significance(dataset_ids, workflow_ids,
                                       wins) -> PreferenceMatrix:
    """R from wins, an n x m x m stack of win matrices, one per dataset:
    those read_significance_csv gives, or synth's."""
    return PreferenceMatrix(dataset_ids, workflow_ids, points(wins))


def _average_ranks(values):
    """Ranks 1..m along the last axis of a stack (..., m), each run of ties
    at the mean of its ranks and a row that holds a nan all nan, as
    scipy.stats.rankdata(method="average") ranks them."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, axis=-1)
    ordered = np.take_along_axis(values, order, axis=-1)
    first = np.ones(values.shape, dtype=bool)      # the first of a tie run
    first[..., 1:] = ordered[..., 1:] != ordered[..., :-1]
    starts = np.flatnonzero(first)
    lengths = np.diff(starts, append=first.size)
    mean_ranks = starts % values.shape[-1] + (lengths + 1) / 2.0
    ranks = np.empty_like(values)
    np.put_along_axis(ranks, order, np.repeat(mean_ranks, lengths)
                      .reshape(values.shape), axis=-1)
    ranks[np.isnan(values).any(axis=-1)] = np.nan
    return ranks


def _rank_correlations(vectors):
    """Spearman correlation of every pair of rows of each matrix of a stack
    (..., k, m), one Gram product of the centred average ranks per
    matrix, and the mask of constant rows, whose entries are nan. Centred
    average ranks are multiples of 0.5, so the Gram entries and squared
    norms are exact and each entry rounds as the per-pair formula
    rx @ ry / sqrt((rx @ rx) * (ry @ ry)) does, whatever the stack."""
    ranks = _average_ranks(vectors)
    ranks -= ranks.mean(axis=-1, keepdims=True)
    sq = (ranks ** 2).sum(axis=-1)
    with np.errstate(invalid="ignore"):
        corr = ranks @ ranks.mT / np.sqrt(sq[..., :, None] * sq[..., None, :])
    return corr, sq == 0.0


def spearman_many(x, y):
    """spearman of each row pair of two stacks (..., m) that broadcast
    against each other, all pairs ranked in one _rank_correlations call:
    an array of the broadcast shape less its last axis."""
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    corr, constant = _rank_correlations(np.stack([x, y], axis=-2))
    return np.where(constant.any(axis=-1), np.nan, corr[..., 0, 1])


def spearman(x, y):
    """Tie-aware Spearman correlation: Pearson over average ranks.

    Returns nan when either vector is constant (correlation undefined),
    and raises a ValueError on a length mismatch or fewer than two values.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.shape} vs {y.shape}")
    if x.size < 2:
        raise ValueError("need at least two observations")
    return float(spearman_many(x.ravel(), y.ravel()))


def similarity_stack(scores):
    """Rank-correlation similarity matrices over the rows of each score
    matrix of a stack (..., k, m), in one _rank_correlations call, and the
    mask of constant rows, whose entries are 0 off the diagonal and 1 on it."""
    corr, constant = _rank_correlations(scores)
    corr[constant[..., :, None] | constant[..., None, :]] = 0.0
    diagonal = np.arange(corr.shape[-1])
    corr[..., diagonal, diagonal] = 1.0
    return corr, constant


def similarity_target(scores) -> SimilarityTarget:
    """similarity_stack of the rows of one score matrix: R's (datasets) or
    R's transpose (workflows)."""
    corr, constant = similarity_stack(scores)
    return SimilarityTarget(corr, tuple(np.flatnonzero(constant).tolist()))
