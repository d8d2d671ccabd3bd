"""Prediction strategies for the three tasks: learned-metric kNN, direct
bilinear scoring, and the default / Euclidean baselines.

`predict` serves one query, a table of them or a stack of folds in one
call, with one strategy from raw descriptors; it is the one place that
decides which predictor a (strategy, task) pair uses. Its predictors take
descriptors standardized with the model's records; a query table's rows
and a stack's folds get the bits of one-query calls (np.matvec /
np.vecdot). All are pure and thread-safe.
A PreferencePrediction holds scores and flags; strategy and task are the
caller's."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .data_model import ModelParams, PreferenceMatrix, _each, standardize_stack


class Task(str, Enum):
    WORKFLOW_PREFS = "workflow_prefs"   # rank workflows for a new dataset
    DATASET_PREFS = "dataset_prefs"     # rank datasets for a new workflow
    PAIR_SCORE = "pair_score"           # score a new (dataset, workflow) pair


class Strategy(str, Enum):
    DEFAULT = "def"
    EUCLIDEAN = "ec"
    F1_KNN = "f1_knn"
    F2_KNN = "f2_knn"
    F3_DIRECT = "f3_direct"
    F4_DIRECT = "f4_direct"
    F4_KNN = "f4_knn"


_RANKING = frozenset({Task.WORKFLOW_PREFS, Task.DATASET_PREFS})

# strategy -> the tasks it can serve. A kNN strategy needs a learned metric
# on the query's side: f1 trains only U (datasets), f2 only V (workflows).
TASKS = {
    Strategy.DEFAULT: frozenset(Task),
    Strategy.EUCLIDEAN: _RANKING,
    Strategy.F1_KNN: frozenset({Task.WORKFLOW_PREFS}),
    Strategy.F2_KNN: frozenset({Task.DATASET_PREFS}),
    Strategy.F3_DIRECT: frozenset(Task),
    Strategy.F4_DIRECT: frozenset(Task),
    Strategy.F4_KNN: _RANKING,
}

# learning strategy -> objective of the model it predicts with
OBJECTIVES = {
    Strategy.F1_KNN: "f1",
    Strategy.F2_KNN: "f2",
    Strategy.F3_DIRECT: "f3",
    Strategy.F4_DIRECT: "f4",
    Strategy.F4_KNN: "f4",
}

_KNN = (Strategy.F1_KNN, Strategy.F2_KNN, Strategy.F4_KNN)


@dataclass(frozen=True)
class PreferencePrediction:
    values: np.ndarray    # m / n scores, or pair scores (0-d for one); a
    #                       query table adds a leading axis, one row per query
    flags: tuple = ()     # e.g. "nonpositive_similarity_fallback"; per query


def _flags(fallback):
    """A query's flags from its kNN fallback bool, or a table's, per row."""
    if np.ndim(fallback):
        return tuple(map(_flags, fallback))
    return ("nonpositive_similarity_fallback",) if fallback else ()


def _unflagged(values, lead):
    """values of the queries along the axes `lead`, none of them flagged."""
    return PreferencePrediction(values, _flags(np.zeros(lead, bool)))


def learned_similarity(e1, e2, p) -> float:
    """Bilinear similarity through p p', p = U (datasets) or V (workflows).

    Symmetric in its arguments and nonnegative for e1 == e2.
    """
    z1 = p.T @ np.asarray(e1, dtype=float)
    z2 = p.T @ np.asarray(e2, dtype=float)
    return float(z1 @ z2)


def _weighted_rows(table, picked, weights):
    """The weighted mean of the rows picked (..., k) of each training set's
    table (..., n, c): of each query's neighbours."""
    table = table.reshape((1,) * (picked.ndim + 1 - table.ndim) + table.shape)
    rows = np.take_along_axis(table, picked[..., None], -2)
    w = np.asarray(weights, dtype=float)
    return (w[..., None] * rows).sum(axis=-2) / w.sum(axis=-1)[..., None]


def _knn_by_similarity(sims, n):
    """Indices of the n largest similarities along the last axis, ties broken
    by training index (stable). Raises ValueError for an empty training set."""
    if np.shape(sims)[-1] == 0:
        raise ValueError("empty training set")
    return np.argsort(-np.asarray(sims), axis=-1, kind="stable")[..., : int(n)]


def _knn_predict(query, train_std, p, pref_rows, n):
    """kNN over the similarity through p p', p = U (datasets) or V."""
    sims = np.matvec(train_std @ p, np.matvec(p.mT, np.asarray(query, dtype=float)))
    picked = _knn_by_similarity(sims, n)
    w = np.maximum(np.take_along_axis(sims, picked, -1), 0.0)
    fallback = w.sum(axis=-1) <= 0.0        # uniform weights instead
    w = np.where(fallback[..., None], 1.0, w)
    return PreferencePrediction(_weighted_rows(pref_rows, picked, w),
                                _flags(fallback))


def knn_predict_workflow_prefs(x_new, train_x_std, r: PreferenceMatrix,
                               params: ModelParams, n: int):
    """Similarity-weighted average of the n most similar training datasets'
    preference rows. Nonpositive similarity sums fall back to uniform
    weights over the selected neighbors (flagged)."""
    return _knn_predict(x_new, train_x_std, params.u, r.scores, n)


def knn_predict_dataset_prefs(a_new, train_a_std, r: PreferenceMatrix,
                              params: ModelParams, n: int):
    """Mirror of the workflow-preference predictor over columns of R."""
    return _knn_predict(a_new, train_a_std, params.v, r.scores.mT, n)


def predict_pair(x_new, a_new, params: ModelParams):
    """Direct heterogeneous score x' U V' a of one dataset against one
    workflow (0-d) or a table of them, one per row; a table of datasets
    adds a leading axis. Fold-stacked models score one pair per fold.
    Each score equals the per-pair (u'x) @ (v'a) to the last bit, which
    one product of the projections is not on OpenBLAS."""
    zx = np.matvec(params.u.mT, np.asarray(x_new, dtype=float))
    za = np.matvec(params.v.mT, np.asarray(a_new, dtype=float))
    return np.vecdot(zx[..., None, :] if za.ndim >= params.v.ndim else zx, za)


def _direct_predict(query, targets_std, p_query, p_target):
    """Scores targets_std p_target p_query' query, p = U or V."""
    z = np.matvec(p_target, np.matvec(p_query.mT, np.asarray(query, dtype=float)))
    return _unflagged(np.matvec(targets_std, z), z.shape[:-1])


def predict_workflow_prefs_direct(x_new, a_all_std, params: ModelParams):
    """Direct bilinear scores of one dataset against every workflow."""
    return _direct_predict(x_new, a_all_std, params.u, params.v)


def predict_dataset_prefs_direct(a_new, x_all_std, params: ModelParams):
    """Direct bilinear scores of one workflow against every dataset."""
    return _direct_predict(a_new, x_all_std, params.v, params.u)


def default_strategy(task: Task, r_train: PreferenceMatrix) -> PreferencePrediction:
    """Training-average prediction: column means (workflow prefs), m/2 for
    every dataset (dataset prefs), or the grand mean (pair score); of each
    fold's R where its scores carry a leading fold axis."""
    scores = r_train.scores
    if task is Task.WORKFLOW_PREFS:
        values = scores.mean(axis=-2)
    elif task is Task.DATASET_PREFS:
        # With m workflows in R, each dataset's points over the m + 1
        # workflows (the new one too) sum to (m+1)m/2: it averages m/2. The
        # row means of a fold's R are (m(m+1)/2 - truth) / m, so they would
        # leak the held-out truth, ranked exactly backwards.
        values = np.full(scores.shape[:-1], scores.shape[-1] / 2.0)
    else:
        values = np.asarray(scores.mean(axis=(-2, -1)))
    return PreferencePrediction(values)


def euclidean_strategy(query, train_std, pref_rows, n: int) -> PreferencePrediction:
    """Plain Euclidean-distance kNN over standardized descriptors with
    weights 1/(1+distance), averaging the preference rows (R's, or R's
    transpose's) of the nearest training entities."""
    q = np.asarray(query, dtype=float)[..., None, :]
    train = np.asarray(train_std, dtype=float)
    dists = np.sqrt(((train - q) ** 2).sum(axis=-1))
    picked = _knn_by_similarity(-dists, n)
    w = 1.0 / (1.0 + np.take_along_axis(dists, picked, -1))
    return _unflagged(_weighted_rows(pref_rows, picked, w), w.shape[:-1])


def predict(strategy: Strategy, task: Task, x_new, a_new, x, a,
            r: PreferenceMatrix, params, n: int) -> PreferencePrediction:
    """Serve one cold-start query, or a table of them (a row each), with
    one strategy: a row of scores and a flag tuple per query.

    x_new / a_new are the raw descriptors of the new dataset(s) /
    workflow(s), None where the task needs none; a_new of a pair score
    holds its target workflows. x, a (DescriptorTables) and r are the
    training entities and their preferences, read for their features and
    scores; params is the strategy's trained model (None for the
    baselines); n is the neighbourhood size. A stack of folds is served
    in one call: x, a and r with a leading fold axis on their features and
    scores, a query row per fold, and a list of models of one t, one per
    fold. Raises ValueError for a task outside TASKS[strategy].
    """
    if task not in TASKS[strategy]:
        raise ValueError(f"strategy {strategy.value} cannot serve {task.value}")
    lead = np.shape(a_new if task is Task.DATASET_PREFS else x_new)[:-1]
    if strategy is Strategy.DEFAULT:
        values = default_strategy(task, r).values    # of each fold, if stacked
        shape = lead + values.shape[np.ndim(r.scores) - 2:]
        return _unflagged(np.array(np.broadcast_to(values, shape)), lead)
    if strategy is Strategy.EUCLIDEAN:
        table, query, rows = ((x, x_new, r.scores) if task is Task.WORKFLOW_PREFS
                              else (a, a_new, r.scores.mT))
        features = table.features
        z, records = standardize_stack(features.reshape(-1, *features.shape[-2:]))
        record = records[0] if features.ndim == 2 else _each(lambda *f: np.stack(f), *records)
        return euclidean_strategy(record.apply(query), z.reshape(features.shape), rows, n)
    if isinstance(params, list):        # a model per fold
        params = _each(lambda *f: np.stack(f), *params)
    std_x, std_a = params.x_standardization.apply, params.a_standardization.apply
    qx = None if x_new is None else std_x(x_new)
    qa = None if a_new is None else std_a(a_new)
    if task is Task.PAIR_SCORE:
        return _unflagged(predict_pair(qx, qa, params), lead)
    if strategy in _KNN and task is Task.WORKFLOW_PREFS:
        return knn_predict_workflow_prefs(qx, std_x(x.features), r, params, n)
    if strategy in _KNN:
        return knn_predict_dataset_prefs(qa, std_a(a.features), r, params, n)
    if task is Task.WORKFLOW_PREFS:
        return predict_workflow_prefs_direct(qx, std_a(a.features), params)
    return predict_dataset_prefs_direct(qa, std_x(x.features), params)
