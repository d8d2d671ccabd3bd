"""Prediction strategies for the three tasks: learned-metric kNN, direct
bilinear scoring, and the default / Euclidean baselines.

`predict` serves one query with one strategy from raw descriptors; it is
the one place that decides which predictor a (strategy, task) pair uses.
The predictors below it expect descriptor vectors already standardized
with the model's stored records (ModelParams.transform_dataset /
transform_workflow). All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .data_model import ModelParams, PreferenceMatrix, standardize
from .preference import SimilarityAxis


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
    task: Task
    values: np.ndarray    # length m / n vector, or 0-d scalar for pairs
    strategy: Strategy
    flags: tuple = ()     # e.g. "nonpositive_similarity_fallback"


def learned_similarity(e1, e2, params: ModelParams,
                       axis: SimilarityAxis) -> float:
    """Bilinear similarity through U U' (datasets) or V V' (workflows).

    Symmetric in its arguments and nonnegative for e1 == e2.
    """
    p = params.u if axis is SimilarityAxis.DATASETS else params.v
    z1 = p.T @ np.asarray(e1, dtype=float)
    z2 = p.T @ np.asarray(e2, dtype=float)
    return float(z1 @ z2)


def _weighted_rows(rows, weights):
    w = np.asarray(weights, dtype=float)
    return (w[:, None] * rows).sum(axis=0) / w.sum()


def _knn_by_similarity(sims, n):
    """Indices of the n largest similarities, ties broken by training
    index (stable)."""
    order = np.argsort(-np.asarray(sims), kind="stable")
    return order[: int(n)]


def _similarity_weighted_prediction(sims, pref_rows, n, task, strategy):
    if pref_rows.shape[0] == 0:
        raise ValueError("empty training set")
    picked = _knn_by_similarity(sims, min(n, len(sims)))
    w = np.maximum(np.asarray(sims)[picked], 0.0)
    flags = ()
    if w.sum() <= 0.0:
        w = np.ones(len(picked))
        flags = ("nonpositive_similarity_fallback",)
    return PreferencePrediction(
        task=task,
        values=_weighted_rows(pref_rows[picked], w),
        strategy=strategy,
        flags=flags,
    )


def knn_predict_workflow_prefs(x_new, train_x_std, r: PreferenceMatrix,
                               params: ModelParams, n: int,
                               strategy: Strategy = Strategy.F1_KNN):
    """Similarity-weighted average of the n most similar training datasets'
    preference rows. Nonpositive similarity sums fall back to uniform
    weights over the selected neighbors (flagged)."""
    proj = train_x_std @ params.u          # n_train x t
    q = params.u.T @ np.asarray(x_new, dtype=float)
    sims = proj @ q
    return _similarity_weighted_prediction(sims, r.scores, n,
                                           Task.WORKFLOW_PREFS, strategy)


def knn_predict_dataset_prefs(a_new, train_a_std, r: PreferenceMatrix,
                              params: ModelParams, n: int,
                              strategy: Strategy = Strategy.F2_KNN):
    """Mirror of the workflow-preference predictor over columns of R."""
    proj = train_a_std @ params.v
    q = params.v.T @ np.asarray(a_new, dtype=float)
    sims = proj @ q
    return _similarity_weighted_prediction(sims, r.scores.T, n,
                                           Task.DATASET_PREFS, strategy)


def predict_pair(x_new, a_new, params: ModelParams) -> float:
    """Direct heterogeneous score x' U V' a."""
    x = np.asarray(x_new, dtype=float)
    a = np.asarray(a_new, dtype=float)
    return float((params.u.T @ x) @ (params.v.T @ a))


def predict_workflow_prefs_direct(x_new, a_all_std, params: ModelParams,
                                  strategy: Strategy = Strategy.F3_DIRECT):
    """Direct bilinear scores of one dataset against every workflow."""
    x = np.asarray(x_new, dtype=float)
    values = a_all_std @ (params.v @ (params.u.T @ x))
    return PreferencePrediction(task=Task.WORKFLOW_PREFS, values=values,
                                strategy=strategy)


def predict_dataset_prefs_direct(a_new, x_all_std, params: ModelParams,
                                 strategy: Strategy = Strategy.F3_DIRECT):
    """Direct bilinear scores of one workflow against every dataset."""
    a = np.asarray(a_new, dtype=float)
    values = x_all_std @ (params.u @ (params.v.T @ a))
    return PreferencePrediction(task=Task.DATASET_PREFS, values=values,
                                strategy=strategy)


def default_strategy(task: Task, r_train: PreferenceMatrix) -> PreferencePrediction:
    """Training-average prediction: column means (workflow prefs), row
    means (dataset prefs), or the grand mean (pair score)."""
    scores = r_train.scores
    if task is Task.WORKFLOW_PREFS:
        values = scores.mean(axis=0)
    elif task is Task.DATASET_PREFS:
        values = scores.mean(axis=1)
    else:
        values = np.asarray(scores.mean())
    return PreferencePrediction(task=task, values=values,
                                strategy=Strategy.DEFAULT)


def euclidean_strategy(query, train_std, r: PreferenceMatrix, n: int,
                       task: Task) -> PreferencePrediction:
    """Plain Euclidean-distance kNN over standardized descriptors with
    weights 1/(1+distance). Not applicable to pair scoring."""
    if task is Task.PAIR_SCORE:
        raise ValueError("Euclidean baseline cannot score heterogeneous pairs")
    q = np.asarray(query, dtype=float)
    train = np.asarray(train_std, dtype=float)
    if train.shape[0] == 0:
        raise ValueError("empty training set")
    dists = np.sqrt(((train - q) ** 2).sum(axis=1))
    picked = _knn_by_similarity(-dists, min(n, len(dists)))
    w = 1.0 / (1.0 + dists[picked])
    rows = r.scores if task is Task.WORKFLOW_PREFS else r.scores.T
    return PreferencePrediction(
        task=task,
        values=_weighted_rows(rows[picked], w),
        strategy=Strategy.EUCLIDEAN,
    )


def predict(strategy: Strategy, task: Task, x_new, a_new, x, a,
            r: PreferenceMatrix, params: ModelParams, n: int
            ) -> PreferencePrediction:
    """Serve one cold-start query with one strategy.

    x_new / a_new are the raw descriptors of the new dataset / workflow
    (None where the task needs none); x, a (DescriptorTables) and r are the
    training entities and their preferences; params is the strategy's
    trained model (None for the baselines); n is the neighbourhood size.
    Raises ValueError for a task outside TASKS[strategy].
    """
    if task not in TASKS[strategy]:
        raise ValueError(f"strategy {strategy.value} cannot serve {task.value}")
    if strategy is Strategy.DEFAULT:
        if task is Task.DATASET_PREFS:
            # With m = r.n_workflows, every dataset's points over the m + 1
            # workflows (the new one included) sum to (m+1)m/2, so each
            # dataset averages m/2: a constant. The row means of r are
            # (m(m+1)/2 - truth) / m when r is a fold that dropped the new
            # workflow's column, so they would leak the held-out truth,
            # ranked exactly backwards.
            return PreferencePrediction(
                task=task, values=np.full(r.n_datasets, r.n_workflows / 2.0),
                strategy=strategy)
        return default_strategy(task, r)
    if strategy is Strategy.EUCLIDEAN:
        table, query = (x, x_new) if task is Task.WORKFLOW_PREFS else (a, a_new)
        train_std, record = standardize(table)
        return euclidean_strategy(record.apply(query), train_std.features, r,
                                  n, task)
    qx = None if x_new is None else params.transform_dataset(x_new)
    qa = None if a_new is None else params.transform_workflow(a_new)
    if task is Task.PAIR_SCORE:
        return PreferencePrediction(task=task,
                                    values=np.asarray(predict_pair(qx, qa, params)),
                                    strategy=strategy)
    if strategy in _KNN and task is Task.WORKFLOW_PREFS:
        return knn_predict_workflow_prefs(qx, params.transform_dataset(x.features),
                                          r, params, n, strategy=strategy)
    if strategy in _KNN:
        return knn_predict_dataset_prefs(qa, params.transform_workflow(a.features),
                                         r, params, n, strategy=strategy)
    if task is Task.WORKFLOW_PREFS:
        return predict_workflow_prefs_direct(
            qx, params.transform_workflow(a.features), params, strategy=strategy)
    return predict_dataset_prefs_direct(
        qa, params.transform_dataset(x.features), params, strategy=strategy)
