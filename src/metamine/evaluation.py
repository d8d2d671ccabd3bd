"""Leave-one-out evaluation protocols, the rank/top-k/error metrics, and
the exact binomial sign test used to compare strategies."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from itertools import product

import numpy as np

from .data_model import HyperParams, IngestError, MetaMiningData
from .metric_learning import _TARGET_CELLS, StopReason, train_many
from .preference import spearman_many
from .recommend import OBJECTIVES, TASKS, Strategy, Task, predict

HIGHER_IS_BETTER = {"rho": True, "t5p": True, "mae": False}


class Protocol(str, Enum):
    LODO = "lodo"     # leave one dataset out: workflow preferences
    LOWO = "lowo"     # leave one workflow out: dataset preferences
    LODWO = "lodwo"   # leave one of each out: pair scores


@dataclass
class FoldResult:
    held_out: object                      # id or (dataset_id, workflow_id)
    metrics: dict                         # strategy -> metric -> float | nan
    predictions: dict = field(default_factory=dict)
    flags: list = field(default_factory=list)
    failed: dict = field(default_factory=dict)  # always {}: bench/ reads it


# baseline -> the tag of its comparison rows in report_table
_BASELINES = {Strategy.DEFAULT: "delta", Strategy.EUCLIDEAN: "delta_EC"}


@dataclass
class EvaluationReport:
    protocol: Protocol
    strategies: list
    folds: list
    notices: list = field(default_factory=list)

    def aggregate(self, strategy, metric):
        """Mean over folds where the metric is not NaN; None if nowhere."""
        vals = [f.metrics[strategy][metric] for f in self.folds]
        vals = [v for v in vals if not math.isnan(v)]
        return float(np.mean(vals)) if vals else None

    def to_dict(self):
        # the folds' metric names in first-seen order
        metrics = list(dict.fromkeys(name for f in self.folds
                                     for by_metric in f.metrics.values()
                                     for name in by_metric))
        comparisons = {}
        for s in self.strategies:
            for baseline in _BASELINES:
                if baseline not in self.strategies or s == baseline:
                    continue
                for metric in metrics:
                    wins, total, p = compare_strategies(self, s, baseline, metric)
                    comparisons.setdefault(s.value, {}).setdefault(
                        baseline.value, {})[metric] = {
                            "wins": wins, "total": total, "p": p}
        return {
            "protocol": self.protocol.value,
            "strategies": [s.value for s in self.strategies],
            "aggregates": {
                s.value: {m: self.aggregate(s, m) for m in metrics}
                for s in self.strategies
            },
            "comparisons": comparisons,
            "notices": list(self.notices),
            "folds": [
                {
                    "held_out": f.held_out,
                    "metrics": {
                        s.value: {m: None if math.isnan(v) else v
                                  for m, v in mm.items()}
                        for s, mm in f.metrics.items()
                    },
                    "flags": list(f.flags),
                    "failed": {s.value: msg for s, msg in f.failed.items()},
                }
                for f in self.folds
            ],
        }

    def render_table(self):
        """The plain-text table of this report (see report_table)."""
        return report_table(self.to_dict())


def report_table(doc):
    """Plain-text table of a report's to_dict(): one row block per strategy
    with the metric aggregates and the win counts / p-values against the
    baselines. The metric columns are the aggregates' metric names, the
    folds' in first-seen order."""
    metrics = list(next(iter(doc["aggregates"].values()), ()))
    lines = [f"protocol: {doc['protocol']}"]
    for notice in doc["notices"]:
        lines.append(f"note: {notice}")
    header = ["strategy"] + metrics
    lines.append("  ".join(f"{h:>12}" for h in header))
    for s in doc["strategies"]:
        agg = doc["aggregates"][s]
        cells = [f"{s:>12}"]
        for m in metrics:
            v = agg[m]
            cells.append(f"{'NA':>12}" if v is None else f"{v:>12.4f}")
        lines.append("  ".join(cells))
        for baseline, tag in _BASELINES.items():
            comp = doc["comparisons"].get(s, {}).get(baseline.value)
            if not comp:
                continue
            cells = [f"{tag:>12}"]
            for m in metrics:
                c = comp[m]
                if c["p"] is None:
                    cells.append(f"{'NA':>12}")
                else:
                    cells.append(f"{c['wins']}/{c['total']} p={c['p']:.3f}".rjust(12))
            lines.append("  ".join(cells))
    return "\n".join(lines)


def top_k_performance(predicted, performance, k: int) -> float | np.ndarray:
    """Mean true performance of the k workflows ranked highest by a
    prediction row, ties broken by stable index order: a float for one row,
    an array for a stack of rows (..., m) and the performance rows they
    broadcast against."""
    predicted = np.asarray(predicted, dtype=float)
    performance = np.asarray(performance, dtype=float)
    if k > predicted.shape[-1]:
        raise ValueError("k exceeds the number of workflows")
    order = np.argsort(-predicted, axis=-1, kind="stable")[..., :k]
    performance = np.broadcast_to(performance, predicted.shape)
    top = np.take_along_axis(performance, order, -1).mean(axis=-1)
    return top if top.ndim else float(top)


def binomial_sign_test(wins: int, total: int) -> float:
    """Exact two-sided binomial p under p=0.5: twice the smaller tail,
    clamped to 1, as one correctly rounded division of integers."""
    wins, total = operator.index(wins), operator.index(total)  # numpy's too
    if total <= 0:
        raise ValueError("total must be positive")
    if not 0 <= wins <= total:
        raise ValueError("wins must lie in [0, total]")
    tail = sum(math.comb(total, k) for k in range(min(wins, total - wins) + 1))
    return min(1.0, 2 * tail / 2 ** total)


def compare_strategies(report: EvaluationReport, strategy, baseline, metric):
    """Per-fold strict-win count of strategy over baseline on one metric,
    with the exact binomial p. Folds where either value is NaN are
    skipped. Returns (wins, total, p); p is None when no fold is
    comparable."""
    wins = 0
    total = 0
    for f in report.folds:
        if strategy not in f.metrics or baseline not in f.metrics:
            raise ValueError("strategy and baseline must share every fold")
        a, b = f.metrics[strategy][metric], f.metrics[baseline][metric]
        if math.isnan(a) or math.isnan(b):
            continue
        total += 1
        if (a > b) if HIGHER_IS_BETTER[metric] else (a < b):
            wins += 1
    return wins, total, binomial_sign_test(wins, total) if total else None


# protocol -> (the task it serves, how exclusion notices name that task,
# whether it holds out datasets and workflows, the fewest datasets and
# workflows it runs on, and the message when there are fewer)
_PROTOCOLS = {
    Protocol.LODO: (Task.WORKFLOW_PREFS, "workflow ranking", (True, False), (3, 2),
                    "leave-one-dataset-out needs at least 3 datasets and 2 workflows"),
    Protocol.LOWO: (Task.DATASET_PREFS, "dataset ranking", (False, True), (2, 3),
                    "leave-one-workflow-out needs at least 3 workflows and 2 datasets"),
    Protocol.LODWO: (Task.PAIR_SCORE, "pair scoring", (True, True), (3, 3),
                     "leave-one-of-each-out needs at least 3 of each entity"),
}


def _run(protocol, data, strategies, hyper):
    """Check the data's size for the protocol (and P for LODO), drop the
    strategies that cannot serve its task (each with a notice; an
    IngestError if none is left, or if one is listed twice), train every
    fold's models in one train_many over the fold source, the bundle and
    each fold's held-out keys (a notice for each strategy whose model did
    not move in some fold, and on dataset preferences one that def's rho
    is NA). Then predict with one call per strategy and stack of folds,
    cut where a model's t changes or R's cells pass _TARGET_CELLS; an
    error ends the run. Each metric is computed over every strategy and
    fold at once."""
    task, task_name, held_axes, fewest, too_small = _PROTOCOLS[protocol]
    sizes = (data.x.n_entities, data.a.n_entities)
    if any(size < least for size, least in zip(sizes, fewest)):
        raise IngestError(too_small)
    if protocol is Protocol.LODO and data.performance is None:
        raise IngestError("leave-one-dataset-out scores the top-5 performance "
                          "and needs the performance matrix P")
    repeated = [s.value for k, s in enumerate(strategies) if s in strategies[:k]]
    if repeated:
        raise IngestError(f"strategy {repeated[0]} is listed more than once")
    notices = [f"strategy {s.value} is not applicable to {task_name}; excluded"
               for s in strategies if task not in TASKS[s]]
    strategies = [s for s in strategies if task in TASKS[s]]
    if not strategies:
        raise IngestError(f"no strategy left to run for {task_name}")
    # each fold's held-out (dataset, workflow), None for an axis kept whole
    held = list(product(*(range(size) if out else (None,)
                          for size, out in zip(sizes, held_axes))))
    kinds = sorted({OBJECTIVES[s] for s in strategies if s in OBJECTIVES})
    trained = train_many([(kind, data.x, data.a, data.r, (i, j))
                          for i, j in held for kind in kinds], hyper)
    # objective -> each fold's (model, trace); how many stopped at once
    runs = {kind: trained[k::len(kinds)] for k, kind in enumerate(kinds)}
    stalled = {kind: sum(trace.reason is StopReason.LINE_SEARCH_FAILURE
                         and not trace.iterations for _, trace in run)
               for kind, run in runs.items()}
    notices += [f"strategy {s.value}: training stopped on line_search_failure "
                f"after 0 iterations in {stalled[OBJECTIVES[s]]} of {len(held)} folds"
                for s in strategies if stalled.get(OBJECTIVES.get(s))]
    if task is Task.DATASET_PREFS and Strategy.DEFAULT in strategies:
        notices.append("default strategy yields a constant dataset-preference vector; rho is NA")
    # each fold's held-out id and truth, in fold order
    ids, r = (data.x.entity_ids, data.a.entity_ids), data.r.scores
    held_out, truth = {Task.WORKFLOW_PREFS: (ids[0], r),
                       Task.DATASET_PREFS: (ids[1], r.T),
                       Task.PAIR_SCORE: (product(*ids), r.ravel())}[task]
    folds = [FoldResult(held_out=h, metrics={}) for h in held_out]
    size = max(1, _TARGET_CELLS // r.size)      # folds a stack holds at most
    edges = [f for f in range(len(held)) if not f % size
             or any(run[f][0].t != run[f - 1][0].t for run in runs.values())]
    for start, stop in zip(edges, edges[1:] + [len(held)]):
        stack = data.folds(held[start:stop])
        for s in strategies:
            models = [m for m, _ in runs[OBJECTIVES[s]][start:stop]] if s in OBJECTIVES else None
            pred = predict(s, task, *stack, models, hyper.n_neighbors)
            for fold, values, flags in zip(folds[start:stop], pred.values, pred.flags):
                fold.predictions[s] = values
                fold.flags.extend(f"{s.value}:{flag}" for flag in flags)
    preds = np.array([[f.predictions[s] for f in folds] for s in strategies])
    scores = {}             # metric -> its values, (strategy, fold)
    if task is not Task.PAIR_SCORE:
        scores["rho"] = spearman_many(preds, truth)
    # a pair score's error is the mean of its one entry
    scores["mae"] = np.abs(preds - truth).reshape(*preds.shape[:2], -1).mean(axis=-1)
    if task is Task.WORKFLOW_PREFS:
        scores["t5p"] = top_k_performance(preds, data.performance.values,
                                          min(5, preds.shape[-1]))
    table = np.stack(list(scores.values()), axis=-1).tolist()
    for k, fold in enumerate(folds):
        fold.metrics = {s: dict(zip(scores, rows[k])) for s, rows in zip(strategies, table)}
    return EvaluationReport(protocol=protocol, strategies=strategies,
                            folds=folds, notices=notices)


def run_lodo(data: MetaMiningData, strategies, hyper: HyperParams) -> EvaluationReport:
    """Leave one dataset out; every learning strategy is retrained on the
    remaining datasets (standardization refit per fold)."""
    return _run(Protocol.LODO, data, strategies, hyper)


def run_lowo(data: MetaMiningData, strategies, hyper: HyperParams) -> EvaluationReport:
    """Leave one workflow out (dataset-preference task). The default
    strategy's prediction is constant, so its rank correlation is NA."""
    return _run(Protocol.LOWO, data, strategies, hyper)


def run_lodwo(data: MetaMiningData, strategies, hyper: HyperParams) -> EvaluationReport:
    """Leave one dataset and one workflow out (pair-score task). Only
    heterogeneous strategies and the default apply."""
    return _run(Protocol.LODWO, data, strategies, hyper)
