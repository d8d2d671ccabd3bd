"""Leave-one-out evaluation protocols, the rank/top-k/error metrics, and
the exact binomial sign test used to compare strategies."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .data_model import HyperParams, IngestError, MetaMiningData
from .metric_learning import train_many
from .preference import spearman_many, spearman_rows
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
        """Mean over folds where the metric is defined; None if nowhere."""
        vals = [f.metrics[strategy][metric] for f in self.folds
                if strategy in f.metrics and metric in f.metrics[strategy]]
        vals = [v for v in vals if v is not None and not math.isnan(v)]
        if not vals:
            return None
        return float(np.mean(vals))

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
                        s.value: {m: (None if v is None or (isinstance(v, float)
                                                            and math.isnan(v)) else v)
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
                c = comp.get(m)
                if c is None or c["p"] is None:
                    cells.append(f"{'NA':>12}")
                else:
                    cells.append(f"{c['wins']}/{c['total']} p={c['p']:.3f}".rjust(12))
            lines.append("  ".join(cells))
    return "\n".join(lines)


def top_k_performance(predicted, perf_row, k: int) -> float:
    """Mean true performance of the k workflows ranked highest by the
    prediction; prediction ties break by stable index order."""
    predicted = np.asarray(predicted, dtype=float)
    perf_row = np.asarray(perf_row, dtype=float)
    if k > predicted.size:
        raise ValueError("k exceeds the number of workflows")
    order = np.argsort(-predicted, kind="stable")
    return float(perf_row[order[:k]].mean())


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
    with the exact binomial p. Folds where either value is undefined are
    skipped. Returns (wins, total, p); p is None when no fold is
    comparable."""
    wins = 0
    total = 0
    for f in report.folds:
        if strategy not in f.metrics or baseline not in f.metrics:
            raise ValueError("strategy and baseline must share every fold")
        a = f.metrics[strategy].get(metric)
        b = f.metrics[baseline].get(metric)
        if a is None or b is None or math.isnan(a) or math.isnan(b):
            continue
        total += 1
        if (a > b) if HIGHER_IS_BETTER.get(metric, True) else (a < b):
            wins += 1
    return wins, total, binomial_sign_test(wins, total) if total else None


# task each protocol serves, and how its exclusion notices name it
_TASK = {Protocol.LODO: Task.WORKFLOW_PREFS, Protocol.LOWO: Task.DATASET_PREFS,
         Protocol.LODWO: Task.PAIR_SCORE}
_TASK_NAME = {Task.WORKFLOW_PREFS: "workflow ranking",
              Task.DATASET_PREFS: "dataset ranking",
              Task.PAIR_SCORE: "pair scoring"}


def _metrics(pred, truth, perf_row):
    """The metrics of one prediction but rho, and the rows its rho ranks
    (None for a pair score, which has no rho)."""
    if np.ndim(pred) == 0:  # pair score
        return {"mae": abs(float(pred) - truth)}, None
    rows = spearman_rows(pred, truth)
    out = {"mae": float(np.mean(np.abs(pred - truth)))}
    if perf_row is not None:
        out["t5p"] = top_k_performance(pred, perf_row, min(5, len(perf_row)))
    return out, rows


def _training_sets(held, data):
    """Each fold's (X, A, R) with dataset i and/or workflow j held out,
    held = [(i, j), ...] with None for the axis kept whole. Folds that hold
    out one entity share its one dropped X or A; each gets its own R."""
    xs = {i: data.x if i is None else data.x.drop_entity(i)
          for i in {i for i, _ in held}}
    as_ = {j: data.a if j is None else data.a.drop_entity(j)
           for j in {j for _, j in held}}
    return [(xs[i], as_[j], data.r.drop(dataset_index=i, workflow_index=j))
            for i, j in held]


def _train_fold_models(strategies, training_sets, hyper):
    """Per fold, the model of each objective the learning strategies use,
    retrained on the fold's training set (standardization refit per
    fold). Every fold's descents run in one train_many."""
    kinds = sorted({OBJECTIVES[s] for s in strategies if s in OBJECTIVES})
    trained = iter(train_many([(kind, *training) for training in training_sets
                               for kind in kinds], hyper))
    return [{kind: next(trained)[0] for kind in kinds} for _ in training_sets]


def _fold(task, held, training, models, data, strategies, hyper):
    """Score every strategy on one fold of the task, held = (i, j) as in
    _training_sets, with the fold's training set and trained models, all
    but rho. Returns the FoldResult and the (strategy, rows) of each
    strategy whose rho is still to be computed. Any error a strategy
    raises ends the run."""
    i, j = held
    x_train, a_train, r_train = training
    x_new = None if i is None else data.x.features[i]
    a_new = None if j is None else data.a.features[j]
    perf_row = None
    if task is Task.WORKFLOW_PREFS:
        held_out, truth = data.x.entity_ids[i], data.r.scores[i]
        perf_row = data.performance.values[i]
    elif task is Task.DATASET_PREFS:
        held_out, truth = data.a.entity_ids[j], data.r.scores[:, j]
    else:
        held_out = (data.x.entity_ids[i], data.a.entity_ids[j])
        truth = float(data.r.scores[i, j])

    fold = FoldResult(held_out=held_out, metrics={})
    ranked = []
    for s in strategies:
        pred = predict(s, task, x_new, a_new, x_train, a_train, r_train,
                       models.get(OBJECTIVES.get(s)), hyper.n_neighbors)
        metrics, rows = _metrics(pred.values, truth, perf_row)
        fold.metrics[s] = metrics
        fold.predictions[s] = pred.values
        fold.flags.extend(f"{s.value}:{flag}" for flag in pred.flags)
        if rows is not None:
            ranked.append((s, rows))
    return fold, ranked


def _run(protocol, data, strategies, hyper, held):
    """Drop the strategies that cannot serve the protocol's task (each
    with a notice; an IngestError if none is left, or if one is listed
    twice), train every fold's models, then score one fold per held-out
    key. The rho of every fold and strategy is computed last, in one
    spearman_many."""
    repeated = [s.value for k, s in enumerate(strategies) if s in strategies[:k]]
    if repeated:
        raise IngestError(f"strategy {repeated[0]} is listed more than once")
    task = _TASK[protocol]
    notices = [f"strategy {s.value} is not applicable to {_TASK_NAME[task]}; excluded"
               for s in strategies if task not in TASKS[s]]
    strategies = [s for s in strategies if task in TASKS[s]]
    if not strategies:
        raise IngestError(f"no strategy left to run for {_TASK_NAME[task]}")
    training_sets = _training_sets(held, data)
    models = _train_fold_models(strategies, training_sets, hyper)
    scored = [_fold(task, key, training, fold_models, data, strategies, hyper)
              for key, training, fold_models in zip(held, training_sets, models)]
    ranked = [(fold, s, rows) for fold, pending in scored for s, rows in pending]
    for (fold, s, _), rho in zip(ranked, spearman_many(
            [rows for _, _, rows in ranked])):
        fold.metrics[s] = {"rho": rho, **fold.metrics[s]}
    folds = [fold for fold, _ in scored]
    return EvaluationReport(protocol=protocol, strategies=strategies,
                            folds=folds, notices=notices)


def run_lodo(data: MetaMiningData, strategies, hyper: HyperParams) -> EvaluationReport:
    """Leave one dataset out; every learning strategy is retrained on the
    remaining datasets (standardization refit per fold)."""
    if data.x.n_entities < 3 or data.a.n_entities < 2:
        raise IngestError("leave-one-dataset-out needs at least 3 datasets "
                          "and 2 workflows")
    if data.performance is None:
        raise IngestError("leave-one-dataset-out scores the top-5 performance "
                          "and needs the performance matrix P")
    return _run(Protocol.LODO, data, strategies, hyper,
                [(i, None) for i in range(data.x.n_entities)])


def run_lowo(data: MetaMiningData, strategies, hyper: HyperParams) -> EvaluationReport:
    """Leave one workflow out (dataset-preference task). The default
    strategy's prediction is constant, so its rank correlation is NA."""
    if data.a.n_entities < 3 or data.x.n_entities < 2:
        raise IngestError("leave-one-workflow-out needs at least 3 workflows "
                          "and 2 datasets")
    report = _run(Protocol.LOWO, data, strategies, hyper,
                  [(None, j) for j in range(data.a.n_entities)])
    if Strategy.DEFAULT in report.strategies:
        report.notices.append(
            "default strategy yields a constant dataset-preference vector; rho is NA")
    return report


def run_lodwo(data: MetaMiningData, strategies, hyper: HyperParams) -> EvaluationReport:
    """Leave one dataset and one workflow out (pair-score task). Only
    heterogeneous strategies and the default apply."""
    if data.x.n_entities < 3 or data.a.n_entities < 3:
        raise IngestError("leave-one-of-each-out needs at least 3 of each entity")
    return _run(Protocol.LODWO, data, strategies, hyper,
                [(i, j) for i in range(data.x.n_entities)
                 for j in range(data.a.n_entities)])
