"""Leave-one-out evaluation protocols, the rank/top-k/error metrics, and
the exact binomial sign test used to compare strategies."""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from functools import partial

import numpy as np
from scipy import stats

from .data_model import (DescriptorTable, HyperParams, PerformanceMatrix,
                         PreferenceMatrix)
from .metric_learning import ObjectiveKind, train
from .preference import spearman
from .recommend import OBJECTIVES, TASKS, Strategy, Task, predict

HIGHER_IS_BETTER = {"rho": True, "t5p": True, "mae": False}


class Protocol(str, Enum):
    LODO = "lodo"     # leave one dataset out: workflow preferences
    LOWO = "lowo"     # leave one workflow out: dataset preferences
    LODWO = "lodwo"   # leave one of each out: pair scores


@dataclass(frozen=True)
class MetaMiningData:
    x: DescriptorTable
    a: DescriptorTable
    r: PreferenceMatrix
    performance: PerformanceMatrix


@dataclass
class FoldResult:
    held_out: object                      # id or (dataset_id, workflow_id)
    metrics: dict                         # strategy -> metric -> float | nan
    predictions: dict = field(default_factory=dict)
    flags: list = field(default_factory=list)
    failed: dict = field(default_factory=dict)  # strategy -> error message


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

    def metric_names(self):
        names = []
        for f in self.folds:
            for s in f.metrics.values():
                for name in s:
                    if name not in names:
                        names.append(name)
        return names

    def to_dict(self):
        metrics = self.metric_names()
        comparisons = {}
        for s in self.strategies:
            for baseline in (Strategy.DEFAULT, Strategy.EUCLIDEAN):
                if baseline not in self.strategies or s == baseline:
                    continue
                for metric in metrics:
                    try:
                        wins, total, p = compare_strategies(self, s, baseline, metric)
                    except ValueError:
                        continue
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
                    "held_out": list(f.held_out) if isinstance(f.held_out, tuple)
                                else f.held_out,
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
        """Plain-text table: one row block per strategy with the metric
        aggregates and the win counts / p-values against the baselines."""
        metrics = self.metric_names()
        lines = [f"protocol: {self.protocol.value}"]
        for notice in self.notices:
            lines.append(f"note: {notice}")
        header = ["strategy"] + metrics
        lines.append("  ".join(f"{h:>12}" for h in header))
        d = self.to_dict()
        for s in self.strategies:
            agg = d["aggregates"][s.value]
            cells = [f"{s.value:>12}"]
            for m in metrics:
                v = agg[m]
                cells.append(f"{'NA':>12}" if v is None else f"{v:>12.4f}")
            lines.append("  ".join(cells))
            for baseline in ("def", "ec"):
                comp = d["comparisons"].get(s.value, {}).get(baseline)
                if not comp:
                    continue
                tag = "delta" if baseline == "def" else "delta_EC"
                cells = [f"{tag:>12}"]
                for m in metrics:
                    c = comp.get(m)
                    if c is None or c["p"] is None:
                        cells.append(f"{'NA':>12}")
                    else:
                        cells.append(f"{c['wins']}/{c['total']} p={c['p']:.3f}".rjust(12))
                lines.append("  ".join(cells))
        return "\n".join(lines)


def binomial_sign_test(wins: int, total: int) -> float:
    """Exact two-sided binomial p under p=0.5: twice the smaller tail,
    clamped to 1."""
    if total <= 0:
        raise ValueError("total must be positive")
    if not 0 <= wins <= total:
        raise ValueError("wins must lie in [0, total]")
    lower = stats.binom.cdf(wins, total, 0.5)
    upper = stats.binom.sf(wins - 1, total, 0.5)
    return float(min(1.0, 2.0 * min(lower, upper)))


def top_k_performance(predicted, perf_row, k: int) -> float:
    """Mean true performance of the k workflows ranked highest by the
    prediction; prediction ties break by stable index order."""
    predicted = np.asarray(predicted, dtype=float)
    perf_row = np.asarray(perf_row, dtype=float)
    if k > predicted.size:
        raise ValueError("k exceeds the number of workflows")
    order = np.argsort(-predicted, kind="stable")
    return float(perf_row[order[:k]].mean())


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
    if total == 0:
        return 0, 0, None
    return wins, total, binomial_sign_test(wins, total)


# task each protocol serves, and how its exclusion notices name it
_TASK = {Protocol.LODO: Task.WORKFLOW_PREFS, Protocol.LOWO: Task.DATASET_PREFS,
         Protocol.LODWO: Task.PAIR_SCORE}
_TASK_NAME = {Task.WORKFLOW_PREFS: "workflow ranking",
              Task.DATASET_PREFS: "dataset ranking",
              Task.PAIR_SCORE: "pair scoring"}


def _train_fold_models(strategies, x_train, a_train, r_train, hyper):
    kinds = {ObjectiveKind(OBJECTIVES[s]) for s in strategies if s in OBJECTIVES}
    return {kind.value: train(kind, x_train, a_train, r_train, hyper)[0]
            for kind in sorted(kinds, key=lambda k: k.value)}


def _metrics(pred, truth, perf_row=None, top_k=5):
    if np.ndim(pred) == 0:  # pair score
        return {"mae": abs(float(pred) - truth)}
    out = {
        "rho": spearman(pred, truth),
        "mae": float(np.mean(np.abs(pred - truth))),
    }
    if perf_row is not None:
        out["t5p"] = top_k_performance(pred, perf_row, min(top_k, len(perf_row)))
    return out


def _fold(held, data, strategies, hyper):
    """One fold with dataset i and/or workflow j held out, held = (i, j)
    with None for the axis kept whole. Every learning strategy is retrained
    on the rest (standardization refit per fold)."""
    i, j = held
    x_train = data.x if i is None else data.x.drop_entity(i)
    a_train = data.a if j is None else data.a.drop_entity(j)
    r_train = data.r.drop(dataset_index=i, workflow_index=j)
    models = _train_fold_models(strategies, x_train, a_train, r_train, hyper)
    x_new = None if i is None else data.x.features[i]
    a_new = None if j is None else data.a.features[j]
    perf_row = None
    if j is None:
        task, held_out, truth = (Task.WORKFLOW_PREFS, data.x.entity_ids[i],
                                 data.r.scores[i])
        perf_row = data.performance.values[i]
    elif i is None:
        task, held_out, truth = (Task.DATASET_PREFS, data.a.entity_ids[j],
                                 data.r.scores[:, j])
    else:
        task, held_out, truth = (Task.PAIR_SCORE,
                                 (data.x.entity_ids[i], data.a.entity_ids[j]),
                                 float(data.r.scores[i, j]))

    fold = FoldResult(held_out=held_out, metrics={})
    for s in strategies:
        try:
            pred = predict(s, task, x_new, a_new, x_train, a_train, r_train,
                           models.get(OBJECTIVES.get(s)), hyper.n_neighbors)
            fold.metrics[s] = _metrics(pred.values, truth, perf_row)
            fold.predictions[s] = pred.values
            fold.flags.extend(f"{s.value}:{flag}" for flag in pred.flags)
        except ValueError as exc:  # fold flagged, excluded from aggregates
            fold.metrics[s] = {}
            fold.failed[s] = str(exc)
    return fold


def _run(protocol, data, strategies, hyper, jobs, held):
    """Run one fold per held-out key, after dropping the strategies that
    cannot serve the protocol's task (each with a notice)."""
    task = _TASK[protocol]
    notices = [f"strategy {s.value} is not applicable to {_TASK_NAME[task]}; excluded"
               for s in strategies if task not in TASKS[s]]
    strategies = [s for s in strategies if task in TASKS[s]]
    run_fold = partial(_fold, data=data, strategies=strategies, hyper=hyper)
    if jobs <= 1:
        folds = [run_fold(key) for key in held]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            folds = list(pool.map(run_fold, held))  # ordered: deterministic aggregation
    return EvaluationReport(protocol=protocol, strategies=strategies,
                            folds=folds, notices=notices)


def run_lodo(data: MetaMiningData, strategies, hyper: HyperParams,
             jobs: int = 1) -> EvaluationReport:
    """Leave one dataset out; every learning strategy is retrained on the
    remaining datasets (standardization refit per fold)."""
    if data.x.n_entities < 3:
        raise ValueError("leave-one-dataset-out needs at least 3 datasets")
    return _run(Protocol.LODO, data, strategies, hyper, jobs,
                [(i, None) for i in range(data.x.n_entities)])


def run_lowo(data: MetaMiningData, strategies, hyper: HyperParams,
             jobs: int = 1) -> EvaluationReport:
    """Leave one workflow out (dataset-preference task). The default
    strategy's prediction is constant, so its rank correlation is NA."""
    if data.a.n_entities < 3:
        raise ValueError("leave-one-workflow-out needs at least 3 workflows")
    report = _run(Protocol.LOWO, data, strategies, hyper, jobs,
                  [(None, j) for j in range(data.a.n_entities)])
    if Strategy.DEFAULT in report.strategies:
        report.notices.append(
            "default strategy yields a constant dataset-preference vector; rho is NA")
    return report


def run_lodwo(data: MetaMiningData, strategies, hyper: HyperParams,
              jobs: int = 1) -> EvaluationReport:
    """Leave one dataset and one workflow out (pair-score task). Only
    heterogeneous strategies and the default apply."""
    if data.x.n_entities < 3 or data.a.n_entities < 3:
        raise ValueError("leave-one-of-each-out needs at least 3 of each entity")
    return _run(Protocol.LODWO, data, strategies, hyper, jobs,
                [(i, j) for i in range(data.x.n_entities)
                 for j in range(data.a.n_entities)])
