"""What the traced run wraps, and how its spans become per-layer metrics.

Layer names are metamine's module names. Each span is named
`<module>.<function>`; a layer's self time is the self time of its spans.
"""

from __future__ import annotations

import statistics

from spans import Target, file_bytes, self_times


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _read(args, kwargs, result):
    return {"read_bytes": file_bytes(_arg(args, kwargs, 0, "path"))}


def _read_dir(args, kwargs, result):
    return {"read_bytes": file_bytes(_arg(args, kwargs, 0, "directory"))}


def _write(args, kwargs, result):
    return {"write_bytes": file_bytes(_arg(args, kwargs, 0, "path"))}


def _write_dir(args, kwargs, result):
    return {"write_bytes": file_bytes(_arg(args, kwargs, 0, "directory"))}


def _similarity_pairs(args, kwargs, result):
    k = result.matrix.shape[0]
    return {"pairs": k * (k - 1) // 2}


def _mcnemar_pairs(args, kwargs, result):
    cube = _arg(args, kwargs, 0, "cube")
    return {"pairs": sum(m.shape[1] * (m.shape[1] - 1) // 2 for m in cube.matrices)}


def _descent(args, kwargs, result):
    trace = result[2]
    return {"iterations": trace.iterations, "reason": trace.reason.value}


def _folds(args, kwargs, result):
    return {"folds": len(result.folds),
            "failed": sum(len(f.failed) for f in result.folds)}


def _t(module, attr, measure=None, count_only=False, owner=None):
    return Target(owner or f"metamine.{module}", attr, f"{module}.{attr}",
                  measure, count_only)


TARGETS = (
    _t("cli", "main"),
    _t("io", "read_descriptor_csv", _read),
    _t("io", "read_performance_csv", _read),
    _t("io", "read_preference_csv", _read),
    _t("io", "read_outcome_dir", _read_dir),
    _t("io", "read_significance_csv", _read),
    _t("io", "load_model", _read),
    _t("io", "write_descriptor_csv", _write),
    _t("io", "write_performance_csv", _write),
    _t("io", "write_preference_csv", _write),
    _t("io", "write_outcome_dir", _write_dir),
    _t("io", "save_model", _write),
    _t("data_model", "validate_tables"),
    _t("data_model", "standardize"),
    _t("preference", "similarity_target", _similarity_pairs),
    _t("preference", "build_preference_matrix", _mcnemar_pairs),
    _t("preference", "build_preference_from_significance"),
    _t("metric_learning", "train"),
    _t("metric_learning", "build_objective"),
    _t("metric_learning", "minimize", _descent),
    _t("metric_learning", "objective_value", count_only=True),
    _t("metric_learning", "gradient", count_only=True),
    _t("recommend", "predict_pair"),
    _t("recommend", "predict_workflow_prefs_direct"),
    _t("recommend", "predict_dataset_prefs_direct"),
    _t("recommend", "knn_predict_workflow_prefs"),
    _t("recommend", "knn_predict_dataset_prefs"),
    _t("recommend", "default_strategy"),
    _t("recommend", "euclidean_strategy"),
    _t("recommend", "learned_similarity"),
    _t("evaluation", "run_lodo", _folds),
    _t("evaluation", "run_lowo", _folds),
    _t("evaluation", "run_lodwo", _folds),
    _t("evaluation", "to_dict", owner="metamine.evaluation:EvaluationReport"),
    _t("evaluation", "render_table", owner="metamine.evaluation:EvaluationReport"),
    _t("synth", "generate"),
)

_REPORT = {"evaluation.to_dict", "evaluation.render_table"}
_RUNNERS = {"evaluation.run_lodo", "evaluation.run_lowo", "evaluation.run_lodwo"}

# name -> unit of every per-layer metric, in the order they are reported.
# Metrics per op are the median over the traced ops; synth.* come from the
# repeated set-ups.
PER_LAYER_UNITS = {
    "preference.similarity_s": "s",
    "preference.similarity_calls": "count",
    "preference.similarity_pairs": "count",
    "preference.mcnemar_s": "s",
    "preference.mcnemar_pairs": "count",
    "preference.self_s": "s",
    "metric_learning.minimize_s": "s",
    "metric_learning.iterations": "count",
    "metric_learning.value_evals": "count",
    "metric_learning.grad_evals": "count",
    "metric_learning.ms_per_iter": "ms",
    "metric_learning.accept_ratio": "ratio",
    "metric_learning.trains": "count",
    "metric_learning.train_self_s": "s",
    "metric_learning.build_objective_self_s": "s",
    "metric_learning.stop_max_iters": "count",
    "metric_learning.stop_line_search_failure": "count",
    "metric_learning.self_s": "s",
    "recommend.predict_s": "s",
    "recommend.predict_calls": "count",
    "cli.self_s": "s",
    "io.read_s": "s",
    "io.read_mb": "MB",
    "io.write_s": "s",
    "io.write_mb": "MB",
    "io.self_s": "s",
    "data_model.validate_s": "s",
    "data_model.standardize_s": "s",
    "data_model.standardize_calls": "count",
    "data_model.self_s": "s",
    "evaluation.folds": "count",
    "evaluation.fold_self_s": "s",
    "evaluation.failed_strategies": "count",
    "evaluation.report_s": "s",
    "evaluation.self_s": "s",
    "synth.generate_s": "s",
    "synth.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


class SpanIndex:
    """Spans of one traced run with their self times, grouped by op."""

    def __init__(self, tracer):
        self.spans = tracer.spans
        self.counts = tracer.counts
        self.selfs = self_times(self.spans)
        self.by_op = {}
        for index, span in enumerate(self.spans):
            self.by_op.setdefault(span.op, []).append(index)

    def _pick(self, op, pred):
        return [i for i in self.by_op.get(op, ()) if pred(self.spans[i])]

    def duration(self, op, pred):
        return sum(self.spans[i].end - self.spans[i].start
                   for i in self._pick(op, pred))

    def self_time(self, op, pred):
        return sum(self.selfs[i] for i in self._pick(op, pred))

    def calls(self, op, pred):
        return len(self._pick(op, pred))

    def attr_sum(self, op, pred, key):
        return sum((self.spans[i].attrs or {}).get(key, 0)
                   for i in self._pick(op, pred))

    def attr_count(self, op, pred, key, value):
        return sum(1 for i in self._pick(op, pred)
                   if (self.spans[i].attrs or {}).get(key) == value)

    def self_by_name(self, op):
        out = {}
        for i in self.by_op.get(op, ()):
            name = self.spans[i].name
            out[name] = out.get(name, 0.0) + self.selfs[i]
        return dict(sorted(out.items(), key=lambda kv: -kv[1]))


def _named(*names):
    names = set(names)
    return lambda s: s.name in names


def _layer(layer):
    prefix = layer + "."
    return lambda s: s.name.startswith(prefix)


def op_metrics(index, op):
    """Per-layer metrics of one traced op."""
    sim = _named("preference.similarity_target")
    mcn = _named("preference.build_preference_matrix")
    mini = _named("metric_learning.minimize")
    reads = lambda s: s.name.startswith("io.read_") or s.name == "io.load_model"
    writes = lambda s: s.name.startswith("io.write_") or s.name == "io.save_model"
    # report spans not nested in another report span (render_table calls to_dict)
    report = lambda s: s.name in _REPORT and (
        s.parent < 0 or index.spans[s.parent].name not in _REPORT)
    runners = lambda s: s.name in _RUNNERS

    minimize_s = index.duration(op, mini)
    iterations = index.attr_sum(op, mini, "iterations")
    value_evals = index.counts.get((op, "metric_learning.objective_value"), 0)
    return {
        "preference.similarity_s": index.duration(op, sim),
        "preference.similarity_calls": index.calls(op, sim),
        "preference.similarity_pairs": index.attr_sum(op, sim, "pairs"),
        "preference.mcnemar_s": index.duration(op, mcn),
        "preference.mcnemar_pairs": index.attr_sum(op, mcn, "pairs"),
        "preference.self_s": index.self_time(op, _layer("preference")),
        "metric_learning.minimize_s": minimize_s,
        "metric_learning.iterations": iterations,
        "metric_learning.value_evals": value_evals,
        "metric_learning.grad_evals":
            index.counts.get((op, "metric_learning.gradient"), 0),
        "metric_learning.ms_per_iter":
            1000.0 * minimize_s / iterations if iterations else 0.0,
        "metric_learning.accept_ratio":
            iterations / value_evals if value_evals else 0.0,
        "metric_learning.trains":
            index.calls(op, _named("metric_learning.train")),
        "metric_learning.train_self_s":
            index.self_time(op, _named("metric_learning.train")),
        "metric_learning.build_objective_self_s":
            index.self_time(op, _named("metric_learning.build_objective")),
        "metric_learning.stop_max_iters":
            index.attr_count(op, mini, "reason", "max_iters"),
        "metric_learning.stop_line_search_failure":
            index.attr_count(op, mini, "reason", "line_search_failure"),
        "metric_learning.self_s": index.self_time(op, _layer("metric_learning")),
        "recommend.predict_s": index.self_time(op, _layer("recommend")),
        "recommend.predict_calls": index.calls(op, _layer("recommend")),
        "cli.self_s": index.self_time(op, _layer("cli")),
        "io.read_s": index.duration(op, reads),
        "io.read_mb": index.attr_sum(op, reads, "read_bytes") / 1e6,
        "io.write_s": index.duration(op, writes),
        "io.write_mb": index.attr_sum(op, writes, "write_bytes") / 1e6,
        "io.self_s": index.self_time(op, _layer("io")),
        "data_model.validate_s":
            index.duration(op, _named("data_model.validate_tables")),
        "data_model.standardize_s":
            index.duration(op, _named("data_model.standardize")),
        "data_model.standardize_calls":
            index.calls(op, _named("data_model.standardize")),
        "data_model.self_s": index.self_time(op, _layer("data_model")),
        "evaluation.folds": index.attr_sum(op, runners, "folds"),
        "evaluation.fold_self_s": index.self_time(op, runners),
        "evaluation.failed_strategies": index.attr_sum(op, runners, "failed"),
        "evaluation.report_s": index.duration(op, report),
        "evaluation.self_s": index.self_time(op, _layer("evaluation")),
    }


def setup_metrics(index, setup_ops):
    gen = _named("synth.generate")
    return {
        "synth.generate_s": statistics.median(
            index.duration(op, gen) for op in setup_ops),
        "synth.self_s": statistics.median(
            index.self_time(op, _layer("synth")) for op in setup_ops),
    }
