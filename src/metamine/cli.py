"""Command-line front door: synth, ingest, train, evaluate, predict.

Each value is resolved in the order built-in defaults (HyperParams for
the hyperparameters) < --preset < --config file < flags on the command
line. Every subcommand writes the fully resolved configuration, the values
it actually used, next to its outputs, so runs are reproducible from the
artifacts alone. Exit codes: 0 success, 1 validation error, 2 runtime
failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import io
from .data_model import HyperParams, InitScheme, TableKind, validate_tables
from .evaluation import (MetaMiningData, Protocol, run_lodo, run_lodwo,
                         run_lowo)
from .metric_learning import ObjectiveKind, train
from .preference import (build_preference_from_significance,
                         build_preference_matrix)
from .recommend import OBJECTIVES, TASKS, Strategy, Task, predict
from .synth import SynthConfig, SynthMode, generate

# Hyperparameter presets mirroring the published experiment settings,
# keyed by (preset name, objective). Shipped as named presets, not
# defaults: several of the scales are extreme on purpose.
PRESETS = {
    ("paper-task1", "f1"): {"mu1": 0.5, "n_neighbors": 5},
    ("paper-task1", "f3"): {"mu1": 0.5, "mu2": 0.5},
    ("paper-task1", "f4"): {"alpha": 1e-10, "beta": 1e-3, "gamma": 1e-3,
                            "mu1": 10.0, "mu2": 0.0},
    ("paper-task2", "f2"): {"mu2": 10.0, "n_neighbors": 5},
    ("paper-task2", "f3"): {"mu1": 10.0, "mu2": 10.0},
    ("paper-task2", "f4"): {"alpha": 1e-10, "beta": 1e-3, "gamma": 1e-3,
                            "mu1": 0.5, "mu2": 0.0},
    ("paper-task3", "f3"): {"mu1": 10.0, "mu2": 10.0},
    ("paper-task3", "f4"): {"alpha": 1e-10, "beta": 1e-3, "gamma": 1e-3,
                            "mu1": 10.0, "mu2": 0.0},
}

# HyperParams field -> the dest of its CLI flag and config key
_HYPER_FIELDS = {f.name: "neighbors" if f.name == "n_neighbors" else f.name
                 for f in fields(HyperParams)}
HYPER_FLAGS = tuple(_HYPER_FIELDS.values())

_STRATEGY_ALIASES = {
    "def": Strategy.DEFAULT,
    "ec": Strategy.EUCLIDEAN,
    "f1": Strategy.F1_KNN,
    "f2": Strategy.F2_KNN,
    "f3": Strategy.F3_DIRECT,
    "f4": Strategy.F4_DIRECT,
    "f4-knn": Strategy.F4_KNN,
}


class CliError(Exception):
    def __init__(self, message, exit_code=2):
        super().__init__(message)
        self.exit_code = exit_code


def _resolve_config(args, names):
    """The parsed values of the given names; _parse has already layered
    the preset and the config file beneath the flags."""
    return {name: getattr(args, name) for name in names if hasattr(args, name)}


def _hyper_from(resolved):
    values = {field: resolved[dest] for field, dest in _HYPER_FIELDS.items()}
    values["init"] = InitScheme(values["init"])
    return HyperParams(**values)


def _preset_values(preset, objective):
    """A preset's hyperparameters under their CLI dests."""
    if (preset, objective) not in PRESETS:
        known = sorted({p for p, _ in PRESETS})
        raise CliError(f"no preset {preset!r} for objective {objective!r} "
                       f"(known presets: {known})", exit_code=1)
    return {_HYPER_FIELDS[k]: v for k, v in PRESETS[preset, objective].items()}


def _parse(parser, argv):
    """Parse argv over layered defaults: built-in < preset < config file.

    Preset and config values become defaults of the chosen subcommand's
    parser and argv is parsed again, so every flag on the command line wins,
    however it is spelled (--max-iters=5, --max-it 5)."""
    args = parser.parse_args(argv)
    config = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            config = {k: v for k, v in json.load(fh).items()
                      if k in vars(args) and k not in ("func", "subcommand")}
    preset = getattr(args, "preset", None) or config.get("preset")
    # evaluate looks its preset up under the combined objective
    objective = getattr(args, "objective", "f4")
    layered = {**(_preset_values(preset, objective) if preset else {}),
               **config}
    if not layered:
        return args
    parser.subcommands[args.subcommand].set_defaults(**layered)
    return parser.parse_args(argv)


def _write_resolved_config(out_path, subcommand, resolved):
    doc = {"subcommand": subcommand, **{k: (v.value if hasattr(v, "value") else v)
                                        for k, v in resolved.items()}}
    path = Path(out_path)
    target = path / "resolved_config.json" if path.is_dir() \
        else path.with_suffix(path.suffix + ".config.json")
    with open(target, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _load_bundle(bundle_dir) -> MetaMiningData:
    bundle = Path(bundle_dir)
    manifest = bundle / "manifest.json"
    if not manifest.exists():
        raise CliError(f"{bundle}: not a bundle (missing manifest.json)", exit_code=1)
    x = io.read_descriptor_csv(bundle / "X.csv", TableKind.DATASET)
    a = io.read_descriptor_csv(bundle / "A.csv", TableKind.WORKFLOW)
    perf = io.read_performance_csv(bundle / "performance.csv")
    r = io.read_preference_csv(bundle / "R.csv")
    return MetaMiningData(x=x, a=a, r=r, performance=perf)


def cmd_synth(args):
    resolved = _resolve_config(args, ("n", "m", "d", "l", "latent_t",
                                      "noise_sigma", "seed", "mode",
                                      "instances", "out"))
    config = SynthConfig(n=resolved["n"], m=resolved["m"], d=resolved["d"],
                         l=resolved["l"], latent_t=resolved["latent_t"],
                         noise_sigma=resolved["noise_sigma"],
                         seed=resolved["seed"],
                         mode=SynthMode(resolved["mode"]),
                         instances_per_dataset=resolved["instances"])
    result = generate(config)
    out = Path(resolved["out"])
    out.mkdir(parents=True, exist_ok=True)
    io.write_descriptor_csv(out / "X.csv", result.x)
    io.write_descriptor_csv(out / "A.csv", result.a)
    io.write_performance_csv(out / "performance.csv", result.performance)
    io.write_preference_csv(out / "R.csv", result.preferences)
    if result.cube is not None:
        io.write_outcome_dir(out / "outcomes", result.cube)
    _write_resolved_config(out, "synth", resolved)
    print(f"wrote synthetic problem ({config.n} datasets x {config.m} workflows) to {out}")
    return 0


def cmd_ingest(args):
    resolved = _resolve_config(args, ("x", "a", "performance", "preferences",
                                      "outcomes_dir", "significance", "out"))
    x = io.read_descriptor_csv(resolved["x"], TableKind.DATASET)
    a = io.read_descriptor_csv(resolved["a"], TableKind.WORKFLOW)
    perf = io.read_performance_csv(resolved["performance"])
    report = validate_tables(x, a, perf)
    if not report.passed:
        print(report, file=sys.stderr)
        raise CliError("validation failed", exit_code=1)

    sources = [s for s in ("preferences", "outcomes_dir", "significance")
               if resolved.get(s)]
    if len(sources) != 1:
        raise CliError("exactly one of --preferences, --outcomes-dir, "
                       "--significance is required", exit_code=1)
    if resolved.get("preferences"):
        r = io.read_preference_csv(resolved["preferences"])
    elif resolved.get("outcomes_dir"):
        cube = io.read_outcome_dir(resolved["outcomes_dir"])
        r = build_preference_matrix(cube)
    else:
        ds_ids, wf_ids, tables = io.read_significance_csv(resolved["significance"])
        r = build_preference_from_significance(ds_ids, wf_ids, tables)
    try:
        r.check_invariants()
    except ValueError as exc:
        print(f"R: {exc}", file=sys.stderr)
        raise CliError("preference-matrix validation failed", exit_code=1)
    if tuple(r.dataset_ids) != tuple(x.entity_ids) \
            or tuple(r.workflow_ids) != tuple(a.entity_ids):
        orphans = sorted((set(r.dataset_ids) ^ set(x.entity_ids))
                         | (set(r.workflow_ids) ^ set(a.entity_ids)))
        raise CliError(f"preference ids do not match descriptor ids: {orphans}",
                       exit_code=1)

    out = Path(resolved["out"])
    out.mkdir(parents=True, exist_ok=True)
    io.write_descriptor_csv(out / "X.csv", x)
    io.write_descriptor_csv(out / "A.csv", a)
    io.write_performance_csv(out / "performance.csv", perf)
    io.write_preference_csv(out / "R.csv", r)
    manifest = {
        "n_datasets": x.n_entities, "n_workflows": a.n_entities,
        "d": x.n_features, "l": a.n_features,
        "validated": True,
        "preference_source": sources[0],
    }
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)
        fh.write("\n")
    _write_resolved_config(out, "ingest", resolved)
    print(f"bundle written to {out}")
    return 0


def cmd_train(args):
    resolved = _resolve_config(args, ("bundle", "objective", "preset", "out",
                                      *HYPER_FLAGS))
    data = _load_bundle(resolved["bundle"])
    kind = ObjectiveKind(resolved["objective"])
    hyper = _hyper_from(resolved)
    params, trace = train(kind, data.x, data.a, data.r, hyper)
    summary = {
        "iterations": trace.iterations,
        "initial_objective": trace.objective_values[0],
        "final_objective": trace.objective_values[-1],
        "reason": trace.reason.value,
    }
    io.save_model(resolved["out"], params, trace_summary=summary)
    _write_resolved_config(resolved["out"], "train", resolved)
    print(f"objective {kind.value}: final value {summary['final_objective']:.6g} "
          f"after {summary['iterations']} iterations ({summary['reason']})")
    return 0


def cmd_evaluate(args):
    resolved = _resolve_config(args, ("bundle", "protocol", "strategies",
                                      "preset", "jobs", "format", "out",
                                      *HYPER_FLAGS))
    data = _load_bundle(resolved["bundle"])
    protocol = Protocol(resolved["protocol"])
    try:
        strategies = [_STRATEGY_ALIASES[s.strip()]
                      for s in resolved["strategies"].split(",") if s.strip()]
    except KeyError as exc:
        raise CliError(f"unknown strategy {exc.args[0]!r} "
                       f"(known: {sorted(_STRATEGY_ALIASES)})", exit_code=1)
    hyper = _hyper_from(resolved)
    runner = {Protocol.LODO: run_lodo, Protocol.LOWO: run_lowo,
              Protocol.LODWO: run_lodwo}[protocol]
    report = runner(data, strategies, hyper, jobs=resolved["jobs"])
    out = Path(resolved["out"])
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, sort_keys=True, indent=1)
        fh.write("\n")
    table = report.render_table()
    with open(out / "report.txt", "w", encoding="utf-8") as fh:
        fh.write(table + "\n")
    _write_resolved_config(out, "evaluate", resolved)
    if resolved.get("format") == "table":
        print(table)
    else:
        print(f"report written to {out}")
    all_failed = report.folds and all(f.failed and not any(f.metrics.values())
                                      for f in report.folds)
    return 2 if all_failed else 0


def cmd_predict(args):
    resolved = _resolve_config(args, ("model", "bundle", "task", "x", "a",
                                      "neighbors", "out"))
    params = io.load_model(resolved["model"])
    task = Task(resolved["task"])
    # the model's own strategy, the first in OBJECTIVES with its objective:
    # kNN for f1/f2, direct scoring for f3/f4
    strategy = next((s for s, o in OBJECTIVES.items() if o == params.objective),
                    None)
    if strategy is None or task not in TASKS[strategy]:
        raise CliError({
            Task.WORKFLOW_PREFS: "model cannot rank workflows for a dataset",
            Task.DATASET_PREFS: "model cannot rank datasets for a workflow",
            Task.PAIR_SCORE: "homogeneous model cannot score dataset-workflow pairs",
        }[task], exit_code=1)
    n = resolved["neighbors"]
    if n is None:
        n = params.hyper.n_neighbors
    elif n < 1:
        raise CliError(f"--neighbors must be positive, got {n}", exit_code=1)
    data = _load_bundle(resolved["bundle"])

    def queries(flag, kind, expected):
        if not resolved[flag]:
            raise CliError(f"task {task.value} needs --{flag}", exit_code=1)
        table = io.read_descriptor_csv(resolved[flag], kind)
        if expected is not None and tuple(table.feature_names) != tuple(expected):
            raise CliError(f"{kind.value} feature names do not match the model",
                           exit_code=1)
        if not np.isfinite(table.features).all():
            raise CliError(f"{resolved[flag]}: non-finite {kind.value} "
                           "descriptor values", exit_code=1)
        return table

    qx = qa = None
    if task is not Task.DATASET_PREFS:
        qx = queries("x", TableKind.DATASET, params.x_feature_names)
    if task is not Task.WORKFLOW_PREFS:
        qa = queries("a", TableKind.WORKFLOW, params.a_feature_names)

    def serve(x_new, a_new):
        return predict(strategy, task, x_new, a_new, data.x, data.a, data.r,
                       params, n)

    rows = []
    if task is Task.PAIR_SCORE:
        for xid, xf in zip(qx.entity_ids, qx.features):
            for aid, af in zip(qa.entity_ids, qa.features):
                score = float(serve(xf, af).values)
                rows.append([xid, aid, repr(score), strategy.value, ""])
    else:
        q, targets = (qx, data.a.entity_ids) if qa is None else (qa, data.x.entity_ids)
        for qid, feats in zip(q.entity_ids, q.features):
            pred = serve(feats, None) if qa is None else serve(None, feats)
            for tid, score in zip(targets, pred.values):
                rows.append([qid, tid, repr(float(score)), pred.strategy.value,
                             ";".join(pred.flags)])

    out = Path(resolved["out"])
    with open(out, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["query_id", "target_id", "score", "strategy", "flags"])
        w.writerows(rows)
    _write_resolved_config(out, "predict", resolved)
    print(f"predictions written to {out}")
    return 0


def _add_hyper_flags(p):
    """One flag per HyperParams field, defaulting to the field's default."""
    defaults = HyperParams().to_dict()
    for field, dest in _HYPER_FIELDS.items():
        default = defaults[field]
        if field == "init":
            spec = {"choices": [s.value for s in InitScheme]}
        else:  # t, the one optional field, defaults to None
            spec = {"type": int if default is None else type(default)}
        p.add_argument(f"--{dest.replace('_', '-')}", dest=dest,
                       default=default, **spec)
    p.add_argument("--preset", default=None)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="metamine",
        description="Metric-learning hybrid recommendations over "
                    "dataset x workflow preference matrices.")
    parser.add_argument("--config", default=None,
                        help="JSON file of flag defaults (flags still win)")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    parser.subcommands = sub.choices  # name -> subparser, for _parse

    p = sub.add_parser("synth", help="generate a synthetic problem")
    p.add_argument("--n", type=int, default=30)
    p.add_argument("--m", type=int, default=12)
    p.add_argument("--d", type=int, default=10)
    p.add_argument("--l", type=int, default=8)
    p.add_argument("--latent-t", type=int, default=3, dest="latent_t")
    p.add_argument("--noise-sigma", type=float, default=0.0, dest="noise_sigma")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=[m.value for m in SynthMode], default="exact")
    p.add_argument("--instances", type=int, default=200)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", help="validate inputs and write a bundle")
    p.add_argument("--x", required=True, help="dataset descriptor CSV")
    p.add_argument("--a", required=True, help="workflow descriptor CSV")
    p.add_argument("--performance", required=True, help="long-format performance CSV")
    p.add_argument("--preferences", default=None, help="wide-format R CSV")
    p.add_argument("--outcomes-dir", default=None, dest="outcomes_dir",
                   help="directory of per-dataset correctness CSVs")
    p.add_argument("--significance", default=None,
                   help="long-format pairwise-significance CSV")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("train", help="train an objective on a bundle")
    p.add_argument("--bundle", required=True)
    p.add_argument("--objective", choices=["f1", "f2", "f3", "f4"], required=True)
    _add_hyper_flags(p)
    p.add_argument("--out", required=True, help="model JSON path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="run a leave-one-out protocol")
    p.add_argument("--bundle", required=True)
    p.add_argument("--protocol", choices=["lodo", "lowo", "lodwo"], required=True)
    p.add_argument("--strategies", default="def,ec,f4",
                   help="comma list from: " + ",".join(sorted(_STRATEGY_ALIASES)))
    _add_hyper_flags(p)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--format", choices=["json", "table"], default="json")
    p.add_argument("--out", required=True, help="report directory")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="cold-start predictions for unseen entities")
    p.add_argument("--model", required=True)
    p.add_argument("--bundle", required=True)
    p.add_argument("--task", choices=[t.value for t in Task], required=True)
    p.add_argument("--x", default=None, help="query dataset descriptor CSV")
    p.add_argument("--a", default=None, help="query workflow descriptor CSV")
    p.add_argument("--neighbors", type=int, default=None)
    p.add_argument("--out", required=True, help="prediction CSV path")
    p.set_defaults(func=cmd_predict)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = _parse(parser, argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (io.IngestError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # anything else is a runtime failure
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
