"""Command-line front door: synth, ingest, train, evaluate, predict.

Each value is resolved in the order built-in defaults (HyperParams for
the hyperparameters) < --preset < --config file < flags on the command
line. After every subcommand, main writes the fully resolved
configuration, the values it actually used, next to its outputs, so runs
are reproducible from the artifacts alone. Exit codes: 0 success, 1 an
IngestError (input the command cannot use) or an OSError, 2 any other
exception: a runtime failure, which is a bug.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from enum import Enum
from pathlib import Path

import numpy as np

from . import io
from .data_model import HyperParams, IngestError, MetaMiningData
from .evaluation import (Protocol, report_table, run_lodo, run_lodwo,
                         run_lowo)
from .metric_learning import ObjectiveKind, train
from .preference import (build_preference_from_significance,
                         build_preference_matrix)
from .recommend import TASKS, Strategy, Task, predict
from .synth import SynthConfig, generate

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

# HyperParams / SynthConfig field -> the dest of its CLI flag and config key
_HYPER_FIELDS = {f.name: "neighbors" if f.name == "n_neighbors" else f.name
                 for f in fields(HyperParams)}
_SYNTH_FIELDS = {f.name: "instances" if f.name == "instances_per_dataset"
                 else f.name for f in fields(SynthConfig)}

_STRATEGY_ALIASES = {
    "def": Strategy.DEFAULT,
    "ec": Strategy.EUCLIDEAN,
    "f1": Strategy.F1_KNN,
    "f2": Strategy.F2_KNN,
    "f3": Strategy.F3_DIRECT,
    "f4": Strategy.F4_DIRECT,
    "f4-knn": Strategy.F4_KNN,
}


def _from_flags(cls, dests, resolved):
    """The dataclass cls built from the resolved values of its flags."""
    return cls(**{field: resolved[dest] for field, dest in dests.items()})


def _preset_values(preset, objective):
    """A preset's hyperparameters under their CLI dests."""
    if (preset, objective) not in PRESETS:
        known = sorted({p for p, _ in PRESETS})
        raise IngestError(f"no preset {preset!r} for objective {objective!r} "
                          f"(known presets: {known})")
    return {_HYPER_FIELDS[k]: v for k, v in PRESETS[preset, objective].items()}


def _config_value(path, action, value):
    """A config-file value passed through its flag's own type and choices,
    as argparse passes the same value given on the command line. null is
    kept only for flags that default to None."""
    if value is None and action.default is None:
        return None
    expected = action.type or str
    given = f"{path}: config value {action.dest}={json.dumps(value)}"
    try:
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise ValueError
        parsed = expected(str(value))
    except ValueError:
        raise IngestError(f"{given} is not a valid {expected.__name__}") from None
    if action.choices is not None and parsed not in action.choices:
        raise IngestError(f"{given} is not one of {list(action.choices)}")
    return parsed


def _parse(parser, argv):
    """Parse argv over layered defaults: built-in < preset < config file.

    Preset and config values become defaults of the chosen subcommand's
    parser and argv is parsed again, so every flag on the command line wins,
    however it is spelled (--max-iters=5, --max-it 5). Returns the
    subcommand's name and its resolved values, one per flag of the
    subcommand."""
    args = parser.parse_args(argv)
    subparser = parser.subcommands[args.subcommand]
    actions = {a.dest: a for a in subparser._actions if a.dest != "help"}
    config = {}
    if args.config:
        config = io.read_json(args.config)
        if not isinstance(config, dict):
            raise IngestError(f"{args.config}: config must be a JSON object")
        config.pop("subcommand", None)  # resolved-config files carry it
        unknown = sorted(k for k in config if k not in actions)
        if unknown:
            raise IngestError(f"{args.config}: unknown config keys for "
                              f"{args.subcommand}: {unknown}")
        config = {k: _config_value(args.config, actions[k], v)
                  for k, v in config.items()}
    preset = getattr(args, "preset", None) or config.get("preset")
    # evaluate looks its preset up under the combined objective
    objective = getattr(args, "objective", "f4")
    layered = {**(_preset_values(preset, objective) if preset else {}),
               **config}
    if layered:
        subparser.set_defaults(**layered)
        args = parser.parse_args(argv)
    return args.subcommand, {dest: getattr(args, dest) for dest in actions}


def _write_resolved_config(out_path, subcommand, resolved):
    path = Path(out_path)
    io.write_json(path / "resolved_config.json" if path.is_dir()
                  else path.with_suffix(path.suffix + ".config.json"),
                  {"subcommand": subcommand, **resolved})


def cmd_synth(resolved):
    config = _from_flags(SynthConfig, _SYNTH_FIELDS, resolved)
    result = generate(config)
    out = Path(resolved["out"])
    io.write_bundle(out, MetaMiningData(x=result.x, a=result.a,
                                        r=result.preferences,
                                        performance=result.performance))
    if result.cube is not None:
        io.write_outcome_dir(out / "outcomes", result.cube)
    print(f"wrote synthetic problem ({config.n} datasets x {config.m} workflows) to {out}")
    return 0


def cmd_ingest(resolved):
    sources = [s for s in ("preferences", "outcomes_dir", "significance")
               if resolved[s]]
    if len(sources) != 1:
        raise IngestError("exactly one of --preferences, --outcomes-dir, "
                          "--significance is required")
    x = io.read_descriptor_csv(resolved["x"])
    a = io.read_descriptor_csv(resolved["a"])
    perf = io.read_performance_csv(resolved["performance"])
    if resolved["preferences"]:
        r = io.read_preference_csv(resolved["preferences"])
    elif resolved["outcomes_dir"]:
        r = build_preference_matrix(io.read_outcome_dir(resolved["outcomes_dir"]))
    else:
        ds_ids, wf_ids, wins = io.read_significance_csv(resolved["significance"])
        r = build_preference_from_significance(ds_ids, wf_ids, wins)
    data = io.check_bundle(MetaMiningData(x=x, a=a, r=r, performance=perf),
                           "ingest")
    out = Path(resolved["out"])
    io.write_bundle(out, data, preference_source=sources[0])
    print(f"bundle written to {out}")
    return 0


def cmd_train(resolved):
    data = io.read_bundle(resolved["bundle"])
    hyper = _from_flags(HyperParams, _HYPER_FIELDS, resolved)
    params, trace = train(resolved["objective"], data.x, data.a, data.r, hyper)
    summary = {
        "iterations": trace.iterations,
        "initial_objective": trace.objective_values[0],
        "final_objective": trace.objective_values[-1],
        "reason": trace.reason.value,
    }
    io.save_model(resolved["out"], params, trace_summary=summary)
    print(f"objective {params.objective}: final value {summary['final_objective']:.6g} "
          f"after {summary['iterations']} iterations ({summary['reason']})")
    return 0


def cmd_evaluate(resolved):
    protocol = Protocol(resolved["protocol"])
    # only LODO scores t5p, the one use of P
    data = io.read_bundle(resolved["bundle"],
                          performance=protocol is Protocol.LODO)
    try:
        strategies = [_STRATEGY_ALIASES[s.strip()]
                      for s in resolved["strategies"].split(",") if s.strip()]
    except KeyError as exc:
        raise IngestError(f"unknown strategy {exc.args[0]!r} "
                          f"(known: {sorted(_STRATEGY_ALIASES)})")
    if resolved["jobs"] < 1:
        raise IngestError(f"jobs must be positive, got {resolved['jobs']}")
    hyper = _from_flags(HyperParams, _HYPER_FIELDS, resolved)
    runner = {Protocol.LODO: run_lodo, Protocol.LOWO: run_lowo,
              Protocol.LODWO: run_lodwo}[protocol]
    report = runner(data, strategies, hyper)
    out = Path(resolved["out"])
    out.mkdir(parents=True, exist_ok=True)
    doc = report.to_dict()
    io.write_json(out / "report.json", doc)
    table = report_table(doc)
    with open(out / "report.txt", "w", encoding="utf-8") as fh:
        fh.write(table + "\n")
    if resolved["format"] == "table":
        print(table)
    else:
        print(f"report written to {out}")
    return 0


def cmd_predict(resolved):
    params = io.load_model(resolved["model"])
    task = Task(resolved["task"])
    # the model's own strategy: kNN for f1/f2, direct scoring for f3/f4
    strategy = _STRATEGY_ALIASES[params.objective]
    if task not in TASKS[strategy]:
        raise IngestError({
            Task.WORKFLOW_PREFS: "model cannot rank workflows for a dataset",
            Task.DATASET_PREFS: "model cannot rank datasets for a workflow",
            Task.PAIR_SCORE: "homogeneous model cannot score dataset-workflow pairs",
        }[task])
    n = resolved["neighbors"]
    if n is None:
        n = params.hyper.n_neighbors
    elif n < 1:
        raise IngestError(f"--neighbors must be positive, got {n}")
    bundle = resolved["bundle"]
    data = io.read_bundle(bundle)
    # a ranking scores against the bundle's entities, so its X and A must
    # have the model's features (pair scores read neither): their names
    # where the model stores them, else the rows of U and V
    sides = () if task is Task.PAIR_SCORE else (
        ("X.csv", data.x, params.x_feature_names, params.u),
        ("A.csv", data.a, params.a_feature_names, params.v))
    for name, table, names, weights in sides:
        if names is not None and table.feature_names != names:
            raise IngestError(f"{bundle}: {name} feature names do not match "
                              "the model's")
        if table.n_features != len(weights):
            raise IngestError(f"{bundle}: {name} has {table.n_features} "
                              f"features but the model has {len(weights)}")

    def queries(flag, names, weights):
        if not resolved[flag]:
            raise IngestError(f"task {task.value} needs --{flag}")
        return io.read_queries(resolved[flag], flag.upper(), names, len(weights))

    qx = qa = None
    if task is not Task.DATASET_PREFS:
        qx = queries("x", params.x_feature_names, params.u)
    if task is not Task.WORKFLOW_PREFS:
        qa = queries("a", params.a_feature_names, params.v)

    # One predict call scores every query, a row each, against its targets:
    # query workflows against the training datasets, query datasets against
    # the training workflows or, for pair scores, the query-workflow table.
    q, targets = (qa, data.x) if qx is None else (qx, data.a if qa is None else qa)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        pred = predict(strategy, task, qx and qx.features, qa and qa.features,
                       data.x, data.a, data.r, params, n)
    bad = np.argwhere(~np.isfinite(pred.values))    # in row order
    if bad.size:
        raise IngestError(f"non-finite score of query {q.entity_ids[bad[0, 0]]!r} "
                          f"for {targets.entity_ids[bad[0, 1]]!r}: a query "
                          "descriptor is too large for the model")

    out = Path(resolved["out"])
    io.write_predictions_csv(out, q.entity_ids, targets.entity_ids, strategy, pred)
    print(f"predictions written to {out}")
    return 0


def _add_field_flags(p, cls, dests):
    """One flag per field of the dataclass cls, defaulting to the field's
    default."""
    for field, default in vars(cls()).items():
        if isinstance(default, Enum):
            spec = {"choices": [e.value for e in type(default)],
                    "default": default.value}
        else:  # HyperParams.t, the one optional field, defaults to None
            spec = {"type": int if default is None else type(default),
                    "default": default}
        p.add_argument(f"--{dests[field].replace('_', '-')}",
                       dest=dests[field], **spec)


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
    _add_field_flags(p, SynthConfig, _SYNTH_FIELDS)
    p.add_argument("--out", required=True)

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

    p = sub.add_parser("train", help="train an objective on a bundle")
    p.add_argument("--bundle", required=True)
    p.add_argument("--objective", choices=[e.value for e in ObjectiveKind], required=True)
    _add_field_flags(p, HyperParams, _HYPER_FIELDS)
    p.add_argument("--preset", default=None)
    p.add_argument("--out", required=True, help="model JSON path")

    p = sub.add_parser("evaluate", help="run a leave-one-out protocol")
    p.add_argument("--bundle", required=True)
    p.add_argument("--protocol", choices=[e.value for e in Protocol], required=True)
    p.add_argument("--strategies", default="def,ec,f4",
                   help="comma list from: " + ",".join(sorted(_STRATEGY_ALIASES)))
    _add_field_flags(p, HyperParams, _HYPER_FIELDS)
    p.add_argument("--preset", default=None)
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for older scripts and configs; no effect")
    p.add_argument("--format", choices=["json", "table"], default="json")
    p.add_argument("--out", required=True, help="report directory")

    p = sub.add_parser("predict", help="cold-start predictions for unseen entities")
    p.add_argument("--model", required=True)
    p.add_argument("--bundle", required=True)
    p.add_argument("--task", choices=[t.value for t in Task], required=True)
    p.add_argument("--x", default=None, help="query dataset descriptor CSV")
    p.add_argument("--a", default=None, help="query workflow descriptor CSV")
    p.add_argument("--neighbors", type=int, default=None)
    p.add_argument("--out", required=True, help="prediction CSV path")
    return parser


_COMMANDS = {"synth": cmd_synth, "ingest": cmd_ingest, "train": cmd_train,
             "evaluate": cmd_evaluate, "predict": cmd_predict}


def main(argv=None):
    parser = build_parser()
    try:
        subcommand, resolved = _parse(parser, argv)
        code = _COMMANDS[subcommand](resolved)
        _write_resolved_config(resolved["out"], subcommand, resolved)
        return code
    except (IngestError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # anything else is a runtime failure
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
