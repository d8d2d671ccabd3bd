"""The three workloads: how each makes its inputs from a seed through
`metamine synth`, which CLI commands make up one op, and how the op's
outputs are checked.

Every command goes through `metamine.cli.main` in this process. Each
workload stresses a different layer (see layer_map.json):

- lodo-20x10: LODO evaluation at 20 datasets x 10 workflows; similarity
  targets and 20 small trains, each capped at 100 iterations (most stop
  there at any cap up to 300; the cold-start rho barely moves with it).
- train-serve-200x50: the README pipeline at 200 x 50 (ROADMAP size M);
  CSV I/O, one f3 descent of a fixed 150 iterations and 10k-pair serving,
  with no similarity target and no McNemar.
- ingest-10x40: instance-level outcome CSVs through McNemar scoring; no
  training at all.

Sizes are chosen so that one op takes 0.3-2 s: a run then times a dozen
ops or more, and its median holds still on a shared host.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io as _stdio
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import stats


@dataclass
class CommandResult:
    argv: list
    exit_code: int
    stdout: str
    stderr: str


def run_cli(argv):
    """Run one `metamine` command in this process, capturing its output.
    `main` is looked up at call time, so a traced run sees the wrapper."""
    from metamine import cli
    out, err = _stdio.StringIO(), _stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return CommandResult(list(argv), code, out.getvalue(), err.getvalue())


def tree_digest(directory):
    """SHA-256 over the relative paths and bytes of every file under a
    directory. Resolved-config files are left out: they record the paths
    the command was given."""
    directory = Path(directory)
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        if path.name.endswith("config.json"):
            continue
        h.update(path.relative_to(directory).as_posix().encode())
        h.update(b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def file_digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _flags(mapping):
    out = []
    for key, value in mapping.items():
        out += [f"--{key.replace('_', '-')}", value]
    return out


def _rowwise_spearman(a, b):
    """Mean Spearman rho between matching rows of a and b, skipping rows
    where either side is constant."""
    ra = stats.rankdata(a, axis=1)
    rb = stats.rankdata(b, axis=1)
    ra -= ra.mean(axis=1, keepdims=True)
    rb -= rb.mean(axis=1, keepdims=True)
    den = np.sqrt((ra * ra).sum(axis=1) * (rb * rb).sum(axis=1))
    ok = den > 0
    return float(np.mean((ra * rb).sum(axis=1)[ok] / den[ok]))


def _read_matrix(path):
    """Wide CSV (id column + numeric columns) -> (row ids, column ids, array)."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return ([r[0] for r in rows[1:]], rows[0][1:],
            np.array([[float(v) for v in r[1:]] for r in rows[1:]]))


def _read_long(path, row_ids, col_ids, value_column):
    """Long CSV keyed by (row id, column id) -> dense array."""
    ri = {k: i for i, k in enumerate(row_ids)}
    ci = {k: j for j, k in enumerate(col_ids)}
    out = np.full((len(row_ids), len(col_ids)), np.nan)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            out[ri[row[0]], ci[row[1]]] = float(row[value_column])
    return out


@dataclass(frozen=True)
class Check:
    """Outcome of checking one op: a digest of its outputs (must repeat
    exactly between ops of one run), values compared with the recorded
    reference, and the problems found."""

    digest: str
    summary: dict
    problems: tuple
    rank_rho: float


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    synth: dict      # `metamine synth` flags, seed and output excluded
    input_sets: int  # input sets per run; the ops cycle over them

    def generate(self, seed, inputs):
        """Commands that make this workload's inputs under `inputs`."""
        raw = Path(inputs) / "raw"
        return [["synth", *_flags(self.synth), "--seed", seed, "--out", raw]]

    def op(self, inputs, out):
        """Commands of one op, reading `inputs` and writing under `out`."""
        raise NotImplementedError

    def reference(self, inputs):
        """Anything the checks need that is computed once per run."""
        return None

    def check(self, inputs, out, reference) -> Check:
        raise NotImplementedError


class Lodo(Workload):
    protocol_flags = ("--protocol", "lodo", "--strategies", "def,ec,f4",
                      "--mu1", "0.1", "--mu2", "0.1", "--max-iters", "100",
                      "--jobs", "1")

    def generate(self, seed, inputs):
        raw = Path(inputs) / "raw"
        return super().generate(seed, inputs) + [
            ["ingest", "--x", raw / "X.csv", "--a", raw / "A.csv",
             "--performance", raw / "performance.csv",
             "--preferences", raw / "R.csv", "--out", Path(inputs) / "bundle"]]

    def op(self, inputs, out):
        return [["evaluate", "--bundle", Path(inputs) / "bundle",
                 *self.protocol_flags, "--out", Path(out) / "report"]]

    def check(self, inputs, out, reference):
        path = Path(out) / "report" / "report.json"
        report = json.loads(path.read_text(encoding="utf-8"))
        problems = []
        n = self.synth["n"]
        if len(report["folds"]) != n:
            problems.append(f"{len(report['folds'])} folds, expected {n}")
        for fold in report["folds"]:
            if fold["failed"]:
                problems.append(f"fold {fold['held_out']}: failed {fold['failed']}")
        summary = {}
        for strategy in ("def", "ec", "f4_direct"):
            for metric in ("rho", "mae", "t5p"):
                value = report["aggregates"].get(strategy, {}).get(metric)
                if value is None or not math.isfinite(value):
                    problems.append(f"aggregate {strategy}.{metric} is {value}")
                summary[f"{strategy}.{metric}"] = value
        rho = summary["f4_direct.rho"]
        return Check(file_digest(path), summary, tuple(problems),
                     rho if rho is not None else float("nan"))


class TrainServe(Workload):
    # Below the fewest iterations any input set needs to converge (~190 at
    # 200x50), so every op runs the same descent length: left to converge,
    # the descent takes 190-700 iterations depending on the inputs.
    max_iters = 150

    def op(self, inputs, out):
        raw, out = Path(inputs) / "raw", Path(out)
        bundle, model = out / "bundle", out / "model.json"
        return [
            ["ingest", "--x", raw / "X.csv", "--a", raw / "A.csv",
             "--performance", raw / "performance.csv",
             "--preferences", raw / "R.csv", "--out", bundle],
            ["train", "--bundle", bundle, "--objective", "f3",
             "--max-iters", self.max_iters, "--out", model],
            ["predict", "--model", model, "--bundle", bundle,
             "--task", "workflow_prefs", "--x", raw / "X.csv",
             "--out", out / "workflow_prefs.csv"],
            ["predict", "--model", model, "--bundle", bundle,
             "--task", "pair_score", "--x", raw / "X.csv", "--a", raw / "A.csv",
             "--out", out / "pair_score.csv"],
        ]

    def check(self, inputs, out, reference):
        raw, out = Path(inputs) / "raw", Path(out)
        problems = []
        if (out / "bundle" / "R.csv").read_bytes() != (raw / "R.csv").read_bytes():
            problems.append("bundle R.csv differs from the input R.csv")
        ds_ids, wf_ids, r = _read_matrix(raw / "R.csv")
        model = json.loads((out / "model.json").read_text(encoding="utf-8"))
        trace = model["trace_summary"]
        final, initial = trace["final_objective"], trace["initial_objective"]
        if not (math.isfinite(final) and final <= initial):
            problems.append(f"objective went from {initial} to {final}")
        preds = {}
        for task in ("workflow_prefs", "pair_score"):
            p = _read_long(out / f"{task}.csv", ds_ids, wf_ids, 2)
            if not np.isfinite(p).all():
                problems.append(f"{task}: missing or non-finite scores")
            preds[task] = p
        # two code paths compute the same bilinear score x'U V'a
        scale = max(1.0, float(np.abs(preds["workflow_prefs"]).max()))
        gap = float(np.abs(preds["workflow_prefs"] - preds["pair_score"]).max())
        if not gap <= 1e-9 * scale:
            problems.append(f"pair_score and workflow_prefs disagree by {gap}")
        scores = preds["workflow_prefs"]
        rho = _rowwise_spearman(scores, r)
        summary = {"final_objective": final,
                   "prediction_abs_sum": float(np.abs(scores).sum()),
                   "prediction_sumsq": float((scores ** 2).sum()),
                   "rank_rho": rho}
        h = hashlib.sha256()
        for name in ("bundle/R.csv", "model.json", "workflow_prefs.csv",
                     "pair_score.csv"):
            h.update((out / name).read_bytes())
        return Check(h.hexdigest(), summary, tuple(problems), rho)


def mcnemar_reference(outcome_dir, alpha=0.05):
    """Independent McNemar scoring of every outcome CSV: all discordant
    counts of a dataset in one product C'(1-C), one critical value."""
    critical = stats.chi2.ppf(1.0 - alpha, 1)
    rows = {}
    for path in sorted(Path(outcome_dir).glob("*.csv")):
        c = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        b = c.T @ (1.0 - c)                  # b[k, l]: k right, l wrong
        disc = b + b.T
        with np.errstate(divide="ignore", invalid="ignore"):
            stat = (np.abs(b - b.T) - 1.0) ** 2 / disc
        win = (disc > 0) & (stat > critical) & (b > b.T)
        m = c.shape[1]
        tie = ~np.eye(m, dtype=bool) & ~win & ~win.T
        points = win.sum(axis=1) + 0.5 * tie.sum(axis=1)
        rows[path.stem] = points
    return rows


class IngestOutcomes(Workload):
    def op(self, inputs, out):
        raw = Path(inputs) / "raw"
        return [["ingest", "--x", raw / "X.csv", "--a", raw / "A.csv",
                 "--performance", raw / "performance.csv",
                 "--outcomes-dir", raw / "outcomes",
                 "--out", Path(out) / "bundle"]]

    def reference(self, inputs):
        return mcnemar_reference(Path(inputs) / "raw" / "outcomes")

    def check(self, inputs, out, reference):
        raw, out = Path(inputs) / "raw", Path(out)
        problems = []
        r_bytes = (out / "bundle" / "R.csv").read_bytes()
        if r_bytes != (raw / "R.csv").read_bytes():
            problems.append("ingested R.csv differs from the synthesized R.csv")
        ds_ids, wf_ids, r = _read_matrix(out / "bundle" / "R.csv")
        m = len(wf_ids)
        if not (r.sum(axis=1) == m * (m - 1) / 2).all():
            problems.append("a row of R does not sum to m(m-1)/2")
        if not (r * 2 == np.round(r * 2)).all():
            problems.append("R holds a value that is not a multiple of 0.5")
        expected = np.array([reference[d] for d in ds_ids])
        if expected.shape != r.shape or not (expected == r).all():
            problems.append("R differs from the independent McNemar scoring")
        perf = _read_long(raw / "performance.csv", ds_ids, wf_ids, 2)
        rho = _rowwise_spearman(r, perf)
        summary = {"r_sha256": hashlib.sha256(r_bytes).hexdigest(),
                   "rank_rho": rho}
        return Check(summary["r_sha256"], summary, tuple(problems), rho)


WORKLOADS = {w.name: w for w in (
    Lodo(
        "lodo-20x10",
        "LODO (def,ec,f4) at 20 datasets x 10 workflows: similarity targets "
        "and 20 small 100-iteration trains per op",
        synth={"n": 20, "m": 10, "d": 10, "l": 8, "latent_t": 3,
               "mode": "noisy", "noise_sigma": 0.5},
        input_sets=24),     # cold-start rho varies much between inputs
    TrainServe(
        "train-serve-200x50",
        "README ingest-train-predict at 200x50: CSV I/O, a 150-iteration f3 "
        "descent, 10k-pair serving; no similarity, no McNemar",
        synth={"n": 200, "m": 50, "d": 40, "l": 30, "latent_t": 5,
               "mode": "noisy", "noise_sigma": 0.5},
        input_sets=3),
    IngestOutcomes(
        "ingest-10x40",
        "10 datasets x 40 workflows x 500 instances of outcome CSVs through "
        "McNemar; no training",
        synth={"n": 10, "m": 40, "d": 10, "l": 8, "latent_t": 3,
               "mode": "outcome", "instances": 500},
        input_sets=3),
)}
