"""Benchmark of the metamine command line, end to end and per module.

Run from the repository root:

    python3 bench/run.py --workload lodo-20x10 --seed 1 --seconds 25 --trace 0

One run, in one process:

1. set-up: make the workload's k input sets through `metamine synth`, from
   synth seeds k*seed .. k*seed+k-1 (digests must match reference.json
   where it records them), then one warm-up op on each of the first
   WARMUPS sets;
2. timed phase: repeat the op, cycling over the input sets, until --seconds
   have passed and every set has had an op;
3. check every op's outputs (see workloads.py); ops on the same input set
   must write identical outputs.

BLAS is pinned to one thread and folds run with --jobs 1, so the numbers
measure the program rather than the host's spare cores.

Times are reported at a reference CPU speed. A shared host runs the same
code up to ~1.7x slower for stretches of tens of seconds, and that swing
would drown a change to the program. So each step's wall time is scaled
by a fixed calibration loop timed beside it (see calibrate.py). The raw
wall times are kept in the record under "wall".

With --trace 0 the last stdout line carries the end-to-end metrics. With
--trace 1 each input set gets one traced op (wrappers from spans.py
installed around metamine's public functions), followed by untraced ops on
the first set for the tracing overhead, and the last line carries the
per-layer metrics, the median over the traced ops. The line before it, and
a file under .bench_out/, hold the full record: environment, sample counts,
op times and the self time per span.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WARMUPS = 3         # warm-up ops per run, one on each of the first sets

E2E_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "rank_rho": "rho",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def parse_args(argv, workload_names):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workload_names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_sha(root):
    """Commit of a git checkout, read from .git without running git; None
    outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def environment(seed):
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "fold_jobs": 1,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_sha": git_sha(ROOT),
        "seed": seed,
    }


def run_commands(commands):
    """Run CLI commands in order, stopping at the first non-zero exit."""
    from workloads import run_cli
    results = []
    for argv in commands:
        results.append(run_cli(argv))
        if results[-1].exit_code != 0:
            break
    return results


def timed(commands, tracer=None, op_id=None):
    """Wall time of a command sequence; traced when a tracer is given."""
    if tracer is not None:
        tracer.op = op_id
        tracer.install()
    try:
        t0 = time.perf_counter()
        results = run_commands(commands)
        elapsed = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.remove()
    return elapsed, results


def step(clock, commands, tracer=None, op_id=None):
    """(wall seconds, seconds at the reference speed, command results)."""
    wall, results = timed(commands, tracer, op_id)
    return wall, clock.at_reference(wall), results


def _close(a, b, rtol):
    if not (isinstance(a, float) and isinstance(b, float)):
        return a == b
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1.0)


def input_seeds(workload, seed):
    k = workload.input_sets
    return [k * seed + i for i in range(k)]


def schedule(sets, trace):
    """(input set, traced) of each timed op. Untraced runs cycle over the
    sets; traced runs trace one op per set, set 0 last, then add untraced
    ops on set 0 as the base of the tracing overhead."""
    k = 0
    while True:
        k += 1
        if trace and k > sets:
            yield 0, False
        else:
            yield k % sets, bool(trace)


@dataclass
class Op:
    id: str
    input_set: int
    wall_s: float
    ref_s: float        # wall_s at the reference speed
    results: list
    traced: bool
    warmup: bool


def measure(workload, seed, seconds, trace, work, reference):
    """One benchmark run; returns the full record and the tracer (None
    when untraced)."""
    from calibrate import CAL_REF_S, Clock
    from layers import TARGETS, SpanIndex, op_metrics, setup_metrics
    from spans import Tracer
    from workloads import tree_digest

    tracer = Tracer(TARGETS) if trace else None
    problems = []
    clock = Clock()

    seeds = input_seeds(workload, seed)
    sets = len(seeds)
    recorded = reference["workloads"].get(workload.name, {})
    inputs = [work / f"inputs{i}" for i in range(sets)]
    setups = []         # (wall, reference) seconds per input set
    for i, synth_seed in enumerate(seeds):
        wall, ref, results = step(
            clock, workload.generate(synth_seed, inputs[i]), tracer, f"setup{i}")
        bad = [r for r in results if r.exit_code != 0]
        if bad:
            raise BenchError(f"set-up command {bad[0].argv} exited "
                             f"{bad[0].exit_code}: {bad[0].stderr.strip()}")
        setups.append((wall, ref))
        known = recorded.get(str(synth_seed))
        if known and known["inputs_sha256"] != tree_digest(inputs[i]):
            problems.append(f"input digest of synth seed {synth_seed} differs "
                            f"from the recorded one")

    ops = []
    for i in range(min(WARMUPS, sets)):
        op_id = f"op{len(ops)}"
        ops.append(Op(op_id, i, *step(clock, workload.op(inputs[i], work / op_id)),
                      traced=False, warmup=True))
    start = time.perf_counter()
    for i, traced in schedule(sets, trace):
        timed_ops = [op for op in ops if not op.warmup]
        covered = {op.input_set for op in timed_ops if op.traced == bool(trace)}
        if (time.perf_counter() - start >= seconds and len(covered) == sets
                and (not trace or not timed_ops[-1].traced)):
            break
        op_id = f"op{len(ops)}"
        ops.append(Op(op_id, i, *step(
            clock, workload.op(inputs[i], work / op_id),
            tracer if traced else None, op_id), traced=traced, warmup=False))
    timed_wall = time.perf_counter() - start

    check_refs = [workload.reference(path) for path in inputs]
    failures, checks, first_digest = [], {}, {}
    for op in ops:
        bad = [r for r in op.results if r.exit_code != 0]
        if bad:
            failures.append(f"{op.id}: {bad[0].argv[0]} exited "
                            f"{bad[0].exit_code}: {bad[0].stderr.strip()}")
            continue
        i = op.input_set
        check = workload.check(inputs[i], work / op.id, check_refs[i])
        checks[op.id] = check
        found = list(check.problems)
        if first_digest.setdefault(i, check.digest) != check.digest:
            found.append("outputs differ from an earlier op's on the same inputs")
        known = recorded.get(str(seeds[i]))
        for key, value in (known["summary"].items() if known else ()):
            if not _close(check.summary.get(key), value, reference["rtol"]):
                found.append(f"{key} = {check.summary.get(key)!r}, "
                             f"recorded {value!r}")
        failures += [f"{op.id}: {p}" for p in found]
    failed_ops = {f.split(":")[0] for f in failures}

    warmups = [op for op in ops if op.warmup]
    timed_ops = [op for op in ops if not op.warmup]
    plain = [op for op in timed_ops if not op.traced]
    record = {
        "workload": workload.name,
        "seed": seed,
        "synth_seeds": seeds,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(seed),
        "cal_ref_s": CAL_REF_S,
        "calibration_s": clock.calibrations,
        "setup_times_s": [ref for _, ref in setups],
        "warmup_s": [op.ref_s for op in warmups],
        "op_times_s": {op.id: op.ref_s for op in timed_ops},
        "wall": {
            "setup_times_s": [wall for wall, _ in setups],
            "warmup_s": [op.wall_s for op in warmups],
            "op_times_s": {op.id: op.wall_s for op in timed_ops},
            "timed_phase_s": timed_wall,
        },
        "attempted": len(ops),
        "failed": len(failed_ops),
        "failed_ratio": len(failed_ops) / len(ops),
        "problems": problems + failures,
        "checks": {op_id: c.summary for op_id, c in checks.items()},
    }
    if not trace:
        # one rho per input set, from the first op on it
        rho = {}
        for op in ops:
            if op.id in checks:
                rho.setdefault(op.input_set, checks[op.id].rank_rho)
        values = {
            "ops_per_s": (len(plain), len(plain) / sum(op.ref_s for op in plain)),
            "op_p50_s": (len(plain), statistics.median(op.ref_s for op in plain)),
            "setup_s": (sets, statistics.median(ref for _, ref in setups)
                        + statistics.median(op.ref_s for op in warmups)),
            "peak_rss_mb": (1, resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0),
            "rank_rho": (len(rho), statistics.mean(rho.values())
                         if len(rho) == sets else float("nan")),
        }
        units = E2E_UNITS
    else:
        from layers import PER_LAYER_UNITS
        index = SpanIndex(tracer)
        traced_ids = [op.id for op in timed_ops if op.traced]
        per_op = [op_metrics(index, op_id) for op_id in traced_ids]
        values = {name: (len(per_op), statistics.median(m[name] for m in per_op))
                  for name in per_op[0]}
        setup_ops = [f"setup{i}" for i in range(sets)]
        values.update({name: (sets, v) for name, v
                       in setup_metrics(index, setup_ops).items()})
        # traced and untraced timed ops on input set 0
        traced_s = [op.ref_s for op in timed_ops
                    if op.traced and op.input_set == 0]
        base_s = [op.ref_s for op in plain if op.input_set == 0]
        values["trace.overhead_ratio"] = (
            len(base_s), statistics.median(traced_s) / statistics.median(base_s))
        units = PER_LAYER_UNITS
        record["self_s_by_span"] = {op_id: index.self_by_name(op_id)
                                    for op_id in traced_ids}
        record["spans_recorded"] = len(tracer.spans)
    record["metrics"] = {}
    for name, unit in units.items():
        samples, value = values[name]
        if not math.isfinite(value):
            record["problems"].append(f"metric {name} is {value}")
            value = 0.0
        record["metrics"][name] = {"value": value, "unit": unit,
                                   "samples": samples}
    record["correct"] = not record["problems"]
    return record, tracer


def prepare():
    """Pin BLAS to one thread and put the sources on sys.path. False when
    the checkout holds no metamine sources."""
    if not (ROOT / "src" / "metamine" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no metamine sources (src/metamine)",
              file=sys.stderr)
        return False
    for var in THREAD_VARS:            # before numpy is first imported
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import metamine.cli  # noqa: F401  (the tracer wraps loaded modules only)
    return True


def main(argv=None):
    if not prepare():
        return 2
    from workloads import WORKLOADS

    args = parse_args(argv, sorted(WORKLOADS))
    reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    work = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        record, tracer = measure(WORKLOADS[args.workload], args.seed,
                                 args.seconds, args.trace, work, reference)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    out = ROOT / ".bench_out"
    stem = f"{args.workload}-s{args.seed}"
    if tracer is not None:
        record["spans_file"] = str(out / f"{stem}-spans.csv")
        tracer.write_csv(record["spans_file"])
    out.mkdir(exist_ok=True)
    path = out / f"{stem}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(record))
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
