"""Record reference values for bench/run.py's output checks.

For each workload and synth seed: make the inputs, run one op, check it,
and store the SHA-256 of the inputs with the op's checked summary in
bench/reference.json (entries for other seeds are kept). A run with
--seed s uses synth seeds k*s .. k*s+k-1, where k is the workload's
input_sets. Run from the repository root, on a commit whose outputs are
known to be right:

    python3 bench/record.py --seeds 0-35 [--workload lodo-20x10 ...]
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None):
    if not run.prepare():
        return 2
    from workloads import WORKLOADS, tree_digest

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", required=True, type=parse_seeds,
                   help="e.g. 0-19 or 1,5,9")
    p.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = p.parse_args(argv)

    path = run.BENCH / "reference.json"
    reference = json.loads(path.read_text(encoding="utf-8"))
    work = run.ROOT / ".bench_work" / "record"
    for name in args.workload or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        for seed in args.seeds:
            shutil.rmtree(work, ignore_errors=True)
            inputs, out = work / "inputs", work / "op"
            results = run.run_commands(workload.generate(seed, inputs)
                                       + workload.op(inputs, out))
            failed = [r for r in results if r.exit_code != 0]
            if failed:
                print(f"{name} seed {seed}: {failed[0].argv[0]} exited "
                      f"{failed[0].exit_code}: {failed[0].stderr}", file=sys.stderr)
                return 2
            check = workload.check(inputs, out, workload.reference(inputs))
            if check.problems:
                print(f"{name} seed {seed}: {check.problems}", file=sys.stderr)
                return 2
            reference["workloads"].setdefault(name, {})[str(seed)] = {
                "inputs_sha256": tree_digest(inputs),
                "summary": check.summary,
            }
            print(f"{name} seed {seed}: recorded", flush=True)
            path.write_text(json.dumps(reference, indent=1, sort_keys=True)
                            + "\n", encoding="utf-8")
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
