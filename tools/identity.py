"""Byte identity of the CLI's outputs between a base revision and this tree.

    python tools/identity.py --base <rev> [--keep]

The base revision's src/ is extracted with `git archive` into a temporary
directory, so the repository's .git is only read. Each tree then runs the
same command matrix through metamine.cli.main, in one subprocess of its own,
from a fresh working directory and with relative paths only, so that no
output names the tree it came from. Every command's stdout, stderr and exit
code are stored as files next to the files it writes, failing commands
included. The significance CSV that `ingest --significance` reads,
faulty copies of it and of the performance CSV, a performance and a
significance CSV whose rows are shuffled (each significance pair named
either way round), outcome directories
(one read partly through csv, and four that ingest rejects), a small
bundle whose ids only a quoting CSV writer gets right, five small
bundles (each protocol is run at and one entity below its fewest
datasets and workflows), and copies of a quote-free bundle's tables
that reach both of the CSV reader's paths (LF line ends, a lone CR line
break, a quoted numeric cell, a blank line and an id longer than csv's
field limit), are
written here, from seeded RNGs, and copied into both working directories,
with a query table whose 2nd and 3rd rows overflow a model's scores, and
faulty copies of the quoted tables, query tables, config and model files
that the CLI rejects, so that every validation message the CLI can reach
is compared too.
So are usage errors, bad flag values, a descent that stops on
line_search_failure (in train, and in every f3 and f4 fold of an
evaluate), an evaluate at the default max_iters, whose
descents stop on rel_tol at staggered iterations, and f1, f2 and f4 under
train and all three protocols at a 20 x 14 shape (EDGE) where dsyrk and
dgemm round the descent's Gram products differently. The --config train
and the --preset train and evaluate are each followed by the same
command without the layer, so a layered default that one command leaves
on the parser of its process shows as a differing byte in the next. A
MEAN_QUERY step of the matrix is no CLI command: it writes a copy of a
query table with one more row, at a model's x_standardization.mean,
where every learned similarity is 0.

The matrix is 240 commands writing 1,258 files (stdout, stderr and exit
code included). Prints every file, stdout, stderr or exit code whose bytes
differ, then the
line count of each src/metamine module in both trees, and exits 1 if any
byte differs, 0 if none, and 2 if a tree cannot be extracted or run.
Standard library only; BLAS is pinned to one thread.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import random
import shutil
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# name -> synth flags. Four shapes: 8x6 d10 has n - 1 < d, and the outcome
# shape draws per-instance correctness and writes an outcome directory.
SHAPES = {
    "s12x8": ["--n", "12", "--m", "8", "--d", "5", "--l", "4",
              "--mode", "noisy", "--noise-sigma", "0.3", "--seed", "1"],
    "s8x6": ["--n", "8", "--m", "6", "--d", "10", "--l", "4",
             "--mode", "exact", "--seed", "2"],
    "s15x10": ["--n", "15", "--m", "10", "--d", "6", "--l", "7",
               "--mode", "noisy", "--noise-sigma", "0.2", "--seed", "3"],
    "s10x7": ["--n", "10", "--m", "7", "--d", "12", "--l", "9",
              "--mode", "outcome", "--instances", "30", "--seed", "4"],
}
# a shape whose P is 13 x t and W 12 x t, where OpenBLAS 0.3.31's dsyrk
# and dgemm round P P' and W W' differently; the shapes above have at
# most 10 rows, where the two agree for t < 16
EDGE = "s20x14"
EDGE_FLAGS = ["--n", "20", "--m", "14", "--d", "13", "--l", "12",
              "--mode", "noisy", "--noise-sigma", "0.3", "--seed", "5"]
INITS = ("seeded_gaussian", "svd_warm_start")
STRATEGIES = "def,ec,f1,f2,f3,f4,f4-knn"
ITERS = ["--max-iters", "40"]
# objective -> the prediction tasks its model serves
TASKS = {"f1": ["workflow_prefs"], "f2": ["dataset_prefs"],
         "f3": ["workflow_prefs", "dataset_prefs", "pair_score"],
         "f4": ["workflow_prefs", "dataset_prefs", "pair_score"]}
SIGNIFICANCE = "sig.csv"
SIG_DUPLICATE, SIG_MISSING = "sig-duplicate.csv", "sig-missing.csv"
PERF_SHUFFLED, SIG_SHUFFLED = "perf-shuffled.csv", "sig-shuffled.csv"
QUOTED = "quoted/raw"
# Ids csv quotes: a comma, a quote, line breaks, and text beside them that
# it leaves bare (spaces, non-ASCII letters).
QUOTED_DATASETS = ("ds,0", 'ds"1', "ds\n2", "ds\r\n3", " ds 4 ", "dé5")
QUOTED_WORKFLOWS = ("wf,a", 'wf"b"', "wf\nc", "wfd")
# queries over s12x8's dataset features, the 2nd and 3rd near +-the
# largest float (the recipe of TestPredict::test_overflowing_query_exits_one)
HUGE = "huge-queries.csv"
HUGE_TEXT = "".join(f"{q}\r\n" for q in (
    "id,feat000,feat001,feat002,feat003,feat004", "q0,0.5,-1.0,0.25,2.0,-0.75",
    "q1" + ",1.7e308" * 5, "q2" + ",-1.7e308" * 5, "q3,1.0,1.0,-1.0,0.0,0.5"))
MEAN_QUERY = "@mean-query"     # model, query table, out
# inputs that ingest and predict reject, in one directory
BAD = "bad/in"
# outcome directories over s10x7's ids: one that ingest reads partly
# through csv, one whose columns differ between files, one whose file
# has one workflow column, one with a cell 2, and one that holds no file
OUTCOMES_CSV, OUTCOMES_COLUMNS = "outcomes/csv", "outcomes/columns"
OUTCOMES_ONE, OUTCOMES_TWO = "outcomes/one", "outcomes/two"
OUTCOMES_EMPTY = "outcomes/empty"
# small bundles, datasets x workflows: 5x1 and 1x4 are too small for a
# protocol, and each protocol runs on every SIZE_RULE shape, one entity
# short of its fewest datasets or workflows or at exactly that many
TINY = ("5x1", "1x4", "3x2", "2x3", "3x3")
SIZE_RULE = TINY[2:]
# a quote-free bundle's raw tables with LF line ends ("lf"), and X tables
# that differ from lf's X in one place each (see relined_tables)
RELINED = "relined"
RELINED_KINDS = ("lf", "cr", "quoted", "blank", "long")
# query tables over s12x8's feature widths, each with a feature name the
# model does not store, a repeated id and a non-finite cell
WRONG_QUERIES = {
    f"{BAD}/qx-names.csv": "id,feat000,feat001,feat002,feat003,feat04\r\n"
                           "q0,0.5,1.0,-1.0,0.0,2.0\r\nq0,1.0,nan,0.5,0.5,0.5\r\n",
    f"{BAD}/qa-names.csv": "id,pat000,pat001,pat003,pat002\r\n"
                           "q0,0.5,1.0,-1.0,0.0\r\nq1,inf,1.0,0.5,0.5\r\n"
                           "q1,1.0,1.0,1.0,1.0\r\n",
    f"{BAD}/qx-narrow.csv": "id,f0,f1,f2,f3\r\nq0,0.5,1.0,-1.0,0.0\r\n",
    f"{BAD}/qa-narrow.csv": "id,g0,g1,g2\r\nq0,0.5,1.0,-1.0\r\n",
}


def significance_csv(n, m, seed=7):
    """A long-format significance CSV over synth's ids ds000.. x wf000..,
    every pair once in a random orientation with a random outcome. The
    first row names wf000 before wf001: the reader orders workflow ids by
    first appearance, and they must follow A.csv's order."""
    rng = random.Random(seed)
    lines = ["dataset_id,workflow_k,workflow_l,outcome"]
    for i in range(n):
        for k in range(m):
            for l in range(k + 1, m):
                pair = [f"wf{k:03d}", f"wf{l:03d}"]
                if len(lines) > 1 and rng.random() < 0.5:
                    pair.reverse()
                outcome = rng.choice(["k_wins", "l_wins", "tie"])
                lines.append(f"ds{i:03d},{pair[0]},{pair[1]},{outcome}")
    return "\n".join(lines) + "\n"


def faulty_significance(text):
    """{path: text} of two copies of a significance CSV that ingest
    rejects: one states a line's pair again the other way round, one
    leaves that line out."""
    lines = text.splitlines(keepends=True)
    ds, k, l, _ = lines[40].rstrip("\n").split(",")
    return {SIG_DUPLICATE: f"{text}{ds},{l},{k},tie\n",
            SIG_MISSING: "".join(lines[:40] + lines[41:])}


def shuffled_tables(significance, seed=19):
    """{path: text} of two long-format CSVs over s10x7's ids whose rows
    follow neither X's nor A's order, which ingest puts in that order: a
    performance CSV of uniform values, and the significance CSV's rows,
    each named either way round with its outcome mirrored."""
    rng = random.Random(seed)
    perf = [f"ds{i:03d},wf{k:03d},{rng.random()!r}" for i in range(10)
            for k in range(7)]
    mirrored = {"k_wins": "l_wins", "l_wins": "k_wins", "tie": "tie"}
    header, *sig = significance.splitlines()
    for k, row in enumerate(sig):
        ds, wk, wl, outcome = row.split(",")
        if rng.random() < 0.5:
            sig[k] = f"{ds},{wl},{wk},{mirrored[outcome]}"
    rng.shuffle(perf)
    rng.shuffle(sig)
    return {PERF_SHUFFLED: "\n".join(["dataset_id,workflow_id,performance",
                                      *perf]) + "\n",
            SIG_SHUFFLED: "\n".join([header, *sig]) + "\n"}


def csv_text(rows):
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def csv_rows(text):
    return list(csv.reader(io.StringIO(text, newline="")))


def quoted_tables(d=3, l=2, seed=11):
    """{path: text} of the raw tables of a bundle over QUOTED_DATASETS x
    QUOTED_WORKFLOWS: Gaussian descriptors, uniform performances and, in
    each row of R, the scores 0..m-1 in a random order."""
    rng = random.Random(seed)
    m = len(QUOTED_WORKFLOWS)
    def descriptors(ids, prefix, width):
        return csv_text([["id", *(f"{prefix}{k}" for k in range(width))]] + [
            [eid, *(repr(rng.gauss(0, 1)) for _ in range(width))] for eid in ids])

    return {
        f"{QUOTED}/X.csv": descriptors(QUOTED_DATASETS, "f", d),
        f"{QUOTED}/A.csv": descriptors(QUOTED_WORKFLOWS, "g", l),
        f"{QUOTED}/performance.csv": csv_text(
            [["dataset_id", "workflow_id", "performance"]]
            + [[ds, wf, repr(rng.random())] for ds in QUOTED_DATASETS
               for wf in QUOTED_WORKFLOWS]),
        f"{QUOTED}/R.csv": csv_text(
            [["dataset_id", *QUOTED_WORKFLOWS]]
            + [[ds, *map(repr, rng.sample(range(m), m))]
               for ds in QUOTED_DATASETS]),
    }


def faulty_tables(quoted):
    """{path: text} of copies of quoted_tables' tables that ingest rejects
    (an X whose 2nd row repeats the 1st's id and whose 3rd holds a nan, an
    R whose first two rows trade places, an A with a non-numeric token;
    Rs whose first row breaks the row sum, the half-point grid or the
    [0, m-1] range, and one that repeats its first row's id at the end),
    and of f3 model files with U and V of s12x8's widths: one that stores
    no feature names, and one whose u holds a non-numeric cell."""
    x, r, a = (csv_rows(quoted[f"{QUOTED}/{name}.csv"]) for name in "XRA")
    x[2][0], x[3][2] = x[1][0], "nan"
    faults = {"sum": ["0", "1", "2", "2"], "grid": ["0.25", "0.75", "2", "3"],
              "range": ["-0.5", "1.5", "1", "4"]}
    wrong_r = {f"{BAD}/r-{fault}.csv": csv_text([r[0], [r[1][0], *row], *r[2:]])
               for fault, row in faults.items()}
    wrong_r[f"{BAD}/r-ids.csv"] = csv_text([*r, r[1]])
    r[1], r[2] = r[2], r[1]
    a[2][1] = "0,5"
    u = model_doc()["u"]
    return {f"{BAD}/X.csv": csv_text(x), f"{BAD}/R.csv": csv_text(r),
            f"{BAD}/A.csv": csv_text(a), **wrong_r,
            f"{BAD}/nameless.json": json.dumps(model_doc()),
            f"{BAD}/u-token.json": json.dumps(model_doc(u=[*u[:3], ["abc"], u[4]]))}


def model_doc(**changes):
    """An f3 model document with U and V of s12x8's widths and no feature
    names, with the given keys set to other values."""
    return {"format_version": 1, "objective": "f3", "t": 1, "hyper": {},
            "u": [["0.5"], ["-1.0"], ["0.75"], ["1.5"], ["-0.25"]],
            "v": [["1.0"], ["-0.5"], ["0.25"], ["2.0"]],
            **{f"{side}_standardization": {"mean": ["0.0"] * k,
                                           "scale": ["1.0"] * k,
                                           "constant_columns": []}
               for side, k in (("x", 5), ("a", 4))}, **changes}


def outcome_dirs(rows=20, seed=13):
    """{path: text} of two outcome directories over s10x7's ids, one CSV
    per dataset in the form write_outcome_dir writes, except that in
    OUTCOMES_CSV ds004.csv writes a cell as 1.0, so that it is read through
    csv, and in OUTCOMES_COLUMNS ds005.csv names its columns in reverse
    order, which ingest rejects. Two more that ingest rejects hold one
    file: OUTCOMES_ONE's has one workflow column, OUTCOMES_TWO's a cell
    2, which is read through csv."""
    rng = random.Random(seed)
    ids = [f"wf{k:03d}" for k in range(7)]
    out = {}
    for i in range(10):
        lines = [",".join(rng.choice("01") for _ in ids) + "\r\n"
                 for _ in range(rows)]
        header = ",".join(ids[::-1] if i == 5 else ids) + "\r\n"
        out[f"{OUTCOMES_COLUMNS}/ds{i:03d}.csv"] = "".join([header, *lines])
        if i == 4:
            lines[3] = "1.0" + lines[3][1:]
        out[f"{OUTCOMES_CSV}/ds{i:03d}.csv"] = "".join([",".join(ids) + "\r\n", *lines])
    out[f"{OUTCOMES_ONE}/ds000.csv"] = "wf000\r\n0\r\n1\r\n"
    out[f"{OUTCOMES_TWO}/ds000.csv"] = "wf000,wf001\r\n0,1\r\n1,2\r\n"
    return out


def tiny_tables():
    """{path: text} of the raw tables of the TINY bundles: one feature
    column each side, and in each row of R the scores 0..m-1."""
    out = {}
    for shape in TINY:
        n, m = map(int, shape.split("x"))
        ds, wf = [f"ds{i}" for i in range(n)], [f"wf{k}" for k in range(m)]
        raw = f"tiny/{shape}/raw"
        out[f"{raw}/X.csv"] = csv_text([["id", "f0"], *([e, f"{i}.5"]
                                                         for i, e in enumerate(ds))])
        out[f"{raw}/A.csv"] = csv_text([["id", "g0"], *([e, f"{k}.25"]
                                                         for k, e in enumerate(wf))])
        out[f"{raw}/performance.csv"] = csv_text(
            [["dataset_id", "workflow_id", "performance"],
             *([e, w, "0.5"] for e in ds for w in wf)])
        out[f"{raw}/R.csv"] = csv_text([["dataset_id", *wf],
                                        *([e, *map(str, range(m))] for e in ds)])
    return out


def relined_tables(n=6, m=4, seed=17):
    """{path: text} of the raw tables of a quote-free n x m bundle with LF
    line ends, under RELINED/lf, and for every other kind of RELINED_KINDS
    an X that differs from lf's in one place: a lone CR line break (cr), a
    quoted numeric cell (quoted), a blank line (blank), and a first id of
    140,000 characters, longer than csv's field limit (long). Ingest and
    predict reject the last two."""
    rng = random.Random(seed)
    ds, wf = [f"ds{i}" for i in range(n)], [f"wf{k}" for k in range(m)]

    def descriptors(ids, prefix):
        return [["id", *(f"{prefix}{k}" for k in range(3))],
                *([eid, *(repr(rng.gauss(0, 1)) for _ in range(3))] for eid in ids)]

    lf = {"X": descriptors(ds, "f"), "A": descriptors(wf, "g"),
          "performance": [["dataset_id", "workflow_id", "performance"],
                          *([e, w, repr(rng.random())] for e in ds for w in wf)],
          "R": [["dataset_id", *wf],
                *([e, *map(repr, rng.sample(range(m), m))] for e in ds)]}
    out = {f"{RELINED}/lf/{name}.csv": csv_text(rows).replace("\r\n", "\n")
           for name, rows in lf.items()}
    lines = out[f"{RELINED}/lf/X.csv"].splitlines(keepends=True)
    first = lines[1].split(",")
    x = {"cr": [*lines[:2], lines[2].replace("\n", "\r"), *lines[3:]],
         "quoted": [lines[0], ",".join([first[0], '"0.5"', *first[2:]]), *lines[2:]],
         "blank": [*lines[:3], "\n", *lines[3:]],
         "long": [lines[0], ",".join(["d" * 140_000, *first[1:]]), *lines[2:]]}
    return {**out, **{f"{RELINED}/{kind}/X.csv": "".join(text)
                      for kind, text in x.items()}}


def faulty_models():
    """name -> text or bytes of a model file that predict rejects, each
    for one fault: not UTF-8, not JSON, not an object, of another format
    version, and one per rule of io.MODEL_SCHEMA and of U and V against
    the records, the feature names and t."""
    record = model_doc()["x_standardization"]
    u = model_doc()["u"]
    docs = {"list": [model_doc()], "version": model_doc(format_version=2),
            "lacks-t": {k: v for k, v in model_doc().items() if k != "t"},
            "hyper-key": model_doc(hyper={"bogus": 1}),
            "hyper-iters": model_doc(hyper={"max_iters": 1.5}),
            "scale": model_doc(x_standardization={
                **record, "scale": ["1.0", "0.0", "1.0", "1.0", "1.0"]}),
            "u-nan": model_doc(u=[*u[:2], ["nan"], *u[3:]]),
            "u-huge": model_doc(u=[*u[:2], [10 ** 400], *u[3:]]),
            "u-null": model_doc(u=[*u[:1], [None], *u[2:]]),
            "matrix": model_doc(u=[*u[:4], ["1.0", "2.0"]]),
            "record-type": model_doc(x_standardization=[]),
            "record-lacks": model_doc(x_standardization={
                k: v for k, v in record.items() if k != "scale"}),
            "record-mean": model_doc(x_standardization={**record, "mean": "0.0"}),
            "record-columns": model_doc(x_standardization={
                **record, "constant_columns": [5]}),
            "hyper-type": model_doc(hyper=[]),
            "hyper-float": model_doc(hyper={"mu1": "0.5"}),
            "hyper-huge": model_doc(hyper={"mu2": 10 ** 400}),
            "hyper-range": model_doc(hyper={"mu1": -1.0}),
            "hyper-init": model_doc(hyper={"init": "zeros"}),
            "objective": model_doc(objective="f9"),
            "t": model_doc(t=0),
            "names": model_doc(x_feature_names=["f0", 1]),
            "u-record": model_doc(x_standardization={
                **record, "mean": record["mean"][:4]}),
            "u-names": model_doc(x_feature_names=["f0", "f1", "f2", "f3"]),
            "u-t": model_doc(t=2),
            "v-record": model_doc(a_standardization={
                k: v[:3] for k, v in record.items()})}
    return {**{name: json.dumps(doc) for name, doc in docs.items()},
            "latin1": json.dumps(model_doc(objective="fé"),
                                 ensure_ascii=False).encode("latin-1"),
            "syntax": json.dumps(model_doc())[:-1]}


def faulty_files(significance, quoted):
    """{path: text or bytes} of more files that are rejected, each for one
    fault: performance and significance CSVs made from the good ones,
    descriptor tables (not UTF-8, empty, a header alone, a header with the
    id column alone, a row short of a field, and one whose first feature
    holds values near 1e200), config files and faulty_models' files."""
    perf = csv_rows(quoted[f"{QUOTED}/performance.csv"])
    x = quoted[f"{QUOTED}/X.csv"]
    huge, short = csv_rows(x), csv_rows(x)
    for row in huge[1:]:
        row[1] = repr(float(row[1]) * 1e200)
    short[3] = short[3][:-1]
    lines = significance.splitlines(keepends=True)

    def sig(index, change):
        fields = lines[index].rstrip("\n").split(",")
        return "".join([*lines[:index], ",".join(change(fields)) + "\n",
                        *lines[index + 1:]])

    return {
        f"{BAD}/perf-duplicate.csv": csv_text([*perf, [*perf[3][:2], "0.5"]]),
        f"{BAD}/perf-missing.csv": csv_text([*perf[:5], *perf[6:]]),
        f"{BAD}/perf-short.csv": csv_text([*perf[:4], perf[4][:2], *perf[5:]]),
        f"{BAD}/perf-range.csv": csv_text([*perf[:7], [*perf[7][:2], "1.5"],
                                           *perf[8:]]),
        f"{BAD}/perf-header.csv": csv_text([["dataset_id", "workflow", "performance"],
                                            *perf[1:]]),
        f"{BAD}/sig-outcome.csv": sig(10, lambda f: [*f[:3], "draw"]),
        f"{BAD}/sig-short.csv": sig(20, lambda f: f[:3]),
        f"{BAD}/sig-self.csv": sig(30, lambda f: [f[0], f[1], f[1], f[3]]),
        f"{BAD}/sig-header.csv": sig(0, lambda f: [*f[:3], "result"]),
        f"{BAD}/x-latin1.csv": x.encode("latin-1"),     # "dé5" is not UTF-8
        f"{BAD}/x-empty.csv": "",
        f"{BAD}/x-header.csv": x[:x.index("\n") + 1],
        f"{BAD}/x-ids.csv": csv_text([row[:1] for row in csv_rows(x)]),
        f"{BAD}/x-short.csv": csv_text(short),
        f"{BAD}/x-huge.csv": csv_text(huge),
        f"{BAD}/config-list.json": "[]\n",
        f"{BAD}/config-key.json": '{"bogus": 1}\n',
        f"{BAD}/config-type.json": '{"max_iters": "many"}\n',
        f"{BAD}/config-choice.json": '{"init": "zeros"}\n',
        f"{BAD}/config-bool.json": '{"max_iters": true}\n',
        f"{BAD}/config-latin1.json": '{"preset": "é"}\n'.encode("latin-1"),
        f"{BAD}/config-syntax.json": '{"max_iters": 5\n',
        **{f"{BAD}/model-{name}.json": data for name, data in faulty_models().items()},
    }


def matrix():
    """The commands, each an argv of metamine.cli.main, in run order."""
    cmds = []
    for name, flags in SHAPES.items():
        raw = f"{name}/raw"
        cmds.append(["synth", *flags, "--out", raw])
        cmds.append(["ingest", "--x", f"{raw}/X.csv", "--a", f"{raw}/A.csv",
                     "--performance", f"{raw}/performance.csv",
                     "--preferences", f"{raw}/R.csv", "--out", f"{name}/b"])
        for init in INITS:
            for protocol in ("lodo", "lowo", "lodwo"):
                cmds.append(["evaluate", "--bundle", f"{name}/b",
                             "--protocol", protocol, "--strategies", STRATEGIES,
                             "--init", init, *ITERS,
                             "--out", f"{name}/{protocol}-{init}"])
            for objective in TASKS:
                cmds.append(["train", "--bundle", f"{name}/b",
                             "--objective", objective, "--init", init, *ITERS,
                             "--out", f"{name}/{objective}-{init}.json"])
    cmds.append(["evaluate", "--bundle", "s12x8/b", "--protocol", "lodwo",
                 "--strategies", "def,f3,f4", "--t", "2", *ITERS,
                 "--format", "table", "--out", "s12x8/lodwo-t2"])
    # the default stopping rule: problems of one stack stop on rel_tol in
    # iterations 38 to 784, so the stack compacts again and again
    cmds.append(["evaluate", "--bundle", "s12x8/b", "--protocol", "lodwo",
                 "--strategies", "def,f3,f4", "--out", "s12x8/lodwo-default"])
    # f1, f2 and f4 where the Gram products P P' and W W' round differently
    # under dsyrk and dgemm
    cmds.append(["synth", *EDGE_FLAGS, "--out", f"{EDGE}/raw"])
    cmds.append(["ingest", "--x", f"{EDGE}/raw/X.csv", "--a", f"{EDGE}/raw/A.csv",
                 "--performance", f"{EDGE}/raw/performance.csv",
                 "--preferences", f"{EDGE}/raw/R.csv", "--out", f"{EDGE}/b"])
    for protocol in ("lodo", "lowo", "lodwo"):
        cmds.append(["evaluate", "--bundle", f"{EDGE}/b", "--protocol", protocol,
                     "--strategies", "def,f1,f2,f4", *ITERS,
                     "--out", f"{EDGE}/{protocol}"])
    for objective in ("f1", "f2", "f4"):
        cmds.append(["train", "--bundle", f"{EDGE}/b", "--objective", objective,
                     *ITERS, "--out", f"{EDGE}/{objective}.json"])

    # outcome and significance sources of R
    raw = "s10x7/raw"
    tables = ["--x", f"{raw}/X.csv", "--a", f"{raw}/A.csv",
              "--performance", f"{raw}/performance.csv"]
    cmds.append(["ingest", *tables, "--outcomes-dir", f"{raw}/outcomes",
                 "--out", "s10x7/b-outcomes"])
    cmds.append(["ingest", *tables, "--significance", SIGNIFICANCE,
                 "--out", "s10x7/b-significance"])
    cmds.append(["evaluate", "--bundle", "s10x7/b-significance",
                 "--protocol", "lodo", "--strategies", "def,ec,f4", *ITERS,
                 "--out", "s10x7/lodo-significance"])
    cmds.append(["ingest", *tables, "--outcomes-dir", OUTCOMES_CSV,
                 "--out", "s10x7/b-outcomes-csv"])
    # long-format rows in a shuffled order, then a train on each bundle
    cmds.append(["ingest", *tables[:4], "--performance", PERF_SHUFFLED,
                 "--preferences", f"{raw}/R.csv", "--out", "s10x7/b-perf-shuffled"])
    cmds.append(["ingest", *tables, "--significance", SIG_SHUFFLED,
                 "--out", "s10x7/b-sig-shuffled"])
    for shuffled in ("perf-shuffled", "sig-shuffled"):
        cmds.append(["train", "--bundle", f"s10x7/b-{shuffled}", "--objective",
                     "f3", *ITERS, "--out", f"s10x7/f3-{shuffled}.json"])

    # predict every task each model serves, with queries of the same widths
    cmds.append(["synth", "--n", "4", "--m", "3", "--d", "5", "--l", "4",
                 "--seed", "9", "--out", "queries"])
    for init in INITS:
        for objective, tasks in TASKS.items():
            for task in tasks:
                cmds.append(["predict", "--model", f"s12x8/{objective}-{init}.json",
                             "--bundle", "s12x8/b", "--task", task,
                             "--x", "queries/X.csv", "--a", "queries/A.csv",
                             "--out", f"s12x8/pred-{objective}-{init}-{task}.csv"])
    cmds.append(["predict", "--model", "s12x8/f4-seeded_gaussian.json",
                 "--bundle", "s12x8/b", "--task", "workflow_prefs",
                 "--neighbors", "2", "--x", "queries/X.csv",
                 "--out", "s12x8/pred-f4-n2.csv"])
    # an f1 kNN query at the training means (flagged), f2 with one
    # neighbour, and an f3 query table whose 2nd and 3rd queries overflow
    cmds.append([MEAN_QUERY, "s12x8/f1-seeded_gaussian.json", "queries/X.csv",
                 "queries/X-mean.csv"])
    cmds.append(["predict", "--model", "s12x8/f1-seeded_gaussian.json",
                 "--bundle", "s12x8/b", "--task", "workflow_prefs",
                 "--x", "queries/X-mean.csv", "--out", "s12x8/pred-f1-mean.csv"])
    cmds.append(["predict", "--model", "s12x8/f2-seeded_gaussian.json",
                 "--bundle", "s12x8/b", "--task", "dataset_prefs",
                 "--neighbors", "1", "--a", "queries/A.csv",
                 "--out", "s12x8/pred-f2-n1.csv"])
    # ids that need quoting, from ingest to both tasks of an f3 model
    cmds.append(["ingest", "--x", f"{QUOTED}/X.csv", "--a", f"{QUOTED}/A.csv",
                 "--performance", f"{QUOTED}/performance.csv",
                 "--preferences", f"{QUOTED}/R.csv", "--out", "quoted/b"])
    cmds.append(["train", "--bundle", "quoted/b", "--objective", "f3",
                 "--t", "2", *ITERS, "--out", "quoted/f3.json"])
    x, a = ["--x", f"{QUOTED}/X.csv"], ["--a", f"{QUOTED}/A.csv"]
    for task, queries in (("workflow_prefs", x), ("pair_score", x + a)):
        cmds.append(["predict", "--model", "quoted/f3.json", "--bundle",
                     "quoted/b", "--task", task, *queries,
                     "--out", f"quoted/pred-{task}.csv"])
    # a resolved config read back as a config file, then the same command
    # without it: a config value left on the process's parser shows there
    config_train = ["train", "--bundle", "s12x8/b", "--objective", "f4",
                    "--max-iters", "5"]
    cmds.append(["--config", "s12x8/f4-svd_warm_start.json.config.json",
                 *config_train, "--out", "s12x8/f4-config.json"])
    cmds.append([*config_train, "--out", "s12x8/f4-after-config.json"])
    # a descent that stops on line_search_failure at its first iteration
    cmds.append(["train", "--bundle", "s12x8/b", "--objective", "f3",
                 "--mu1", "1e18", *ITERS, "--out", "s12x8/f3-lsf.json"])
    # an evaluate whose every f3 and f4 fold stops so, which its report notes
    cmds.append(["synth", "--n", "8", "--m", "5", "--d", "4", "--l", "3",
                 "--latent-t", "2", "--out", "s8x5/raw"])
    cmds.append(["ingest", "--x", "s8x5/raw/X.csv", "--a", "s8x5/raw/A.csv",
                 "--performance", "s8x5/raw/performance.csv",
                 "--preferences", "s8x5/raw/R.csv", "--out", "s8x5/b"])
    cmds.append(["evaluate", "--bundle", "s8x5/b", "--protocol", "lodo",
                 "--strategies", "def,f3,f4", "--mu1", "1e18",
                 "--out", "s8x5/lodo-lsf"])
    # a preset's hyperparameters, under train and evaluate, then the same
    # commands without it
    preset_train = ["train", "--bundle", "s12x8/b", "--objective", "f3", *ITERS]
    preset_evaluate = ["evaluate", "--bundle", "s12x8/b", "--protocol", "lodo",
                       "--strategies", "def,f4", *ITERS]
    cmds.append([*preset_train, "--preset", "paper-task1",
                 "--out", "s12x8/f3-preset.json"])
    cmds.append([*preset_evaluate, "--preset", "paper-task1",
                 "--out", "s12x8/lodo-preset"])
    cmds.append([*preset_train, "--out", "s12x8/f3-after-preset.json"])
    cmds.append([*preset_evaluate, "--out", "s12x8/lodo-after-preset"])
    # small bundles: the protocols' size rules on both sides of each bound
    for shape in TINY:
        raw = f"tiny/{shape}/raw"
        cmds.append(["ingest", "--x", f"{raw}/X.csv", "--a", f"{raw}/A.csv",
                      "--performance", f"{raw}/performance.csv",
                      "--preferences", f"{raw}/R.csv", "--out", f"tiny/{shape}/b"])
    for shape in SIZE_RULE:
        for protocol in ("lodo", "lowo", "lodwo"):
            cmds.append(["evaluate", "--bundle", f"tiny/{shape}/b",
                         "--protocol", protocol, "--strategies", STRATEGIES,
                         *ITERS, "--out", f"tiny/{shape}/{protocol}"])

    # the quote-free bundle's tables through both of the CSV reader's paths
    lf = {name: f"{RELINED}/lf/{name}.csv" for name in ("X", "A", "performance", "R")}
    for kind in RELINED_KINDS:
        cmds.append(["ingest", "--x", f"{RELINED}/{kind}/X.csv", "--a", lf["A"],
                     "--performance", lf["performance"], "--preferences", lf["R"],
                     "--out", f"{RELINED}/{kind}/b"])
    cmds.append(["train", "--bundle", f"{RELINED}/lf/b", "--objective", "f3",
                 "--t", "2", *ITERS, "--out", f"{RELINED}/f3.json"])
    for kind in RELINED_KINDS[:-1]:     # the long id is ingest's alone
        cmds.append(["predict", "--model", f"{RELINED}/f3.json", "--bundle",
                     f"{RELINED}/lf/b", "--task", "workflow_prefs",
                     "--x", f"{RELINED}/{kind}/X.csv",
                     "--out", f"{RELINED}/pred-{kind}.csv"])
    cmds.append(["predict", "--model", f"{RELINED}/f3.json", "--bundle",
                 f"{RELINED}/lf/b", "--task", "pair_score", "--x", lf["X"],
                 "--a", lf["A"], "--out", f"{RELINED}/pred-pair.csv"])

    # commands that fail: their stderr and exit codes are compared too
    cmds += [
        ["synth", "--n", "2", "--out", "bad/synth"],
        ["train", "--bundle", "s12x8/b", "--objective", "f9", "--out", "bad/m.json"],
        ["train", "--bundle", "s12x8/b", "--objective", "f3", "--t", "0",
         "--out", "bad/t0.json"],
        ["train", "--bundle", "missing", "--objective", "f3", "--out", "bad/m.json"],
        ["ingest", *tables, "--preferences", f"{raw}/R.csv",
         "--significance", SIGNIFICANCE, "--out", "bad/b"],
        ["ingest", *tables, "--significance", SIG_DUPLICATE, "--out", "bad/b"],
        ["ingest", *tables, "--significance", SIG_MISSING, "--out", "bad/b"],
        *(["ingest", *tables, "--significance", f"{BAD}/sig-{fault}.csv",
           "--out", "bad/b"] for fault in ("outcome", "short", "self", "header")),
        *(["ingest", *tables, "--outcomes-dir", directory, "--out", "bad/b"]
          for directory in (OUTCOMES_COLUMNS, OUTCOMES_ONE, OUTCOMES_TWO,
                            OUTCOMES_EMPTY)),
        ["evaluate", "--bundle", "s12x8/b", "--protocol", "lodo",
         "--strategies", "def,nope", "--out", "bad/e"],
        ["evaluate", "--bundle", "s12x8/b", "--protocol", "lodo",
         "--strategies", "def,def,f4", "--out", "bad/e"],
        *(["evaluate", "--bundle", f"tiny/{shape}/b", "--protocol", protocol,
           "--out", "bad/e"] for shape, protocol in (
              ("5x1", "lodo"), ("1x4", "lowo"), ("5x1", "lodwo"))),
        ["evaluate", "--bundle", "s12x8/b", "--protocol", "lodwo",
         "--strategies", "ec,f1", "--out", "bad/e"],
        ["predict", "--model", "s12x8/f1-seeded_gaussian.json",
         "--bundle", "s12x8/b", "--task", "pair_score", "--x", "queries/X.csv",
         "--a", "queries/A.csv", "--out", "bad/p.csv"],
        ["predict", "--model", "s12x8/f3-seeded_gaussian.json",
         "--bundle", "s8x6/b", "--task", "dataset_prefs",
         "--a", "queries/A.csv", "--out", "s8x6/p.csv"],
        ["predict", "--model", "s12x8/f3-seeded_gaussian.json",
         "--bundle", "s12x8/b", "--task", "workflow_prefs",
         "--x", HUGE, "--out", "bad/huge.csv"],
        ["predict", "--model", "s12x8/f3-seeded_gaussian.json",
         "--bundle", "s12x8/b", "--task", "workflow_prefs", "--out", "bad/p.csv"],
        ["predict", "--model", "s12x8/f1-seeded_gaussian.json",
         "--bundle", "s12x8/b", "--task", "workflow_prefs", "--neighbors", "0",
         "--x", "queries/X.csv", "--out", "bad/p.csv"],
        *(["evaluate", "--bundle", "s12x8/b", "--protocol", "lodo", flag, value,
           "--out", "bad/e"] for flag, value in (("--jobs", "0"), ("--seed", "-1"))),
        ["train", "--bundle", "s12x8/b", "--objective", "f3", "--preset", "nope",
         "--out", "bad/m.json"],
        *(["train", "--bundle", "s12x8/b", "--objective", "f3", flag, value,
           "--out", "bad/m.json"]
          for flag, value in (("--mu1", "-1"), ("--neighbors", "0"),
                              ("--max-iters", "-1"), ("--rel-tol", "0"),
                              ("--mu1", "1e308"), ("--seed", "-1"))),
        *(["synth", *flags, "--out", "bad/synth"]
          for flags in (["--latent-t", "0"], ["--mode", "noisy", "--noise-sigma", "-1"],
                        ["--mode", "outcome", "--instances", "0"], ["--seed", "-1"])),
        *(["--config", f"{BAD}/config-{fault}.json", "train", "--bundle", "s12x8/b",
           "--objective", "f3", "--out", "bad/m.json"]
          for fault in ("list", "key", "type", "choice", "bool", "latin1", "syntax")),
        *(["predict", "--model", f"{BAD}/model-{fault}.json", "--bundle", "s12x8/b",
           "--task", "workflow_prefs", "--x", "queries/X.csv", "--out", "bad/p.csv"]
          for fault in faulty_models()),
        # a bundle whose X is wider than a model that stores no names
        ["predict", "--model", f"{BAD}/nameless.json", "--bundle", "s15x10/b",
         "--task", "workflow_prefs", "--x", "queries/X.csv", "--out", "bad/p.csv"],
    ]
    # faulty tables, query tables and model files, each exit 1
    quoted = {name: f"{QUOTED}/{name}.csv"
              for name in ("X", "A", "R", "performance")}
    for name, bad in [*((name, name) for name in ("X", "A", "R")),
                      *(("performance", f"perf-{fault}")
                        for fault in ("duplicate", "missing", "short", "range",
                                      "header")),
                      *(("R", f"r-{fault}") for fault in ("sum", "grid", "range", "ids")),
                      *(("X", f"x-{fault}")
                        for fault in ("latin1", "empty", "header", "ids", "short",
                                      "huge"))]:
        tables = {**quoted, name: f"{BAD}/{bad}.csv"}
        cmds.append(["ingest", "--x", tables["X"], "--a", tables["A"],
                     "--performance", tables["performance"],
                     "--preferences", tables["R"], "--out", "bad/b"])
    for model, task, flag, table in (
            ("s12x8/f3-seeded_gaussian.json", "workflow_prefs", "--x", "qx-names"),
            ("s12x8/f3-seeded_gaussian.json", "dataset_prefs", "--a", "qa-names"),
            (f"{BAD}/nameless.json", "workflow_prefs", "--x", "qx-narrow"),
            (f"{BAD}/nameless.json", "dataset_prefs", "--a", "qa-narrow"),
            (f"{BAD}/u-token.json", "workflow_prefs", "--x", "qx-narrow")):
        cmds.append(["predict", "--model", model, "--bundle", "s12x8/b",
                     "--task", task, flag, f"{BAD}/{table}.csv",
                     "--out", "bad/p.csv"])
    return cmds


# Runs in each tree's subprocess: argv list on stdin, outputs under cwd;
# sys.argv holds the tree's src and the name of the MEAN_QUERY step.
RUNNER = r"""
import contextlib, io, json, sys
from pathlib import Path
import metamine
from metamine.cli import main
if Path(metamine.__file__).resolve().parents[1] != Path(sys.argv[1]).resolve():
    sys.exit(f"imported {metamine.__file__}, not the tree under {sys.argv[1]}")
streams = Path("_streams")
streams.mkdir()
for k, argv in enumerate(json.load(sys.stdin)):
    if argv[0] == sys.argv[2]:         # MEAN_QUERY
        model, table, dest = argv[1:]
        mean = json.loads(Path(model).read_text())["x_standardization"]["mean"]
        Path(dest).write_bytes(Path(table).read_bytes()
                               + ",".join(["mean", *mean]).encode() + b"\r\n")
        continue
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:       # argparse's usage errors
            code = exc.code
    for name, text in (("stdout", out.getvalue()), ("stderr", err.getvalue()),
                       ("exit", f"{code}\n")):
        (streams / f"{k:03d}.{name}").write_text(text, encoding="utf-8")
"""


def extract_src(rev, dest):
    """rev's src/ under dest, read with git archive; False if git cannot."""
    done = subprocess.run(["git", "-C", str(REPO), "archive", rev, "src"],
                          capture_output=True)
    if done.returncode:
        print(f"git archive {rev}: {done.stderr.decode().strip()}", file=sys.stderr)
        return False
    with tarfile.open(fileobj=io.BytesIO(done.stdout)) as archive:
        if hasattr(tarfile, "data_filter"):
            archive.extractall(dest, filter="data")
        else:
            archive.extractall(dest)
    return True


def run_tree(src, work, cmds):
    """Run cmds with the package under src, from the working directory
    work; returns the subprocess's CompletedProcess."""
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, "-c", RUNNER, str(src), MEAN_QUERY],
                          cwd=work, env=env, input=json.dumps(cmds), text=True,
                          capture_output=True)


def files(root):
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def differences(base, head, cmds):
    """A line per path whose bytes differ between the two working
    directories, or that only one of them holds."""
    out = []
    for rel in sorted(files(base) | files(head)):
        a, b = base / rel, head / rel
        if not a.is_file() or not b.is_file():
            out.append(f"only in {'this tree' if b.is_file() else 'base'}: {rel}")
        elif a.read_bytes() != b.read_bytes():
            note = ""
            if rel.startswith("_streams/"):     # _streams/<command index>.<stream>
                note = "  <- metamine " + " ".join(cmds[int(Path(rel).stem)])
            out.append(f"differs: {rel}{note}")
    return out


def module_lines(src):
    """name -> line count of each module of the package under src, as
    `wc -l` counts them."""
    return {p.name: p.read_bytes().count(b"\n")
            for p in sorted((src / "metamine").glob("*.py"))}


def size_table(base, head):
    """A line per module of either tree, `<name> <base> -> <this tree>`
    ('-' where a tree lacks it), then the totals."""
    lines = ["lines of src/metamine (base -> this tree):"]
    for name in sorted(base.keys() | head.keys()):
        lines.append(f"  {name} {base.get(name, '-')} -> {head.get(name, '-')}")
    lines.append(f"  total {sum(base.values())} -> {sum(head.values())}")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare with")
    parser.add_argument("--keep", action="store_true",
                        help="keep the working directories and print where")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    tmp = Path(tempfile.mkdtemp(prefix="metamine-identity-"))
    try:
        if not extract_src(args.base, tmp / "base"):
            return 2
        cmds = matrix()
        work = {"base": tmp / "work-base", "head": tmp / "work-head"}
        significance = significance_csv(10, 7)      # the ids of s10x7
        quoted = quoted_tables()
        inputs = {SIGNIFICANCE: significance, HUGE: HUGE_TEXT, **quoted,
                  **faulty_significance(significance), **faulty_tables(quoted),
                  **shuffled_tables(significance),
                  **WRONG_QUERIES, **outcome_dirs(), **tiny_tables(), **relined_tables(),
                  **faulty_files(significance, quoted)}
        for name, src in (("base", tmp / "base" / "src"), ("head", REPO / "src")):
            for rel, data in inputs.items():
                path = work[name] / rel
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_bytes(data if isinstance(data, bytes)
                                 else data.encode("utf-8"))
            (work[name] / OUTCOMES_EMPTY).mkdir(parents=True)
            done = run_tree(src, work[name], cmds)
            if done.returncode:
                print(f"{name} tree: the runner failed\n{done.stderr}",
                      file=sys.stderr)
                return 2
        diff = differences(work["base"], work["head"], cmds)
        print("\n".join(diff) if diff else "no differing byte")
        print(f"{len(cmds)} commands, {len(files(work['head']))} files "
              f"compared, {len(diff)} differ ({time.perf_counter() - start:.1f} s)")
        print(size_table(module_lines(tmp / "base" / "src"),
                         module_lines(REPO / "src")))
        return 1 if diff else 0
    finally:
        if args.keep:
            print(f"kept {tmp}")
        else:
            shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
