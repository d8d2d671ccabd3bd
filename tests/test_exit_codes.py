"""The exit-code contract under malformed input, as a property: a model
file, a bundle table or a --config file with one field broken, or with one
to three of its bytes edited, makes `main()` exit 0 or 1 (a validation
error, one `error:` line), never 2 (a runtime failure), and a run that
exits 0 writes no NaN. A model or --config file that starts
with a byte-order mark still reads; one that is not UTF-8 exits 1 with an
error naming it. Every int and float flag of every subcommand, given -1
or 0, does the same."""

import codecs
import contextlib
import csv
import io
import json
import math
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, note, settings
from hypothesis import strategies as st

from metamine.cli import build_parser, main

# One field's mutation: dropped, a wrong type, nan/inf (as a JSON number
# and as the repr string a model file holds), zero, an empty list.
DROP = "<drop>"
JSON_VALUES = (DROP, "abc", {}, float("nan"), "nan", float("inf"), "-inf",
               0, [])
# Whole-file edits of a valid JSON input: a leading byte-order mark (the
# run succeeds) and a byte that is not UTF-8 (exit 1, naming the file).
BOM, BAD_BYTE = "<bom>", "<0xff>"
CSV_TOKENS = ("abc", "nan", "inf", "-inf", "0", "")
TABLES = ("X.csv", "A.csv", "performance.csv", "R.csv")
# (model objective, a task it serves)
SERVED = (("f1", "workflow_prefs"), ("f2", "dataset_prefs"),
          ("f3", "pair_score"), ("f3", "workflow_prefs"),
          ("f4", "dataset_prefs"), ("f4", "pair_score"))


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """A bundle, a model per objective and a train config file, all valid."""
    root = tmp_path_factory.mktemp("valid")
    assert run(["synth", "--n", "6", "--m", "5", "--d", "4", "--l", "3",
                "--latent-t", "2", "--seed", "3", "--out", root / "raw"]) == 0
    raw = root / "raw"
    assert run(["ingest", "--x", raw / "X.csv", "--a", raw / "A.csv",
                "--performance", raw / "performance.csv",
                "--preferences", raw / "R.csv", "--out", root / "bundle"]) == 0
    for objective in ("f1", "f2", "f3", "f4"):
        assert run(["train", "--bundle", root / "bundle", "--objective",
                    objective, "--max-iters", "5", "--t", "2",
                    "--out", root / f"{objective}.json"]) == 0
    return root


def _paths(doc, prefix=()):
    """The path of every key and list element of a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


def _mutated(doc, path, value):
    note(f"{'.'.join(map(str, path))} -> {value!r}")
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value == DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _nan_in_json(value, key=None):
    """Whether a JSON value holds a NaN, as a number or as a repr string;
    feature names are names, whatever they spell."""
    if isinstance(value, dict):
        return any(_nan_in_json(v, k) for k, v in value.items())
    if isinstance(value, list):
        return (not str(key).endswith("_feature_names")
                and any(_nan_in_json(v, key) for v in value))
    if isinstance(value, str):
        try:
            value = float(value)
        except ValueError:
            return False
    return isinstance(value, float) and math.isnan(value)


def _writes_nan(out):
    for path in (p for p in Path(out).rglob("*") if p.is_file()):
        if path.suffix == ".json":
            if _nan_in_json(json.loads(path.read_text())):
                return True
        elif path.suffix == ".csv":
            with open(path, newline="") as fh:
                rows = list(csv.DictReader(fh))
            if any(math.isnan(float(row["score"])) for row in rows):
                return True
    return False


def _write_edited(draw, target, doc, paths):
    """Write doc to target with the field at one of paths mutated, or
    whole with a BOM or a bad byte. Returns the exit codes the run may
    give and the text its error message must hold."""
    edit = draw(st.sampled_from((None, BOM, BAD_BYTE)))
    if edit is None:
        path = draw(st.sampled_from(paths))
        target.write_text(json.dumps(_mutated(
            doc, path, draw(st.sampled_from(JSON_VALUES)))))
        return (0, 1), ""
    note(edit)
    text = json.dumps(doc).encode()
    if edit == BOM:
        target.write_bytes(codecs.BOM_UTF8 + text)
        return (0,), ""
    at = draw(st.integers(0, len(text)))
    target.write_bytes(text[:at] + b"\xff" + text[at:])
    return (1,), f"{target}: not UTF-8"


@st.composite
def model_case(draw, valid, work):
    objective, task = draw(st.sampled_from(SERVED))
    doc = json.loads((valid / f"{objective}.json").read_text())
    model = work / "model.json"
    expected = _write_edited(draw, model, doc, sorted(_paths(doc), key=str))
    return ["predict", "--model", model, "--bundle", valid / "bundle",
            "--task", task, "--x", valid / "raw" / "X.csv",
            "--a", valid / "raw" / "A.csv",
            "--out", work / "out" / "p.csv"], expected


@st.composite
def bundle_case(draw, valid, work):
    bundle = work / "bundle"
    shutil.copytree(valid / "bundle", bundle)
    table = bundle / draw(st.sampled_from(TABLES))
    with open(table, newline="") as fh:
        rows = list(csv.reader(fh))
    i = draw(st.integers(0, len(rows) - 1))
    edit = draw(st.sampled_from(("drop row", "empty row", "cell")))
    if edit == "drop row":
        del rows[i]
    elif edit == "empty row":
        rows[i] = []
    else:
        j = draw(st.integers(0, len(rows[i]) - 1))
        rows[i][j] = draw(st.sampled_from(CSV_TOKENS))
        edit = f"cell ({i},{j}) -> {rows[i][j]!r}"
    note(f"{table.name}: {edit}")
    with open(table, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    out = work / "out"
    return draw(st.sampled_from((
        ["train", "--bundle", bundle, "--objective", "f3", "--max-iters", "5",
         "--out", out / "m.json"],
        ["evaluate", "--bundle", bundle, "--protocol", "lodo",
         "--strategies", "def,ec,f3", "--max-iters", "5", "--out", out],
        ["predict", "--model", valid / "f3.json", "--bundle", bundle,
         "--task", "pair_score", "--x", valid / "raw" / "X.csv",
         "--a", valid / "raw" / "A.csv", "--out", out / "p.csv"],
    ))), ((0, 1), "")


@st.composite
def config_case(draw, valid, work):
    doc = json.loads((valid / "f3.json.config.json").read_text())
    config = work / "config.json"
    expected = _write_edited(draw, config, doc,
                             [(key,) for key in sorted(doc)])
    return ["--config", config, "train", "--bundle", valid / "bundle",
            "--objective", "f3", "--out", work / "out" / "m.json"], expected


@st.composite
def byte_case(draw, valid, work):
    """One to three byte edits (a bit flipped, a byte inserted or one
    deleted) anywhere in one file a train, evaluate or predict run reads."""
    bundle, model, config = work / "bundle", work / "model.json", work / "config.json"
    shutil.copytree(valid / "bundle", bundle)
    shutil.copy(valid / "f3.json", model)
    shutil.copy(valid / "f3.json.config.json", config)
    target = draw(st.sampled_from((*(bundle / t for t in TABLES),
                                   bundle / "manifest.json", model, config)))
    text = bytearray(target.read_bytes())
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(("flip", "insert", "delete")))
        at = draw(st.integers(0, len(text) - (edit != "insert")))
        if edit == "flip":
            text[at] ^= 1 << draw(st.integers(0, 7))
        elif edit == "insert":
            text.insert(at, draw(st.integers(0, 255)))
        else:
            del text[at]
        note(f"{target.name}: {edit} at byte {at}")
    target.write_bytes(text)
    out = work / "out"
    train = ["train", "--bundle", bundle, "--objective", "f3",
             "--max-iters", "5", "--out", out / "m.json"]
    predict = ["predict", "--model", model, "--bundle", bundle,
               "--task", "pair_score", "--x", valid / "raw" / "X.csv",
               "--a", valid / "raw" / "A.csv", "--out", out / "p.csv"]
    if target == config:
        return ["--config", config, *train], ((0, 1), "")
    if target == model:
        return predict, ((0, 1), "")
    return draw(st.sampled_from((train, predict, [
        "evaluate", "--bundle", bundle, "--protocol", "lodo",
        "--strategies", "def,ec,f3", "--max-iters", "5", "--out", out]))), \
        ((0, 1), "")


@settings(deadline=None, max_examples=660)
@given(data=st.data())
def test_one_broken_field_exits_zero_or_one(valid, data):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "out").mkdir()
        case = data.draw(st.sampled_from((model_case, bundle_case,
                                          config_case, byte_case)))
        argv, (codes, message) = data.draw(case(valid, work))
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = run(argv)
        assert code in codes and message in err.getvalue()
        errors = [line for line in err.getvalue().splitlines()
                  if line.startswith("error:")]
        assert len(errors) == (code == 1)
        if code == 0:
            assert not _writes_nan(work / "out")


# every (model objective, task) pair `predict` serves, and the query CSVs
# each task reads
ALL_SERVED = (("f1", "workflow_prefs"), ("f2", "dataset_prefs"),
              ("f3", "workflow_prefs"), ("f3", "dataset_prefs"),
              ("f3", "pair_score"), ("f4", "workflow_prefs"),
              ("f4", "dataset_prefs"), ("f4", "pair_score"))
QUERY_FLAGS = {"workflow_prefs": ("--x",), "dataset_prefs": ("--a",),
               "pair_score": ("--x", "--a")}
QUERY_TOKENS = ("nan", "inf", "-inf", "1e308", "-1e308", "abc", "")


def _writes_non_finite_score(out):
    for path in Path(out).rglob("*.csv"):
        with open(path, newline="") as fh:
            if not all(math.isfinite(float(row["score"]))
                       for row in csv.DictReader(fh)):
                return True
    return False


@st.composite
def query_case(draw, valid, work):
    objective, task = draw(st.sampled_from(ALL_SERVED))
    flag = draw(st.sampled_from(QUERY_FLAGS[task]))
    tables = {"--x": valid / "raw" / "X.csv", "--a": valid / "raw" / "A.csv"}
    with open(tables[flag], newline="") as fh:
        rows = list(csv.reader(fh))
    i = draw(st.integers(1, len(rows) - 1))
    edit = draw(st.sampled_from(("cell", "short row", "duplicated row",
                                 "renamed header")))
    if edit == "cell":
        j = draw(st.integers(0, len(rows[i]) - 1))
        rows[i][j] = draw(st.sampled_from(QUERY_TOKENS))
        edit = f"cell ({i},{j}) -> {rows[i][j]!r}"
    elif edit == "short row":
        del rows[i][-1]
    elif edit == "duplicated row":
        rows.insert(i, list(rows[i]))
    else:
        rows[0][draw(st.integers(0, len(rows[0]) - 1))] = "renamed"
    note(f"{objective} {task}, {flag} {tables[flag].name}: {edit} (row {i})")
    tables[flag] = work / f"query_{tables[flag].name}"
    with open(tables[flag], "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return ["predict", "--model", valid / f"{objective}.json",
            "--bundle", valid / "bundle", "--task", task,
            "--x", tables["--x"], "--a", tables["--a"],
            "--out", work / "out" / "p.csv"]


@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_one_broken_query_cell_or_row_exits_zero_or_one(valid, data):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "out").mkdir()
        code = run(data.draw(query_case(valid, work)))
        assert code in (0, 1)
        if code == 0:
            assert not _writes_non_finite_score(work / "out")


# ingest's outcome and significance CSVs: one cell or row broken
INGEST_TOKENS = ("nan", "inf", "-inf", "1e308", "abc", "")
OUTCOMES = ("k_wins", "l_wins", "tie")


@pytest.fixture(scope="module")
def raw_outcomes(tmp_path_factory):
    """An outcome-mode synth problem and a significance CSV over its ids."""
    raw = tmp_path_factory.mktemp("outcomes")
    assert run(["synth", "--n", "6", "--m", "5", "--mode", "outcome",
                "--instances", "20", "--seed", "2", "--out", raw]) == 0
    datasets = [p.stem for p in sorted((raw / "outcomes").glob("*.csv"))]
    with open(raw / "A.csv", newline="") as fh:
        workflows = [row[0] for row in list(csv.reader(fh))[1:]]
    with open(raw / "significance.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["dataset_id", "workflow_k", "workflow_l", "outcome"])
        for i, ds in enumerate(datasets):
            for k in range(len(workflows)):
                for l in range(k + 1, len(workflows)):
                    w.writerow([ds, workflows[k], workflows[l],
                                OUTCOMES[(i + k + l) % 3]])
    return raw


def _bundle_holds_nan(out):
    """Whether a written bundle holds a NaN in a data row of a table or in
    its manifest."""
    for path in Path(out).rglob("*.csv"):
        with open(path, newline="") as fh:
            for row in list(csv.reader(fh))[1:]:
                for token in row:
                    try:
                        if math.isnan(float(token)):
                            return True
                    except ValueError:
                        pass
    manifest = Path(out) / "manifest.json"
    return manifest.exists() and _nan_in_json(json.loads(manifest.read_text()))


@st.composite
def ingest_case(draw, raw, work):
    source = draw(st.sampled_from(("--outcomes-dir", "--significance")))
    shutil.copytree(raw / "outcomes", work / "outcomes")
    shutil.copy(raw / "significance.csv", work / "significance.csv")
    given = {"--outcomes-dir": work / "outcomes",
             "--significance": work / "significance.csv"}[source]
    table = (given if source == "--significance" else
             draw(st.sampled_from(sorted(given.glob("*.csv")))))
    with open(table, newline="") as fh:
        rows = list(csv.reader(fh))
    i = draw(st.integers(0, len(rows) - 1))
    edit = draw(st.sampled_from(("cell", "short row", "duplicated row",
                                 "header only")))
    if edit == "cell":
        j = draw(st.integers(0, len(rows[i]) - 1))
        rows[i][j] = draw(st.sampled_from(INGEST_TOKENS))
        edit = f"cell ({i},{j}) -> {rows[i][j]!r}"
    elif edit == "short row":
        del rows[i][-1]
    elif edit == "duplicated row":
        rows.insert(i, list(rows[i]))
    else:
        del rows[1:]
    note(f"{table.name}: {edit} (row {i})")
    with open(table, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return ["ingest", "--x", raw / "X.csv", "--a", raw / "A.csv",
            "--performance", raw / "performance.csv",
            source, given,
            "--out", work / "out" / "bundle"]


@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_one_broken_outcome_or_significance_row_exits_zero_or_one(
        raw_outcomes, data):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "out").mkdir()
        code = run(data.draw(ingest_case(raw_outcomes, work)))
        assert code in (0, 1)
        if code == 0:
            assert not _bundle_holds_nan(work / "out")


@pytest.fixture(scope="module")
def resolved_configs(valid):
    """The resolved-config file of a valid run of synth, ingest, evaluate
    and predict, each with the command line (the flags argparse requires)
    it is given to."""
    raw, bundle = valid / "raw", valid / "bundle"
    assert run(["evaluate", "--bundle", bundle, "--protocol", "lodo",
                "--strategies", "def,ec,f3", "--max-iters", "5",
                "--out", valid / "report"]) == 0
    assert run(["predict", "--model", valid / "f3.json", "--bundle", bundle,
                "--task", "pair_score", "--x", raw / "X.csv",
                "--a", raw / "A.csv", "--out", valid / "p.csv"]) == 0
    return {
        "synth": (raw / "resolved_config.json",
                  lambda out: ["synth", "--out", out / "raw"]),
        "ingest": (bundle / "resolved_config.json",
                   lambda out: ["ingest", "--x", raw / "X.csv",
                                "--a", raw / "A.csv",
                                "--performance", raw / "performance.csv",
                                "--out", out / "bundle"]),
        "evaluate": (valid / "report" / "resolved_config.json",
                     lambda out: ["evaluate", "--bundle", bundle,
                                  "--protocol", "lodo", "--out", out / "report"]),
        "predict": (valid / "p.csv.config.json",
                    lambda out: ["predict", "--model", valid / "f3.json",
                                 "--bundle", bundle, "--task", "pair_score",
                                 "--out", out / "p.csv"]),
    }


def _output_holds_nan(out):
    """Whether any JSON file or any CSV data-row token under out is NaN."""
    for path in Path(out).rglob("*.json"):
        if _nan_in_json(json.loads(path.read_text())):
            return True
    return _bundle_holds_nan(out)


@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_one_broken_config_field_of_any_subcommand_exits_zero_or_one(
        resolved_configs, data):
    subcommand = data.draw(st.sampled_from(sorted(resolved_configs)))
    path, command = resolved_configs[subcommand]
    doc = json.loads(path.read_text())
    key = data.draw(st.sampled_from(sorted(doc)))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "out").mkdir()
        config = work / "config.json"
        config.write_text(json.dumps(_mutated(
            doc, (key,), data.draw(st.sampled_from(JSON_VALUES)))))
        code = run(["--config", config, *command(work / "out")])
        assert code in (0, 1)
        if code == 0:
            assert not _output_holds_nan(work / "out")


# subcommand -> its command line on the valid fixture's files, with few
# descent iterations; a numeric flag given after it wins
NUMERIC_COMMANDS = {
    "synth": lambda valid, out: ["synth", "--n", "6", "--m", "5", "--d", "4",
                                 "--l", "3", "--latent-t", "2", "--out", out],
    "train": lambda valid, out: ["train", "--bundle", valid / "bundle",
                                 "--objective", "f4", "--max-iters", "3",
                                 "--t", "2", "--out", out / "m.json"],
    "evaluate": lambda valid, out: ["evaluate", "--bundle", valid / "bundle",
                                    "--protocol", "lodo", "--strategies",
                                    "def,ec,f1,f4", "--max-iters", "3",
                                    "--t", "2", "--out", out / "report"],
    "predict": lambda valid, out: ["predict", "--model", valid / "f1.json",
                                   "--bundle", valid / "bundle", "--task",
                                   "workflow_prefs", "--x", valid / "raw" / "X.csv",
                                   "--out", out / "p.csv"],
}


def _numeric_flags():
    """(subcommand, flag) of every int and float flag of the CLI."""
    for name, subparser in build_parser().subcommands.items():
        for action in subparser._actions:
            if action.type in (int, float):
                yield name, action.option_strings[0]


@pytest.mark.parametrize("value", ["-1", "0"])
@pytest.mark.parametrize("subcommand, flag", sorted(_numeric_flags()))
def test_numeric_flag_at_minus_one_and_zero_exits_zero_or_one(
        valid, tmp_path, subcommand, flag, value):
    out = tmp_path / "out"
    out.mkdir()
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = run([*NUMERIC_COMMANDS[subcommand](valid, out), flag, value])
    errors = [line for line in err.getvalue().splitlines()
              if line.startswith("error:")]
    assert code in (0, 1)
    assert len(errors) == (code == 1)
    if code == 0:
        assert not _output_holds_nan(out)
