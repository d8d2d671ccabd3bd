"""CSV ingestion/emission and model persistence.

File formats:
  descriptor table  - first column = entity id, remaining columns = named
                      numeric features; header row required, UTF-8,
                      '.' decimal separator
  performance       - long CSV: dataset_id, workflow_id, performance
  preference matrix - wide CSV: first column dataset_id, one column per
                      workflow id
  outcome cube      - one CSV per dataset (rows = instances, columns =
                      workflow ids, values 0/1); a file whose every data
                      row is c,c,...,c and the header's line ending
                      (CR LF or LF), each c the single byte 0 or 1, is
                      read in one byte-level pass; every other file goes
                      through csv as before, with the same values and
                      the same errors
  significance      - long CSV: dataset_id, workflow_k, workflow_l, outcome
                      with outcome in {k_wins, l_wins, tie}, every pair
                      once, either way round; read as one win matrix per
                      dataset, the form preference.points tallies
  predictions       - long CSV: query_id, target_id, score, strategy,
                      flags (';'-joined); one row per target of each query
  model             - versioned JSON container; floats are serialized via
                      repr so a round-trip reproduces predictions exactly
  bundle            - directory of X.csv and A.csv (descriptor tables),
                      performance.csv, R.csv (preference matrix) and
                      manifest.json; ingest writes the manifest once the
                      tables pass validate_tables, and read_bundle checks
                      the tables it reads again: X, A and R on every read,
                      performance.csv only where the caller asks for P

Every CSV writer joins its lines itself, by one rule: a text cell is
quoted as csv.writer (excel dialect) quotes it, and csv.writer formats
the header and each distinct id or text cell once; a float is written as
repr does, the shortest decimal string that parses back to the same
float; and every line ends in CR LF. A long CSV's lines are joined once
per row. Every CSV reader splits quote-free lines at their commas, and
leaves a file with a quote, a NUL or a line over csv's field limit to
csv, for the same rows; a field over that limit is an IngestError that
names the file and line. Every reader takes UTF-8 and drops a
leading byte-order mark; a CSV or JSON file that is not UTF-8, or a JSON
file that does not parse, is an IngestError that names the file.
"""

from __future__ import annotations

import codecs
import csv
import json
from contextlib import suppress
from enum import Enum
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .data_model import (DescriptorTable, HyperParams, IngestError,
                         MetaMiningData, ModelParams, PerformanceMatrix,
                         PreferenceMatrix, StandardizationRecord,
                         validate_tables)
from .metric_learning import ObjectiveKind
from .preference import OutcomeCube

MODEL_FORMAT_VERSION = 1
# significance CSV outcome -> (workflow k beats l, l beats k)
_OUTCOMES = {"k_wins": (True, False), "l_wins": (False, True), "tie": (False, False)}


def _reprs(values):
    """Each row of a float array as the repr strings of its values."""
    return [list(map(repr, row)) for row in values.tolist()]


def _not_utf8(path, exc):
    """The IngestError for a UnicodeDecodeError reading path."""
    return IngestError(f"{path}: not UTF-8 text (byte "
                       f"0x{exc.object[exc.start]:02x}: {exc.reason})")


def _split_rows(fh):
    """The rows of fh as csv.reader gives them, read in blocks of lines
    (each keeps its CR LF, LF or lone CR, the ends of csv's records) and
    split at commas; None once a block is not UTF-8 or holds a quote, a NUL
    or a line over csv's field limit, to leave the file to csv."""
    rows, limit = [], csv.field_size_limit()
    try:
        for lines in iter(lambda: fh.readlines(1 << 14), []):
            text = "".join(lines)
            if '"' in text or "\0" in text or max(map(len, lines)) > limit:
                return None
            # list() sizes each row exactly, as csv does
            rows += [list(c.split(",")) if c else []
                     for c in (line.rstrip("\r\n") for line in lines)]
    except UnicodeDecodeError:
        return None
    return rows


def _read_rows(path):
    """The rows of a UTF-8 CSV file, a leading byte-order mark dropped. A
    field over csv's limit is an IngestError that names the line."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = _split_rows(fh)
            if rows is None:
                fh.seek(0)      # under utf-8-sig, drops the BOM again
                reader = csv.reader(fh)
                rows = list(reader)
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None
    except csv.Error as exc:
        raise IngestError(f"{path}: line {reader.line_num}: {exc}") from None
    if not rows:
        raise IngestError(f"{path}: empty file (header row required)")
    return rows


def _body(path, rows):
    """The rows under the header; an IngestError if there are none."""
    if len(rows) < 2:
        raise IngestError(f"{path}: no data rows under the header")
    return rows[1:]


def _first_bad_token(path, rows, binary):
    """Parse the tokens of rows one by one, in line order, and raise on
    the first that is not a number (or, with binary, not 0 or 1)."""
    for (i, *_), token in np.ndenumerate(np.array(rows, dtype=object)):
        try:
            value = float(token)
        except ValueError:
            raise IngestError(f"{path}: line {i + 2}: not a number: "
                              f"{token!r}") from None
        if binary and value not in (0.0, 1.0):
            raise IngestError(f"{path}: line {i + 2}: not 0 or 1: {token!r}")


def _floats(path, rows, binary=False):
    """The numeric tokens of rows[i] (one token, or a list of them), line
    i + 2 of path, as one float array; with binary, every value must be 0
    or 1. numpy converts a str as float() does; only when it fails, or a
    value is not 0 or 1, are the tokens parsed again one by one to name
    the first bad one."""
    try:
        values = np.array(rows, dtype=float)
    except ValueError:
        _first_bad_token(path, rows, binary)
        raise
    if binary and not np.isin(values, (0.0, 1.0)).all():
        _first_bad_token(path, rows, binary)
    return values


def _numeric_body(path, rows, skip, binary=False):
    """The lines under the header, all as wide as it, as one float array
    of their columns from skip on (values 0 or 1 with binary). A file with
    several faults reports the first in line order."""
    width, body = len(rows[0]), _body(path, rows)
    good = next((i for i, row in enumerate(body) if len(row) != width), len(body))
    values = _floats(path, [row[skip:] for row in body[:good]], binary)
    if good < len(body):
        raise IngestError(f"{path}: line {good + 2}: expected {width} "
                          f"fields, got {len(body[good])}")
    return values


def _read_wide(path, no_columns):
    """A wide CSV, an id column then named numeric columns: (column names,
    row ids, values). no_columns is the error for a header without them."""
    rows = _read_rows(path)
    header = rows[0]
    if len(header) < 2:
        raise IngestError(f"{path}: {no_columns}")
    values = _numeric_body(path, rows, 1)
    return tuple(header[1:]), tuple(row[0] for row in rows[1:]), values


def _cells(texts):
    """Each text as csv.writer writes it as a field of a row of two or
    more: quoted where it holds a comma, a quote or a line break."""
    lines = []      # csv.writer writes each row in one call
    csv.writer(SimpleNamespace(write=lines.append)).writerows(
        [text, ""] for text in texts)
    return [line[:-3] for line in lines]    # drop ",\r\n"


def _write_lines(path, header, blocks):
    """The header row through csv.writer, then each block of CSV lines."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(blocks)


def _write_wide(path, id_header, columns, ids, values):
    _write_lines(path, [id_header, *columns],
                 (f"{eid},{','.join(row)}\r\n"
                  for eid, row in zip(_cells(ids), _reprs(values))))


def read_descriptor_csv(path) -> DescriptorTable:
    feature_names, ids, features = _read_wide(
        path, "header must name an id column and at least one feature")
    return DescriptorTable(entity_ids=ids, features=features,
                           feature_names=feature_names)


def write_descriptor_csv(path, table: DescriptorTable):
    _write_wide(path, "id", table.feature_names, table.entity_ids, table.features)


def read_performance_csv(path) -> PerformanceMatrix:
    rows = _read_rows(path)
    if [h.strip() for h in rows[0][:3]] != ["dataset_id", "workflow_id", "performance"]:
        raise IngestError(f"{path}: header must be dataset_id,workflow_id,performance")
    body = _body(path, rows)
    good = next((i for i, row in enumerate(body) if len(row) != 3), len(body))
    datasets, workflows = {}, {}    # id -> index, both in first-seen order
    ds = [datasets.setdefault(row[0], len(datasets)) for row in body[:good]]
    wf = [workflows.setdefault(row[1], len(workflows)) for row in body[:good]]
    # the flat index of each line's (dataset, workflow) cell; a repeat is
    # a line whose cell an earlier line holds
    cells = np.array(ds, dtype=np.intp) * len(workflows) + np.array(wf, dtype=np.intp)
    _, first, inverse = np.unique(cells, return_index=True, return_inverse=True)
    repeats = np.flatnonzero(first[inverse] != np.arange(good))
    stop = int(repeats[0]) if repeats.size else good
    values = _floats(path, [row[2] for row in body[:stop]])
    if stop < good:
        raise IngestError(f"{path}: line {stop + 2}: duplicate cell "
                          f"({body[stop][0]},{body[stop][1]})")
    if good < len(body):
        raise IngestError(f"{path}: line {good + 2}: expected 3 fields")
    dataset_ids, workflow_ids = tuple(datasets), tuple(workflows)
    table = np.empty(len(dataset_ids) * len(workflow_ids))
    table[cells] = values
    present = np.zeros(table.size, dtype=bool)
    present[cells] = True
    missing = np.flatnonzero(~present)
    if missing.size:
        i, j = divmod(int(missing[0]), len(workflow_ids))
        raise IngestError(f"{path}: missing performance for "
                          f"({dataset_ids[i]},{workflow_ids[j]})")
    values = table.reshape(len(dataset_ids), len(workflow_ids))
    return PerformanceMatrix(dataset_ids=dataset_ids,
                             workflow_ids=workflow_ids, values=values)


def _long_lines(head, cells, row, end):
    """A line per cell k, head + cells[k] + row[k] + end, in one join."""
    pieces = [head, None, None, end] * len(cells)
    pieces[1::4], pieces[2::4] = cells, row
    return "".join(pieces)


def write_performance_csv(path, perf: PerformanceMatrix):
    workflows = [f"{wf}," for wf in _cells(perf.workflow_ids)]
    _write_lines(path, ["dataset_id", "workflow_id", "performance"],
                 (_long_lines(f"{ds},", workflows, row, "\r\n")
                  for ds, row in zip(_cells(perf.dataset_ids),
                                     _reprs(perf.values))))


def read_preference_csv(path) -> PreferenceMatrix:
    workflow_ids, ids, scores = _read_wide(path, "header must name workflow columns")
    return PreferenceMatrix(dataset_ids=ids, workflow_ids=workflow_ids,
                            scores=scores)


def write_preference_csv(path, r: PreferenceMatrix):
    _write_wide(path, "dataset_id", r.workflow_ids, r.dataset_ids, r.scores)


def _binary_cells(path):
    """(workflow ids, values) of an outcome CSV in the form write_outcome_dir
    writes: a header line with no quote, no stray CR and no BOM, then at
    least one row of c,c,...,c and the header's line ending, each c the
    byte 0 or 1. None for any other file. The header goes through csv, so
    the ids are those _read_rows gives; the values are those, and of the
    dtype and shape, that _numeric_body gives."""
    with open(path, "rb") as fh:
        data = fh.read()
    head, newline, body = data.partition(b"\n")
    eol = b"\r\n" if head.endswith(b"\r") else b"\n"
    head = head.removesuffix(b"\r")
    if (not (head and newline and body) or b'"' in head or b"\r" in head
            or head.startswith(codecs.BOM_UTF8)):
        return None
    try:
        workflow_ids = tuple(next(csv.reader([head.decode("utf-8")])))
    except (UnicodeDecodeError, csv.Error):
        return None
    cells = 2 * len(workflow_ids) - 1       # the bytes of a row before eol
    if len(body) % (cells + len(eol)):
        return None
    rows = np.frombuffer(body, dtype=np.uint8).reshape(-1, cells + len(eol))
    values = rows[:, 0:cells:2] - ord("0")
    if not ((values <= 1).all() and (rows[:, 1:cells:2] == ord(",")).all()
            and (rows[:, cells:] == np.frombuffer(eol, dtype=np.uint8)).all()):
        return None
    return workflow_ids, values.astype(float)


def read_outcome_dir(directory) -> OutcomeCube:
    """One CSV per dataset, named <dataset_id>.csv; all files must share
    the same workflow columns, and every cell is 0 or 1. A file in the
    form write_outcome_dir writes is read by _binary_cells; any other
    through _read_rows, for the same values and the same errors."""
    directory = Path(directory)
    files = sorted(directory.glob("*.csv"))
    if not files:
        raise IngestError(f"{directory}: no outcome CSVs found")
    dataset_ids, matrices = [], []
    workflow_ids = None
    for path in files:
        fast = _binary_cells(path)
        if fast is None:
            rows = _read_rows(path)
            cols, values = tuple(rows[0]), None
        else:
            cols, values = fast
        if workflow_ids is None:
            workflow_ids = cols
        elif cols != workflow_ids:
            raise IngestError(f"{path}: workflow columns differ from {files[0]}")
        dataset_ids.append(path.stem)
        matrices.append(_numeric_body(path, rows, 0, binary=True)
                        if values is None else values)
    return OutcomeCube(dataset_ids=tuple(dataset_ids),
                       workflow_ids=workflow_ids, matrices=tuple(matrices))


def write_outcome_dir(directory, cube: OutcomeCube):
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    eol = np.frombuffer(b"\r\n", dtype=np.uint8)
    for eid, mat in zip(cube.dataset_ids, cube.matrices):
        cells = np.full((*mat.shape, 2), ord(","), dtype=np.uint8)
        cells[..., 0] = mat + ord("0")      # each cell, then a comma
        rows = np.hstack([cells.reshape(len(mat), -1)[:, :-1],
                          np.tile(eol, (len(mat), 1))])
        _write_lines(directory / f"{eid}.csv", cube.workflow_ids,
                     [rows.tobytes().decode("ascii")])


def write_predictions_csv(path, query_ids, target_ids, strategy, prediction):
    """A query table's PreferencePrediction, made by strategy: a line per
    query and target, values[q, t] scoring query_ids[q] for target_ids[t]."""
    targets = [f"{tid}," for tid in _cells(target_ids)]
    heads = _cells([text for qid, flags in zip(query_ids, prediction.flags)
                    for text in (qid, ";".join(flags))])
    _write_lines(path, ["query_id", "target_id", "score", "strategy", "flags"], (
        _long_lines(f"{qid},", targets, row, f",{strategy.value},{flags}\r\n")
        for qid, flags, row in zip(heads[::2], heads[1::2],
                                   _reprs(prediction.values))))


def read_significance_csv(path):
    """Long-format significance tensor: (dataset_ids, workflow_ids, wins)
    for build_preference_from_significance, wins an n x m x m bool stack
    with wins[i, k, l] true when workflow k beats l on dataset i."""
    rows = _read_rows(path)
    if [h.strip() for h in rows[0][:4]] != ["dataset_id", "workflow_k", "workflow_l", "outcome"]:
        raise IngestError(f"{path}: header must be dataset_id,workflow_k,workflow_l,outcome")
    datasets, index = {}, {}    # id -> index, both in first-seen order
    body, cells, pairs = _body(path, rows), [], {}
    for ln, row in enumerate(body, start=2):
        if len(row) != 4:
            raise IngestError(f"{path}: line {ln}: expected 4 fields")
        ds, wk, wl, outcome = row
        if outcome not in _OUTCOMES:
            raise IngestError(f"{path}: line {ln}: unknown outcome {outcome!r}")
        if wk == wl:
            raise IngestError(f"{path}: line {ln}: workflow {wk!r} compared "
                              "with itself")
        if pairs.setdefault((ds, frozenset((wk, wl))), ln) != ln:   # either way round
            raise IngestError(f"{path}: duplicate pair ({ds},{wk},{wl})")
        k, l = index.setdefault(wk, len(index)), index.setdefault(wl, len(index))
        cells.append((datasets.setdefault(ds, len(datasets)), k, l, outcome))
    dataset_ids, workflow_ids = tuple(datasets), tuple(index)
    wins = np.zeros((len(datasets), len(index), len(index)), dtype=bool)
    seen = np.zeros(wins.shape, dtype=bool)     # each pair both ways round
    for i, k, l, outcome in cells:
        seen[i, k, l] = seen[i, l, k] = True
        wins[i, k, l], wins[i, l, k] = _OUTCOMES[outcome]
    missing = np.argwhere(~seen & np.triu(np.ones(wins.shape[1:], dtype=bool), 1))
    if missing.size:
        i, k, l = missing[0]
        raise IngestError(f"{path}: missing pair ({dataset_ids[i]},"
                          f"{workflow_ids[k]},{workflow_ids[l]})")
    return dataset_ids, workflow_ids, wins


def check_bundle(data: MetaMiningData, where) -> MetaMiningData:
    """data itself if its tables pass validate_tables; otherwise an
    IngestError that names every issue."""
    report = validate_tables(data.x, data.a, data.performance, data.r)
    if not report.passed:
        raise IngestError(f"{where}: tables fail validation:\n{report}")
    return data


def read_bundle(directory, performance=False) -> MetaMiningData:
    """Read a bundle and check its tables, as ingest checked them. The
    performance matrix P is read only when asked for; without it, the
    bundle's P is None and performance.csv is not opened."""
    directory = Path(directory)
    if not (directory / "manifest.json").exists():
        raise IngestError(f"{directory}: not a bundle (missing manifest.json)")
    return check_bundle(MetaMiningData(
        x=read_descriptor_csv(directory / "X.csv"),
        a=read_descriptor_csv(directory / "A.csv"),
        performance=(read_performance_csv(directory / "performance.csv")
                     if performance else None),
        r=read_preference_csv(directory / "R.csv")), directory)


def write_bundle(directory, data: MetaMiningData, preference_source=None):
    """Write the four tables of a bundle. Given the source of R (ingest,
    after check_bundle), the manifest that makes the directory a bundle
    follows; without one (synth) the directory holds the tables only."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_descriptor_csv(directory / "X.csv", data.x)
    write_descriptor_csv(directory / "A.csv", data.a)
    write_performance_csv(directory / "performance.csv", data.performance)
    write_preference_csv(directory / "R.csv", data.r)
    if preference_source is not None:
        write_json(directory / "manifest.json", {
            "n_datasets": data.x.n_entities, "n_workflows": data.a.n_entities,
            "d": data.x.n_features, "l": data.a.n_features,
            "validated": True, "preference_source": preference_source})


def read_json(path):
    """A UTF-8 JSON file's document, a leading byte-order mark dropped."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return json.load(fh)
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None
    except ValueError as exc:   # JSONDecodeError, or an integer too long
        raise IngestError(f"{path}: not JSON ({exc})") from None


def write_json(path, doc):
    """Deterministic JSON: sorted keys, one-space indent, final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=1) + "\n")


def _record_to_dict(rec: StandardizationRecord):
    return {"mean": list(map(repr, rec.mean.tolist())),
            "scale": list(map(repr, rec.scale.tolist())),
            "constant_columns": rec.constant_columns}


def save_model(path, params: ModelParams, trace_summary=None):
    """Write the model as deterministic JSON (repr-exact floats)."""
    write_json(path, {
        "format_version": MODEL_FORMAT_VERSION,
        "objective": params.objective,
        "t": params.t,
        "u": _reprs(params.u),
        "v": _reprs(params.v),
        "hyper": vars(params.hyper),
        "x_standardization": _record_to_dict(params.x_standardization),
        "a_standardization": _record_to_dict(params.a_standardization),
        "x_feature_names": params.x_feature_names,
        "a_feature_names": params.a_feature_names,
        "trace_summary": trace_summary,
    })


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _number(key, value):
    """A finite float from a repr string (save_model's) or a JSON number."""
    try:
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise ValueError
        number = float(value)
    except ValueError:
        raise IngestError(f"{key} holds {value!r}, not a number") from None
    except OverflowError:   # a JSON integer beyond the largest float
        raise IngestError(f"{key} holds an integer too large for a float") from None
    if not np.isfinite(number):
        raise IngestError(f"{key} holds a non-finite value {value!r}")
    return number


def _numbers(key, rows):
    """rows, equal-length lists, as one float array: at once if all are
    strings, as save_model writes (numpy reads a str as float() does), else
    by _number one by one, which names the first fault in row order."""
    if all(type(v) is str for row in rows for v in row):
        with suppress(ValueError):
            values = np.array(rows, dtype=float)
            if np.isfinite(values).all():
                return values
    return np.array([[_number(key, v) for v in row] for row in rows])


def _vector(key, value):
    if not isinstance(value, list):
        raise IngestError(f"{key} is not a list")
    return _numbers(key, [value])[0]


def _matrix(key, rows):
    if not (isinstance(rows, list) and rows and all(
            isinstance(row, list) and len(row) == len(rows[0]) for row in rows)):
        raise IngestError(f"{key} is not a 2-d matrix "
                          "(a non-empty list of equal-length rows)")
    return _numbers(key, rows)


def _record(key, value):
    if not isinstance(value, dict):
        raise IngestError(f"{key} is not an object")
    missing = sorted({"mean", "scale", "constant_columns"} - set(value))
    if missing:
        raise IngestError(f"{key} lacks {missing}")
    mean = _vector(f"{key}.mean", value["mean"])
    scale = _vector(f"{key}.scale", value["scale"])
    if not (scale > 0).all():
        raise IngestError(f"{key}.scale holds a value <= 0")
    columns = value["constant_columns"]
    if not (isinstance(columns, list) and all(
            _is_int(c) and 0 <= c < mean.size for c in columns)):
        raise IngestError(f"{key}.constant_columns is not a list of "
                          "column indices")
    return StandardizationRecord(mean=mean, scale=scale,
                                 constant_columns=tuple(columns))


def _hyper(key, value):
    if not isinstance(value, dict):
        raise IngestError(f"{key} is not an object")
    defaults = vars(HyperParams())
    unknown = sorted(set(value) - set(defaults))
    if unknown:
        raise IngestError(f"{key} has unknown keys {unknown}")
    for name, given in value.items():
        default = defaults[name]
        if isinstance(default, Enum):
            ok = isinstance(given, str)     # HyperParams checks the value
        elif isinstance(default, float):
            ok = _is_int(given) or (isinstance(given, float) and np.isfinite(given))
            if _is_int(given):
                _number(f"{key}.{name}", given)     # it must fit in a float
        else:  # the int fields; t alone defaults to None
            ok = _is_int(given) or (default is None and given is None)
        if not ok:
            raise IngestError(f"{key}.{name} holds {given!r}")
    try:
        return HyperParams(**value)
    except ValueError as exc:
        raise IngestError(f"{key}: {exc}") from None


def _objective(key, value):
    known = [kind.value for kind in ObjectiveKind]
    if not (isinstance(value, str) and value in known):
        raise IngestError(f"unknown objective {value!r} (known: {', '.join(known)})")
    return value


def _positive_int(key, value):
    if not (_is_int(value) and value >= 1):
        raise IngestError(f"{key} is not a positive integer: {value!r}")
    return value


def _names(key, value):
    if value is None:
        return None
    if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
        raise IngestError(f"{key} is neither null nor a list of strings")
    return tuple(value)


# The model file: key -> (required, parse and check of its JSON value).
# Every check raises IngestError; keys outside the schema are ignored.
MODEL_SCHEMA = {
    "objective": (True, _objective),
    "t": (True, _positive_int),
    "u": (True, _matrix),
    "v": (True, _matrix),
    "hyper": (True, _hyper),
    "x_standardization": (True, _record),
    "a_standardization": (True, _record),
    "x_feature_names": (False, _names),
    "a_feature_names": (False, _names),
}


def load_model(path) -> ModelParams:
    """Read a model file, checking every field against MODEL_SCHEMA and
    U/V against the standardization records and feature names."""
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise IngestError(f"{path}: a model file holds a JSON object")
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise IngestError(f"{path}: unsupported model format version {version!r}")
    missing = sorted(k for k, (required, _) in MODEL_SCHEMA.items()
                     if required and k not in doc)
    if missing:
        raise IngestError(f"{path}: model file lacks {missing}")
    try:
        values = {key: check(key, doc.get(key))
                  for key, (_, check) in MODEL_SCHEMA.items()}
    except IngestError as exc:
        raise IngestError(f"{path}: {exc}") from None
    for name, side in (("u", "x"), ("v", "a")):
        rows = values[name].shape[0]
        record = values[f"{side}_standardization"]
        names = values[f"{side}_feature_names"]
        if record.mean.shape != (rows,) or record.scale.shape != (rows,):
            raise IngestError(f"{path}: {name} has {rows} rows but "
                              f"{side}_standardization has {record.mean.size} "
                              f"means and {record.scale.size} scales")
        if names is not None and len(names) != rows:
            raise IngestError(f"{path}: {name} has {rows} rows but "
                              f"{len(names)} {side}_feature_names")
        if values[name].shape[1] != values["t"]:
            raise IngestError(f"{path}: {name} has {values[name].shape[1]} "
                              f"columns but t is {values['t']}")
    return ModelParams(**values)
