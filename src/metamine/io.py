"""CSV ingestion/emission and model persistence.

File formats:
  descriptor table  - first column = entity id, remaining columns = named
                      numeric features; header row required, UTF-8,
                      '.' decimal separator
  performance       - long CSV: dataset_id, workflow_id, performance
  preference matrix - wide CSV: first column dataset_id, one column per
                      workflow id
  outcome cube      - one CSV per dataset (rows = instances, columns =
                      workflow ids, values 0/1)
  significance      - long CSV: dataset_id, workflow_k, workflow_l, outcome
                      with outcome in {k_wins, l_wins, tie}
  model             - versioned JSON container; floats are serialized via
                      repr so a round-trip reproduces predictions exactly
"""

from __future__ import annotations

import csv
import json
from dataclasses import fields
from pathlib import Path

import numpy as np

from .data_model import (DescriptorTable, HyperParams, ModelParams,
                         PerformanceMatrix, PreferenceMatrix,
                         StandardizationRecord, TableKind)
from .metric_learning import ObjectiveKind
from .preference import OutcomeCube, PairOutcome

MODEL_FORMAT_VERSION = 1


class IngestError(ValueError):
    """Raised on malformed input files (missing headers, bad values)."""


def _repr(value):
    """Shortest decimal string that parses back to the same float."""
    return repr(float(value))


def _read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise IngestError(f"{path}: empty file (header row required)")
    return rows


def _parse_float(token, path, where):
    try:
        return float(token)
    except ValueError:
        raise IngestError(f"{path}: {where}: not a number: {token!r}") from None


def read_descriptor_csv(path, kind: TableKind) -> DescriptorTable:
    rows = _read_rows(path)
    header = rows[0]
    if len(header) < 2:
        raise IngestError(f"{path}: header must name an id column and at least one feature")
    feature_names = tuple(header[1:])
    ids = []
    data = []
    for ln, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise IngestError(f"{path}: line {ln}: expected {len(header)} fields, got {len(row)}")
        ids.append(row[0])
        data.append([_parse_float(tok, path, f"line {ln}") for tok in row[1:]])
    return DescriptorTable(entity_ids=tuple(ids), features=np.array(data),
                           feature_names=feature_names, kind=kind)


def write_descriptor_csv(path, table: DescriptorTable):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["id", *table.feature_names])
        for eid, row in zip(table.entity_ids, table.features):
            w.writerow([eid, *(_repr(v) for v in row)])


def read_performance_csv(path) -> PerformanceMatrix:
    rows = _read_rows(path)
    if [h.strip() for h in rows[0][:3]] != ["dataset_id", "workflow_id", "performance"]:
        raise IngestError(f"{path}: header must be dataset_id,workflow_id,performance")
    cells = {}
    dataset_ids, workflow_ids = [], []
    for ln, row in enumerate(rows[1:], start=2):
        if len(row) != 3:
            raise IngestError(f"{path}: line {ln}: expected 3 fields")
        ds, wf, val = row
        if ds not in cells:
            cells[ds] = {}
            dataset_ids.append(ds)
        if wf not in workflow_ids:
            workflow_ids.append(wf)
        if wf in cells[ds]:
            raise IngestError(f"{path}: line {ln}: duplicate cell ({ds},{wf})")
        cells[ds][wf] = _parse_float(val, path, f"line {ln}")
    values = np.empty((len(dataset_ids), len(workflow_ids)))
    for i, ds in enumerate(dataset_ids):
        for j, wf in enumerate(workflow_ids):
            if wf not in cells[ds]:
                raise IngestError(f"{path}: missing performance for ({ds},{wf})")
            values[i, j] = cells[ds][wf]
    return PerformanceMatrix(dataset_ids=tuple(dataset_ids),
                             workflow_ids=tuple(workflow_ids), values=values)


def write_performance_csv(path, perf: PerformanceMatrix):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["dataset_id", "workflow_id", "performance"])
        for i, ds in enumerate(perf.dataset_ids):
            for j, wf in enumerate(perf.workflow_ids):
                w.writerow([ds, wf, _repr(perf.values[i, j])])


def read_preference_csv(path) -> PreferenceMatrix:
    rows = _read_rows(path)
    workflow_ids = tuple(rows[0][1:])
    if not workflow_ids:
        raise IngestError(f"{path}: header must name workflow columns")
    ids, data = [], []
    for ln, row in enumerate(rows[1:], start=2):
        if len(row) != len(rows[0]):
            raise IngestError(f"{path}: line {ln}: expected {len(rows[0])} fields")
        ids.append(row[0])
        data.append([_parse_float(tok, path, f"line {ln}") for tok in row[1:]])
    return PreferenceMatrix(dataset_ids=tuple(ids), workflow_ids=workflow_ids,
                            scores=np.array(data))


def write_preference_csv(path, r: PreferenceMatrix):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["dataset_id", *r.workflow_ids])
        for eid, row in zip(r.dataset_ids, r.scores):
            w.writerow([eid, *(_repr(v) for v in row)])


def read_outcome_dir(directory) -> OutcomeCube:
    """One CSV per dataset, named <dataset_id>.csv; all files must share
    the same workflow columns."""
    directory = Path(directory)
    files = sorted(directory.glob("*.csv"))
    if not files:
        raise IngestError(f"{directory}: no outcome CSVs found")
    dataset_ids, matrices = [], []
    workflow_ids = None
    for path in files:
        rows = _read_rows(path)
        cols = tuple(rows[0])
        if workflow_ids is None:
            workflow_ids = cols
        elif cols != workflow_ids:
            raise IngestError(f"{path}: workflow columns differ from {files[0]}")
        mat = []
        for ln, row in enumerate(rows[1:], start=2):
            if len(row) != len(cols):
                raise IngestError(f"{path}: line {ln}: expected {len(cols)} "
                                  f"fields, got {len(row)}")
            mat.append([_parse_float(tok, path, f"line {ln}") for tok in row])
        dataset_ids.append(path.stem)
        matrices.append(np.array(mat))
    return OutcomeCube(dataset_ids=tuple(dataset_ids),
                       workflow_ids=workflow_ids, matrices=tuple(matrices))


def write_outcome_dir(directory, cube: OutcomeCube):
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for eid, mat in zip(cube.dataset_ids, cube.matrices):
        with open(directory / f"{eid}.csv", "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(cube.workflow_ids)
            for row in mat:
                w.writerow([int(v) for v in row])


def read_significance_csv(path):
    """Long-format significance tensor. Returns (dataset_ids, workflow_ids,
    outcome tables) suitable for build_preference_from_significance."""
    rows = _read_rows(path)
    if [h.strip() for h in rows[0][:4]] != ["dataset_id", "workflow_k", "workflow_l", "outcome"]:
        raise IngestError(f"{path}: header must be dataset_id,workflow_k,workflow_l,outcome")
    dataset_ids, workflow_ids = [], []
    records = []
    for ln, row in enumerate(rows[1:], start=2):
        if len(row) != 4:
            raise IngestError(f"{path}: line {ln}: expected 4 fields")
        ds, wk, wl, outcome = row
        try:
            outcome = PairOutcome(outcome)
        except ValueError:
            raise IngestError(f"{path}: line {ln}: unknown outcome {outcome!r}") from None
        if wk == wl:
            raise IngestError(f"{path}: line {ln}: workflow {wk!r} compared "
                              "with itself")
        for wid in (wk, wl):
            if wid not in workflow_ids:
                workflow_ids.append(wid)
        if ds not in dataset_ids:
            dataset_ids.append(ds)
        records.append((ds, wk, wl, outcome))
    m = len(workflow_ids)
    index = {wid: j for j, wid in enumerate(workflow_ids)}
    tables = {ds: [[PairOutcome.TIE] * m for _ in range(m)] for ds in dataset_ids}
    seen = set()
    for ds, wk, wl, outcome in records:
        k, l = index[wk], index[wl]
        if k > l:
            k, l = l, k
            outcome = {PairOutcome.K_WINS: PairOutcome.L_WINS,
                       PairOutcome.L_WINS: PairOutcome.K_WINS,
                       PairOutcome.TIE: PairOutcome.TIE}[outcome]
        if (ds, k, l) in seen:
            raise IngestError(f"{path}: duplicate pair ({ds},{wk},{wl})")
        seen.add((ds, k, l))
        tables[ds][k][l] = outcome
    for ds in dataset_ids:
        for k in range(m):
            for l in range(k + 1, m):
                if (ds, k, l) not in seen:
                    raise IngestError(f"{path}: missing pair ({ds},"
                                      f"{workflow_ids[k]},{workflow_ids[l]})")
    return tuple(dataset_ids), tuple(workflow_ids), [tables[ds] for ds in dataset_ids]


def _record_to_dict(rec: StandardizationRecord):
    return {"mean": [_repr(v) for v in rec.mean],
            "scale": [_repr(v) for v in rec.scale],
            "constant_columns": list(rec.constant_columns)}


def _record_from_dict(d):
    return StandardizationRecord(
        mean=np.array([float(v) for v in d["mean"]]),
        scale=np.array([float(v) for v in d["scale"]]),
        constant_columns=tuple(d["constant_columns"]))


def save_model(path, params: ModelParams, trace_summary=None):
    """Write the model as deterministic JSON (repr-exact floats)."""
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "objective": params.objective,
        "t": params.t,
        "u": [[_repr(v) for v in row] for row in params.u],
        "v": [[_repr(v) for v in row] for row in params.v],
        "hyper": params.hyper.to_dict(),
        "x_standardization": _record_to_dict(params.x_standardization),
        "a_standardization": _record_to_dict(params.a_standardization),
        "x_feature_names": (None if params.x_feature_names is None
                            else list(params.x_feature_names)),
        "a_feature_names": (None if params.a_feature_names is None
                            else list(params.a_feature_names)),
        "trace_summary": trace_summary,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_model(path) -> ModelParams:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise IngestError(f"{path}: unsupported model format version {version!r}")
    objective = doc["objective"]
    if objective not in {kind.value for kind in ObjectiveKind}:
        raise IngestError(f"{path}: unknown objective {objective!r} "
                          "(known: f1, f2, f3, f4)")
    for name in ("u", "v"):
        rows = doc[name]
        if not (isinstance(rows, list) and rows and all(
                isinstance(row, list) and len(row) == len(rows[0]) for row in rows)):
            raise IngestError(f"{path}: {name} is not a 2-d matrix "
                              "(a non-empty list of equal-length rows)")
    hyper = doc["hyper"]
    if not isinstance(hyper, dict):
        raise IngestError(f"{path}: hyper is not an object")
    unknown = sorted(set(hyper) - {f.name for f in fields(HyperParams)})
    if unknown:
        raise IngestError(f"{path}: hyper has unknown keys {unknown}")
    params = ModelParams(
        u=np.array([[float(v) for v in row] for row in doc["u"]]),
        v=np.array([[float(v) for v in row] for row in doc["v"]]),
        t=int(doc["t"]),
        hyper=HyperParams.from_dict(hyper),
        x_standardization=_record_from_dict(doc["x_standardization"]),
        a_standardization=_record_from_dict(doc["a_standardization"]),
        objective=objective,
        x_feature_names=doc.get("x_feature_names"),
        a_feature_names=doc.get("a_feature_names"),
    )
    for name, side in (("u", "x"), ("v", "a")):
        rows = getattr(params, name).shape[0]
        record = getattr(params, f"{side}_standardization")
        names = getattr(params, f"{side}_feature_names")
        if record.mean.shape != (rows,) or record.scale.shape != (rows,):
            raise IngestError(f"{path}: {name} has {rows} rows but "
                              f"{side}_standardization has {record.mean.size} "
                              f"means and {record.scale.size} scales")
        if names is not None and len(names) != rows:
            raise IngestError(f"{path}: {name} has {rows} rows but "
                              f"{len(names)} {side}_feature_names")
    return params
