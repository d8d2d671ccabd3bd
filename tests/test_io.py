import codecs
import csv
import itertools
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, note, settings
from hypothesis import strategies as st

from metamine.cli import main
from metamine.data_model import (DescriptorTable, HyperParams, MetaMiningData,
                                 ModelParams, PerformanceMatrix,
                                 PreferenceMatrix, StandardizationRecord)
from metamine.io import (IngestError, load_model, read_bundle,
                         read_descriptor_csv, read_outcome_dir,
                         read_performance_csv, read_preference_csv,
                         read_significance_csv, save_model, write_bundle,
                         write_descriptor_csv, write_outcome_dir,
                         write_performance_csv, write_predictions_csv,
                         write_preference_csv)
from metamine.metric_learning import ObjectiveKind, train
from metamine.preference import OutcomeCube, build_preference_from_significance
from metamine.recommend import PreferencePrediction, Strategy, predict_pair
from metamine.synth import SynthConfig, SynthMode, generate

import metamine.io
from conftest import make_tables


class TestDescriptorCsv:
    def test_round_trip(self, tmp_path):
        x, _, _ = make_tables(seed=1)
        path = tmp_path / "x.csv"
        write_descriptor_csv(path, x)
        back = read_descriptor_csv(path)
        assert back.entity_ids == x.entity_ids
        assert back.feature_names == x.feature_names
        np.testing.assert_array_equal(back.features, x.features)

    def test_missing_feature_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id\nd0\n")
        with pytest.raises(IngestError, match="at least one feature"):
            read_descriptor_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,f1,f2\nd0,1.0\n")
        with pytest.raises(IngestError, match="line 2"):
            read_descriptor_csv(path)

    def test_non_numeric_value_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,f1\nd0,oops\n")
        with pytest.raises(IngestError, match="not a number"):
            read_descriptor_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(IngestError, match="empty"):
            read_descriptor_csv(path)


class TestPerformanceCsv:
    def test_round_trip(self, tmp_path):
        res = generate(SynthConfig(n=4, m=3, d=4, l=3, latent_t=2, seed=2))
        path = tmp_path / "perf.csv"
        write_performance_csv(path, res.performance)
        back = read_performance_csv(path)
        assert back.dataset_ids == res.performance.dataset_ids
        assert back.workflow_ids == res.performance.workflow_ids
        np.testing.assert_array_equal(back.values, res.performance.values)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "perf.csv"
        path.write_text("ds,wf,value\nd0,w0,0.5\n")
        with pytest.raises(IngestError, match="header"):
            read_performance_csv(path)

    def test_duplicate_cell_rejected(self, tmp_path):
        path = tmp_path / "perf.csv"
        path.write_text("dataset_id,workflow_id,performance\n"
                        "d0,w0,0.5\nd0,w0,0.6\n")
        with pytest.raises(IngestError, match="duplicate"):
            read_performance_csv(path)

    def test_missing_cell_rejected(self, tmp_path):
        path = tmp_path / "perf.csv"
        path.write_text("dataset_id,workflow_id,performance\n"
                        "d0,w0,0.5\nd0,w1,0.6\nd1,w0,0.7\n")
        with pytest.raises(IngestError, match="missing performance"):
            read_performance_csv(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "perf.csv"
        path.write_text("dataset_id,workflow_id,performance\n")
        with pytest.raises(IngestError) as err:
            read_performance_csv(path)
        assert str(err.value) == f"{path}: no data rows under the header"


class TestPreferenceCsv:
    def test_round_trip(self, tmp_path):
        res = generate(SynthConfig(n=4, m=3, d=4, l=3, latent_t=2, seed=3))
        path = tmp_path / "r.csv"
        write_preference_csv(path, res.preferences)
        back = read_preference_csv(path)
        assert back.dataset_ids == res.preferences.dataset_ids
        assert back.workflow_ids == res.preferences.workflow_ids
        np.testing.assert_array_equal(back.scores, res.preferences.scores)
        assert back.invariant_violations() == []

    def test_no_workflow_columns_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("dataset_id\nd0\n")
        with pytest.raises(IngestError, match="workflow columns"):
            read_preference_csv(path)


class TestOutcomeDir:
    def test_round_trip_preserves_preferences(self, tmp_path):
        res = generate(SynthConfig(n=4, m=4, d=4, l=3, latent_t=2, seed=4,
                                   mode=SynthMode.OUTCOME_LEVEL,
                                   instances_per_dataset=30))
        write_outcome_dir(tmp_path / "cube", res.cube)
        back = read_outcome_dir(tmp_path / "cube")
        assert set(back.dataset_ids) == set(res.cube.dataset_ids)
        order = [back.dataset_ids.index(ds) for ds in res.cube.dataset_ids]
        for i, j in enumerate(order):
            np.testing.assert_array_equal(back.matrices[j], res.cube.matrices[i])

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(IngestError, match="no outcome"):
            read_outcome_dir(tmp_path)

    def test_mismatched_columns_rejected(self, tmp_path):
        (tmp_path / "d0.csv").write_text("w0,w1\n1,0\n")
        (tmp_path / "d1.csv").write_text("w0,w2\n1,0\n")
        with pytest.raises(IngestError, match="columns differ"):
            read_outcome_dir(tmp_path)

    def test_short_row_rejected_with_file_and_line(self, tmp_path):
        (tmp_path / "d0.csv").write_text("w0,w1,w2\n1,0,1\n1,0\n")
        with pytest.raises(IngestError, match=r"d0\.csv: line 3: expected 3 fields, got 2"):
            read_outcome_dir(tmp_path)


class TestTextDecoding:
    """Every CSV reader drops a leading UTF-8 byte-order mark, and a file
    that is not UTF-8 is exit 1 with its name."""

    @pytest.fixture
    def raw(self, tmp_path):
        raw = tmp_path / "raw"
        assert main(["synth", "--n", "5", "--m", "4", "--d", "3", "--l", "3",
                     "--latent-t", "3", "--seed", "3", "--mode", "outcome",
                     "--instances", "20", "--out", str(raw)]) == 0
        return raw

    def ingest(self, raw, out, **sources):
        argv = ["ingest", "--x", str(raw / "X.csv"), "--a", str(raw / "A.csv"),
                "--performance", str(raw / "performance.csv"), "--out", str(out)]
        for flag, path in sources.items():
            argv += [f"--{flag.replace('_', '-')}", str(path)]
        return main(argv)

    def test_bom_performance_csv_ingests(self, raw, tmp_path):
        path = raw / "performance.csv"
        plain = read_performance_csv(path)
        path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        back = read_performance_csv(path)
        assert (back.dataset_ids, back.workflow_ids) == (plain.dataset_ids,
                                                         plain.workflow_ids)
        np.testing.assert_array_equal(back.values, plain.values)
        assert self.ingest(raw, tmp_path / "bundle",
                           preferences=raw / "R.csv") == 0

    def test_bom_outcome_csv_keeps_its_workflow_ids(self, raw, tmp_path):
        outcomes = raw / "outcomes"
        plain = read_outcome_dir(outcomes)
        first = sorted(outcomes.glob("*.csv"))[0]
        first.write_bytes(codecs.BOM_UTF8 + first.read_bytes())
        assert metamine.io._binary_cells(first) is None    # read through csv
        back = read_outcome_dir(outcomes)
        assert back.workflow_ids == plain.workflow_ids
        for got, want in zip(back.matrices, plain.matrices):
            np.testing.assert_array_equal(got, want)
        assert self.ingest(raw, tmp_path / "bundle", outcomes_dir=outcomes) == 0

    def test_invalid_utf8_names_the_file(self, raw, tmp_path, capsys):
        outcomes = raw / "outcomes"
        bad = sorted(outcomes.glob("*.csv"))[2]
        data = bad.read_bytes()
        bad.write_bytes(data[:40] + b"\xff" + data[41:])
        message = f"{bad}: not UTF-8 text (byte 0xff: invalid start byte)"
        with pytest.raises(IngestError) as caught:
            read_outcome_dir(outcomes)
        assert str(caught.value) == message
        assert self.ingest(raw, tmp_path / "bundle", outcomes_dir=outcomes) == 1
        assert capsys.readouterr().err.strip() == f"error: {message}"

    @pytest.mark.parametrize("command", ["ingest", "train"])
    def test_over_long_field_names_the_file_and_line(self, raw, tmp_path,
                                                      capsys, command):
        """A field longer than csv's limit is bad input (exit 1) that names
        the file and its line, in a raw table and in a bundle's."""
        bundle = tmp_path / "b"
        if command == "train":
            assert self.ingest(raw, bundle, preferences=raw / "R.csv") == 0
        x = (bundle if command == "train" else raw) / "X.csv"
        lines = x.read_text(encoding="utf-8").splitlines(keepends=True)
        long_id = "d" * (csv.field_size_limit() + 10_000)
        x.write_text("".join([lines[0], long_id + lines[1][lines[1].index(","):],
                              *lines[2:]]), encoding="utf-8", newline="")
        capsys.readouterr()
        code = (main(["train", "--bundle", str(bundle), "--objective", "f3",
                      "--out", str(tmp_path / "m.json")]) if command == "train"
                else self.ingest(raw, bundle, preferences=raw / "R.csv"))
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {x}: line 2: field larger than field limit "
            f"({csv.field_size_limit()})\n")


class TestSignificanceCsv:
    def test_builds_valid_preference_matrix(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text(
            "dataset_id,workflow_k,workflow_l,outcome\n"
            "d0,w0,w1,k_wins\n"
            "d0,w0,w2,tie\n"
            "d0,w1,w2,l_wins\n"
            "d1,w0,w1,tie\n"
            "d1,w0,w2,tie\n"
            "d1,w1,w2,tie\n")
        ds, wf, tables = read_significance_csv(path)
        r = build_preference_from_significance(ds, wf, tables)
        # d0: w0 beats w1, ties w2; w2 beats w1
        np.testing.assert_array_equal(r.scores[0], [1.5, 0.0, 1.5])
        np.testing.assert_array_equal(r.scores[1], [1.0, 1.0, 1.0])

    def test_reversed_pair_order_normalized(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text(
            "dataset_id,workflow_k,workflow_l,outcome\n"
            "d0,w1,w0,l_wins\n")  # w0 wins, stated with swapped columns
        ds, wf, tables = read_significance_csv(path)
        r = build_preference_from_significance(ds, wf, tables)
        i0 = wf.index("w0")
        assert r.scores[0][i0] == 1.0

    def test_unknown_outcome_rejected(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("dataset_id,workflow_k,workflow_l,outcome\n"
                        "d0,w0,w1,draw\n")
        with pytest.raises(IngestError, match="unknown outcome"):
            read_significance_csv(path)

    def test_duplicate_pair_rejected(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("dataset_id,workflow_k,workflow_l,outcome\n"
                        "d0,w0,w1,tie\nd0,w1,w0,tie\n")
        with pytest.raises(IngestError, match="duplicate pair"):
            read_significance_csv(path)

    def test_self_comparison_rejected(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("dataset_id,workflow_k,workflow_l,outcome\n"
                        "d0,w0,w1,tie\nd0,w0,w2,tie\nd0,w1,w2,tie\n"
                        "d0,w0,w0,k_wins\n")
        with pytest.raises(IngestError, match="line 5: workflow 'w0' compared with itself"):
            read_significance_csv(path)

    def test_missing_pair_rejected(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("dataset_id,workflow_k,workflow_l,outcome\n"
                        "d0,w0,w1,tie\nd0,w1,w2,tie\n")
        with pytest.raises(IngestError, match="missing pair"):
            read_significance_csv(path)


class TestModelPersistence:
    def make_model(self, seed=5):
        from metamine.data_model import HyperParams
        x, a, _ = make_tables(n=5, m=4, seed=seed)
        res = generate(SynthConfig(n=5, m=4, d=5, l=4, latent_t=2, seed=seed))
        hyper = HyperParams(max_iters=30, t=2, seed=seed)
        params, _ = train(ObjectiveKind.F4, res.x, res.a, res.preferences, hyper)
        return params, res

    def test_round_trip_exact_arrays(self, tmp_path):
        params, _ = self.make_model()
        path = tmp_path / "model.json"
        save_model(path, params)
        back = load_model(path)
        np.testing.assert_array_equal(back.u, params.u)
        np.testing.assert_array_equal(back.v, params.v)
        np.testing.assert_array_equal(back.x_standardization.mean,
                                      params.x_standardization.mean)
        np.testing.assert_array_equal(back.a_standardization.scale,
                                      params.a_standardization.scale)
        assert back.objective == params.objective
        assert back.t == params.t
        assert back.hyper == params.hyper

    def test_round_trip_exact_predictions(self, tmp_path):
        params, res = self.make_model(seed=6)
        path = tmp_path / "model.json"
        save_model(path, params)
        back = load_model(path)
        for i in range(res.x.n_entities):
            for j in range(res.a.n_entities):
                qx = params.x_standardization.apply(res.x.features[i])
                qa = params.a_standardization.apply(res.a.features[j])
                bx = back.x_standardization.apply(res.x.features[i])
                ba = back.a_standardization.apply(res.a.features[j])
                assert predict_pair(bx, ba, back) == predict_pair(qx, qa, params)

    def test_save_twice_byte_identical(self, tmp_path):
        params, _ = self.make_model(seed=7)
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        save_model(p1, params)
        save_model(p2, params)
        assert p1.read_bytes() == p2.read_bytes()

    def test_unsupported_version_rejected(self, tmp_path):
        params, _ = self.make_model(seed=8)
        path = tmp_path / "model.json"
        save_model(path, params)
        doc = path.read_text().replace('"format_version": 1',
                                       '"format_version": 99')
        path.write_text(doc)
        with pytest.raises(IngestError, match="format version"):
            load_model(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.update(objective="f5"), "unknown objective 'f5'"),
        (lambda doc: doc["u"].pop(), "u has 4 rows but x_standardization has 5 means"),
        (lambda doc: doc["a_standardization"]["scale"].pop(),
         "v has 4 rows but a_standardization has 4 means and 3 scales"),
        (lambda doc: doc["x_feature_names"].pop(), "u has 5 rows but 4 x_feature_names"),
        (lambda doc: doc["a_feature_names"].append("extra"),
         "v has 4 rows but 5 a_feature_names"),
        (lambda doc: doc.update(u=[]), "u is not a 2-d matrix"),
        (lambda doc: doc.update(v=[0.5, 1.5]), "v is not a 2-d matrix"),
        (lambda doc: doc["v"][0].pop(), "v is not a 2-d matrix"),
        (lambda doc: doc.update(hyper=[0.5]), "hyper is not an object"),
        (lambda doc: doc["hyper"].update(bogus=1),
         r"hyper has unknown keys \['bogus'\]"),
        (lambda doc: doc["hyper"].update(mu1="abc"), "hyper.mu1 holds 'abc'"),
        (lambda doc: doc["x_standardization"].update(mean=["inf"] * 5),
         "x_standardization.mean holds a non-finite value 'inf'"),
        (lambda doc: doc["a_standardization"].update(scale=["-1.0"] * 4),
         r"a_standardization.scale holds a value <= 0"),
        (lambda doc: doc["a_standardization"].update(constant_columns=[9]),
         "a_standardization.constant_columns is not a list of column indices"),
        (lambda doc: doc.update(a_feature_names=[1, 2, 3, 4]),
         "a_feature_names is neither null nor a list of strings"),
        (lambda doc: doc.update(t=0), "t is not a positive integer: 0"),
        (lambda doc: doc.update(t=3), "u has 2 columns but t is 3"),
    ])
    def test_inconsistent_model_rejected(self, tmp_path, edit, message):
        params, _ = self.make_model(seed=9)
        path = tmp_path / "model.json"
        save_model(path, params)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(IngestError, match=message):
            load_model(path)

    @pytest.mark.parametrize("first, second, message", [
        ("nan", "abc", "u holds a non-finite value 'nan'"),
        ("abc", "nan", "u holds 'abc', not a number"),
        (True, "0.25", "u holds True, not a number"),
        ("0.25", False, "u holds False, not a number"),
        ("1e400", None, "u holds a non-finite value '1e400'"),
        (None, "-inf", "u holds None, not a number"),
        ([0.5], "abc", r"u holds \[0.5\], not a number"),
    ])
    def test_first_fault_in_row_order_named(self, tmp_path, first, second,
                                            message):
        # u is read in one pass; a fault is named as the value-by-value
        # reading names it, the first in row order
        params, _ = self.make_model(seed=9)
        path = tmp_path / "model.json"
        save_model(path, params)
        doc = json.loads(path.read_text())
        doc["u"][1][1], doc["u"][3][0] = first, second
        path.write_text(json.dumps(doc))
        with pytest.raises(IngestError, match=f"^{re.escape(str(path))}: {message}$"):
            load_model(path)

    @pytest.mark.parametrize("key, edit", [
        ("u", lambda doc: doc["u"][1].__setitem__(0, 10 ** 400)),
        ("x_standardization.mean",
         lambda doc: doc["x_standardization"]["mean"].__setitem__(2, -10 ** 400)),
        ("hyper.mu1", lambda doc: doc["hyper"].update(mu1=10 ** 400)),
    ])
    def test_integer_too_large_for_a_float_rejected(self, tmp_path, key, edit):
        # a JSON integer beyond the largest float: float() raises
        # OverflowError on it, and HyperParams compares it with inf exactly
        params, _ = self.make_model(seed=9)
        path = tmp_path / "model.json"
        save_model(path, params)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(IngestError, match=f"^{re.escape(str(path))}: {key} "
                           "holds an integer too large for a float$"):
            load_model(path)

    def test_json_numbers_read_as_their_values(self, tmp_path):
        # a hand-written model may hold JSON numbers beside repr strings
        params, _ = self.make_model(seed=9)
        path = tmp_path / "model.json"
        save_model(path, params)
        doc = json.loads(path.read_text())
        doc["u"][2] = [float(text) for text in doc["u"][2]]
        doc["x_standardization"]["mean"][0] = 0
        path.write_text(json.dumps(doc))
        back = load_model(path)
        np.testing.assert_array_equal(back.u, params.u, strict=True)
        assert back.x_standardization.mean[0] == 0.0


# Any text a UTF-8 CSV can hold: no surrogates, no NUL.
csv_text = st.text(st.characters(blacklist_categories=("Cs",),
                                 blacklist_characters="\x00"), max_size=6)
finite = st.floats(allow_nan=False, allow_infinity=False)  # subnormals, ±1e308


@st.composite
def tables(draw):
    """Unique row and column ids, and a matrix of finite floats."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    rows = draw(st.lists(csv_text, min_size=n, max_size=n, unique=True))
    cols = draw(st.lists(csv_text, min_size=m, max_size=m, unique=True))
    values = draw(st.lists(finite, min_size=n * m, max_size=n * m))
    return tuple(rows), tuple(cols), np.array(values).reshape(n, m)


class TestCsvRoundTripProperty:
    """The writers use repr, so every table reads back bit for bit."""

    hypothesis_settings = settings(
        deadline=None, max_examples=100,
        suppress_health_check=[HealthCheck.function_scoped_fixture])

    @hypothesis_settings
    @given(tables())
    def test_descriptor_table(self, tmp_path, table):
        ids, features, values = table
        path = tmp_path / "x.csv"
        write_descriptor_csv(path, DescriptorTable(ids, values, features))
        back = read_descriptor_csv(path)
        assert (back.entity_ids, back.feature_names) == (ids, features)
        assert back.features.tobytes() == values.tobytes()

    @hypothesis_settings
    @given(tables())
    def test_performance_matrix(self, tmp_path, table):
        datasets, workflows, values = table
        path = tmp_path / "perf.csv"
        write_performance_csv(path, PerformanceMatrix(datasets, workflows, values))
        back = read_performance_csv(path)
        assert (back.dataset_ids, back.workflow_ids) == (datasets, workflows)
        assert back.values.tobytes() == values.tobytes()

    @hypothesis_settings
    @given(tables())
    def test_preference_matrix(self, tmp_path, table):
        datasets, workflows, scores = table
        path = tmp_path / "R.csv"
        write_preference_csv(path, PreferenceMatrix(datasets, workflows, scores))
        back = read_preference_csv(path)
        assert (back.dataset_ids, back.workflow_ids) == (datasets, workflows)
        assert back.scores.tobytes() == scores.tobytes()


# The per-token readers the bulk parse replaced, kept as the reference:
# every token through float(), every check in line order.
def _reference_float(token, path, ln):
    try:
        return float(token)
    except ValueError:
        raise IngestError(f"{path}: line {ln}: not a number: {token!r}") from None


def _reference_rows(path, rows, skip):
    data = []
    for ln, row in enumerate(rows[1:], start=2):
        if len(row) != len(rows[0]):
            raise IngestError(f"{path}: line {ln}: expected {len(rows[0])} "
                              f"fields, got {len(row)}")
        data.append([_reference_float(tok, path, ln) for tok in row[skip:]])
    return np.array(data)


def reference_wide(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    values = _reference_rows(path, rows, 1)
    return tuple(row[0] for row in rows[1:]), values


def reference_performance(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    cells, workflows = {}, {}
    for ln, row in enumerate(rows[1:], start=2):
        if len(row) != 3:
            raise IngestError(f"{path}: line {ln}: expected 3 fields")
        ds, wf, val = row
        ds_cells = cells.setdefault(ds, {})
        workflows.setdefault(wf)
        if wf in ds_cells:
            raise IngestError(f"{path}: line {ln}: duplicate cell ({ds},{wf})")
        ds_cells[wf] = _reference_float(val, path, ln)
    values = np.empty((len(cells), len(workflows)))
    for i, ds in enumerate(cells):
        for j, wf in enumerate(workflows):
            if wf not in cells[ds]:
                raise IngestError(f"{path}: missing performance for ({ds},{wf})")
            values[i, j] = cells[ds][wf]
    return (tuple(cells), tuple(workflows)), values


def reference_outcomes(directory):
    ids, matrices = [], []
    for path in sorted(Path(directory).glob("*.csv")):
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        ids.append(path.stem)
        matrices.append(_reference_rows(path, rows, 0))
    return tuple(ids), np.stack(matrices)


SPELLINGS = ("nan", "-nan", "NaN", "inf", "-inf", "inF", "+Infinity")
BAD_TOKENS = ("", "abc", "0x10", "1__0", "_1", "1_", "1,5", "--1", "1e", "nan1")


@st.composite
def number_token(draw, values=st.floats(), spellings=SPELLINGS):
    """A token float() accepts: repr, %.17g or %e of a float, maybe with an
    underscore between two digits, or a nan/inf spelling; maybe padded."""
    form = draw(st.sampled_from(("repr", "%.17g", "%e", "spelling")))
    if form == "spelling" and spellings:
        token = draw(st.sampled_from(spellings))
    else:
        value = draw(values)
        token = repr(value) if form in ("repr", "spelling") else form % value
        spots = [i for i in range(1, len(token))
                 if token[i - 1].isdigit() and token[i].isdigit()]
        if spots and draw(st.booleans()):
            i = draw(st.sampled_from(spots))
            token = f"{token[:i]}_{token[i:]}"
    return (draw(st.sampled_from(("", " ", "\t")))
            + token + draw(st.sampled_from(("", " ", "\t", "\n"))))


@st.composite
def faults(draw, rows, value_columns, kinds=("bad token", "short row",
                                               "long row")):
    """rows (a header, then at least one data row) with zero, one or two
    faults; value_columns are the columns that hold numbers."""
    rows = [list(row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(kinds))
        i = draw(st.integers(1, len(rows) - 1))
        if kind == "bad token":
            columns = [c for c in value_columns if c < len(rows[i])]
            if columns:
                rows[i][draw(st.sampled_from(columns))] = draw(
                    st.sampled_from(BAD_TOKENS))
        elif kind == "short row":
            del rows[i][-1:]
        elif kind == "long row":
            rows[i].append("0")
        elif kind == "duplicate cell":
            j = draw(st.integers(i + 1, len(rows)))
            rows.insert(j, rows[i][:2] + [draw(st.one_of(
                number_token(), st.sampled_from(BAD_TOKENS)))])
        elif len(rows) > 2:  # a dropped cell
            del rows[i]
        note(f"{kind} at line {i + 1}")
    return rows


def _write_rows(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def _result(call):
    try:
        return call(), None
    except IngestError as exc:
        return None, str(exc)


def _assert_same_reading(read, reference):
    """Both raise the same IngestError text, or both give the same ids and
    the same array bit for bit."""
    (got, got_error), (want, want_error) = _result(read), _result(reference)
    assert got_error == want_error
    if want_error is None:
        got_ids, got_values = got
        want_ids, want_values = want
        assert got_ids == want_ids
        assert got_values.shape == want_values.shape
        assert (got_values.view(np.int64) == want_values.view(np.int64)).all()


class TestBulkParseOracle:
    """The readers convert a table's tokens in one numpy call; the per-token
    loops they replaced are the oracle, for values and for error texts."""

    hypothesis_settings = settings(
        deadline=None, max_examples=300,
        suppress_health_check=[HealthCheck.function_scoped_fixture])

    @hypothesis_settings
    @given(data=st.data())
    def test_wide_tables(self, tmp_path, data):
        n, k = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 5))
        rows = [["id", *(f"f{j}" for j in range(k))]]
        rows += [[f"e{i}", *data.draw(st.lists(number_token(), min_size=k,
                                               max_size=k))] for i in range(n)]
        rows = data.draw(faults(rows, range(1, k + 1)))
        path = tmp_path / "wide.csv"
        _write_rows(path, rows)
        if data.draw(st.booleans()):
            def read():
                table = read_descriptor_csv(path)
                return table.entity_ids, table.features
        else:
            def read():
                r = read_preference_csv(path)
                return r.dataset_ids, r.scores
        _assert_same_reading(read, lambda: reference_wide(path))

    @hypothesis_settings
    @given(data=st.data())
    def test_performance_tables(self, tmp_path, data):
        n, m = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        cells = data.draw(st.permutations([(i, j) for i in range(n)
                                           for j in range(m)]))
        rows = [["dataset_id", "workflow_id", "performance"]]
        rows += [[f"d{i}", f"w{j}", data.draw(number_token())]
                 for i, j in cells]
        rows = data.draw(faults(rows, [2], ("bad token", "short row",
                                            "long row", "duplicate cell",
                                            "dropped cell")))
        path = tmp_path / "performance.csv"
        _write_rows(path, rows)

        def read():
            p = read_performance_csv(path)
            return (p.dataset_ids, p.workflow_ids), p.values
        _assert_same_reading(read, lambda: reference_performance(path))

    @hypothesis_settings
    @given(data=st.data())
    def test_outcome_tables(self, data):
        m, instances = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 5))
        bits = number_token(st.sampled_from((0.0, 1.0, -0.0)), spellings=())
        with tempfile.TemporaryDirectory() as tmp:
            for name in ("d0", "d1"):
                rows = [[f"w{j}" for j in range(m)]]
                rows += [data.draw(st.lists(bits, min_size=m, max_size=m))
                         for _ in range(instances)]
                _write_rows(Path(tmp) / f"{name}.csv",
                            data.draw(faults(rows, range(m))))

            def read():
                cube = read_outcome_dir(tmp)
                return cube.dataset_ids, np.stack(cube.matrices)
            _assert_same_reading(read, lambda: reference_outcomes(tmp))


class TestOutcomeCells:
    """Every cell of an outcome CSV is 0 or 1; a file with several faults
    reports the first in line order, whatever its kind."""

    @staticmethod
    def read(tmp_path, lines):
        path = tmp_path / "d0.csv"
        path.write_text("w0,w1\n" + "".join(f"{line}\n" for line in lines))
        with pytest.raises(IngestError) as raised:
            read_outcome_dir(tmp_path)
        return str(raised.value), path

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e308", "2",
                                       "-1", "0.5"])
    def test_cell_that_is_not_0_or_1_is_named(self, tmp_path, token):
        message, path = self.read(tmp_path, ["0,1", "1,1", f"1,{token}"])
        assert message == f"{path}: line 4: not 0 or 1: {token!r}"

    @pytest.mark.parametrize("lines, fault", [
        (["0,2", "abc,1"], "line 2: not 0 or 1: '2'"),
        (["abc,1", "0,2"], "line 2: not a number: 'abc'"),
        (["2,abc", "0,1"], "line 2: not 0 or 1: '2'"),
        (["0,1", "0,2", "1"], "line 3: not 0 or 1: '2'"),
        (["0,1", "1", "0,2"], "line 3: expected 2 fields, got 1"),
    ])
    def test_first_fault_in_line_order(self, tmp_path, lines, fault):
        message, path = self.read(tmp_path, lines)
        assert message == f"{path}: {fault}"

    def test_spellings_of_0_and_1_are_read(self, tmp_path):
        (tmp_path / "d0.csv").write_text("w0,w1\n0.0,1e0\n-0,1.000\n")
        cube = read_outcome_dir(tmp_path)
        assert cube.matrices[0].tolist() == [[0.0, 1.0], [0.0, 1.0]]


# Ways an outcome CSV can leave the form write_outcome_dir writes (a
# header, then rows of 0/1 bytes joined by commas, every line ending as
# the header's does); each sends the file from the byte-level path to csv.
REFUSALS = ("token", "short row", "long row", "blank line", "trailing comma",
            "no final newline", "cr only", "mixed endings", "stray cr",
            "quoted header", "bom", "header only", "empty", "invalid utf-8")
REFUSED_TOKENS = ("2", "9", "a", "-", " ", "", "1.0", "0.0", " 1", "1 ", "-0",
                  "+1", "1e0", "00", "nan", "abc")


@st.composite
def outcome_csv(draw, m, instances, eol, fault, header):
    """The bytes of an outcome CSV: the header's m ids, then instances rows
    of 0/1 cells, every line ending in eol; with a fault from REFUSALS,
    left out of that form in that way."""
    lines = [list(header)] + [
        draw(st.lists(st.sampled_from("01"), min_size=m, max_size=m))
        for _ in range(instances)]
    ends = [eol] * len(lines)
    i = draw(st.integers(1, instances))     # the data line a fault goes to
    if fault == "token":
        lines[i][draw(st.integers(0, m - 1))] = draw(
            st.sampled_from(REFUSED_TOKENS))
    elif fault == "short row":
        del lines[i][-1]
    elif fault in ("long row", "trailing comma"):
        lines[i].append(draw(st.sampled_from("01")) if fault == "long row"
                        else "")
    elif fault == "blank line":
        lines.insert(i, [])
        ends.append(eol)
    elif fault == "cr only":
        ends = ["\r"] * len(lines)
    elif fault == "mixed endings":    # "\n\n" is an ending and a blank line
        ends[i] = draw(st.sampled_from(
            [end for end in ("\n", "\r\n", "\r", "\n\n") if end != eol]))
    elif fault == "stray cr":          # before eol: one more line to csv
        ends[draw(st.sampled_from((0, i)))] = "\r" + eol
    elif fault == "quoted header":
        j = draw(st.integers(0, m - 1))
        lines[0][j] = f'"{lines[0][j]}"'
    if fault == "header only":
        lines, ends = lines[:1], ends[:1]
    text = "".join(",".join(line) + end for line, end in zip(lines, ends))
    data = text.removesuffix(eol if fault == "no final newline" else "").encode()
    if fault == "bom":
        data = codecs.BOM_UTF8 + data
    elif fault == "empty":
        data = b""
    elif fault == "invalid utf-8":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


def reference_outcome_dir(directory):
    """read_outcome_dir by its rules alone: every file through csv, then
    each check in line order and token by token; the values are those of
    reference_outcomes."""
    files = sorted(Path(directory).glob("*.csv"))
    header = None
    for path in files:
        try:
            with open(path, newline="", encoding="utf-8-sig") as fh:
                rows = list(csv.reader(fh))
        except UnicodeDecodeError as exc:
            raise IngestError(f"{path}: not UTF-8 text (byte 0x"
                              f"{exc.object[exc.start]:02x}: {exc.reason})") from None
        if not rows:
            raise IngestError(f"{path}: empty file (header row required)")
        if header is None:
            header = rows[0]
        elif rows[0] != header:
            raise IngestError(f"{path}: workflow columns differ from {files[0]}")
        if len(rows) < 2:
            raise IngestError(f"{path}: no data rows under the header")
        for ln, row in enumerate(rows[1:], start=2):
            if len(row) != len(header):
                raise IngestError(f"{path}: line {ln}: expected {len(header)} "
                                  f"fields, got {len(row)}")
            for token in row:
                if _reference_float(token, path, ln) not in (0.0, 1.0):
                    raise IngestError(f"{path}: line {ln}: not 0 or 1: "
                                      f"{token!r}")
    return reference_outcomes(directory)


def _outcome(call):
    """call's result, or the type and text of what it raised."""
    try:
        return call(), None
    except Exception as exc:
        return None, (type(exc), str(exc))


class TestOutcomeBytePath:
    """read_outcome_dir reads a file in the form write_outcome_dir writes
    (CR LF line endings, or LF) in one byte-level pass, and every other file
    through csv; either way it reads what the per-token reference reads,
    bit for bit, or raises what it raises."""

    @settings(deadline=None, max_examples=300)
    @given(data=st.data())
    def test_read_equals_reference(self, data):
        m, instances = data.draw(st.integers(1, 5)), data.draw(
            st.sampled_from((1, 2, 3, 7, 40)))
        eol = data.draw(st.sampled_from(("\n", "\r\n")))
        header = [f"w{j}" for j in range(m)]
        with tempfile.TemporaryDirectory() as tmp:
            for name in ("d0", "d1"):
                fault = data.draw(st.one_of(st.none(), st.sampled_from(REFUSALS)))
                if name == "d1" and data.draw(st.booleans()):
                    header[-1] = "v"      # the columns differ from d0's
                path = Path(tmp) / f"{name}.csv"
                path.write_bytes(data.draw(outcome_csv(m, instances, eol,
                                                       fault, header)))
                note(f"{name}: {fault}: {path.read_bytes()!r}")
                assert (metamine.io._binary_cells(path) is None) == (
                    fault is not None)

            def read():
                cube = read_outcome_dir(tmp)
                return cube.dataset_ids, np.stack(cube.matrices)
            (got, got_error), (want, want_error) = (
                _outcome(read), _outcome(lambda: reference_outcome_dir(tmp)))
            assert got_error == want_error
            if want_error is None:
                assert got[0] == want[0]
                assert got[1].dtype == want[1].dtype
                assert got[1].shape == want[1].shape
                assert (got[1].view(np.int64) == want[1].view(np.int64)).all()

    def test_written_files_never_reach_csv(self, tmp_path, monkeypatch):
        """A directory written by write_outcome_dir (CR LF), and a copy of it
        with LF line endings, are read without _read_rows."""
        res = generate(SynthConfig(n=4, m=6, d=4, l=3, latent_t=2, seed=8,
                                   mode=SynthMode.OUTCOME_LEVEL,
                                   instances_per_dataset=40))
        crlf, lf = tmp_path / "crlf", tmp_path / "lf"
        write_outcome_dir(crlf, res.cube)
        lf.mkdir()
        for path in crlf.glob("*.csv"):
            assert path.read_bytes().count(b"\r\n") == 41
            (lf / path.name).write_bytes(path.read_bytes().replace(b"\r\n", b"\n"))

        def no_csv(path):
            raise AssertionError(f"{path} was read through csv")
        monkeypatch.setattr(metamine.io, "_read_rows", no_csv)
        for directory in (crlf, lf):
            cube = read_outcome_dir(directory)
            assert cube.workflow_ids == res.cube.workflow_ids
            got = dict(zip(cube.dataset_ids, cube.matrices))
            for ds, want in zip(res.cube.dataset_ids, res.cube.matrices):
                assert got[ds].dtype == want.dtype and got[ds].shape == want.shape
                assert got[ds].tobytes() == want.tobytes()

    def test_refused_file_reaches_csv(self, tmp_path, monkeypatch):
        (tmp_path / "d0.csv").write_bytes(b"w0,w1\r\n0,1\r\n")
        (tmp_path / "d1.csv").write_bytes(b"w0,w1\r\n1.0,0\r\n")
        read, read_rows = [], metamine.io._read_rows

        def spy(path):
            read.append(path.name)
            return read_rows(path)
        monkeypatch.setattr(metamine.io, "_read_rows", spy)
        cube = read_outcome_dir(tmp_path)
        assert read == ["d1.csv"]
        assert [mat.tolist() for mat in cube.matrices] == [[[0.0, 1.0]],
                                                           [[1.0, 0.0]]]


def csv_rows_or_error(path):
    """What _read_rows gives when csv.reader reads every file: csv's rows,
    or the message of the IngestError for a file csv refuses or that holds
    no row."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            rows = list(reader)
        except csv.Error as exc:
            return f"{path}: line {reader.line_num}: {exc}"
    return rows or f"{path}: empty file (header row required)"


def read_rows_or_error(path):
    try:
        return metamine.io._read_rows(path)
    except IngestError as exc:
        return str(exc)


class TestReaderMatchesCsv:
    """_read_rows splits quote-free text at its commas itself and leaves
    every other file to csv; either way it gives csv.reader's rows, or the
    same error."""

    @settings(deadline=None, max_examples=400,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=st.text(st.sampled_from(
               [",", '"', "\r", "\n", "\0", "\x0c", "\x1c", "\x85", "\u2028",
                " ", "a", "1"]), max_size=40),
           bom=st.booleans())
    def test_any_text(self, tmp_path, text, bom):
        path = tmp_path / "t.csv"
        path.write_bytes((codecs.BOM_UTF8 if bom else b"") + text.encode("utf-8"))
        assert read_rows_or_error(path) == csv_rows_or_error(path)

    @pytest.mark.parametrize("quote", [None, 100, 6000])
    def test_file_of_several_blocks(self, tmp_path, quote):
        """A file of several blocks, quote-free or with a quoted field in
        its first block or in one past 64 KB."""
        lines = ["id,f0,f1\r\n", *(f"ds{i},{i}.5,-{i}.25\n" for i in range(8000))]
        assert sum(map(len, lines[:6000])) > 1 << 16
        if quote is not None:
            lines[quote] = f'"ds,{quote}",0.5,"1.5"\r\n'
        path = tmp_path / "x.csv"
        path.write_text("".join(lines), encoding="utf-8", newline="")
        rows = read_rows_or_error(path)
        assert rows == csv_rows_or_error(path)
        assert len(rows) == 8001

    @pytest.mark.parametrize("quoted", [False, True])
    @pytest.mark.parametrize("line", [2, 6000])
    def test_line_over_the_field_limit(self, tmp_path, quoted, line):
        """The IngestError names the file and csv's line, whether the file
        would otherwise be split or read through csv."""
        lines = ["id,f0\r\n", *(f"ds{i},{i}.5\r\n" for i in range(8000))]
        lines[line - 1] = "x" * (csv.field_size_limit() + 1) + ",0.5\r\n"
        if quoted:
            lines[2] = '"ds1",1.5\r\n'
        path = tmp_path / "x.csv"
        path.write_text("".join(lines), encoding="utf-8", newline="")
        want = (f"{path}: line {line}: field larger than field limit "
                f"({csv.field_size_limit()})")
        assert csv_rows_or_error(path) == want
        with pytest.raises(IngestError) as caught:
            metamine.io._read_rows(path)
        assert str(caught.value) == want

    def test_written_tables_never_reach_csv(self, tmp_path, monkeypatch):
        """The tables that write_bundle writes, CR LF or with LF line ends,
        are split without csv.reader and read back bit for bit."""
        res = generate(SynthConfig(n=6, m=5, d=4, l=3, latent_t=2, seed=3))
        data = MetaMiningData(x=res.x, a=res.a, r=res.preferences,
                              performance=res.performance)
        crlf, lf = tmp_path / "crlf", tmp_path / "lf"
        write_bundle(crlf, data, preference_source="preferences")
        lf.mkdir()
        for path in crlf.iterdir():
            (lf / path.name).write_bytes(path.read_bytes().replace(b"\r\n", b"\n"))

        def no_csv(*args, **kwargs):
            raise AssertionError("read through csv.reader")
        monkeypatch.setattr(csv, "reader", no_csv)
        for directory in (crlf, lf):
            back = read_bundle(directory, performance=True)
            for got, want in ((back.x.features, res.x.features),
                              (back.a.features, res.a.features),
                              (back.performance.values, res.performance.values),
                              (back.r.scores, res.preferences.scores)):
                assert got.tobytes() == want.tobytes()
            assert back.x.entity_ids == res.x.entity_ids


class TestReadBundlePerformance:
    """read_bundle opens performance.csv only when the caller asks for P,
    and then checks it by the bundle rule."""

    @pytest.fixture
    def bundle(self, tmp_path):
        res = generate(SynthConfig(n=6, m=5, d=4, l=3, latent_t=2, seed=3))
        data = MetaMiningData(x=res.x, a=res.a, r=res.preferences,
                              performance=res.performance)
        write_bundle(tmp_path / "bundle", data, preference_source="preferences")
        return tmp_path / "bundle", data

    def test_p_read_only_when_asked(self, bundle):
        path, data = bundle
        assert read_bundle(path).performance is None
        p = read_bundle(path, performance=True).performance
        assert p.values.tobytes() == data.performance.values.tobytes()
        (path / "performance.csv").unlink()
        assert read_bundle(path).r.scores.tobytes() == data.r.scores.tobytes()
        with pytest.raises(FileNotFoundError, match="performance.csv"):
            read_bundle(path, performance=True)

    def test_p_checked_when_read(self, bundle):
        path, _ = bundle
        text = (path / "performance.csv").read_text().splitlines()
        ds, wf, _ = text[1].split(",")
        text[1] = f"{ds},{wf},2.0"
        (path / "performance.csv").write_text("\n".join(text) + "\n")
        assert read_bundle(path).performance is None
        with pytest.raises(IngestError,
                           match=r"P\[\(0,0\)\]: performance 2.0 out of"):
            read_bundle(path, performance=True)


# Floats whose text tells repr apart from other formats: signed zeros, the
# smallest subnormal, the extremes, integral floats and values that need
# all 17 significant digits.
special = st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308,
                           1.7976931348623157e308, 2.0, -3.0, 1e16, 1e22,
                           0.1, 1 / 3, 0.1 + 0.2, 2.675))
seventeen_digits = st.builds(lambda mantissa, exponent: float(f"{mantissa}e{exponent}"),
                             st.integers(10**16, 10**17 - 1), st.integers(-40, 40))
integral = st.integers(-2**60, 2**60).map(float)
formattable = st.one_of(special, seventeen_digits, integral, finite)


def matrices(rows=st.integers(1, 4), columns=st.integers(1, 4),
             values=formattable):
    return st.tuples(rows, columns).flatmap(
        lambda shape: st.lists(values, min_size=shape[0] * shape[1],
                               max_size=shape[0] * shape[1]).map(
            lambda v: np.array(v).reshape(shape)))


def _reference_csv(path, rows):
    """rows written value by value: every float as repr(float(v))."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        for row in rows:
            w.writerow(row)


def _text(value):
    return repr(float(value))


class TestWritersFormatLikeRepr:
    """Every writer gives the bytes of a writer that formats each value by
    itself as repr(float(v)): the shortest text that reads back exactly."""

    hypothesis_settings = settings(
        deadline=None, max_examples=100,
        suppress_health_check=[HealthCheck.function_scoped_fixture])

    @hypothesis_settings
    @given(values=matrices(), wide=st.sampled_from(("X", "R")))
    def test_wide_tables(self, tmp_path, values, wide):
        n, k = values.shape
        ids, columns = [f"e{i}" for i in range(n)], [f"c{j}" for j in range(k)]
        path, want = tmp_path / "got.csv", tmp_path / "want.csv"
        if wide == "X":
            write_descriptor_csv(path, DescriptorTable(ids, values, columns))
            header = "id"
        else:
            write_preference_csv(path, PreferenceMatrix(ids, columns, values))
            header = "dataset_id"
        _reference_csv(want, [[header, *columns]] + [
            [eid, *(_text(v) for v in row)] for eid, row in zip(ids, values)])
        assert path.read_bytes() == want.read_bytes()

    @hypothesis_settings
    @given(values=matrices())
    def test_performance(self, tmp_path, values):
        n, m = values.shape
        datasets, workflows = [f"d{i}" for i in range(n)], [f"w{j}" for j in range(m)]
        path, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_performance_csv(path, PerformanceMatrix(datasets, workflows, values))
        _reference_csv(want, [["dataset_id", "workflow_id", "performance"]] + [
            [ds, wf, _text(values[i, j])] for i, ds in enumerate(datasets)
            for j, wf in enumerate(workflows)])
        assert path.read_bytes() == want.read_bytes()

    @hypothesis_settings
    @given(bits=st.lists(matrices(st.integers(1, 5), st.just(3),
                                  st.sampled_from((0.0, 1.0, -0.0))),
                         min_size=1, max_size=3))
    def test_outcome_dir(self, tmp_path, bits):
        ids = [f"d{i}" for i in range(len(bits))]
        with tempfile.TemporaryDirectory() as tmp:
            got, want = Path(tmp) / "got", Path(tmp) / "want"
            write_outcome_dir(got, OutcomeCube(ids, ("w0", "w1", "w2"), bits))
            want.mkdir()
            for eid, mat in zip(ids, bits):
                _reference_csv(want / f"{eid}.csv", [["w0", "w1", "w2"]] + [
                    [int(v) for v in row] for row in mat])
                assert (got / f"{eid}.csv").read_bytes() == \
                    (want / f"{eid}.csv").read_bytes()

    @hypothesis_settings
    @given(data=st.data())
    def test_model(self, tmp_path, data):
        d, l, t = (data.draw(st.integers(1, 4)) for _ in range(3))
        u = data.draw(matrices(st.just(d), st.just(t)))
        v = data.draw(matrices(st.just(l), st.just(t)))
        x_record, a_record = (StandardizationRecord(
            mean=data.draw(matrices(st.just(1), st.just(k)))[0],
            scale=data.draw(matrices(st.just(1), st.just(k)))[0],
            constant_columns=()) for k in (d, l))
        params = ModelParams(u=u, v=v, t=t, hyper=HyperParams(t=t),
                             x_standardization=x_record,
                             a_standardization=a_record, objective="f3")
        path = tmp_path / "model.json"
        save_model(path, params)
        doc = json.loads(path.read_text())
        doc["u"] = [[_text(value) for value in row] for row in u]
        doc["v"] = [[_text(value) for value in row] for row in v]
        for side, record in (("x", x_record), ("a", a_record)):
            doc[f"{side}_standardization"].update(
                mean=[_text(value) for value in record.mean],
                scale=[_text(value) for value in record.scale])
        want = json.dumps(doc, sort_keys=True, indent=1) + "\n"
        assert path.read_text() == want


# The csv.writer row writers that joined lines replaced, kept as the
# reference: every writer's file holds the bytes these write.
def rowwise_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def rowwise_wide(path, id_header, columns, ids, values):
    rowwise_csv(path, [id_header, *columns],
                ([eid, *map(repr, row)] for eid, row in zip(ids, values.tolist())))


def rowwise_performance(path, perf):
    rowwise_csv(path, ["dataset_id", "workflow_id", "performance"],
                ([ds, wf, repr(value)]
                 for ds, row in zip(perf.dataset_ids, perf.values.tolist())
                 for wf, value in zip(perf.workflow_ids, row)))


def rowwise_outcome_dir(directory, cube):
    directory.mkdir()
    for eid, mat in zip(cube.dataset_ids, cube.matrices):
        rowwise_csv(directory / f"{eid}.csv", cube.workflow_ids,
                    mat.astype(int).tolist())


def rowwise_predictions(path, query_ids, target_ids, strategy, prediction):
    rows = []
    for qid, values, flags in zip(query_ids, prediction.values,
                                  prediction.flags):
        rows += ([qid, tid, score, strategy.value, ";".join(flags)]
                 for tid, score in zip(target_ids, map(repr, values.tolist())))
    rowwise_csv(path, ["query_id", "target_id", "score", "strategy", "flags"],
                rows)


# Text csv.writer quotes, and text beside it: commas, quotes, both line
# breaks, spaces, the empty string and non-ASCII letters.
cell_text = st.one_of(
    st.text(st.sampled_from([",", '"', "\r", "\n", " ", "a", "é", "✓"]),
            max_size=4), csv_text)


def cell_texts(size):
    return st.lists(cell_text, min_size=size, max_size=size)


class TestWritersMatchCsvWriter:
    """Every writer joins its lines itself; its files hold the bytes the
    csv.writer row writers above write, whatever text the ids hold."""

    hypothesis_settings = settings(
        deadline=None, max_examples=100,
        suppress_health_check=[HealthCheck.function_scoped_fixture])

    @hypothesis_settings
    @given(data=st.data(), values=matrices())
    def test_tables(self, tmp_path, data, values):
        n, m = values.shape
        rows, columns = data.draw(cell_texts(n)), data.draw(cell_texts(m))
        written = {
            "X.csv": (lambda p: write_descriptor_csv(p, DescriptorTable(
                rows, values, columns)),
                lambda p: rowwise_wide(p, "id", columns, rows, values)),
            "R.csv": (lambda p: write_preference_csv(p, PreferenceMatrix(
                rows, columns, values)),
                lambda p: rowwise_wide(p, "dataset_id", columns, rows, values)),
            "P.csv": (lambda p: write_performance_csv(p, PerformanceMatrix(
                rows, columns, values)),
                lambda p: rowwise_performance(p, PerformanceMatrix(
                    rows, columns, values))),
        }
        for name, (write, reference) in written.items():
            write(tmp_path / name)
            reference(tmp_path / f"want-{name}")
            assert (tmp_path / name).read_bytes() == \
                (tmp_path / f"want-{name}").read_bytes(), name

    @hypothesis_settings
    @given(data=st.data(), m=st.integers(0, 4))
    def test_outcome_dir(self, data, m):
        bits = data.draw(st.lists(matrices(st.integers(1, 5), st.just(m),
                                           st.sampled_from((0.0, 1.0, -0.0))),
                                  min_size=1, max_size=3))
        cube = OutcomeCube([f"d{i}" for i in range(len(bits))],
                           data.draw(cell_texts(m)), bits)
        with tempfile.TemporaryDirectory() as tmp:
            got, want = Path(tmp) / "got", Path(tmp) / "want"
            write_outcome_dir(got, cube)
            rowwise_outcome_dir(want, cube)
            for eid in cube.dataset_ids:
                assert (got / f"{eid}.csv").read_bytes() == \
                    (want / f"{eid}.csv").read_bytes()

    @hypothesis_settings
    @given(data=st.data(), k=st.integers(0, 4), q=st.integers(0, 4))
    def test_predictions(self, tmp_path, data, k, q):
        targets, queries = data.draw(cell_texts(k)), data.draw(cell_texts(q))
        strategy = data.draw(st.sampled_from(Strategy))
        prediction = PreferencePrediction(
            data.draw(matrices(st.just(q), st.just(k))),
            data.draw(st.lists(st.lists(cell_text, max_size=2).map(tuple),
                               min_size=q, max_size=q).map(tuple)))
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_predictions_csv(got, queries, targets, strategy, prediction)
        rowwise_predictions(want, queries, targets, strategy, prediction)
        assert got.read_bytes() == want.read_bytes()


@pytest.fixture(scope="module")
def served_bundle(tmp_path_factory):
    root = tmp_path_factory.mktemp("served")
    res = generate(SynthConfig(n=6, m=5, d=4, l=3, latent_t=2, seed=3))
    write_bundle(root, MetaMiningData(x=res.x, a=res.a, r=res.preferences,
                                      performance=res.performance),
                 preference_source="preferences")
    return root


@settings(deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(scores=st.lists(formattable, min_size=1, max_size=6))
def test_predict_csv_formats_like_repr(tmp_path, served_bundle, scores):
    """predict's CSV holds the bytes of a per-value repr(float(v)) writer.
    One feature on each side, U = V = [[1]] and the one query workflow at
    1.0, so the pair scores are the drawn query descriptors (the kernel's
    sums turn -0.0 into 0.0)."""
    one = StandardizationRecord(mean=[0.0], scale=[1.0], constant_columns=())
    params = ModelParams(u=[[1.0]], v=[[1.0]], t=1, hyper=HyperParams(t=1),
                         x_standardization=one, a_standardization=one,
                         objective="f3")
    model, queries, workflow = (tmp_path / "m.json", tmp_path / "qx.csv",
                                tmp_path / "qa.csv")
    save_model(model, params)
    ids = [f"q{i}" for i in range(len(scores))]
    write_descriptor_csv(queries, DescriptorTable(
        ids, np.array(scores)[:, None], ("f",)))
    write_descriptor_csv(workflow, DescriptorTable(
        ("w0",), [[1.0]], ("g",)))
    out, want = tmp_path / "p.csv", tmp_path / "want.csv"
    assert main([str(a) for a in (
        "predict", "--model", model, "--bundle", served_bundle,
        "--task", "pair_score", "--x", queries, "--a", workflow,
        "--out", out)]) == 0
    table = read_descriptor_csv(queries)
    _reference_csv(want, [["query_id", "target_id", "score", "strategy",
                           "flags"]] + [
        [qid, "w0", _text(score), "f3_direct", ""]
        for qid, feats in zip(table.entity_ids, table.features)
        for score in predict_pair(params.x_standardization.apply(feats),
                                  np.array([[1.0]]), params)])
    assert out.read_bytes() == want.read_bytes()


class TestSignificanceTables:
    HEADER = "dataset_id,workflow_k,workflow_l,outcome\n"

    def test_the_tables_are_one_win_stack(self, tmp_path):
        path = tmp_path / "sig.csv"
        # w1 is seen first, so it is column 0; w1 beats w0 and w2 whichever
        # way round the line names the pair, and the tie sets neither entry
        path.write_text(self.HEADER + "d0,w1,w0,k_wins\nd0,w0,w2,tie\n"
                        "d0,w2,w1,l_wins\n")
        ds, wf, wins = read_significance_csv(path)
        assert (ds, wf) == (("d0",), ("w1", "w0", "w2"))
        assert wins.dtype == bool
        np.testing.assert_array_equal(wins, [[[False, True, True],
                                              [False, False, False],
                                              [False, False, False]]])

    @settings(deadline=None, max_examples=100,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_wins_hold_what_the_rows_state(self, tmp_path, data):
        """Every pair once, each row stated either way round and the rows
        in any order: wins holds the (dataset, winner, loser) triples the
        rows state."""
        n, m = data.draw(st.integers(1, 4)), data.draw(st.integers(2, 6))
        swap = {"k_wins": "l_wins", "l_wins": "k_wins", "tie": "tie"}
        rows, stated = [], set()
        for i, (k, l) in itertools.product(
                range(n), itertools.combinations(range(m), 2)):
            outcome = data.draw(st.sampled_from(sorted(swap)))
            if outcome != "tie":
                winner, loser = (k, l) if outcome == "k_wins" else (l, k)
                stated.add((f"d{i}", f"w{winner}", f"w{loser}"))
            if data.draw(st.booleans()):
                k, l, outcome = l, k, swap[outcome]
            rows.append(f"d{i},w{k},w{l},{outcome}\n")
        path = tmp_path / "sig.csv"
        path.write_text(self.HEADER + "".join(data.draw(st.permutations(rows))))
        ds, wf, wins = read_significance_csv(path)
        assert sorted(ds) == [f"d{i}" for i in range(n)]
        assert sorted(wf) == sorted(f"w{k}" for k in range(m))
        assert {(ds[i], wf[k], wf[l]) for i, k, l in np.argwhere(wins)} == stated

    @pytest.mark.parametrize("body, message", [
        # the first faulty line is named, a repeated pair as that line
        # names it, whichever kind of fault a later line holds
        ("d0,w0,w1,tie\nd0,w0,w2\nd0,w1,w0,tie\n", "line 3: expected 4 fields"),
        ("d0,w0,w1,tie\nd0,w0,w2,draw\nd0,w1,w0,tie\n",
         "line 3: unknown outcome 'draw'"),
        ("d0,w0,w1,tie\nd0,w2,w2,tie\nd0,w1,w0,tie\n",
         "line 3: workflow 'w2' compared with itself"),
        ("d0,w0,w1,tie\nd0,w1,w0,tie\nd0,w0,w2\n", "duplicate pair (d0,w1,w0)"),
        ("d0,w0,w1,tie\nd0,w1,w0,tie\nd0,w0,w2,draw\n", "duplicate pair (d0,w1,w0)"),
        ("d0,w0,w1,tie\nd0,w1,w0,tie\nd0,w2,w2,tie\n", "duplicate pair (d0,w1,w0)"),
        ("d0,w0,w1,tie\nd0,w1,w2,tie\nd0,w1,w0,tie\nd0,w2,w1,tie\n",
         "duplicate pair (d0,w1,w0)"),
        # then the first missing pair in (dataset, k, l) order
        ("d1,w0,w1,tie\nd0,w0,w1,tie\nd0,w1,w2,tie\nd1,w0,w2,tie\n",
         "missing pair (d1,w1,w2)"),
    ])
    def test_faults_are_reported_in_order(self, tmp_path, body, message):
        path = tmp_path / "sig.csv"
        path.write_text(self.HEADER + body)
        with pytest.raises(IngestError) as info:
            read_significance_csv(path)
        assert str(info.value) == f"{path}: {message}"
