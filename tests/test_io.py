import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from metamine.data_model import (DescriptorTable, PerformanceMatrix,
                                 PreferenceMatrix, TableKind)
from metamine.io import (IngestError, load_model, read_descriptor_csv,
                         read_outcome_dir, read_performance_csv,
                         read_preference_csv, read_significance_csv,
                         save_model, write_descriptor_csv, write_outcome_dir,
                         write_performance_csv, write_preference_csv)
from metamine.metric_learning import ObjectiveKind, train
from metamine.preference import build_preference_from_significance
from metamine.recommend import predict_pair
from metamine.synth import SynthConfig, SynthMode, generate

from conftest import make_tables


class TestDescriptorCsv:
    def test_round_trip(self, tmp_path):
        x, _, _ = make_tables(seed=1)
        path = tmp_path / "x.csv"
        write_descriptor_csv(path, x)
        back = read_descriptor_csv(path, TableKind.DATASET)
        assert back.entity_ids == x.entity_ids
        assert back.feature_names == x.feature_names
        np.testing.assert_array_equal(back.features, x.features)

    def test_missing_feature_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id\nd0\n")
        with pytest.raises(IngestError, match="at least one feature"):
            read_descriptor_csv(path, TableKind.DATASET)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,f1,f2\nd0,1.0\n")
        with pytest.raises(IngestError, match="line 2"):
            read_descriptor_csv(path, TableKind.DATASET)

    def test_non_numeric_value_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,f1\nd0,oops\n")
        with pytest.raises(IngestError, match="not a number"):
            read_descriptor_csv(path, TableKind.DATASET)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(IngestError, match="empty"):
            read_descriptor_csv(path, TableKind.DATASET)


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


class TestPreferenceCsv:
    def test_round_trip(self, tmp_path):
        res = generate(SynthConfig(n=4, m=3, d=4, l=3, latent_t=2, seed=3))
        path = tmp_path / "r.csv"
        write_preference_csv(path, res.preferences)
        back = read_preference_csv(path)
        assert back.dataset_ids == res.preferences.dataset_ids
        assert back.workflow_ids == res.preferences.workflow_ids
        np.testing.assert_array_equal(back.scores, res.preferences.scores)
        back.check_invariants()

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
                qx = params.transform_dataset(res.x.features[i])
                qa = params.transform_workflow(res.a.features[j])
                bx = back.transform_dataset(res.x.features[i])
                ba = back.transform_workflow(res.a.features[j])
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
        write_descriptor_csv(path, DescriptorTable(ids, values, features,
                                                   TableKind.WORKFLOW))
        back = read_descriptor_csv(path, TableKind.WORKFLOW)
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
