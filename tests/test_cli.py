import csv
import json

import pytest

from metamine.cli import main


def run(argv):
    return main(argv)


@pytest.fixture
def bundle(tmp_path):
    """A small validated bundle produced via synth + ingest."""
    raw = tmp_path / "raw"
    out = tmp_path / "bundle"
    assert run(["synth", "--n", "6", "--m", "5", "--d", "4", "--l", "3",
                "--latent-t", "2", "--seed", "3", "--out", str(raw)]) == 0
    assert run(["ingest", "--x", str(raw / "X.csv"), "--a", str(raw / "A.csv"),
                "--performance", str(raw / "performance.csv"),
                "--preferences", str(raw / "R.csv"), "--out", str(out)]) == 0
    return out


class TestSynth:
    def test_writes_all_artifacts(self, tmp_path):
        out = tmp_path / "synth"
        assert run(["synth", "--n", "4", "--m", "4", "--d", "4", "--l", "3",
                    "--latent-t", "2", "--out", str(out)]) == 0
        for name in ("X.csv", "A.csv", "performance.csv", "R.csv",
                     "resolved_config.json"):
            assert (out / name).exists()

    def test_outcome_mode_writes_cube(self, tmp_path):
        out = tmp_path / "synth"
        assert run(["synth", "--n", "4", "--m", "4", "--d", "4", "--l", "3",
                    "--latent-t", "2", "--mode", "outcome", "--instances", "25",
                    "--out", str(out)]) == 0
        assert sorted(p.name for p in (out / "outcomes").glob("*.csv"))

    def test_invalid_config_exits_one(self, tmp_path):
        # latent dimension above min(d, l) is a validation error
        code = run(["synth", "--d", "3", "--l", "3", "--latent-t", "5",
                    "--out", str(tmp_path / "x")])
        assert code == 1

    def test_same_seed_identical_files(self, tmp_path):
        o1, o2 = tmp_path / "a", tmp_path / "b"
        for o in (o1, o2):
            assert run(["synth", "--n", "4", "--m", "4", "--d", "4", "--l", "3",
                        "--latent-t", "2", "--seed", "9", "--out", str(o)]) == 0
        for name in ("X.csv", "A.csv", "R.csv", "performance.csv"):
            assert (o1 / name).read_bytes() == (o2 / name).read_bytes()


class TestIngest:
    def test_bundle_has_manifest(self, bundle):
        manifest = json.loads((bundle / "manifest.json").read_text())
        assert manifest["validated"] is True
        assert manifest["n_datasets"] == 6
        assert manifest["n_workflows"] == 5

    def test_orphan_preference_ids_rejected(self, tmp_path, bundle, capsys):
        bad_r = tmp_path / "bad_r.csv"
        lines = (bundle / "R.csv").read_text().splitlines()
        lines[1] = "stranger" + lines[1][lines[1].index(","):]
        bad_r.write_text("\n".join(lines) + "\n")
        code = run(["ingest", "--x", str(bundle / "X.csv"),
                    "--a", str(bundle / "A.csv"),
                    "--performance", str(bundle / "performance.csv"),
                    "--preferences", str(bad_r),
                    "--out", str(tmp_path / "out")])
        assert code == 1
        assert "do not match" in capsys.readouterr().err

    def test_invalid_row_sums_rejected(self, tmp_path, bundle):
        bad_r = tmp_path / "bad_r.csv"
        lines = (bundle / "R.csv").read_text().splitlines()
        first_id = lines[1].split(",")[0]
        lines[1] = first_id + ",9.0" * (len(lines[0].split(",")) - 1)
        bad_r.write_text("\n".join(lines) + "\n")
        code = run(["ingest", "--x", str(bundle / "X.csv"),
                    "--a", str(bundle / "A.csv"),
                    "--performance", str(bundle / "performance.csv"),
                    "--preferences", str(bad_r),
                    "--out", str(tmp_path / "out")])
        assert code == 1

    def test_missing_header_rejected(self, tmp_path, bundle):
        bad_x = tmp_path / "bad_x.csv"
        bad_x.write_text("\n".join(
            (bundle / "X.csv").read_text().splitlines()[1:]) + "\n")
        code = run(["ingest", "--x", str(bad_x), "--a", str(bundle / "A.csv"),
                    "--performance", str(bundle / "performance.csv"),
                    "--preferences", str(bundle / "R.csv"),
                    "--out", str(tmp_path / "out")])
        assert code == 1

    def test_requires_exactly_one_preference_source(self, tmp_path, bundle, capsys):
        code = run(["ingest", "--x", str(bundle / "X.csv"),
                    "--a", str(bundle / "A.csv"),
                    "--performance", str(bundle / "performance.csv"),
                    "--out", str(tmp_path / "out")])
        assert code == 1
        assert "exactly one" in capsys.readouterr().err

    def test_outcome_dir_source(self, tmp_path):
        raw = tmp_path / "raw"
        assert run(["synth", "--n", "4", "--m", "4", "--d", "4", "--l", "3",
                    "--latent-t", "2", "--mode", "outcome", "--instances", "30",
                    "--seed", "5", "--out", str(raw)]) == 0
        out = tmp_path / "bundle"
        assert run(["ingest", "--x", str(raw / "X.csv"),
                    "--a", str(raw / "A.csv"),
                    "--performance", str(raw / "performance.csv"),
                    "--outcomes-dir", str(raw / "outcomes"),
                    "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["preference_source"] == "outcomes_dir"


class TestTrain:
    def test_writes_model_and_config(self, bundle, tmp_path):
        model = tmp_path / "model.json"
        assert run(["train", "--bundle", str(bundle), "--objective", "f4",
                    "--max-iters", "40", "--t", "2",
                    "--out", str(model)]) == 0
        doc = json.loads(model.read_text())
        assert doc["objective"] == "f4"
        assert (tmp_path / "model.json.config.json").exists()

    def test_same_seed_byte_identical_models(self, bundle, tmp_path):
        m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
        for m in (m1, m2):
            assert run(["train", "--bundle", str(bundle), "--objective", "f3",
                        "--max-iters", "40", "--seed", "4",
                        "--out", str(m)]) == 0
        assert m1.read_bytes() == m2.read_bytes()

    def test_preset_overrides_defaults(self, bundle, tmp_path):
        model = tmp_path / "model.json"
        assert run(["train", "--bundle", str(bundle), "--objective", "f4",
                    "--preset", "paper-task1", "--max-iters", "5",
                    "--out", str(model)]) == 0
        doc = json.loads(model.read_text())
        assert doc["hyper"]["alpha"] == 1e-10
        assert doc["hyper"]["mu1"] == 10.0

    def test_unknown_preset_objective_pair_exits_one(self, bundle, tmp_path, capsys):
        code = run(["train", "--bundle", str(bundle), "--objective", "f2",
                    "--preset", "paper-task1", "--out", str(tmp_path / "m.json")])
        assert code == 1
        assert "preset" in capsys.readouterr().err

    def test_config_file_defaults_flags_win(self, bundle, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mu1": 7.0, "max_iters": 3}))
        model = tmp_path / "model.json"
        assert run(["--config", str(cfg), "train", "--bundle", str(bundle),
                    "--objective", "f3", "--mu1", "2.0",
                    "--out", str(model)]) == 0
        doc = json.loads(model.read_text())
        assert doc["hyper"]["mu1"] == 2.0       # flag beats config file
        assert doc["hyper"]["max_iters"] == 3   # config file beats default

    @pytest.mark.parametrize("flag", [["--max-iters=5"], ["--max-it", "5"]])
    def test_config_file_loses_to_any_flag_spelling(self, bundle, tmp_path, flag):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_iters": 3}))
        model = tmp_path / "model.json"
        assert run(["--config", str(cfg), "train", "--bundle", str(bundle),
                    "--objective", "f3", *flag, "--out", str(model)]) == 0
        assert json.loads(model.read_text())["hyper"]["max_iters"] == 5

    def test_preset_below_config_file_below_flags(self, bundle, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mu2": 2.0}))
        model = tmp_path / "model.json"
        assert run(["--config", str(cfg), "train", "--bundle", str(bundle),
                    "--objective", "f4", "--preset", "paper-task1",
                    "--mu1", "3", "--max-iters", "5", "--out", str(model)]) == 0
        used = json.loads(model.read_text())["hyper"]
        recorded = json.loads((tmp_path / "model.json.config.json").read_text())
        for doc in (used, recorded):
            assert doc["mu1"] == 3.0        # flag beats preset
            assert doc["mu2"] == 2.0        # config file beats preset
            assert doc["alpha"] == 1e-10    # preset beats default

    def test_missing_bundle_exits_one(self, tmp_path, capsys):
        code = run(["train", "--bundle", str(tmp_path / "nope"),
                    "--objective", "f3", "--out", str(tmp_path / "m.json")])
        assert code == 1
        assert "manifest" in capsys.readouterr().err


class TestEvaluate:
    def test_lodo_report_files(self, bundle, tmp_path):
        out = tmp_path / "report"
        assert run(["evaluate", "--bundle", str(bundle), "--protocol", "lodo",
                    "--strategies", "def,ec,f4", "--max-iters", "20",
                    "--t", "2", "--out", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["protocol"] == "lodo"
        assert set(doc["aggregates"]) == {"def", "ec", "f4_direct"}
        assert "def" in (out / "report.txt").read_text()

    def test_lowo_default_rho_na(self, bundle, tmp_path):
        out = tmp_path / "report"
        assert run(["evaluate", "--bundle", str(bundle), "--protocol", "lowo",
                    "--strategies", "def,f4", "--max-iters", "20",
                    "--t", "2", "--out", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["aggregates"]["def"]["rho"] is None
        assert "NA" in (out / "report.txt").read_text()

    def test_lodwo_excludes_euclidean_with_notice(self, bundle, tmp_path):
        out = tmp_path / "report"
        assert run(["evaluate", "--bundle", str(bundle), "--protocol", "lodwo",
                    "--strategies", "def,ec,f4", "--max-iters", "5",
                    "--t", "2", "--out", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert "ec" not in doc["aggregates"]
        assert any("not applicable" in n for n in doc["notices"])

    def test_unknown_strategy_exits_one(self, bundle, tmp_path, capsys):
        code = run(["evaluate", "--bundle", str(bundle), "--protocol", "lodo",
                    "--strategies", "def,bogus", "--out", str(tmp_path / "r")])
        assert code == 1
        assert "unknown strategy" in capsys.readouterr().err

    def test_programming_error_in_strategy_exits_two(self, bundle, tmp_path,
                                                     monkeypatch, capsys):
        import metamine.recommend

        def broken(*args, **kwargs):
            raise KeyError("missing")
        monkeypatch.setattr(metamine.recommend, "default_strategy", broken)
        code = run(["evaluate", "--bundle", str(bundle), "--protocol", "lodo",
                    "--strategies", "def", "--out", str(tmp_path / "r")])
        assert code == 2
        assert "runtime failure" in capsys.readouterr().err

    def test_repeat_run_byte_identical_report(self, bundle, tmp_path):
        outs = [tmp_path / "r1", tmp_path / "r2"]
        for out in outs:
            assert run(["evaluate", "--bundle", str(bundle),
                        "--protocol", "lodo", "--strategies", "def,f4",
                        "--max-iters", "20", "--t", "2", "--seed", "6",
                        "--out", str(out)]) == 0
        assert (outs[0] / "report.json").read_bytes() \
            == (outs[1] / "report.json").read_bytes()


class TestPredict:
    def train_model(self, bundle, tmp_path, objective="f4"):
        model = tmp_path / f"model_{objective}.json"
        assert run(["train", "--bundle", str(bundle), "--objective", objective,
                    "--max-iters", "40", "--t", "2", "--out", str(model)]) == 0
        return model

    def test_pair_scores_for_new_entities(self, bundle, tmp_path):
        model = self.train_model(bundle, tmp_path)
        out = tmp_path / "pred.csv"
        assert run(["predict", "--model", str(model), "--bundle", str(bundle),
                    "--task", "pair_score", "--x", str(bundle / "X.csv"),
                    "--a", str(bundle / "A.csv"), "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["query_id", "target_id", "score", "strategy", "flags"]
        assert len(rows) == 1 + 6 * 5

    def test_workflow_ranking_with_f4(self, bundle, tmp_path):
        model = self.train_model(bundle, tmp_path)
        out = tmp_path / "pred.csv"
        assert run(["predict", "--model", str(model), "--bundle", str(bundle),
                    "--task", "workflow_prefs", "--x", str(bundle / "X.csv"),
                    "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 6 * 5

    def test_pair_task_rejected_for_homogeneous_model(self, bundle, tmp_path, capsys):
        model = self.train_model(bundle, tmp_path, objective="f1")
        code = run(["predict", "--model", str(model), "--bundle", str(bundle),
                    "--task", "pair_score", "--x", str(bundle / "X.csv"),
                    "--a", str(bundle / "A.csv"),
                    "--out", str(tmp_path / "p.csv")])
        assert code == 1
        assert "cannot score" in capsys.readouterr().err

    def test_dataset_ranking_rejected_for_f1_model(self, bundle, tmp_path, capsys):
        model = self.train_model(bundle, tmp_path, objective="f1")
        code = run(["predict", "--model", str(model), "--bundle", str(bundle),
                    "--task", "dataset_prefs", "--a", str(bundle / "A.csv"),
                    "--out", str(tmp_path / "p.csv")])
        assert code == 1
        assert "cannot rank datasets" in capsys.readouterr().err

    def test_feature_name_mismatch_exits_one(self, bundle, tmp_path, capsys):
        model = self.train_model(bundle, tmp_path)
        bad = tmp_path / "bad_queries.csv"
        lines = (bundle / "X.csv").read_text().splitlines()
        header = lines[0].split(",")
        header[1] = "renamed"
        bad.write_text("\n".join([",".join(header)] + lines[1:]) + "\n")
        code = run(["predict", "--model", str(model), "--bundle", str(bundle),
                    "--task", "workflow_prefs", "--x", str(bad),
                    "--out", str(tmp_path / "p.csv")])
        assert code == 1
        assert "feature names" in capsys.readouterr().err

    @pytest.mark.parametrize("task, given, missing", [
        ("workflow_prefs", [], "--x"),
        ("dataset_prefs", [], "--a"),
        ("pair_score", ["--x"], "--a"),
    ])
    def test_missing_query_table_exits_one(self, bundle, tmp_path, capsys,
                                           task, given, missing):
        model = self.train_model(bundle, tmp_path)
        tables = {"--x": str(bundle / "X.csv"), "--a": str(bundle / "A.csv")}
        code = run(["predict", "--model", str(model), "--bundle", str(bundle),
                    "--task", task, *[v for f in given for v in (f, tables[f])],
                    "--out", str(tmp_path / "p.csv")])
        assert code == 1
        assert f"needs {missing}" in capsys.readouterr().err

    def test_non_finite_query_exits_one(self, bundle, tmp_path, capsys):
        model = self.train_model(bundle, tmp_path)
        bad = tmp_path / "nan_queries.csv"
        lines = (bundle / "X.csv").read_text().splitlines()
        cells = lines[1].split(",")
        cells[1] = "nan"
        bad.write_text("\n".join([lines[0], ",".join(cells)] + lines[2:]) + "\n")
        out = tmp_path / "p.csv"
        code = run(["predict", "--model", str(model), "--bundle", str(bundle),
                    "--task", "workflow_prefs", "--x", str(bad),
                    "--out", str(out)])
        assert code == 1
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("neighbors", ["-3", "0"])
    def test_nonpositive_neighbors_exits_one(self, bundle, tmp_path, capsys,
                                             neighbors):
        model = self.train_model(bundle, tmp_path, objective="f1")
        code = run(["predict", "--model", str(model), "--bundle", str(bundle),
                    "--task", "workflow_prefs", "--x", str(bundle / "X.csv"),
                    "--neighbors", neighbors, "--out", str(tmp_path / "p.csv")])
        assert code == 1
        assert "--neighbors" in capsys.readouterr().err
