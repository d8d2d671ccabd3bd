import csv
import json
import os
import shutil
import random
import subprocess
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metamine
from metamine.cli import build_parser, main
from metamine.data_model import (HyperParams, InitScheme, MetaMiningData,
                                 ModelParams, PreferenceMatrix,
                                 StandardizationRecord)
from metamine.io import (load_model, read_bundle, read_descriptor_csv,
                         read_outcome_dir, save_model, write_bundle)
from metamine.preference import mcnemar_wins
from metamine.recommend import Strategy, Task, predict
from metamine.synth import SynthConfig

from conftest import make_tables


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

    def test_flag_defaults_come_from_synth_config(self, tmp_path):
        args = build_parser().parse_args(["synth", "--out", str(tmp_path)])
        expected = asdict(SynthConfig())
        expected["instances"] = expected.pop("instances_per_dataset")
        expected["mode"] = expected["mode"].value
        assert {k: getattr(args, k) for k in expected} == expected


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

    def test_self_comparison_in_significance_exits_one(self, tmp_path, bundle,
                                                       capsys):
        wf = [line.split(",")[0]
              for line in (bundle / "A.csv").read_text().splitlines()[1:]]
        datasets = [line.split(",")[0]
                    for line in (bundle / "X.csv").read_text().splitlines()[1:]]
        lines = ["dataset_id,workflow_k,workflow_l,outcome"]
        lines += [f"{ds},{wf[k]},{wf[l]},tie" for ds in datasets
                  for k in range(len(wf)) for l in range(k + 1, len(wf))]
        lines.append(f"{datasets[0]},{wf[0]},{wf[0]},k_wins")
        sig = tmp_path / "sig.csv"
        sig.write_text("\n".join(lines) + "\n")
        code = run(["ingest", "--x", str(bundle / "X.csv"),
                    "--a", str(bundle / "A.csv"),
                    "--performance", str(bundle / "performance.csv"),
                    "--significance", str(sig), "--out", str(tmp_path / "out")])
        assert code == 1
        assert f"line {len(lines)}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_short_outcome_row_exits_one(self, tmp_path, capsys):
        raw = tmp_path / "raw"
        assert run(["synth", "--n", "4", "--m", "4", "--d", "4", "--l", "3",
                    "--latent-t", "2", "--mode", "outcome", "--instances", "30",
                    "--seed", "5", "--out", str(raw)]) == 0
        victim = sorted((raw / "outcomes").glob("*.csv"))[1]
        lines = victim.read_text().splitlines()
        lines[4] = lines[4].rsplit(",", 1)[0]
        victim.write_text("\n".join(lines) + "\n")
        code = run(["ingest", "--x", str(raw / "X.csv"),
                    "--a", str(raw / "A.csv"),
                    "--performance", str(raw / "performance.csv"),
                    "--outcomes-dir", str(raw / "outcomes"),
                    "--out", str(tmp_path / "bundle")])
        assert code == 1
        assert f"{victim.name}: line 5: expected 4 fields, got 3" \
            in capsys.readouterr().err

    def test_header_only_outcome_csv_names_the_file(self, tmp_path, capsys):
        raw = tmp_path / "raw"
        assert run(["synth", "--n", "6", "--m", "5", "--mode", "outcome",
                    "--instances", "30", "--seed", "2", "--out", str(raw)]) == 0
        for path in (raw / "outcomes").glob("*.csv"):
            path.unlink()
        victim = raw / "outcomes" / "ds000.csv"
        victim.write_text("wf000,wf001,wf002,wf003,wf004\n")
        capsys.readouterr()
        code = run(["ingest", "--x", str(raw / "X.csv"),
                    "--a", str(raw / "A.csv"),
                    "--performance", str(raw / "performance.csv"),
                    "--outcomes-dir", str(raw / "outcomes"),
                    "--out", str(tmp_path / "bundle")])
        assert code == 1
        assert f"{victim}: no data rows under the header" \
            in capsys.readouterr().err
        assert not (tmp_path / "bundle").exists()

    def test_header_only_significance_csv_names_the_file(self, tmp_path,
                                                         bundle, capsys):
        sig = tmp_path / "sig.csv"
        sig.write_text("dataset_id,workflow_k,workflow_l,outcome\n")
        capsys.readouterr()
        code = run(["ingest", "--x", str(bundle / "X.csv"),
                    "--a", str(bundle / "A.csv"),
                    "--performance", str(bundle / "performance.csv"),
                    "--significance", str(sig), "--out", str(tmp_path / "out")])
        assert code == 1
        assert f"{sig}: no data rows under the header" \
            in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_header_only_performance_csv_names_the_file(self, tmp_path,
                                                        bundle, capsys):
        perf = tmp_path / "performance.csv"
        perf.write_text("dataset_id,workflow_id,performance\n")
        capsys.readouterr()
        code = run(["ingest", "--x", str(bundle / "X.csv"),
                    "--a", str(bundle / "A.csv"), "--performance", str(perf),
                    "--preferences", str(bundle / "R.csv"),
                    "--out", str(tmp_path / "out")])
        assert code == 1
        assert f"{perf}: no data rows under the header" \
            in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_significance_source_matches_outcomes_dir(self, tmp_path):
        """The McNemar outcome of every pair, written as a significance
        CSV, ingests to the R that the outcome CSVs themselves give."""
        raw = tmp_path / "raw"
        assert run(["synth", "--n", "6", "--m", "5", "--mode", "outcome",
                    "--instances", "40", "--seed", "2", "--out", str(raw)]) == 0
        cube = read_outcome_dir(raw / "outcomes")
        wf = cube.workflow_ids
        lines = ["dataset_id,workflow_k,workflow_l,outcome"]
        for ds, correct in zip(cube.dataset_ids, cube.matrices):
            wins = mcnemar_wins(correct)
            for k in range(len(wf)):
                for l in range(k + 1, len(wf)):
                    outcome = ("k_wins" if wins[k, l] else
                               "l_wins" if wins[l, k] else "tie")
                    lines.append(f"{ds},{wf[k]},{wf[l]},{outcome}")
        assert {line.rsplit(",", 1)[1] for line in lines[1:]} \
            == {"k_wins", "l_wins", "tie"}
        sig = tmp_path / "sig.csv"
        sig.write_text("\n".join(lines) + "\n")
        ingest = ["ingest", "--x", str(raw / "X.csv"), "--a", str(raw / "A.csv"),
                  "--performance", str(raw / "performance.csv")]
        by_outcomes, by_significance = tmp_path / "b1", tmp_path / "b2"
        assert run([*ingest, "--outcomes-dir", str(raw / "outcomes"),
                    "--out", str(by_outcomes)]) == 0
        assert run([*ingest, "--significance", str(sig),
                    "--out", str(by_significance)]) == 0
        assert (by_significance / "R.csv").read_bytes() \
            == (by_outcomes / "R.csv").read_bytes()
        manifest = json.loads((by_significance / "manifest.json").read_text())
        assert manifest["preference_source"] == "significance"


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

    def test_init_is_written_as_its_value_and_read_back(self, bundle, tmp_path):
        model = tmp_path / "model.json"
        assert run(["train", "--bundle", str(bundle), "--objective", "f4",
                    "--init", "svd_warm_start", "--max-iters", "5",
                    "--out", str(model)]) == 0
        assert '"init": "svd_warm_start"' in model.read_text()
        hyper = json.loads(model.read_text())["hyper"]
        assert hyper["init"] == "svd_warm_start"
        params = load_model(model)
        assert params.hyper == HyperParams(max_iters=5,
                                           init=InitScheme.SVD_WARM_START)
        assert params.hyper.init is InitScheme.SVD_WARM_START

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

    def test_unknown_config_key_exits_one(self, bundle, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_iter": 3, "mu1": 1.0, "modes": "x"}))
        model = tmp_path / "model.json"
        code = run(["--config", str(cfg), "train", "--bundle", str(bundle),
                    "--objective", "f3", "--out", str(model)])
        assert code == 1
        assert "unknown config keys for train: ['max_iter', 'modes']" \
            in capsys.readouterr().err
        assert not model.exists()

    def test_resolved_config_file_is_a_valid_config(self, bundle, tmp_path):
        first = tmp_path / "m1.json"
        assert run(["train", "--bundle", str(bundle), "--objective", "f3",
                    "--max-iters", "4", "--out", str(first)]) == 0
        cfg = tmp_path / "m1.json.config.json"
        assert json.loads(cfg.read_text())["subcommand"] == "train"
        second = tmp_path / "m2.json"
        assert run(["--config", str(cfg), "train", "--bundle", str(bundle),
                    "--objective", "f3", "--out", str(second)]) == 0
        assert json.loads(second.read_text())["hyper"]["max_iters"] == 4

    # a value is named as the config file spells it, in JSON
    @pytest.mark.parametrize("value, message", [
        (5.5, "config value max_iters=5.5 is not a valid int"),
        ("abc", 'config value max_iters="abc" is not a valid int'),
        (True, "config value max_iters=true is not a valid int"),
        (None, "config value max_iters=null is not a valid int"),
    ])
    def test_mistyped_config_value_exits_one(self, bundle, tmp_path, capsys,
                                             value, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_iters": value}))
        model = tmp_path / "model.json"
        code = run(["--config", str(cfg), "train", "--bundle", str(bundle),
                    "--objective", "f3", "--out", str(model)])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize("text, message", [
        ('[{"max_iters": 5}]', "config must be a JSON object"),
        ('{"max_iters": 5', "not JSON (Expecting ',' delimiter"),
        # more digits than Python converts (its int-string limit)
        pytest.param('{"max_iters": 1' + "0" * 5000 + "}",
                     "not JSON (Exceeds the limit (4300 digits)",
                     id="integer-too-long"),
    ])
    def test_config_that_is_no_json_object_exits_one(self, bundle, tmp_path,
                                                     capsys, text, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        model = tmp_path / "model.json"
        code = run(["--config", str(cfg), "train", "--bundle", str(bundle),
                    "--objective", "f3", "--out", str(model)])
        assert code == 1
        assert f"{cfg}: {message}" in capsys.readouterr().err
        assert not model.exists()

    def test_zero_t_exits_one(self, bundle, tmp_path, capsys):
        model = tmp_path / "model.json"
        code = run(["train", "--bundle", str(bundle), "--objective", "f3",
                    "--t", "0", "--out", str(model)])
        assert code == 1
        assert "t must be positive" in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize("key", ["mu1", "rel_tol"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_config_weight_exits_one(self, bundle, tmp_path, capsys,
                                                key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        model = tmp_path / "model.json"
        code = run(["--config", str(cfg), "train", "--bundle", str(bundle),
                    "--objective", "f3", "--max-iters", "5", "--out", str(model)])
        assert code == 1
        assert f"{key} must be finite" in capsys.readouterr().err
        assert not model.exists()

    def test_missing_bundle_exits_one(self, tmp_path, capsys):
        code = run(["train", "--bundle", str(tmp_path / "nope"),
                    "--objective", "f3", "--out", str(tmp_path / "m.json")])
        assert code == 1
        assert "manifest" in capsys.readouterr().err


class TestBundleValidation:
    """Every read of a bundle checks its tables by the rule ingest uses."""

    # case -> (table, row, column, new cell, what stderr must say)
    CASES = {
        "R holds 1e9": ("R.csv", 1, 1, "1e9", "outside [0, 4]"),
        "R id renamed": ("R.csv", 1, 0, "stranger", "do not match"),
        "X holds nan": ("X.csv", 1, 1, "nan", "non-finite"),
    }

    @staticmethod
    def edited(bundle, tmp_path, table, row, column, cell):
        """A copy of the bundle with one cell of one table replaced."""
        copy = tmp_path / "edited"
        shutil.copytree(bundle, copy)
        with open(copy / table, newline="") as fh:
            rows = list(csv.reader(fh))
        rows[row][column] = cell
        with open(copy / table, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        return copy

    @pytest.mark.parametrize("command", ["train", "evaluate", "predict"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_edited_bundle_exits_one(self, bundle, tmp_path, capsys, case,
                                     command):
        table, row, column, cell, message = self.CASES[case]
        model = tmp_path / "model.json"
        assert run(["train", "--bundle", str(bundle), "--objective", "f3",
                    "--max-iters", "5", "--out", str(model)]) == 0
        edited = str(self.edited(bundle, tmp_path, table, row, column, cell))
        out = tmp_path / "out"
        argv = {
            "train": ["train", "--bundle", edited, "--objective", "f3",
                      "--max-iters", "5", "--out", str(out)],
            "evaluate": ["evaluate", "--bundle", edited, "--protocol", "lodo",
                         "--strategies", "def,f3", "--max-iters", "5",
                         "--out", str(out)],
            "predict": ["predict", "--model", str(model), "--bundle", edited,
                        "--task", "pair_score", "--x", str(bundle / "X.csv"),
                        "--a", str(bundle / "A.csv"), "--out", str(out)],
        }[command]
        capsys.readouterr()
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert "tables fail validation" in err and message in err
        assert "SVD did not converge" not in err
        assert not out.exists()

    def test_ingest_and_train_name_the_same_issues(self, bundle, tmp_path,
                                                   capsys):
        edited = self.edited(bundle, tmp_path, "X.csv", 1, 1, "nan")
        ingest = ["ingest", "--x", str(edited / "X.csv"),
                  "--a", str(edited / "A.csv"),
                  "--performance", str(edited / "performance.csv"),
                  "--preferences", str(edited / "R.csv"),
                  "--out", str(tmp_path / "again")]
        train = ["train", "--bundle", str(edited), "--objective", "f3",
                 "--out", str(tmp_path / "model.json")]
        issues = []
        for argv in (ingest, train):
            capsys.readouterr()
            assert run(argv) == 1
            issues.append(capsys.readouterr().err.partition(
                "tables fail validation:\n")[2])
        assert issues[0] == issues[1] == "X[(0,0)]: non-finite value nan\n"
        assert not (tmp_path / "again").exists()


BUGS = ("KeyError", "numpy shape ValueError")


def seed_bug(monkeypatch, bug):
    """Put a programming error in the direct predictor that f3 and f4
    serve rankings with: a KeyError, or a product by p_query where
    p_target belongs, which numpy refuses as a ValueError because the
    bundle's d = 4 and l = 3 differ."""
    import metamine.recommend
    served = metamine.recommend._direct_predict

    def broken(query, targets_std, p_query, p_target):
        if bug == "KeyError":
            raise KeyError("missing")
        return served(query, targets_std, p_query, p_query)
    monkeypatch.setattr(metamine.recommend, "_direct_predict", broken)


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

    def test_table_format_prints_report_txt(self, bundle, tmp_path, capsys):
        out = tmp_path / "report"
        capsys.readouterr()
        assert run(["evaluate", "--bundle", str(bundle), "--protocol", "lodo",
                    "--max-iters", "20", "--format", "table",
                    "--out", str(out)]) == 0
        assert capsys.readouterr().out == (out / "report.txt").read_text()

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

    @pytest.mark.parametrize("bug", BUGS)
    def test_programming_error_in_strategy_exits_two(self, bundle, tmp_path,
                                                     monkeypatch, capsys, bug):
        seed_bug(monkeypatch, bug)
        out = tmp_path / "r"
        code = run(["evaluate", "--bundle", str(bundle), "--protocol", "lodo",
                    "--strategies", "def,f4", "--max-iters", "5",
                    "--out", str(out)])
        assert code == 2
        assert "runtime failure:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_nonpositive_jobs_exits_one(self, bundle, tmp_path, capsys, jobs):
        out = tmp_path / "r"
        code = run(["evaluate", "--bundle", str(bundle), "--protocol", "lodo",
                    "--strategies", "def", "--jobs", jobs, "--out", str(out)])
        assert code == 1
        assert f"jobs must be positive, got {jobs}" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("bug", BUGS)
    def test_programming_error_in_predictor_exits_two(self, bundle, tmp_path,
                                                      monkeypatch, capsys, bug):
        model = self.train_model(bundle, tmp_path)
        seed_bug(monkeypatch, bug)
        out = tmp_path / "pred.csv"
        code = run(["predict", "--model", str(model), "--bundle", str(bundle),
                    "--task", "workflow_prefs", "--x", str(bundle / "X.csv"),
                    "--out", str(out)])
        assert code == 2
        assert "runtime failure:" in capsys.readouterr().err
        assert not out.exists()
        assert not out.with_name("pred.csv.config.json").exists()

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

    def other_bundle(self, bundle, tmp_path, edit_line):
        """A copy of bundle with edit_line applied to each line of X.csv."""
        other = tmp_path / "other_bundle"
        shutil.copytree(bundle, other)
        lines = (other / "X.csv").read_text().splitlines()
        (other / "X.csv").write_text(
            "\n".join(edit_line(k, line) for k, line in enumerate(lines)) + "\n")
        return other

    def test_bundle_feature_names_must_match_model(self, bundle, tmp_path,
                                                   capsys):
        model = self.train_model(bundle, tmp_path, objective="f3")
        other = self.other_bundle(bundle, tmp_path, lambda k, line: line if k
                                  else line.replace(",", ",renamed_", 1))
        code = run(["predict", "--model", str(model), "--bundle", str(other),
                    "--task", "dataset_prefs", "--a", str(bundle / "A.csv"),
                    "--out", str(tmp_path / "p.csv")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {other}: X.csv feature names do not match the model's\n")

    def test_bundle_width_must_match_model_without_names(self, bundle,
                                                         tmp_path, capsys):
        model = self.train_model(bundle, tmp_path, objective="f3")
        doc = json.loads(model.read_text())
        model.write_text(json.dumps({**doc, "x_feature_names": None}))
        other = self.other_bundle(bundle, tmp_path, lambda k, line:
                                  line + (",extra" if k == 0 else ",0.5"))
        code = run(["predict", "--model", str(model), "--bundle", str(other),
                    "--task", "dataset_prefs", "--a", str(bundle / "A.csv"),
                    "--out", str(tmp_path / "p.csv")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {other}: X.csv has 5 features but the model has 4\n")

    @pytest.mark.parametrize("task", ["workflow_prefs", "pair_score"])
    def test_query_width_must_match_model_without_names(
            self, bundle, tmp_path, capsys, task):
        model = self.train_model(bundle, tmp_path, objective="f3")
        doc = json.loads(model.read_text())
        model.write_text(json.dumps({**doc, "x_feature_names": None}))
        wide = tmp_path / "wide_queries.csv"
        lines = (bundle / "X.csv").read_text().splitlines()
        wide.write_text("".join(line + (",extra\n" if k == 0 else ",0.5\n")
                                for k, line in enumerate(lines)))
        workflows = ["--a", str(bundle / "A.csv")] if task == "pair_score" else []
        code = run(["predict", "--model", str(model), "--bundle", str(bundle),
                    "--task", task, "--x", str(wide), *workflows,
                    "--out", str(tmp_path / "p.csv")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {wide}: query table fails validation:\n"
            "X[features]: 5 features where the model has 4\n")

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

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.update(objective="f5"), "unknown objective 'f5'"),
        (lambda doc: doc["u"].pop(), "u has 3 rows but x_standardization"),
        (lambda doc: doc.update(u=[]), "u is not a 2-d matrix"),
        (lambda doc: doc["hyper"].update(bogus=1),
         "hyper has unknown keys ['bogus']"),
    ])
    def test_inconsistent_model_exits_one(self, bundle, tmp_path, capsys,
                                          edit, message):
        model = self.train_model(bundle, tmp_path)
        doc = json.loads(model.read_text())
        edit(doc)
        model.write_text(json.dumps(doc))
        code = run(["predict", "--model", str(model), "--bundle", str(bundle),
                    "--task", "workflow_prefs", "--x", str(bundle / "X.csv"),
                    "--out", str(tmp_path / "p.csv")])
        assert code == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: {**doc, "u": [["nan", *doc["u"][0][1:]], *doc["u"][1:]]},
         "u holds a non-finite value 'nan'"),
        (lambda doc: {**doc, "x_standardization": {
            **doc["x_standardization"], "scale": ["0.0"] * len(doc["u"])}},
         "x_standardization.scale holds a value <= 0"),
        (lambda doc: {k: v for k, v in doc.items() if k != "x_standardization"},
         "model file lacks ['x_standardization']"),
        (lambda doc: {**doc, "x_feature_names": 3},
         "x_feature_names is neither null nor a list of strings"),
        (lambda doc: [doc], "a model file holds a JSON object"),
    ])
    def test_malformed_model_exits_one(self, bundle, tmp_path, capsys, edit,
                                       message):
        model = self.train_model(bundle, tmp_path, objective="f3")
        model.write_text(json.dumps(edit(json.loads(model.read_text()))))
        out = tmp_path / "p.csv"
        code = run(["predict", "--model", str(model), "--bundle", str(bundle),
                    "--task", "pair_score", "--x", str(bundle / "X.csv"),
                    "--a", str(bundle / "A.csv"), "--out", str(out)])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: {**doc, "objective": []}, "unknown objective []"),
        (lambda doc: {**doc, "hyper": {**doc["hyper"], "init": {}}},
         "hyper.init holds {}"),
        (lambda doc: {**doc, "hyper": {**doc["hyper"], "t": 0}},
         "t must be positive"),
    ])
    def test_unhashable_or_zero_model_field_exits_one(self, bundle, tmp_path,
                                                      capsys, edit, message):
        model = self.train_model(bundle, tmp_path, objective="f3")
        model.write_text(json.dumps(edit(json.loads(model.read_text()))))
        out = tmp_path / "p.csv"
        code = run(["predict", "--model", str(model), "--bundle", str(bundle),
                    "--task", "pair_score", "--x", str(bundle / "X.csv"),
                    "--a", str(bundle / "A.csv"), "--out", str(out)])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_model_that_is_not_json_exits_one(self, bundle, tmp_path, capsys):
        model = self.train_model(bundle, tmp_path, objective="f3")
        model.write_text(model.read_text()[:-3])
        out = tmp_path / "p.csv"
        code = run(["predict", "--model", str(model), "--bundle", str(bundle),
                    "--task", "pair_score", "--x", str(bundle / "X.csv"),
                    "--a", str(bundle / "A.csv"), "--out", str(out)])
        assert code == 1
        assert f"{model}: not JSON (" in capsys.readouterr().err
        assert not out.exists()

    def test_model_integer_too_long_exits_one(self, bundle, tmp_path, capsys):
        # an integer of more digits than Python converts (its int-string
        # limit, 4,300) is no JSON that json can read either
        model = self.train_model(bundle, tmp_path, objective="f3")
        doc = json.loads(model.read_text())
        doc["u"][0][0] = "@"
        model.write_text(json.dumps(doc).replace('"@"', "1" + "0" * 5000))
        out = tmp_path / "p.csv"
        code = run(["predict", "--model", str(model), "--bundle", str(bundle),
                    "--task", "workflow_prefs", "--x", str(bundle / "X.csv"),
                    "--out", str(out)])
        assert code == 1
        assert (f"{model}: not JSON (Exceeds the limit (4300 digits)"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_pair_scores_equal_the_per_pair_formula(self, tmp_path):
        # every score of a t = 30 model is the per-pair x'U V'a to the last
        # bit, as the per-pair serving loop wrote it
        raw, bundle = tmp_path / "raw", tmp_path / "bundle"
        model, out = tmp_path / "f3.json", tmp_path / "pairs.csv"
        assert run(["synth", "--n", "12", "--m", "9", "--d", "34", "--l", "31",
                    "--latent-t", "3", "--seed", "5", "--out", str(raw)]) == 0
        assert _ingest(raw, bundle) == 0
        assert run(["train", "--bundle", str(bundle), "--objective", "f3",
                    "--t", "30", "--max-iters", "10", "--out", str(model)]) == 0
        assert run(["predict", "--model", str(model), "--bundle", str(bundle),
                    "--task", "pair_score", "--x", str(raw / "X.csv"),
                    "--a", str(raw / "A.csv"), "--out", str(out)]) == 0
        params = load_model(model)
        assert params.t == 30
        x = read_descriptor_csv(raw / "X.csv")
        a = read_descriptor_csv(raw / "A.csv")
        expected = []
        for xid, xf in zip(x.entity_ids, x.features):
            for aid, af in zip(a.entity_ids, a.features):
                xs = params.x_standardization.apply(xf)
                as_ = params.a_standardization.apply(af)
                score = float((params.u.T @ xs) @ (params.v.T @ as_))
                expected.append([xid, aid, repr(score), "f3_direct", ""])
        with open(out, newline="") as fh:
            assert list(csv.reader(fh))[1:] == expected

    @pytest.mark.parametrize("task, flag", [("workflow_prefs", "--x"),
                                            ("dataset_prefs", "--a"),
                                            ("pair_score", "--a")])
    def test_duplicate_query_id_exits_one(self, bundle, tmp_path, capsys,
                                          task, flag):
        model = self.train_model(bundle, tmp_path)
        table = "X.csv" if flag == "--x" else "A.csv"
        lines = (bundle / table).read_text().splitlines()
        queries = tmp_path / "queries.csv"
        queries.write_text("\n".join(lines + [lines[1]]) + "\n")
        given = {"--x": str(bundle / "X.csv"), "--a": str(bundle / "A.csv"),
                 flag: str(queries)}
        out = tmp_path / "p.csv"
        capsys.readouterr()
        assert run(["predict", "--model", str(model), "--bundle", str(bundle),
                    "--task", task, "--x", given["--x"], "--a", given["--a"],
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert str(queries) in err
        assert f"duplicate id {lines[1].split(',')[0]!r}" in err
        assert not out.exists()

    def test_header_only_query_names_the_file(self, bundle, tmp_path, capsys):
        model = self.train_model(bundle, tmp_path)
        queries = tmp_path / "header_only.csv"
        queries.write_text((bundle / "X.csv").read_text().splitlines()[0] + "\n")
        capsys.readouterr()
        assert run(["predict", "--model", str(model), "--bundle", str(bundle),
                    "--task", "workflow_prefs", "--x", str(queries),
                    "--out", str(tmp_path / "p.csv")]) == 1
        assert f"{queries}: no data rows" in capsys.readouterr().err

    @pytest.mark.parametrize("task", ["workflow_prefs", "pair_score"])
    def test_overflowing_query_exits_one(self, bundle, tmp_path, capsys, task):
        model = self.train_model(bundle, tmp_path)
        queries = tmp_path / "huge.csv"
        header, first, second = (bundle / "X.csv").read_text().splitlines()[:3]
        # every descriptor of the second query near the largest float
        huge = [second.split(",")[0]] + ["1.7e308"] * header.count(",")
        queries.write_text(f"{header}\n{first}\n{','.join(huge)}\n")
        out = tmp_path / "p.csv"
        capsys.readouterr()
        assert run(["predict", "--model", str(model), "--bundle", str(bundle),
                    "--task", task, "--x", str(queries),
                    "--a", str(bundle / "A.csv"), "--out", str(out)]) == 1
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("task", ["workflow_prefs", "dataset_prefs",
                                      "pair_score"])
    def test_first_overflowing_query_is_named(self, bundle, tmp_path, capsys,
                                              task):
        # the 2nd and 3rd of four queries overflow: the error names the 2nd,
        # with the first target that scoring it alone finds non-finite
        model = self.train_model(bundle, tmp_path)
        name = "A.csv" if task == "dataset_prefs" else "X.csv"
        header, *rows = (bundle / name).read_text().splitlines()[:5]
        for k, cell in ((1, "1.7e308"), (2, "-1.7e308")):
            rows[k] = ",".join([rows[k].split(",")[0]] + [cell] * header.count(","))
        queries = tmp_path / "huge.csv"
        queries.write_text("\n".join([header, *rows]) + "\n")
        out = tmp_path / "p.csv"
        capsys.readouterr()
        assert run(["predict", "--model", str(model), "--bundle", str(bundle),
                    "--task", task, f"--{name[0].lower()}", str(queries),
                    *(["--a", str(bundle / "A.csv")] if task == "pair_score" else []),
                    "--out", str(out)]) == 1
        params, data = load_model(model), read_bundle(bundle)
        second = read_descriptor_csv(queries).features[1]
        x_new, a_new = ((None, second) if task == "dataset_prefs" else
                        (second, data.a.features if task == "pair_score" else None))
        with np.errstate(all="ignore"):
            alone = predict(Strategy.F4_DIRECT, Task(task), x_new, a_new,
                            data.x, data.a, data.r, params, 5).values
        targets = data.x if task == "dataset_prefs" else data.a
        first = targets.entity_ids[np.flatnonzero(~np.isfinite(alone))[0]]
        qid = rows[1].split(",")[0]
        assert capsys.readouterr().err == (
            f"error: non-finite score of query {qid!r} for {first!r}: a query "
            "descriptor is too large for the model\n")
        assert not out.exists()

    def test_overflow_named_in_row_order(self, bundle, tmp_path, capsys):
        # U = V = [[1]], so a pair score is x * a: q1 overflows at w1 only,
        # q2 at both, and the error names (q1, w1), the first in row order
        one = StandardizationRecord(mean=[0.0], scale=[1.0], constant_columns=())
        model = tmp_path / "m.json"
        save_model(model, ModelParams(u=[[1.0]], v=[[1.0]], t=1,
                                      hyper=HyperParams(t=1), objective="f3",
                                      x_standardization=one,
                                      a_standardization=one))
        (tmp_path / "qx.csv").write_text(
            "id,f\nq0,1.0\nq1,1e308\nq2,1.5e308\nq3,0.5\n")
        (tmp_path / "qa.csv").write_text("id,g\nw0,1.5\nw1,3.0\n")
        capsys.readouterr()
        assert run(["predict", "--model", str(model), "--bundle", str(bundle),
                    "--task", "pair_score", "--x", str(tmp_path / "qx.csv"),
                    "--a", str(tmp_path / "qa.csv"),
                    "--out", str(tmp_path / "p.csv")]) == 1
        assert capsys.readouterr().err == (
            "error: non-finite score of query 'q1' for 'w1': a query "
            "descriptor is too large for the model\n")


def _edit_cell(path, row, column, cell):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[row][column] = cell
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _ingest(raw, out):
    return run(["ingest", "--x", str(raw / "X.csv"), "--a", str(raw / "A.csv"),
                "--performance", str(raw / "performance.csv"),
                "--preferences", str(raw / "R.csv"), "--out", str(out)])


class TestHugeDescriptorValue:
    """A descriptor column that does not standardize to finite values (one
    cell of 1e308 overflows its variance) fails the bundle rule, so no
    command trains on it or writes a non-finite value from it."""

    @pytest.fixture
    def raw(self, tmp_path):
        raw = tmp_path / "raw"
        assert run(["synth", "--n", "8", "--m", "5", "--seed", "4",
                    "--out", str(raw)]) == 0
        return raw

    def test_ingest_exits_one_naming_the_column(self, raw, tmp_path, capsys):
        _edit_cell(raw / "X.csv", 3, 2, "1e308")
        feature = (raw / "X.csv").read_text().splitlines()[0].split(",")[2]
        capsys.readouterr()
        assert _ingest(raw, tmp_path / "bundle") == 1
        err = capsys.readouterr().err
        assert f"X[column {feature!r}]: does not standardize to finite " \
               "values (largest magnitude 1e+308)" in err
        assert not (tmp_path / "bundle").exists()

    @pytest.mark.parametrize("command", ["train", "evaluate", "predict"])
    def test_bundle_edited_after_ingest_exits_one(self, raw, tmp_path, capsys,
                                                  command):
        bundle, model = tmp_path / "bundle", tmp_path / "model.json"
        assert _ingest(raw, bundle) == 0
        assert run(["train", "--bundle", str(bundle), "--objective", "f3",
                    "--max-iters", "5", "--out", str(model)]) == 0
        _edit_cell(bundle / "X.csv", 3, 2, "1e308")
        out = tmp_path / "out"
        argv = {
            "train": ["train", "--bundle", str(bundle), "--objective", "f3",
                      "--out", str(out)],
            "evaluate": ["evaluate", "--bundle", str(bundle), "--protocol",
                         "lodo", "--strategies", "def,ec,f3", "--max-iters",
                         "5", "--out", str(out)],
            "predict": ["predict", "--model", str(model), "--bundle",
                        str(bundle), "--task", "pair_score",
                        "--x", str(raw / "X.csv"), "--a", str(raw / "A.csv"),
                        "--out", str(out)],
        }[command]
        capsys.readouterr()
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert "tables fail validation" in err and "1e+308" in err
        assert not out.exists()


class TestOutcomeCellNotZeroOrOne:
    """ingest names the file, line and token of an outcome cell that is not
    0 or 1, as it names a token that is not a number."""

    @pytest.mark.parametrize("token", ["nan", "inf", "1e308", "2"])
    def test_exits_one_naming_file_line_and_token(self, tmp_path, capsys,
                                                  token):
        raw = tmp_path / "raw"
        assert run(["synth", "--n", "6", "--m", "5", "--mode", "outcome",
                    "--instances", "20", "--seed", "2", "--out", str(raw)]) == 0
        victim = sorted((raw / "outcomes").glob("*.csv"))[3]
        _edit_cell(victim, 4, 2, token)
        capsys.readouterr()
        code = run(["ingest", "--x", str(raw / "X.csv"),
                    "--a", str(raw / "A.csv"),
                    "--performance", str(raw / "performance.csv"),
                    "--outcomes-dir", str(raw / "outcomes"),
                    "--out", str(tmp_path / "bundle")])
        assert code == 1
        assert f"error: {victim}: line 5: not 0 or 1: {token!r}" \
            in capsys.readouterr().err
        assert not (tmp_path / "bundle").exists()


class TestPerformanceReadWhereUsed:
    """train and predict never open performance.csv: a bundle whose P is
    gone or out of range trains and serves as the intact bundle does,
    while evaluate (which scores t5p from P) and ingest still reject it."""

    EDITS = ("deleted", "holds 2.0")

    @staticmethod
    def outputs(bundle, out, queries):
        """Train f3 on bundle and serve both of its tasks; the bytes of
        the model and of each prediction CSV."""
        out.mkdir()
        model = out / "model.json"
        assert run(["train", "--bundle", str(bundle), "--objective", "f3",
                    "--max-iters", "20", "--out", str(model)]) == 0
        for task in ("workflow_prefs", "pair_score"):
            assert run(["predict", "--model", str(model), "--bundle",
                        str(bundle), "--task", task,
                        "--x", str(queries / "X.csv"),
                        "--a", str(queries / "A.csv"),
                        "--out", str(out / f"{task}.csv")]) == 0
        return {p.name: p.read_bytes() for p in (
            model, out / "workflow_prefs.csv", out / "pair_score.csv")}

    @staticmethod
    def edited(bundle, tmp_path, edit):
        copy = tmp_path / "edited"
        shutil.copytree(bundle, copy)
        if edit == "deleted":
            (copy / "performance.csv").unlink()
        else:
            _edit_cell(copy / "performance.csv", 1, 2, "2.0")
        return copy

    @pytest.mark.parametrize("edit", EDITS)
    def test_train_and_predict_ignore_p(self, bundle, tmp_path, edit):
        intact = self.outputs(bundle, tmp_path / "intact", bundle)
        edited = self.edited(bundle, tmp_path, edit)
        assert self.outputs(edited, tmp_path / "out", bundle) == intact

    @pytest.mark.parametrize("edit", EDITS)
    def test_evaluate_and_ingest_still_check_p(self, bundle, tmp_path, capsys,
                                               edit):
        edited = self.edited(bundle, tmp_path, edit)
        message = ("performance.csv" if edit == "deleted" else
                   "P[(0,0)]: performance 2.0 out of [0,1]")
        out = tmp_path / "out"
        for argv in (["evaluate", "--bundle", str(edited), "--protocol", "lodo",
                      "--strategies", "def,f3", "--max-iters", "5",
                      "--out", str(out)],
                     ["ingest", "--x", str(edited / "X.csv"),
                      "--a", str(edited / "A.csv"),
                      "--performance", str(edited / "performance.csv"),
                      "--preferences", str(edited / "R.csv"),
                      "--out", str(out)]):
            capsys.readouterr()
            assert run(argv) == 1
            assert message in capsys.readouterr().err
            assert not out.exists()


class TestPerformanceReadOnlyForLodo:
    """Only LODO scores t5p from P: evaluate under lowo and lodwo runs on
    a bundle without performance.csv, lodo still names the file."""

    def test_lowo_and_lodwo_run_without_p(self, bundle, tmp_path, capsys):
        edited = tmp_path / "no_p"
        shutil.copytree(bundle, edited)
        (edited / "performance.csv").unlink()
        for protocol in ("lowo", "lodwo"):
            out = tmp_path / protocol
            assert run(["evaluate", "--bundle", str(edited), "--protocol",
                        protocol, "--strategies", "def,f3", "--max-iters", "5",
                        "--out", str(out)]) == 0
            assert (out / "report.json").exists()
        capsys.readouterr()
        out = tmp_path / "lodo"
        assert run(["evaluate", "--bundle", str(edited), "--protocol", "lodo",
                    "--strategies", "def,f3", "--max-iters", "5",
                    "--out", str(out)]) == 1
        assert "performance.csv" in capsys.readouterr().err
        assert not out.exists()


class TestJobsOnlySpreadScoring:
    @pytest.mark.parametrize("protocol", ["lodo", "lowo", "lodwo"])
    def test_report_bytes_equal_for_one_and_two_jobs(self, bundle, tmp_path,
                                                     protocol):
        reports = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            assert run(["evaluate", "--bundle", str(bundle), "--protocol",
                        protocol, "--strategies", "def,ec,f1,f2,f3,f4,f4-knn",
                        "--max-iters", "30", "--jobs", jobs,
                        "--out", str(out)]) == 0
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1]


class TestNonFiniteNoiseSigma:
    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_synth_exits_one(self, tmp_path, capsys, sigma):
        out = tmp_path / "raw"
        assert run(["synth", "--mode", "noisy", "--noise-sigma", sigma,
                    "--out", str(out)]) == 1
        assert "noise_sigma must be finite and nonnegative" \
            in capsys.readouterr().err
        assert not out.exists()


class TestNoiseInExactMode:
    def test_synth_exits_one_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "raw"
        assert run(["synth", "--noise-sigma", "0.3", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: noise_sigma applies to the noisy and outcome modes only\n")
        assert not out.exists()


class TestNegativeSeed:
    """numpy's generator takes no negative seed: SynthConfig and
    HyperParams reject one, from a flag, a config file or a model file
    alike, so the command exits 1, not 2, and writes nothing."""

    COMMANDS = {
        "synth": lambda bundle: ["synth"],
        "train": lambda bundle: ["train", "--bundle", str(bundle),
                                 "--objective", "f4"],
        "evaluate": lambda bundle: ["evaluate", "--bundle", str(bundle),
                                    "--protocol", "lodo"],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_flag_exits_one(self, bundle, tmp_path, capsys, command):
        out = tmp_path / "out"
        capsys.readouterr()
        assert run([*self.COMMANDS[command](bundle), "--seed", "-1",
                    "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: seed must be nonnegative\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_config_exits_one(self, bundle, tmp_path, capsys, command):
        config, out = tmp_path / "config.json", tmp_path / "out"
        config.write_text('{"seed": -1}')
        capsys.readouterr()
        assert run(["--config", str(config), *self.COMMANDS[command](bundle),
                    "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: seed must be nonnegative\n"
        assert not out.exists()

    def test_model_file_exits_one(self, bundle, tmp_path, capsys):
        model, out = tmp_path / "model.json", tmp_path / "p.csv"
        assert run(["train", "--bundle", str(bundle), "--objective", "f3",
                    "--max-iters", "5", "--t", "2", "--out", str(model)]) == 0
        doc = json.loads(model.read_text())
        doc["hyper"]["seed"] = -1
        model.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["predict", "--model", str(model), "--bundle", str(bundle),
                    "--task", "pair_score", "--x", str(bundle / "X.csv"),
                    "--a", str(bundle / "A.csv"), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {model}: hyper: seed must be nonnegative\n")
        assert not out.exists()


class TestNoStrategyLeft:
    @pytest.mark.parametrize("protocol, strategies, task", [
        ("lodo", "", "workflow ranking"),
        ("lodwo", "ec", "pair scoring"),   # ec cannot score pairs
    ])
    def test_exits_one_without_a_report(self, bundle, tmp_path, capsys,
                                        protocol, strategies, task):
        out = tmp_path / "r"
        assert run(["evaluate", "--bundle", str(bundle), "--protocol",
                    protocol, "--strategies", strategies,
                    "--out", str(out)]) == 1
        assert f"no strategy left to run for {task}" in capsys.readouterr().err
        assert not out.exists()


class TestRepeatedStrategy:
    def test_exits_one_naming_it_without_a_report(self, bundle, tmp_path,
                                                  capsys):
        out = tmp_path / "r"
        assert run(["evaluate", "--bundle", str(bundle), "--protocol", "lodo",
                    "--strategies", "def,def,f4", "--out", str(out)]) == 1
        assert "strategy def is listed more than once" \
            in capsys.readouterr().err
        assert not out.exists()


class TestNoThreadStarted:
    @pytest.mark.parametrize("protocol", ["lodo", "lowo", "lodwo"])
    def test_evaluate_with_two_jobs(self, bundle, tmp_path, monkeypatch,
                                    protocol):
        import threading

        def no_thread(self):
            raise RuntimeError("a thread was started")
        monkeypatch.setattr(threading.Thread, "start", no_thread)
        assert run(["evaluate", "--bundle", str(bundle), "--protocol",
                    protocol, "--strategies", "def,f3", "--max-iters", "5",
                    "--jobs", "2", "--out", str(tmp_path / "r")]) == 0


# Runs each argv of the JSON list in sys.argv[1] through main in one fresh
# process, and asserts that scipy.stats is never imported.
_STATS_LOADED_BY = """
import json, sys
from metamine.cli import main
*serving, last = json.loads(sys.argv[1])
assert "scipy.stats" not in sys.modules, "import metamine.cli"
for argv in serving:
    assert main(argv) == 0, argv
    assert "scipy.stats" not in sys.modules, argv[0]
assert main(last) == 0, last
assert "scipy.stats" not in sys.modules, last[0]
"""


class TestNoScipyStatsAtStartUp:
    """Importing scipy.stats would be most of a fresh process's start-up,
    and the package runs on numpy alone: synth, ingest, predict and
    train f4 (the similarity targets, ranked by preference._average_ranks)
    never import it."""

    def test_fresh_process(self, tmp_path):
        raw, bundle = tmp_path / "raw", tmp_path / "bundle"

        def train(objective):
            return ["train", "--bundle", str(bundle), "--objective", objective,
                    "--max-iters", "5", "--out", str(tmp_path / f"{objective}.json")]
        synth = ["synth", "--n", "6", "--m", "5", "--mode", "outcome",
                 "--instances", "20", "--seed", "2", "--out", str(raw)]
        ingest = ["ingest", "--x", str(raw / "X.csv"), "--a", str(raw / "A.csv"),
                  "--performance", str(raw / "performance.csv"),
                  "--outcomes-dir", str(raw / "outcomes"), "--out", str(bundle)]
        predict = ["predict", "--model", str(tmp_path / "f3.json"),
                   "--bundle", str(bundle), "--task", "pair_score",
                   "--x", str(raw / "X.csv"), "--a", str(raw / "A.csv"),
                   "--out", str(tmp_path / "p.csv")]
        for argv in (synth, ingest, train("f3")):     # predict's model
            assert run(argv) == 0
        src = os.path.dirname(os.path.dirname(metamine.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        done = subprocess.run(
            [sys.executable, "-c", _STATS_LOADED_BY,
             json.dumps([synth, ingest, predict, train("f4")])],
            env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr


class TestReportBuiltOnce:
    def test_evaluate_builds_the_report_dict_once(self, bundle, tmp_path,
                                                 monkeypatch):
        """report.json and report.txt come from one to_dict: its sign
        tests run once per evaluate."""
        from metamine.evaluation import EvaluationReport
        calls, to_dict = [], EvaluationReport.to_dict

        def counted(self):
            calls.append(self)
            return to_dict(self)
        monkeypatch.setattr(EvaluationReport, "to_dict", counted)
        out = tmp_path / "r"
        assert run(["evaluate", "--bundle", str(bundle), "--protocol", "lodo",
                    "--strategies", "def,ec,f3", "--max-iters", "5",
                    "--out", str(out)]) == 0
        assert len(calls) == 1
        assert (out / "report.txt").read_text() == calls[0].render_table() + "\n"


class TestOneParserPerProcess:
    """main parses every command of a process with one parser, and the
    preset and config layers of one command never reach the next."""

    def test_layered_defaults_do_not_leak(self, bundle, tmp_path,
                                          monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mu1": 7.0}))
        train = ["train", "--bundle", str(bundle), "--objective", "f4",
                 "--max-iters", "5", "--out", "model.json"]
        runs = {"first": train, "preset": [*train, "--preset", "paper-task1"],
                "config": ["--config", str(cfg), *train], "last": train}
        for name, argv in runs.items():
            # the same relative --out, so the resolved configs may match
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            assert run(argv) == 0
        for name in ("model.json", "model.json.config.json"):
            first = (tmp_path / "first" / name).read_bytes()
            assert (tmp_path / "last" / name).read_bytes() == first
            for layered in ("preset", "config"):
                assert (tmp_path / layered / name).read_bytes() != first

    def test_only_layered_commands_build_a_parser(self, bundle, tmp_path,
                                                  monkeypatch):
        from metamine import cli
        calls, build_parser = [], cli.build_parser

        def counted():
            calls.append(1)
            return build_parser()
        monkeypatch.setattr(cli, "build_parser", counted)
        train = ["train", "--bundle", str(bundle), "--objective", "f4",
                 "--max-iters", "5"]
        assert run([*train, "--out", str(tmp_path / "m0.json")]) == 0
        first = len(calls)      # 0 if this process already built its parser
        assert first <= 1
        for i in range(1, 4):
            assert run([*train, "--out", str(tmp_path / f"m{i}.json")]) == 0
        assert len(calls) == first
        assert run([*train, "--preset", "paper-task1",
                    "--out", str(tmp_path / "preset.json")]) == 0
        assert len(calls) == first + 1


def _ids(path, column):
    """The ids in one column of a CSV's data rows."""
    with open(path, newline="") as fh:
        return [row[column] for row in list(csv.reader(fh))[1:]]


def _ties(bundle, path, first_seen_swapped=False):
    """A significance CSV of all ties over a bundle's ids, each pair named
    in A's order; with first_seen_swapped, its first line names the second
    workflow first, so its workflows are seen in another order than A's."""
    wf, datasets = _ids(bundle / "A.csv", 0), _ids(bundle / "X.csv", 0)
    pairs = [(k, l) for k in range(len(wf)) for l in range(k + 1, len(wf))]
    if first_seen_swapped:
        pairs[0] = (1, 0)
    path.write_text("dataset_id,workflow_k,workflow_l,outcome\n" + "".join(
        f"{ds},{wf[k]},{wf[l]},tie\n" for ds in datasets for k, l in pairs))


def _bundle_bytes(directory):
    """The bytes of a bundle's tables and manifest."""
    return {name: (Path(directory) / name).read_bytes()
            for name in ("X.csv", "A.csv", "performance.csv", "R.csv",
                         "manifest.json")}


def _ingest_files(files, out):
    return run(["ingest", *(str(v) for pair in files.items() for v in pair),
                "--out", str(out)])


class TestIdsInAnotherOrder:
    """Ids that match their table's as a set but not in order: a wide R's
    are named at the first position where they differ, with both ids
    there; a long-format table (P, or a significance CSV) is put in X's
    and A's order, and ingests to the bundle of the ordered file."""

    def swapped_rows(self, bundle, path, name):
        lines = (bundle / name).read_text().splitlines()
        lines[1], lines[2] = lines[2], lines[1]
        path.write_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("flag, name, where, axis, column", [
        ("--preferences", "R.csv", "R", "dataset", 0),
        ("--performance", "performance.csv", "P", "workflow", 1),
        ("--significance", "sig.csv", "R", "workflow", 1),
    ])
    def test_ingest_names_both_ids(self, bundle, tmp_path, capsys, flag, name,
                                   where, axis, column):
        edited = tmp_path / name
        files = {"--x": bundle / "X.csv", "--a": bundle / "A.csv",
                 "--performance": bundle / "performance.csv",
                 "--preferences": bundle / "R.csv"}
        if flag == "--significance":
            _ties(bundle, tmp_path / "ordered.csv")
            _ties(bundle, edited, first_seen_swapped=True)
            del files["--preferences"]
        else:
            self.swapped_rows(bundle, edited, name)
        ordered = dict(files)
        if flag == "--significance":
            ordered[flag] = tmp_path / "ordered.csv"
        files[flag] = edited
        code = _ingest_files(files, tmp_path / "out")
        table = "X" if axis == "dataset" else "A"
        expected, got = _ids(bundle / f"{table}.csv", 0), _ids(edited, column)
        assert got[0] == expected[1]
        if flag != "--preferences":
            assert code == 0
            assert _ingest_files(ordered, tmp_path / "ordered") == 0
            assert (_bundle_bytes(tmp_path / "out")
                    == _bundle_bytes(tmp_path / "ordered"))
            return
        assert code == 1
        assert (f"{where}[{axis}_ids]: {axis} ids do not match {table} entity "
                f"ids (position 0 holds {got[0]!r} where {table} holds "
                f"{expected[0]!r})") in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


# a significance outcome as the same pair named the other way round says it
_MIRRORED = {"k_wins": "l_wins", "l_wins": "k_wins", "tie": "tie"}


class TestLongFormatRowOrder:
    """Any order of a long-format table's data rows ingests to the bundle
    of the file in X's and A's order, and so does a significance CSV whose
    pairs are named either way round, each outcome mirrored with it."""

    @pytest.fixture(scope="class")
    def raw(self, tmp_path_factory):
        """A 4 x 4 synth problem, a significance CSV over its ids with
        every pair in A's order and seeded outcomes, and the bundles that
        ingest makes of each source in that order."""
        raw = tmp_path_factory.mktemp("raw")
        assert run(["synth", "--n", "4", "--m", "4", "--d", "3", "--l", "3",
                    "--latent-t", "2", "--seed", "5", "--out", str(raw)]) == 0
        rng = random.Random(3)
        wf, datasets = _ids(raw / "A.csv", 0), _ids(raw / "X.csv", 0)
        (raw / "sig.csv").write_text(
            "dataset_id,workflow_k,workflow_l,outcome\n" + "".join(
                f"{ds},{wf[k]},{wf[l]},{rng.choice(list(_MIRRORED))}\n"
                for ds in datasets for k in range(len(wf))
                for l in range(k + 1, len(wf))))
        for flag, name in (("--performance", "performance.csv"),
                           ("--significance", "sig.csv")):
            assert _ingest_files(self.files(raw, flag, raw / name),
                                 raw / flag.strip("-")) == 0
        return raw

    @staticmethod
    def files(raw, flag, table):
        """ingest's flags, table as the one under flag: R from the
        significance CSV, or from R.csv when table is P."""
        files = {"--x": raw / "X.csv", "--a": raw / "A.csv",
                 "--performance": raw / "performance.csv"}
        if flag == "--significance":
            files[flag] = table
        else:
            files.update({"--preferences": raw / "R.csv", flag: table})
        return files

    def shuffled(self, raw, flag, name, data, flip):
        """The bundle bytes of name's data rows in a drawn order, each
        significance row drawn either way round when flip."""
        header, *rows = (raw / name).read_text().splitlines()
        rows = data.draw(st.permutations(rows))
        if flip:
            flips = data.draw(st.lists(st.booleans(), min_size=len(rows),
                                       max_size=len(rows)))
            rows = [f"{ds},{wl},{wk},{_MIRRORED[outcome]}" if turn else row
                    for row, turn in zip(rows, flips)
                    for ds, wk, wl, outcome in [row.split(",")]]
        with tempfile.TemporaryDirectory() as tmp:
            table = Path(tmp) / name
            table.write_text("\n".join([header, *rows]) + "\n")
            assert _ingest_files(self.files(raw, flag, table), Path(tmp) / "b") == 0
            return _bundle_bytes(Path(tmp) / "b")

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_performance_rows_in_any_order(self, raw, data):
        assert (self.shuffled(raw, "--performance", "performance.csv", data, False)
                == _bundle_bytes(raw / "performance"))

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_significance_rows_in_any_order_either_way_round(self, raw, data):
        assert (self.shuffled(raw, "--significance", "sig.csv", data, True)
                == _bundle_bytes(raw / "significance"))


class TestModelInitIsCheckedByHyperParams:
    def test_unknown_init_exits_one(self, bundle, tmp_path, capsys):
        model = tmp_path / "model.json"
        assert run(["train", "--bundle", str(bundle), "--objective", "f3",
                    "--max-iters", "5", "--t", "2", "--out", str(model)]) == 0
        doc = json.loads(model.read_text())
        doc["hyper"]["init"] = "bogus"
        model.write_text(json.dumps(doc))
        out = tmp_path / "p.csv"
        code = run(["predict", "--model", str(model), "--bundle", str(bundle),
                    "--task", "pair_score", "--x", str(bundle / "X.csv"),
                    "--a", str(bundle / "A.csv"), "--out", str(out)])
        assert code == 1
        assert (f"{model}: hyper: 'bogus' is not a valid InitScheme"
                in capsys.readouterr().err)
        assert not out.exists()


class TestValidationErrorsExitOne:
    """Validation errors of the library that reach the CLI: exit 1 and
    the library's message."""

    def test_evaluate_zero_neighbors(self, bundle, tmp_path, capsys):
        code = run(["evaluate", "--bundle", str(bundle), "--protocol", "lodo",
                    "--strategies", "def,ec", "--neighbors", "0",
                    "--out", str(tmp_path / "r")])
        assert code == 1
        assert "n_neighbors must be positive" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_train_negative_max_iters(self, bundle, tmp_path, capsys):
        model = tmp_path / "model.json"
        code = run(["train", "--bundle", str(bundle), "--objective", "f3",
                    "--max-iters", "-1", "--out", str(model)])
        assert code == 1
        assert "max_iters must be nonnegative" in capsys.readouterr().err
        assert not model.exists()

    def test_ingest_outcomes_with_one_workflow(self, bundle, tmp_path, capsys):
        outcomes = tmp_path / "outcomes"
        outcomes.mkdir()
        for ds in _ids(bundle / "X.csv", 0):
            (outcomes / f"{ds}.csv").write_text("wf000\n1\n0\n")
        code = run(["ingest", "--x", str(bundle / "X.csv"),
                    "--a", str(bundle / "A.csv"),
                    "--performance", str(bundle / "performance.csv"),
                    "--outcomes-dir", str(outcomes),
                    "--out", str(tmp_path / "out")])
        assert code == 1
        assert "need at least two workflows to compare" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("protocol, n, m, message", [
        ("lodo", 5, 1, "needs at least 3 datasets and 2 workflows"),
        ("lowo", 1, 4, "needs at least 3 workflows and 2 datasets")])
    def test_evaluate_bundle_too_small_to_rank(self, tmp_path, capsys,
                                               protocol, n, m, message):
        # a valid bundle with one workflow (LODO) or one dataset (LOWO)
        # leaves every fold one value to rank: rejected before any fold
        x, a, p = make_tables(n=n, m=m)
        r = PreferenceMatrix(x.entity_ids, a.entity_ids,
                             np.tile(np.arange(m, dtype=float), (n, 1)))
        raw, bundle = tmp_path / "raw", tmp_path / "bundle"
        write_bundle(raw, MetaMiningData(x=x, a=a, r=r, performance=p))
        assert run(["ingest", "--x", str(raw / "X.csv"), "--a", str(raw / "A.csv"),
                    "--performance", str(raw / "performance.csv"),
                    "--preferences", str(raw / "R.csv"), "--out", str(bundle)]) == 0
        code = run(["evaluate", "--bundle", str(bundle), "--protocol", protocol,
                    "--max-iters", "5", "--out", str(tmp_path / "r")])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_predict_model_without_scale(self, bundle, tmp_path, capsys):
        model = tmp_path / "model.json"
        assert run(["train", "--bundle", str(bundle), "--objective", "f3",
                    "--max-iters", "5", "--t", "2", "--out", str(model)]) == 0
        doc = json.loads(model.read_text())
        del doc["x_standardization"]["scale"]
        model.write_text(json.dumps(doc))
        out = tmp_path / "p.csv"
        code = run(["predict", "--model", str(model), "--bundle", str(bundle),
                    "--task", "pair_score", "--x", str(bundle / "X.csv"),
                    "--a", str(bundle / "A.csv"), "--out", str(out)])
        assert code == 1
        assert "x_standardization lacks ['scale']" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["u", "x_standardization.mean", "hyper.mu1"])
    def test_predict_model_integer_too_large(self, bundle, tmp_path, capsys, key):
        # 10**400 written as JSON digits overflows float(): a malformed
        # model file, exit 1 naming the key, as "1e400" is
        model = tmp_path / "model.json"
        assert run(["train", "--bundle", str(bundle), "--objective", "f3",
                    "--max-iters", "5", "--t", "2", "--out", str(model)]) == 0
        doc = json.loads(model.read_text())
        section, _, name = key.rpartition(".")
        if section == "hyper":
            doc["hyper"][name] = 10 ** 400
        elif section:
            doc[section][name][0] = 10 ** 400
        else:
            doc[name][0][0] = 10 ** 400
        model.write_text(json.dumps(doc))
        out = tmp_path / "p.csv"
        capsys.readouterr()
        code = run(["predict", "--model", str(model), "--bundle", str(bundle),
                    "--task", "workflow_prefs", "--x", str(bundle / "X.csv"),
                    "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {model}: {key} holds an integer too large for a float\n")
        assert not out.exists()


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


class TestTrainingThatCannotStart:
    """On an 8 x 5 bundle, a weight so large that the starting value or its
    squared gradient norm is not finite fails as a validation error, with
    no model file and no report directory; a weight whose trial steps
    overflow only makes the line search fail. Each runs under the suite's
    error::RuntimeWarning filter."""

    @pytest.fixture
    def bundle(self, tmp_path):
        raw, bundle = tmp_path / "raw", tmp_path / "bundle"
        assert run(["synth", "--n", "8", "--m", "5", "--d", "4", "--l", "3",
                    "--latent-t", "2", "--out", str(raw)]) == 0
        assert _ingest(raw, bundle) == 0
        return bundle

    @pytest.mark.parametrize("mu1, what", [("1e308", "the starting value"),
                                           ("1e200", "the squared gradient norm")])
    def test_train_exits_one_without_a_model(self, bundle, tmp_path, capsys,
                                             mu1, what):
        model = tmp_path / "model.json"
        capsys.readouterr()
        assert run(["train", "--bundle", str(bundle), "--objective", "f3",
                    "--mu1", mu1, "--out", str(model)]) == 1
        assert f"error: objective f3: {what} is not finite" in capsys.readouterr().err
        assert not model.exists()

    def test_evaluate_exits_one_without_a_report(self, bundle, tmp_path, capsys):
        out = tmp_path / "report"
        capsys.readouterr()
        assert run(["evaluate", "--bundle", str(bundle), "--protocol", "lodo",
                    "--strategies", "def,f4", "--mu1", "1e308", "--max-iters",
                    "5", "--out", str(out)]) == 1
        assert "the starting value is not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_evaluate_notes_descents_that_never_moved(self, bundle, tmp_path):
        # at mu1 = 1e18 every f3 and f4 fold stops on line_search_failure
        # after 0 iterations; each strategy served by those models says so
        out = tmp_path / "report"
        assert run(["evaluate", "--bundle", str(bundle), "--protocol", "lodo",
                    "--strategies", "def,f3,f4,f4-knn", "--mu1", "1e18",
                    "--out", str(out)]) == 0
        notes = [f"strategy {s}: training stopped on line_search_failure "
                 "after 0 iterations in 8 of 8 folds"
                 for s in ("f3_direct", "f4_direct", "f4_knn")]
        assert json.loads((out / "report.json").read_text())["notices"] == notes
        lines = (out / "report.txt").read_text().splitlines()
        assert lines[1:4] == [f"note: {note}" for note in notes]

    def test_overflowing_trials_fail_the_line_search(self, bundle, tmp_path,
                                                     capsys):
        model = tmp_path / "model.json"
        capsys.readouterr()
        assert run(["train", "--bundle", str(bundle), "--objective", "f3",
                    "--mu1", "1e150", "--out", str(model)]) == 0
        assert "after 0 iterations (line_search_failure)" in capsys.readouterr().out
        summary = json.loads(model.read_text(),
                             parse_constant=_reject_constant)["trace_summary"]
        assert summary["reason"] == "line_search_failure"
