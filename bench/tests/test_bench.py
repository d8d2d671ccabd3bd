"""Tests of the benchmark itself, on shrunken copies of its workloads.

Run from the repository root: python3 -m pytest bench/tests -q
"""

import dataclasses
import json
import sys

import numpy as np
import pytest

import calibrate
import metamine.cli  # noqa: F401
import run
from layers import PER_LAYER_UNITS, TARGETS, SpanIndex, op_metrics
from spans import Span, Tracer, self_times
from workloads import WORKLOADS, mcnemar_reference, tree_digest

SMALL = {
    "lodo-20x10": {"n": 8, "m": 6, "d": 4, "l": 3, "latent_t": 2,
                    "mode": "noisy", "noise_sigma": 0.5},
    "train-serve-200x50": {"n": 30, "m": 12, "d": 5, "l": 4, "latent_t": 2,
                      "mode": "noisy", "noise_sigma": 0.5},
    "ingest-10x40": {"n": 6, "m": 5, "d": 4, "l": 3, "latent_t": 2,
                        "mode": "outcome", "instances": 40},
}
NO_REFERENCE = {"rtol": 1e-6, "workloads": {}}


def small(name):
    return dataclasses.replace(WORKLOADS[name], synth=SMALL[name], input_sets=2)


def run_op(workload, inputs, out, tracer=None, op_id="op"):
    _, results = run.timed(workload.op(inputs, out), tracer, op_id)
    assert [r.exit_code for r in results] == [0] * len(results), results
    return workload.check(inputs, out, workload.reference(inputs))


@pytest.fixture(scope="module", params=sorted(SMALL))
def generated(request, tmp_path_factory):
    workload = small(request.param)
    inputs = tmp_path_factory.mktemp(request.param) / "inputs"
    results = run.run_commands(workload.generate(3, inputs))
    assert all(r.exit_code == 0 for r in results)
    return workload, inputs


def _holders():
    mods = [m for name, m in sys.modules.items()
            if m is not None and name.startswith("metamine")]
    snapshot = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    report = sys.modules["metamine.evaluation"].EvaluationReport
    snapshot.update({("EvaluationReport", k): v
                     for k, v in vars(report).items()})
    return snapshot


def test_self_time_on_hand_built_tree():
    spans = [
        Span("root", 0.0, 10.0, -1, "a"),
        Span("left", 1.0, 4.0, 0, "a"),
        Span("right", 3.0, 6.0, 0, "a"),     # overlaps left: [1, 6] covered
        Span("leaf", 2.0, 3.0, 1, "a"),
        Span("late", 9.5, 11.0, 0, "a"),     # clipped to the parent's end
        Span("other", 0.0, 2.0, -1, "b"),
    ]
    assert self_times(spans) == pytest.approx([4.5, 2.0, 3.0, 1.0, 1.5, 2.0])


def test_clock_scales_by_the_calibrations_beside_a_step(monkeypatch):
    times = iter([0.02, 0.04, 0.06])
    monkeypatch.setattr(calibrate, "calibration_s", lambda: next(times))
    monkeypatch.setattr(calibrate, "CAL_REF_S", 0.03)
    clock = calibrate.Clock()
    assert clock.at_reference(2.0) == pytest.approx(2.0 * 0.03 / 0.03)
    assert clock.at_reference(1.0) == pytest.approx(1.0 * 0.03 / 0.05)
    assert clock.calibrations == [0.02, 0.04, 0.06]


def test_traced_and_untraced_outputs_identical(generated, tmp_path):
    workload, inputs = generated
    plain = run_op(workload, inputs, tmp_path / "plain")
    tracer = Tracer(TARGETS)
    traced = run_op(workload, inputs, tmp_path / "traced", tracer)
    assert not plain.problems and not traced.problems
    assert traced.digest == plain.digest
    assert traced.summary == plain.summary
    assert tree_digest(tmp_path / "traced") == tree_digest(tmp_path / "plain")
    assert tracer.spans


def test_wrappers_installed_everywhere_and_removed(generated, tmp_path):
    workload, inputs = generated
    before = _holders()
    tracer = Tracer(TARGETS)
    tracer.install()
    try:
        for module, name in (("metamine.evaluation", "train"),
                             ("metamine.cli", "train"),
                             ("metamine.metric_learning", "similarity_target"),
                             ("metamine.preference", "similarity_target"),
                             ("metamine.cli", "build_preference_matrix"),
                             ("metamine.synth", "build_preference_matrix")):
            assert vars(sys.modules[module])[name] is not before[(module, name)]
    finally:
        tracer.remove()
    assert _holders() == before
    run_op(workload, inputs, tmp_path / "out", Tracer(TARGETS))
    assert _holders() == before


def test_counts_repeat_exactly(generated, tmp_path):
    workload, inputs = generated
    counted = []
    for k in range(2):
        tracer = Tracer(TARGETS)
        run_op(workload, inputs, tmp_path / f"out{k}", tracer, "op")
        m = op_metrics(SpanIndex(tracer), "op")
        counted.append({name: m[name] for name in (
            "preference.similarity_pairs", "preference.mcnemar_pairs",
            "metric_learning.iterations", "metric_learning.value_evals",
            "metric_learning.grad_evals", "recommend.predict_calls")})
    assert counted[0] == counted[1]
    if workload.name == "lodo-20x10":
        n, m = SMALL["lodo-20x10"]["n"], SMALL["lodo-20x10"]["m"]
        pairs = n * ((n - 1) * (n - 2) // 2 + m * (m - 1) // 2)
        assert counted[0]["preference.similarity_pairs"] == pairs
    if workload.name == "ingest-10x40":
        n, m = SMALL["ingest-10x40"]["n"], SMALL["ingest-10x40"]["m"]
        assert counted[0]["preference.mcnemar_pairs"] == n * m * (m - 1) // 2


@pytest.mark.parametrize("trace", [0, 1])
def test_measure_reports_every_metric(trace, tmp_path):
    workload = small("train-serve-200x50")
    record, tracer = run.measure(workload, 5, 0.0, trace, tmp_path, NO_REFERENCE)
    assert record["correct"], record["problems"]
    assert record["failed"] == 0 and record["attempted"] >= 2
    units = PER_LAYER_UNITS if trace else run.E2E_UNITS
    assert {k: v["unit"] for k, v in record["metrics"].items()} == units
    assert (tracer is not None) == bool(trace)


def test_recorded_digest_mismatch_fails_the_run(tmp_path):
    workload = small("lodo-20x10")
    synth_seed = str(run.input_seeds(workload, 5)[1])
    reference = {"rtol": 1e-6, "workloads": {workload.name: {synth_seed: {
        "inputs_sha256": "0" * 64, "summary": {}}}}}
    record, _ = run.measure(workload, 5, 0.0, 0, tmp_path, reference)
    assert not record["correct"]
    assert any("input digest" in p for p in record["problems"])


def test_mcnemar_reference_matches_program(tmp_path):
    from metamine import io
    from metamine.preference import build_preference_matrix
    rng = np.random.default_rng(0)
    cube = io.OutcomeCube(
        dataset_ids=("d0", "d1", "d2"), workflow_ids=("w0", "w1", "w2", "w3"),
        matrices=tuple((rng.random((60, 4)) < rng.random(4)).astype(float)
                       for _ in range(3)))
    io.write_outcome_dir(tmp_path, cube)
    expected = build_preference_matrix(cube).scores
    assert len(set(expected.ravel())) > 2     # wins and ties both occur
    got = mcnemar_reference(tmp_path)
    assert np.array_equal(np.array([got[d] for d in cube.dataset_ids]), expected)


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
    layer_map = json.loads((run.BENCH / "layer_map.json").read_text())
    assert set(layer_map["per_layer"]) == set(PER_LAYER_UNITS)
    for entry in layer_map["per_layer"].values():
        named = {w for move in entry["moves"] for w in move["workloads"]}
        assert named | set(entry["no_change"]) == set(WORKLOADS)
        assert not named & set(entry["no_change"])
