"""Tests of the benchmark itself: seeded inputs, failure counting, tracing.

Run from the root of the repository:

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import sys
from pathlib import Path

import mpmath
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from jacdecomp import cli, constructions, cover, legendre, numerics  # noqa: E402

import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, CliResult, Op  # noqa: E402


@pytest.fixture(autouse=True)
def _default_numeric_state():
    harness.restore_defaults()
    yield
    harness.restore_defaults()


def inputs(workload, seed, index):
    return [(op.label, op.inputs) for op in WORKLOADS[workload](seed, index)]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_inputs(workload):
    for index in (-1, 0, 3):
        assert inputs(workload, 7, index) == inputs(workload, 7, index)
    assert inputs(workload, 7, 0) != inputs(workload, 8, 0)
    assert inputs(workload, 7, 0) != inputs(workload, 7, 1)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_round_has_the_same_op_mix(workload):
    labels = [sorted(op.label for op in WORKLOADS[workload](3, i)) for i in range(3)]
    assert labels[0] == labels[1] == labels[2]


def op_with_result(op: Op, transform) -> Op:
    return dataclasses.replace(op, call=lambda: transform(op.call()))


def first_op(workload, label):
    return next(op for op in WORKLOADS[workload](1, 0) if op.label == label)


def test_correct_ops_pass():
    tally = harness.Tally()
    harness.run_op(first_op("sweep", "irreducible_5"), tally)
    harness.run_op(first_op("cli_decompose", "decompose_chain_r5"), tally)
    harness.run_op(first_op("cli_construct_verify", "invalid_malformed"), tally)
    assert (tally.attempted, tally.failed) == (3, 0), tally.failures


def test_wrong_genus_sum_counts_as_failed():
    op = first_op("sweep", "reducible_4")

    def corrupt(res):
        report = dataclasses.replace(res.report, genus_sum=res.report.genus_sum + 1)
        return dataclasses.replace(res, report=report)

    tally = harness.Tally()
    harness.run_op(op_with_result(op, corrupt), tally)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "genus_sum" in tally.failures[0]


def test_wrong_exit_status_counts_as_failed():
    op = first_op("cli_construct_verify", "verify_g13_violated")
    tally = harness.Tally()
    harness.run_op(op_with_result(op, lambda res: CliResult(0, res.out, res.err)), tally)
    harness.run_op(op_with_result(first_op("cli_construct_verify", "invalid_domain"),
                                  lambda res: CliResult(0, "{}", "")), tally)
    assert (tally.attempted, tally.failed) == (2, 2)


def test_wrong_orbit_tag_counts_as_failed():
    op = first_op("cli_decompose", "decompose_irreducible_r6")

    def retag(res):
        payload = json.loads(res.out)
        for entry in payload["factors"]:
            if entry["functional"] == "100000":
                entry["orbit_of"] = "2"
        return CliResult(res.status, json.dumps(payload), res.err)

    tally = harness.Tally()
    harness.run_op(op_with_result(op, retag), tally)
    assert tally.failed == 1 and "tagged" in tally.failures[0]


def test_malformed_output_counts_as_failed():
    op = first_op("cli_decompose", "decompose_genus9")
    tally = harness.Tally()
    harness.run_op(op_with_result(op, lambda res: CliResult(0, '{"genus": 9}', "")), tally)
    harness.run_op(op_with_result(op, lambda res: CliResult(0, "genus = 9", "")), tally)
    assert (tally.attempted, tally.failed) == (2, 2)


def test_raising_op_counts_as_failed():
    def boom():
        raise ValueError("boom")

    tally = harness.Tally()
    harness.run_op(Op("boom", (), boom, lambda res: None), tally)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_precision_is_restored_after_a_256_bit_op():
    op = first_op("cli_construct_verify", "verify_crosscheck_s4_p256")
    seen = []

    def spy(res):
        seen.append(mpmath.mp.prec)
        return res

    tally = harness.Tally()
    harness.run_op(op_with_result(op, spy), tally)
    assert seen == [256] and tally.failed == 0
    harness.require_defaults()
    numerics.set_epsilon("1e-6")
    with pytest.raises(RuntimeError):
        harness.require_defaults()


def test_patch_reaches_every_module_and_unpatch_restores():
    originals = (cli.format_point, constructions.decompose, legendre.cross_ratio_lambda,
                 cli.emit)
    tracer = tracing.Tracer()
    tracer.patch()
    try:
        assert cli.format_point is numerics.format_point
        assert cli.format_point is not originals[0]
        assert constructions.decompose is cover.decompose
        assert constructions.decompose is not originals[1]
        assert legendre.cross_ratio_lambda is numerics.cross_ratio_lambda
        assert legendre.cross_ratio_lambda is not originals[2]
    finally:
        tracer.unpatch()
    assert (cli.format_point, constructions.decompose, legendre.cross_ratio_lambda,
            cli.emit) == originals


@pytest.mark.parametrize("workload,label", [
    ("sweep", "irreducible_6"),
    ("cli_decompose", "decompose_chain_r7"),
    ("cli_construct_verify", "verify_g5"),
])
def test_traced_self_times_are_nonnegative_and_cover_the_root(workload, label):
    tracer = tracing.Tracer()
    tally = harness.Tally()
    harness.run_op(first_op(workload, label), tally, tracer)
    assert tally.failed == 0
    # run_op folded the spans; rerun by hand to inspect them
    tracer.patch()
    try:
        root = tracer.begin(tracing.ROOT)
        first_op(workload, label).call()
        tracer.end(root)
    finally:
        tracer.unpatch()
    spans = tracer.fold()
    assert len(spans) > 1 and spans[0][0] == tracing.ROOT
    own = tracing.self_times(spans)
    assert min(own) >= -1e-9
    assert sum(own) == pytest.approx(spans[0][2] - spans[0][1], abs=1e-9 * len(spans))
    harness.restore_defaults()


def test_setup_samples_span_the_run():
    sampler = harness.SetupSampler(HERE.parent, seconds=3.0, samples=3)
    for timed in (0.5, 0.9, 1.2, 1.5):
        sampler(timed)
    assert len(sampler.times) == 2
    times = sampler.finish()
    assert len(times) == 3 and all(0 < t < 10 for t in times)


def test_self_times_by_hand():
    spans = [["op", 0.0, 10.0, None], ["a", 1.0, 4.0, 0], ["b", 2.0, 3.0, 1],
             ["c", 5.0, 9.0, 0]]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    tracer = tracing.Tracer()
    per_layer = set(tracer.metrics()) | {"trace.overhead_ratio"}
    assert per_layer == {m["name"] for m in spec["per_layer"]}
    tally = harness.Tally(latencies=[0.001 * k for k in range(1, 30)])
    assert set(harness.end_to_end(tally, [0.1])) == {m["name"] for m in spec["end_to_end"]}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS) == list(run.WORKLOAD_NAMES)
