"""Tests of the benchmark's own gate and tracer, at tiny windows.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracer import Tracer, check_kind, check_seconds  # noqa: E402

TINY = {
    "lift": workloads.Lift(hdeg=1, gdeg=1, n_max=1, d_max=1),
    "awez": workloads.AwEz(instance="c2-skew", window=(1, 1), identity=(2, 1)),
    "exact": workloads.Exact(instance="c2-skew", window=(1, 1), control=(2, 2)),
    "battery": workloads.Battery(names=(("c2-skew", None),), hdeg=1, gdeg=1),
}

# the checks.* kinds each tiny workload's reports fall into
CHECK_KINDS_SEEN = {
    "lift": {"chain_map", "d_squared", "identity", "pipeline_build"},
    "awez": {"chain_map", "closed_form", "identity"},
    "exact": {"exactness"},
    "battery": {"associativity", "bimodule", "chain_map", "closed_form",
                "d_squared", "exactness", "identity", "pipeline_build", "twist"},
}
# per-layer metrics that run.py and worker.py add to the tracer's own
RUN_LAYERS = {"trace.spans", "trace.verify_s", "trace.untraced_verify_s",
              "trace.overhead_ratio"}


def run(workload, seed=0, tracer=None):
    state = workload.setup(seed)
    if tracer is not None:
        tracer.install()
    try:
        reports = workload.run(state)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return reports, workloads.digests(workload, state, reports)


def pinned(got):
    return {"reports": list(got["reports"]), "outputs": dict(got["outputs"])}


def test_tiny_workloads_pass_their_own_gate():
    for name, workload in TINY.items():
        reports, got = run(workload)
        attempted, failed, problems = workloads.score(
            [r.ok for r in reports], got, pinned(got), seed=0)
        assert failed == 0, (name, problems)
        assert attempted == 2 * len(reports) + len(got["outputs"])


def test_flipped_expectation_is_unexpected():
    workload = TINY["exact"]
    reports, got = run(workload)
    expected = pinned(got)
    reports[-1].expect_failure = not reports[-1].expect_failure
    flipped = dict(got, reports=[workloads.report_digest(r) for r in reports])
    attempted, failed, _ = workloads.score([r.ok for r in reports], flipped,
                                           expected, seed=0)
    # the verdict and the report digest both count against the ratio
    assert failed == 2
    assert failed / attempted > 0


def test_perturbed_digest_is_unexpected():
    reports, got = run(TINY["lift"])
    expected = pinned(got)
    key = sorted(expected["outputs"])[0]
    expected["outputs"][key] = "0" + expected["outputs"][key][1:] \
        if expected["outputs"][key][0] != "0" else "1" + expected["outputs"][key][1:]
    attempted, failed, problems = workloads.score(
        [r.ok for r in reports], got, expected, seed=0)
    assert failed == 1 and key in problems[0]
    assert failed / attempted > 0


def test_seed_dependent_reports_are_gated_at_seed_zero_only():
    workload = TINY["battery"]
    reports0, got0 = run(workload, seed=0)
    reports1, got1 = run(workload, seed=1)
    assert any(got1["seed_dependent"])
    _, failed, _ = workloads.score([r.ok for r in reports1], got1, pinned(got0),
                                   seed=1)
    assert failed == 0
    _, failed, _ = workloads.score([r.ok for r in reports1], got1, pinned(got0),
                                   seed=0)
    assert failed == sum(got1["seed_dependent"])


def test_traced_and_untraced_digests_agree():
    originals = (Fraction.__add__, workloads.complexes.block_matrix,
                 workloads.checks.check_chain_map)
    for name, workload in TINY.items():
        _, plain = run(workload)
        tracer = Tracer()
        reports, traced = run(workload, tracer=tracer)
        assert traced == plain, name
        layers = tracer.layer_metrics()
        kinds = {check_kind(r.name) for r in reports}
        assert kinds == CHECK_KINDS_SEEN[name], (name, kinds)
        assert {k for k, v in check_seconds(reports).items() if v > 0} \
            == {f"checks.{k}_s" for k in kinds}, name
        assert layers["tensors.add_term_calls"][0] > 0, name
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
                  encoding="utf-8") as fh:
            per_layer = {m["name"] for m in json.load(fh)["per_layer"]}
        assert set(layers) | set(check_seconds(reports)) | RUN_LAYERS == per_layer
    assert (Fraction.__add__, workloads.complexes.block_matrix,
            workloads.checks.check_chain_map) == originals


def test_tracer_sees_calls_bound_by_name():
    tracer = Tracer()
    run(TINY["lift"], tracer=tracer)
    layers = tracer.layer_metrics()
    # conversion imported rref and solve_linear_system by name
    assert layers["linalg.solve_calls"][0] == layers["conversion.lift_systems"][0] > 0
    assert layers["linalg.rref_calls"][0] >= layers["linalg.solve_calls"][0]
    assert layers["fields.fp_ops"][0] > 0 and layers["fields.q_ops"][0] == 0
    tracer = Tracer()
    run(TINY["exact"], tracer=tracer)
    layers = tracer.layer_metrics()
    # complexes imported rank by name
    assert layers["linalg.rank_calls"][0] == layers["complexes.block_matrix_calls"][0] > 0
    assert layers["awez.apply_word_calls"][0] == 0
    spans = tracer.spans()
    assert spans and all(p < i for i, (_, _, _, p) in enumerate(spans))
