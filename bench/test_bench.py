"""Checks of the benchmark itself (not part of the library's test suite).

    python3 -m pytest bench/test_bench.py

Runs every workload once untraced and once traced (about two minutes).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

import pytest

from bench import reference, run, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The workload on which each per-layer metric must be nonzero.
DOMINANT = {
    "complexes.enumerate_s": "large-complexes",
    "complexes.faces": "large-complexes",
    "multigraph.connectivity_calls": "random-multigraphs",
    "complexes.keep_ratio": "random-multigraphs",
    "homology.boundary_s": "random-multigraphs",
    "homology.boundary_nnz": "random-multigraphs",
    "homology.to_int_s": "random-multigraphs",
    "homology.rank_s": "large-complexes",
    "homology.rank_calls": "random-multigraphs",
    "homology.rank_cells": "large-complexes",
    "homology.rank_ratio": "random-multigraphs",
    "homology.rank_small_s": "random-multigraphs",
    "homology.rank_large_s": "large-complexes",
    "homology.top_cycles_s": "character",
    "homology.action_s": "character",
    "cks.build_s": "cks-monodromy",
    "cks.blocks": "cks-monodromy",
    "cks.term_dim": "cks-monodromy",
    "cks.cohomology_s": "cks-monodromy",
    "cks.assembly_s": "cks-monodromy",
    "cks.rank_s": "cks-monodromy",
    "cks.derivation_calls": "cks-monodromy",
    "symgroup.character_s": "character",
    "symgroup.oracle_s": "character",
    "numerology.top_betti_s": "cks-monodromy",
}


def worker(workload: str, *extra: str) -> dict:
    cmd = [sys.executable, os.path.join("bench", "worker.py"), "--workload", workload, "--seed", "1", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def batches() -> dict:
    return {w: (worker(w), worker(w, "--trace", "1")) for w in workloads.WORKLOADS}


def test_benchmark_json_lists_the_metrics_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert set(DOMINANT) == set(run.PER_LAYER) - {"trace_overhead_s"}


def test_traced_results_equal_untraced(batches):
    for workload, (plain, traced) in batches.items():
        assert [i.get("result") for i in traced["items"]] == [i.get("result") for i in plain["items"]], workload
        assert not any("error" in i for i in plain["items"]), workload


def test_layer_metrics_nonzero_on_their_dominant_workload(batches):
    for name, workload in DOMINANT.items():
        assert batches[workload][1]["layers"][name] > 0, (name, workload)


def test_bypass_predictions(batches):
    layers = {w: traced["layers"] for w, (_, traced) in batches.items()}
    assert layers["character"]["homology.rank_calls"] == 0
    for workload, values in layers.items():
        if workload != "cks-monodromy":
            assert all(v == 0 for k, v in values.items() if k.startswith("cks.")), workload


def test_results_match_references_at_this_commit(batches):
    for workload, (plain, _) in batches.items():
        ops = workloads.inputs(workload, 1)
        attempted, failed, failures = run.check(workload, ops, [plain])
        assert (attempted, failed) == (len(ops), 0), failures
    agrees = run.oracle_agrees([batches["character"][0]], workloads.inputs("character", 1))
    assert agrees == {"3": True, "4": True, "5": True, "6": False}


def test_references_agree_with_each_other():
    # Hopf trace and the Lie character are independent; on top homology of the
    # cographic complex of K_r they differ by the sign character
    for r in (3, 4, 5, 6):
        lie = reference.lie_character(r)
        for lam, value in reference.hopf_trace_character(r).items():
            sign = (-1) ** ((r - len(lam)) % 2)
            assert value == sign * lie[lam], (r, lam)
    k4 = (4, tuple((i, j) for i in range(4) for j in range(i + 1, 4)))
    assert reference.cographic_betti(*k4) == {2: 6}
    assert reference.tutte_1_0(2, ((0, 1), (0, 1), (0, 0))) == 0


def test_inputs_depend_only_on_the_seed():
    for workload in workloads.WORKLOADS:
        assert workloads.digest(workloads.inputs(workload, 5)) == workloads.digest(workloads.inputs(workload, 5))
    assert workloads.random_multigraphs(5) != workloads.random_multigraphs(6)
    for v, edges in workloads.random_multigraphs(5):
        assert 1 <= v <= 5 and 1 <= len(edges) <= 11
        assert reference.components(v, edges) == 1


def test_run_refuses_a_directory_without_the_library():
    with tempfile.TemporaryDirectory() as tmp:
        cmd = [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--workload", "character", "--seed", "1", "--seconds", "1"]
        proc = subprocess.run(cmd, cwd=tmp, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
