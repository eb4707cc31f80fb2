"""The hooks that the benchmark under ``bench/`` takes from the library.

``bench/test_bench.py`` runs every workload in fresh processes and is not
part of this suite, so these in-process checks are what catches a refactor
that renames or reshapes a function the tracer wraps or reads.
"""

import inspect
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:  # plain ``pytest`` puts only tests/ and src/ on the path
    sys.path.insert(0, str(ROOT))

import hitchin_supports  # noqa: E402
import hitchin_supports.cli  # noqa: E402,F401  what the bench's worker imports first
from bench import tracer, workloads  # noqa: E402

SMALLEST_CKS_OP = ("cks", (2, (2, 1), 3), 1)


def _module(short: str):
    return sys.modules[f"{hitchin_supports.__name__}.{short}"]


def test_the_tracer_installs_and_uninstalls():
    homology = _module("homology")
    originals = (homology.exact_rank_int, homology.TopHomologyAction.__dict__["matrix"])
    t = tracer.Tracer()
    try:
        t.install(hitchin_supports)  # resolves every METHODS entry
        assert homology.exact_rank_int is not originals[0]
    finally:
        t.uninstall()
    assert (homology.exact_rank_int, homology.TopHomologyAction.__dict__["matrix"]) == originals


def test_every_traced_method_and_sized_function_resolves():
    for short, classes in tracer.METHODS.items():
        for cls_name, methods in classes.items():
            cls = getattr(_module(short), cls_name)
            for meth in methods:
                assert inspect.isfunction(cls.__dict__[meth]), (cls_name, meth)
    for name in tracer.SIZES:
        short, attr = name.split(".", 1)
        assert inspect.isfunction(getattr(_module(short), attr)), name


def test_exact_rank_int_takes_columns_then_row_count():
    # the tracer's size hook reads args[0] and args[1]
    params = list(inspect.signature(_module("homology").exact_rank_int).parameters)
    assert params[:2] == ["cols", "n_rows"]


def test_a_traced_cks_operation_has_rank_and_conversion_time():
    assert SMALLEST_CKS_OP in workloads.inputs("cks-monodromy", 1)
    t = tracer.Tracer()
    try:
        t.install(hitchin_supports)
        t.item = 0
        result = workloads.run_op(hitchin_supports, SMALLEST_CKS_OP)
    finally:
        t.uninstall()
    expected = workloads.expected("cks-monodromy", SMALLEST_CKS_OP)
    assert workloads.mismatch(SMALLEST_CKS_OP, result, expected) is None
    metrics = tracer.layer_metrics(t.spans, t.counts)
    assert metrics["cks.rank_s"] > 0
    assert metrics["homology.to_int_s"] > 0
    assert metrics["cks.blocks"] > 0
    assert metrics["cks.term_dim"] == sum(expected["term_dimensions"].values())


def test_run_op_results_do_not_depend_on_the_seed():
    # the seed only feeds ``run_op``'s rng, which no rank draws from
    _, graph, _ = workloads.inputs("random-multigraphs", 1)[-1]
    for kind, arg in (("cographic", graph), ("order", 6), SMALLEST_CKS_OP[:2]):
        seeded = workloads.run_op(hitchin_supports, (kind, arg, 7))
        assert seeded == workloads.run_op(hitchin_supports, (kind, arg, None)), kind
        assert seeded == workloads.run_op(hitchin_supports, (kind, arg, 8)), kind
