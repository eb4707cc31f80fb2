"""The benchmark's four workloads: seeded inputs, the operations run on them,
and the canonical form of each result.

Each workload is a fixed batch of operations run by one caller in a closed
loop: an operation starts when the previous one returns.  Inputs depend only
on the seed; the library receives the generated inputs and nothing else.

* ``large-complexes``: the cographic complex of K_6 minus an edge (12,433
  faces) and the order complex of the partition lattice Pi_6 (9,011 faces),
  each built, given its boundary maps and its reduced homology.  Big +-1
  matrices on the modular-first rank path.  K_6 itself takes about 38 s on a
  two-core x86-64 VM with Python 3.11, more than one run may last.
* ``random-multigraphs``: 200 seeded connected multigraphs (1-5 vertices, 1-8
  edges, loops and parallel edges) and a copy of each with 1-3 edges doubled,
  as acceptance criterion 6 runs them.  Many small
  complexes on the exact rank path, with a full d o d = 0 check.
* ``cks-monodromy``: five monodromy complexes with their highest-weight
  cross-check, as the ``cks`` subcommand computes them.  Non-+-1 derivation
  matrices cut into weight slices.
* ``character``: the top-homology character of S_r and the induced-character
  oracle for r = 3..6, one operation per r as ``character --r`` computes
  them.  Kernel basis and group action, no rank calls.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

from . import reference

WORKLOADS = ("large-complexes", "random-multigraphs", "cks-monodromy", "character")

LARGE_GRAPH = (6, tuple((i, j) for i in range(6) for j in range(i + 1, 6) if (i, j) != (0, 1)))
PARTITION_R = 6
CKS_INSTANCES = (
    (2, (1, 1, 1), 4),
    (2, (1, 1, 1), 5),
    (2, (1, 1, 1, 1), 3),
    (3, (1, 1), 4),
    (2, (2, 1), 3),
)
CHARACTER_RS = (3, 4, 5, 6)

# Every (vertex count, edge count) with 1-5 vertices and 1-8 edges that admits
# a connected graph: the shapes acceptance criterion 6 draws, at most 11 edges
# once doubled.  Graph i takes shape i mod 34 and doubles 1 + i mod 3 edges,
# and only the edge endpoints are random, so the cost of a batch barely
# depends on the seed while the graphs do.
_SHAPES = tuple((v, m) for v in range(1, 6) for m in range(max(1, v - 1), 9))
RANDOM_GRAPHS = 200


def random_multigraphs(seed: int) -> list[tuple[int, tuple]]:
    """200 connected multigraphs and their doubled copies, interleaved.

    Each graph is a random spanning tree plus extra edges; v = 1 graphs are
    bouquets of loops, and every other pass over the shapes gives the
    v >= 2 graphs one loop.  The rest of the extra edges join random distinct
    vertices, so parallel edges are common.
    """
    rng = random.Random(f"random-multigraphs:{seed}")
    out = []
    for i in range(RANDOM_GRAPHS):
        v, m = _SHAPES[i % len(_SHAPES)]
        edges = [(rng.randrange(w), w) for w in range(1, v)]
        extra = m - len(edges)
        loops = extra if v == 1 else min(extra, (i // len(_SHAPES)) % 2)
        for _ in range(loops):
            a = rng.randrange(v)
            edges.append((a, a))
        for _ in range(extra - loops):
            a, b = sorted(rng.sample(range(v), 2))
            edges.append((a, b))
        doubled = sorted(rng.sample(range(m), min(1 + i % 3, m)))
        out.append((v, tuple(edges)))
        out.append((v, tuple(edges) + tuple(edges[j] for j in doubled)))
    return out


def inputs(workload: str, seed: int) -> list:
    """The operations of one batch, as plain data."""
    if workload == "large-complexes":
        return [("cographic", LARGE_GRAPH, seed), ("order", PARTITION_R, seed)]
    if workload == "random-multigraphs":
        return [("cographic", graph, None) for graph in random_multigraphs(seed)]
    if workload == "cks-monodromy":
        return [("cks", instance, seed) for instance in CKS_INSTANCES]
    if workload == "character":
        return [("character", r, None) for r in CHARACTER_RS]
    raise ValueError(f"unknown workload {workload!r}")


def digest(ops: list) -> str:
    text = json.dumps(ops, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# running one operation through the library's public functions
# ---------------------------------------------------------------------------


def _betti(profile) -> dict[str, int]:
    return {str(d): b for d, b in sorted(profile.betti.items())}


def _key(lam) -> str:
    return "+".join(map(str, lam))


def _class_function(cf) -> dict[str, str]:
    return {_key(lam): str(v) for lam, v in sorted(cf.values.items(), reverse=True)}


def run_op(hs, op) -> dict:
    """Run one operation; ``hs`` is the imported ``hitchin_supports`` package.

    Functions are looked up on their modules at call time, so a traced run
    sees its wrappers.
    """
    kind, arg, seed = op
    rng = random.Random(f"{seed}:{kind}:{arg}") if seed is not None else None
    if kind == "cographic":
        v, edges = arg
        graph = hs.multigraph.Multigraph(v, tuple((a, b, i) for i, (a, b) in enumerate(edges)))
        complex_ = hs.complexes.cographic_complex(graph)
        return _homology_result(hs, complex_, rng)
    if kind == "order":
        return _homology_result(hs, hs.complexes.partition_order_complex(arg), rng)
    if kind == "cks":
        genus, parts, exterior = arg
        model = hs.cks.build_graded_model(hs.multigraph.HitchinPartition(genus, parts))
        inst = hs.cks.build_cks(model, exterior)
        coh = hs.cks.cks_cohomology(inst, rng=rng)
        expected = {k: 0 for k in range(model.delta + 1)}
        if exterior >= model.delta:
            betti = hs.numerology.cographic_top_betti(model.graph)
            expected[model.delta] = betti * math.comb(model.gr1_dim, exterior - model.delta)
        agree = all(
            coh.top_weight.get(k, 0) == expected.get(k, 0)
            for k in set(coh.top_weight) | set(expected)
        )
        return {
            "degrees": {str(k): v for k, v in sorted(coh.degrees.items())},
            "top_weight": {str(k): v for k, v in sorted(coh.top_weight.items())},
            "term_dimensions": {str(k): inst.term_dimension(k) for k in sorted(inst.terms)},
            "cross_check": "EQUAL" if agree else "DIFFER",
        }
    if kind == "character":
        # what ``character --r`` computes: both class functions, then compared
        top = _class_function(hs.symgroup.top_homology_character(arg))
        oracle = _class_function(hs.symgroup.induced_character_oracle(arg))
        return {"character": top, "oracle": oracle, "oracle_agrees": top == oracle}
    raise ValueError(f"unknown operation {kind!r}")


def _homology_result(hs, complex_, rng) -> dict:
    cc = hs.homology.boundary_complex(complex_, rng=rng)
    profile = hs.homology.reduced_homology(cc, rng=rng)
    return {"f_vector": list(complex_.f_vector()), "betti": _betti(profile)}


# ---------------------------------------------------------------------------
# expected results, from the independent references
# ---------------------------------------------------------------------------


def expected(workload: str, op) -> dict:
    """What a correct library returns for ``op``; keys it leaves out are not
    checked (brute-forcing the f-vectors of 400 random graphs costs seconds)."""
    kind, arg, _ = op
    if kind == "cographic":
        v, edges = arg
        betti = {str(d): b for d, b in reference.cographic_betti(v, edges).items()}
        if workload == "large-complexes":
            return {"betti": betti, "f_vector": reference.cographic_f_vector(v, edges)}
        return {"betti": betti}
    if kind == "order":
        return {
            "betti": {str(d): b for d, b in reference.partition_lattice_betti(arg).items()},
            "f_vector": list(reference.PARTITION_LATTICE_F_VECTORS[arg]),
        }
    if kind == "cks":
        return dict(reference.CKS_TABLES[arg], cross_check="EQUAL")
    if kind == "character":
        # oracle_agrees is left out: at r = 6 it is a known defect, not a failure
        return {
            "character": {_key(lam): str(v) for lam, v in reference.hopf_trace_character(arg).items()},
            "oracle": {_key(lam): str(v) for lam, v in reference.lie_character(arg).items()},
        }
    raise ValueError(f"unknown operation {kind!r}")


def mismatch(op, result: dict, want: dict) -> str | None:
    for key, value in want.items():
        if result.get(key) != value:
            return f"{op[0]} {key}: got {result.get(key)!r}, expected {value!r}"
    return None
