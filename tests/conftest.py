import itertools

from hitchin_supports import homology
from hitchin_supports.complexes import FaceComplex
from hitchin_supports.multigraph import Multigraph
from hitchin_supports.symgroup import complete_graph  # noqa: F401  re-exported to the test modules


def compose(p, q) -> tuple[int, ...]:
    """The permutation p after q."""
    return tuple(p[q[i]] for i in range(len(q)))


def inverse(p) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def face_complex(ground_set: tuple, faces_by_dim: tuple) -> FaceComplex:
    """A hand-built ``FaceComplex``, each face's bit mask the sum of
    ``1 << i`` over its cells, as the enumerator writes it."""
    masks = tuple(tuple(sum(1 << i for i in face) for face in faces) for faces in faces_by_dim)
    return FaceComplex(ground_set, faces_by_dim, masks)


def entries(mat: homology.SparseIntMatrix) -> dict[tuple[int, int], int]:
    """The non-zero entries of a column-stored matrix, keyed by (row, column)."""
    return {(r, j): v for j, col in enumerate(mat.columns) for r, v in col.items()}


def transpose(mat: homology.SparseIntMatrix) -> homology.SparseIntMatrix:
    """The transpose of a column-stored integer matrix."""
    out: list[dict[int, int]] = [{} for _ in range(mat.rows)]
    for j, col in enumerate(mat.columns):
        for r, v in col.items():
            out[r][j] = v
    return homology.SparseIntMatrix(mat.cols, tuple(out))


def refines(p: tuple, q: tuple) -> bool:
    """True when every block of the set partition p sits inside a block of q
    (p at least as fine)."""
    where = {}
    for bi, blk in enumerate(q):
        for x in blk:
            where[x] = bi
    return all(len({where[x] for x in blk}) == 1 for blk in p)


def parallel_graph(m: int) -> Multigraph:
    """Two vertices joined by m parallel edges."""
    return Multigraph(2, tuple((0, 1, i) for i in range(m)))


def brute_reach(start: int, pairs) -> set:
    """The vertices joined to ``start`` by the edges ``pairs``, by naive
    closure, independent of the package."""
    reach = {start}
    pairs = list(pairs)
    changed = True
    while changed:
        changed = False
        for u, v in pairs:
            if (u in reach) != (v in reach):
                reach.update((u, v))
                changed = True
    return reach


def brute_connected(vertex_count: int, pairs) -> bool:
    """Reference connectivity by naive closure, independent of the package."""
    return vertex_count == 0 or len(brute_reach(0, pairs)) == vertex_count


def brute_face_sets(graph: Multigraph, kind: str) -> set:
    """All faces of the cographic / nonspanning complex by full 2^E scan."""
    labels = sorted(e[2] for e in graph.edges)
    by_label = {lab: (u, v) for u, v, lab in graph.edges}
    out = set()
    for k in range(len(labels) + 1):
        for subset in itertools.combinations(labels, k):
            chosen = set(subset)
            if kind == "cographic":
                rest = [by_label[l] for l in labels if l not in chosen]
                ok = brute_connected(graph.vertex_count, rest)
            elif kind == "nonspanning":
                kept = [by_label[l] for l in chosen]
                ok = not brute_connected(graph.vertex_count, kept)
            else:
                raise ValueError(kind)
            if ok:
                out.add(subset)
    return out


def record_rank_leads(monkeypatch) -> list[tuple]:
    """Record every ``homology.exact_rank_int`` call made from now on, as
    (shape, rank, the leads of the pivots its reduction stored)."""
    rank_int = homology.exact_rank_int
    records: list[tuple] = []

    def recording(cols, n_rows, pivots=None):
        leads: dict[int, int] = {}
        rank = rank_int(cols, n_rows, leads)
        if pivots is not None:
            pivots.update(leads)
        records.append(((n_rows, len(cols)), rank, list(leads.values())))
        return rank

    monkeypatch.setattr(homology, "exact_rank_int", recording)
    return records
