"""Command-line surface: stratum reports, complex homology tables, character
comparisons, monodromy-complex dimensions, and the seeded property suites.

Exit codes: 0 success, 1 verification failure, 2 usage error (one
``error:`` line), 3 internal error (with its traceback).  Identical flags (and
seed) produce byte-identical documents.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import traceback
from dataclasses import dataclass

from .cks import DEFAULT_WEDGE_LIMIT, CksError, build_cks, build_graded_model, cks_cohomology
from .complexes import (
    DEFAULT_FACE_LIMIT,
    cographic_complex,
    nonspanning_complex,
    partition_order_complex,
)
from .homology import boundary_complex, reduced_homology
from .multigraph import (
    GraphError,
    HitchinPartition,
    build_dual_graph,
    graph_from_json,
)
from .numerology import (
    HOMOLOGY_EDGE_THRESHOLD,
    VerificationError,
    cographic_top_betti,
    support_report,
)
from .selftest import PROPERTIES, SelftestConfig, run_selftest
from .symgroup import (
    SymgroupError,
    induced_character_oracle,
    restrict_to_young,
    top_homology_character,
)

USAGE_ERROR = 2
VERIFY_ERROR = 1
INTERNAL_ERROR = 3


@dataclass
class RunConfig:
    """Validated flag set for one invocation."""

    subcommand: str
    genus: int | None = None
    partition: tuple[int, ...] | None = None
    exterior: int | None = None
    graph_path: str | None = None
    r: int | None = None
    kind: str = "cographic"
    fmt: str = "json"
    verify: str = "formula"
    seed: int = 0
    wedge_limit: int = DEFAULT_WEDGE_LIMIT
    face_limit: int = DEFAULT_FACE_LIMIT
    homology_threshold: int = HOMOLOGY_EDGE_THRESHOLD
    degree: int | None = None
    alphas: tuple[int, ...] | None = None
    dump_faces: bool = False
    only: str | None = None
    max_edges: int = 10
    count: int = 30
    anchors: dict | None = None
    output: str | None = None


def _parse_int_list(name: str, text: str) -> tuple[int, ...]:
    """Comma separated integers, in the given order."""
    try:
        return tuple(int(x) for x in text.split(",") if x.strip() != "")
    except ValueError as exc:
        raise GraphError(f"bad {name} {text!r}") from exc


def _partition_from(cfg: RunConfig) -> HitchinPartition:
    if cfg.genus is None or cfg.partition is None:
        raise GraphError("both --genus and --partition are required")
    return HitchinPartition(cfg.genus, cfg.partition)


# ---------------------------------------------------------------------------
# emitters
# ---------------------------------------------------------------------------


def _emit_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _emit_csv(rows: list[tuple[str, str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["field", "value"])
    for key, value in rows:
        writer.writerow([key, value])
    return buf.getvalue()


def _flatten(doc: dict, prefix: str = "") -> list[tuple[str, str]]:
    rows: list[tuple[str, str]] = []
    for key in sorted(doc):
        value = doc[key]
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            rows.extend(_flatten(value, prefix=f"{name}."))
        elif isinstance(value, list):
            rows.append((name, " ".join(str(v) for v in value)))
        else:
            rows.append((name, str(value)))
    return rows


def _markdown_table(title: str, doc: dict, anchors: dict | None) -> str:
    anchors = anchors or {}
    lines = [f"# {title}", "", "| field | value | note |", "| --- | --- | --- |"]
    for key, value in _flatten(doc):
        note = anchors.get(key.split(".")[0], "")
        lines.append(f"| {key} | {value} | {note} |")
    return "\n".join(lines) + "\n"


def _write(cfg: RunConfig, text: str) -> None:
    if cfg.output:
        with open(cfg.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _render(cfg: RunConfig, title: str, doc: dict) -> str:
    if cfg.fmt == "json":
        return _emit_json(doc)
    if cfg.fmt == "csv":
        return _emit_csv(_flatten(doc))
    if cfg.fmt == "md":
        return _markdown_table(title, doc, cfg.anchors)
    raise GraphError(f"unknown format {cfg.fmt!r}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_report(cfg: RunConfig) -> int:
    p = _partition_from(cfg)
    rep = support_report(
        p,
        verify_level=cfg.verify,
        homology_threshold=cfg.homology_threshold,
        degree=cfg.degree,
    )
    doc = rep.to_json_dict()
    doc["seed"] = cfg.seed
    if rep.delta_aff == 0:
        doc["note"] = "codimension-zero stratum: the full base, no new support content"
    _write(cfg, _render(cfg, "Support stratum report", doc))
    return 0


def _complex_for(cfg: RunConfig):
    if cfg.graph_path is not None:
        with open(cfg.graph_path) as fh:
            graph = graph_from_json(fh.read())
        source = cfg.graph_path
    elif cfg.r is not None:
        if cfg.kind == "flats":
            return partition_order_complex(cfg.r, cfg.face_limit), f"partition lattice r={cfg.r}"
        from .symgroup import complete_graph

        graph = complete_graph(cfg.r)
        source = f"complete graph r={cfg.r}"
    else:
        graph = build_dual_graph(_partition_from(cfg))
        source = f"dual graph g={cfg.genus} partition={','.join(map(str, cfg.partition))}"
    if cfg.kind == "cographic":
        return cographic_complex(graph, cfg.face_limit), source
    if cfg.kind == "nonspanning":
        return nonspanning_complex(graph, cfg.face_limit), source
    if cfg.kind == "flats":
        raise GraphError("--kind flats needs --r")
    raise GraphError(f"unknown complex kind {cfg.kind!r}")


def cmd_complex(cfg: RunConfig) -> int:
    complex_, source = _complex_for(cfg)
    profile = reduced_homology(boundary_complex(complex_))
    doc = {
        "kind": cfg.kind,
        "source": source,
        "f_vector": list(complex_.f_vector()),
        "betti": {str(d): b for d, b in sorted(profile.betti.items())},
        "euler": profile.euler,
        "seed": cfg.seed,
    }
    if cfg.dump_faces:
        doc["faces"] = {
            str(d): [list(f) for f in faces]
            for d, faces in enumerate(complex_.faces_by_dim)
        }
    _write(cfg, _render(cfg, "Complex homology", doc))
    return 0


CHARACTER_STATEMENT = (
    "top_homology is the sign twist of induced, sgn (x) Lie_r (Stanley, JCTA 32 (1982); "
    "Hanlon (1981); Wachs, Poset topology (2007), sec. 4.4)"
)


def cmd_character(cfg: RunConfig) -> int:
    if cfg.r is None or not 3 <= cfg.r <= 6:
        raise SymgroupError("--r must be between 3 and 6")
    top = top_homology_character(cfg.r)
    oracle = induced_character_oracle(cfg.r)
    # the oracle is Lie_r; it equals its sign twist exactly when r is not 2 mod 4
    equal = top.values == oracle.twist_by_sign().values
    doc = {
        "r": cfg.r,
        "top_homology": top.to_json_dict(),
        "induced": oracle.to_json_dict(),
        "statement": CHARACTER_STATEMENT,
        "verdict": "EQUAL" if equal else "DIFFER",
        "seed": cfg.seed,
    }
    if cfg.alphas:
        doc["restriction"] = restrict_to_young(top, cfg.alphas).to_json_dict()
        doc["alphas"] = list(cfg.alphas)
    _write(cfg, _render(cfg, "Top homology character", doc))
    return 0 if equal else VERIFY_ERROR


def cmd_cks(cfg: RunConfig) -> int:
    p = _partition_from(cfg)
    if cfg.exterior is None or cfg.exterior < 0:
        raise CksError("--exterior is required and must be non-negative")
    model = build_graded_model(p)
    inst = build_cks(model, cfg.exterior, wedge_limit=cfg.wedge_limit)
    coh = cks_cohomology(inst)
    # expected highest-weight profile from the cographic complex
    expected = {k: 0 for k in range(model.delta + 1)}
    if cfg.exterior >= model.delta:
        betti = cographic_top_betti(model.graph)
        expected[model.delta] = betti * math.comb(
            model.gr1_dim, cfg.exterior - model.delta
        )
    agreement = all(
        coh.top_weight.get(k, 0) == expected.get(k, 0)
        for k in set(coh.top_weight) | set(expected)
    )
    doc = coh.to_json_dict()
    doc.update(
        {
            "genus": p.genus,
            "partition": list(p.parts),
            "term_dimensions": {str(k): inst.term_dimension(k) for k in sorted(inst.terms)},
            "expected_top_weight": {str(k): v for k, v in sorted(expected.items())},
            "cross_check": "EQUAL" if agreement else "DIFFER",
            "seed": cfg.seed,
        }
    )
    _write(cfg, _render(cfg, "Monodromy complex dimensions", doc))
    return 0 if agreement else VERIFY_ERROR


def cmd_selftest(cfg: RunConfig) -> int:
    # r = 7 would enumerate the 1,866,256 faces of the cographic complex of K_7
    if not 2 <= cfg.r <= 6:
        raise GraphError("--r must be between 2 and 6")
    if cfg.count < 1:
        raise GraphError("--count must be at least 1")
    if cfg.max_edges < 1:
        raise GraphError("--max-edges must be at least 1")
    if cfg.only is not None and cfg.only not in PROPERTIES:
        raise GraphError(f"unknown property {cfg.only!r}")
    conf = SelftestConfig(seed=cfg.seed, max_edges=cfg.max_edges, count=cfg.count, r=cfg.r)
    doc = run_selftest(conf, only=cfg.only)
    text = _render(cfg, "Selftest", doc)
    for result in doc["results"]:
        status = "PASS" if result["pass"] else "FAIL"
        sys.stderr.write(f"{status} {result['name']}: {result['detail']}\n")
    _write(cfg, text)
    return 0 if doc["all_pass"] else VERIFY_ERROR


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hitchin-supports",
        description="Exact numerology and homology of Hitchin support strata.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(sp):
        sp.add_argument("--format", choices=("json", "md", "csv"), default="json")
        sp.add_argument("--output", default=None, help="write the document here instead of stdout")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--anchors", default=None, help="JSON file of field -> note for md output")

    rp = sub.add_parser("report", help="stratum numerology report")
    rp.add_argument("--genus", type=int, required=True)
    rp.add_argument("--partition", required=True, help="comma separated parts, e.g. 1,1")
    rp.add_argument("--verify", choices=("none", "formula", "homology"), default="formula")
    rp.add_argument("--degree", type=int, default=None, help="bundle degree, must be coprime to n")
    rp.add_argument("--homology-threshold", type=int, default=HOMOLOGY_EDGE_THRESHOLD)
    common(rp)

    cp = sub.add_parser("complex", help="f-vector and Betti table of a complex")
    cp.add_argument("--r", type=int, default=None, help="use the complete graph on r vertices")
    cp.add_argument("--graph", default=None, help="path to a graph JSON file")
    cp.add_argument("--genus", type=int, default=None)
    cp.add_argument("--partition", default=None)
    cp.add_argument("--kind", choices=("cographic", "nonspanning", "flats"), default="cographic")
    cp.add_argument("--faces", action="store_true", help="include the full face list")
    cp.add_argument("--face-limit", type=int, default=DEFAULT_FACE_LIMIT, help="exit 2 on a complex with more non-empty faces")
    common(cp)

    ch = sub.add_parser("character", help="top homology character vs induced character")
    ch.add_argument("--r", type=int, required=True)
    ch.add_argument("--alphas", default=None, help="comma separated multiplicities for restriction")
    common(ch)

    ck = sub.add_parser("cks", help="monodromy complex dimensions and top-weight check")
    ck.add_argument("--genus", type=int, required=True)
    ck.add_argument("--partition", required=True)
    ck.add_argument("--exterior", type=int, required=True)
    ck.add_argument("--wedge-limit", type=int, default=DEFAULT_WEDGE_LIMIT)
    common(ck)

    st = sub.add_parser("selftest", help="run the seeded property suites")
    st.add_argument("--max-edges", type=int, default=10)
    st.add_argument("--count", type=int, default=30)
    st.add_argument("--only", default=None)
    st.add_argument("--r", type=int, default=4)
    common(st)

    return parser


def _config_from(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(subcommand=args.subcommand)
    cfg.fmt = args.format
    cfg.output = args.output
    cfg.seed = args.seed
    if args.anchors:
        with open(args.anchors) as fh:
            try:
                cfg.anchors = json.load(fh)
            except ValueError as exc:
                raise GraphError(f"--anchors is not valid JSON: {exc}") from exc
        if not isinstance(cfg.anchors, dict):
            raise GraphError("--anchors must hold a JSON object")
    for name in (
        "genus",
        "degree",
        "r",
        "kind",
        "verify",
        "exterior",
        "only",
        "max_edges",
        "count",
        "face_limit",
    ):
        if hasattr(args, name):
            setattr(cfg, name, getattr(args, name))
    if getattr(args, "graph", None):
        cfg.graph_path = args.graph
    if getattr(args, "partition", None):
        cfg.partition = tuple(sorted(_parse_int_list("partition", args.partition), reverse=True))
    if getattr(args, "alphas", None):
        cfg.alphas = _parse_int_list("alphas", args.alphas)
    if getattr(args, "faces", False):
        cfg.dump_faces = True
    if hasattr(args, "wedge_limit"):
        cfg.wedge_limit = args.wedge_limit
    if hasattr(args, "homology_threshold"):
        cfg.homology_threshold = args.homology_threshold
    if cfg.subcommand == "complex":
        sources = sum(1 for x in (cfg.graph_path, cfg.r, cfg.partition) if x is not None)
        if sources != 1:
            raise GraphError("give exactly one of --graph, --r, or --genus with --partition")
        if cfg.partition is not None and cfg.genus is None:
            raise GraphError("--partition needs --genus")
        if cfg.genus is not None and cfg.partition is None:
            raise GraphError("--genus needs --partition")
    return cfg


COMMANDS = {
    "report": cmd_report,
    "complex": cmd_complex,
    "character": cmd_character,
    "cks": cmd_cks,
    "selftest": cmd_selftest,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from(args)
        return COMMANDS[cfg.subcommand](cfg)
    except (GraphError, CksError, SymgroupError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR
    except VerificationError as exc:
        sys.stderr.write(f"verification failed: {exc}\n")
        return VERIFY_ERROR
    except Exception:
        traceback.print_exc()
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
