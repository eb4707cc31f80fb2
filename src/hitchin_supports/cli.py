"""Command-line surface: stratum reports, complex homology tables, character
comparisons, monodromy-complex dimensions, and the seeded property suites.

Each document that checks a number against an independent route carries
``checks``: a mapping from the field checked to ``{"route", "result"}``,
with ``result`` EQUAL, DIFFER or ``SKIPPED: <reason>``.

Exit codes: 0 success; 1 when some ``checks`` row is DIFFER (or a selftest
property fails), with the document still printed and stderr empty; 2 usage
error (one ``error:`` line); 3 internal error (with its traceback).
Identical flags produce byte-identical documents.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys

from .cks import DEFAULT_WEDGE_LIMIT, CksError, build_cks, build_graded_model, check_exterior, cks_cohomology
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
from .numerology import check_row, cographic_top_betti, dim_base, support_report
from .symgroup import (
    SymgroupError,
    complete_graph,
    induced_character_oracle,
    restrict_to_young,
    top_homology_character,
)

USAGE_ERROR = 2
VERIFY_ERROR = 1
INTERNAL_ERROR = 3


# ---------------------------------------------------------------------------
# emitters
# ---------------------------------------------------------------------------


def _emit_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _emit_csv(rows: list[tuple[str, str]]) -> str:
    import csv  # only ``--format csv`` pays for it

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


def _write(args: argparse.Namespace, title: str, doc: dict) -> int:
    """Render ``doc`` in ``--format``, write it to ``--output`` or stdout, and
    return the exit code: 1 when some row of its ``checks`` is DIFFER."""
    if args.format == "csv":
        text = _emit_csv(_flatten(doc))
    elif args.format == "md":
        text = _markdown_table(title, doc, args.anchors)
    else:
        text = _emit_json(doc)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    differ = any(row["result"] == "DIFFER" for row in doc.get("checks", {}).values())
    return VERIFY_ERROR if differ else 0


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_report(args: argparse.Namespace) -> int:
    rep = support_report(HitchinPartition(args.genus, args.partition))
    doc = rep.to_json_dict()
    if rep.delta_aff == 0:
        doc["note"] = "codimension-zero stratum: the full base, no new support content"
    return _write(args, "Support stratum report", doc)


def _complex_for(args: argparse.Namespace):
    sources = sum(x is not None for x in (args.graph, args.r, args.partition))
    if sources != 1 or (args.genus is None) != (args.partition is None):
        raise GraphError("give exactly one of --graph, --r, or --genus with --partition")
    if args.kind == "flats":
        if args.r is None:
            raise GraphError("--kind flats needs --r")
        return partition_order_complex(args.r, args.face_limit), f"partition lattice r={args.r}"
    if args.graph is not None:
        with open(args.graph) as fh:
            graph = graph_from_json(fh.read())
        source = args.graph
    elif args.r is not None:
        graph = complete_graph(args.r)
        source = f"complete graph r={args.r}"
    else:
        graph = build_dual_graph(HitchinPartition(args.genus, args.partition))
        source = f"dual graph g={args.genus} partition={','.join(map(str, args.partition))}"
    build = cographic_complex if args.kind == "cographic" else nonspanning_complex
    return build(graph, args.face_limit), source


def cmd_complex(args: argparse.Namespace) -> int:
    complex_, source = _complex_for(args)
    doc = {
        "kind": args.kind,
        "source": source,
        "f_vector": list(complex_.f_vector()),
        **reduced_homology(boundary_complex(complex_)).to_json_dict(),
    }
    if args.faces:
        doc["faces"] = {
            str(d): [list(f) for f in faces]
            for d, faces in enumerate(complex_.faces_by_dim)
        }
    return _write(args, "Complex homology", doc)


def cmd_character(args: argparse.Namespace) -> int:
    top = top_homology_character(args.r)
    oracle = induced_character_oracle(args.r)
    # the oracle is Lie_r; it equals its sign twist exactly when r is not 2 mod 4
    equal = top.values == oracle.twist_by_sign().values
    route = (
        "top_homology is the sign twist of induced, sgn (x) Lie_r (Stanley, JCTA 32 (1982); "
        "Hanlon (1981); Wachs, Poset topology (2007), sec. 4.4)"
    )
    doc = {
        "r": args.r,
        "top_homology": top.to_json_dict(),
        "induced": oracle.to_json_dict(),
        "checks": {"top_homology": check_row(route, equal)},
    }
    if args.alphas is not None:
        doc["restriction"] = restrict_to_young(top, args.alphas).to_json_dict()
        doc["alphas"] = list(args.alphas)
    return _write(args, "Top homology character", doc)


def cmd_cks(args: argparse.Namespace) -> int:
    p = HitchinPartition(args.genus, args.partition)
    # the model has dimension 2 dim_base(p); refuse before its graph is built
    check_exterior(2 * dim_base(p), args.exterior, args.wedge_limit)
    model = build_graded_model(p)
    inst = build_cks(model, args.exterior, wedge_limit=args.wedge_limit)
    coh = cks_cohomology(inst)
    # expected highest-weight profile from the top cographic Betti number
    expected = {k: 0 for k in range(model.delta + 1)}
    if args.exterior >= model.delta:
        betti = cographic_top_betti(model.graph)
        expected[model.delta] = betti * math.comb(
            model.gr1_dim, args.exterior - model.delta
        )
    equal = all(
        coh.top_weight.get(k, 0) == expected.get(k, 0)
        for k in set(coh.top_weight) | set(expected)
    )
    route = "expected_top_weight: T_G(1,0) of the dual graph (Bjoerner 1992) times C(gr1_dim, exterior - delta)"
    doc = coh.to_json_dict()
    doc.update(
        {
            "genus": p.genus,
            "partition": list(p.parts),
            "term_dimensions": {str(k): inst.term_dimension(k) for k in sorted(inst.terms)},
            "expected_top_weight": {str(k): v for k, v in sorted(expected.items())},
            "checks": {"top_weight": check_row(route, equal)},
        }
    )
    return _write(args, "Monodromy complex dimensions", doc)


def cmd_selftest(args: argparse.Namespace) -> int:
    from .selftest import PROPERTIES, SelftestConfig, run_selftest  # off the start-up path

    if args.only is not None and args.only not in PROPERTIES:
        choices = ", ".join(map(repr, sorted(PROPERTIES)))
        raise argparse.ArgumentError(None, f"argument --only: invalid choice: {args.only!r} (choose from {choices})")
    sizes = {name: getattr(args, name) for name in ("max_edges", "count", "r") if getattr(args, name) is not None}
    conf = SelftestConfig(args.seed, **sizes)
    doc = run_selftest(conf, only=args.only)
    for result in doc["results"]:
        status = "PASS" if result["pass"] else "FAIL"
        sys.stderr.write(f"{status} {result['name']}: {result['detail']}\n")
    _write(args, "Selftest", doc)
    return 0 if doc["all_pass"] else VERIFY_ERROR


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Raise a parse error for ``main`` to print as one ``error:`` line,
    instead of printing the usage and exiting."""

    def error(self, message: str):
        raise argparse.ArgumentError(None, message)


def _int_list(text: str) -> tuple[int, ...]:
    """Comma separated integers, in the given order."""
    try:
        return tuple(int(x) for x in text.split(",") if x.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma separated list of integers: {text!r}") from None


def _partition(text: str) -> tuple[int, ...]:
    return tuple(sorted(_int_list(text), reverse=True))


def _at_least(lo: int):
    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < lo:
            raise argparse.ArgumentTypeError(f"must be an integer >= {lo}, got {text!r}")
        return value

    return convert


def _anchors(path: str) -> dict:
    try:
        with open(path) as fh:
            anchors = json.load(fh)
    except (OSError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"cannot read a JSON object from {path!r}: {exc}") from None
    if not isinstance(anchors, dict):
        raise argparse.ArgumentTypeError(f"{path!r} does not hold a JSON object")
    return anchors


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hitchin-supports",
        description="Exact numerology and homology of Hitchin support strata.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    positive, non_negative = _at_least(1), _at_least(0)

    def common(sp):
        sp.add_argument("--format", choices=("json", "md", "csv"), default="json")
        sp.add_argument("--output", default=None, help="write the document here instead of stdout")
        sp.add_argument("--anchors", type=_anchors, default=None, help="JSON file of field -> note for md output")

    rp = sub.add_parser("report", help="stratum numerology report")
    rp.add_argument("--genus", type=int, required=True)
    rp.add_argument("--partition", type=_partition, required=True, help="comma separated parts, e.g. 1,1")
    common(rp)

    cp = sub.add_parser("complex", help="f-vector and Betti table of a complex")
    cp.add_argument("--r", type=int, default=None, help="use the complete graph on r vertices")
    cp.add_argument("--graph", default=None, help="path to a graph JSON file")
    cp.add_argument("--genus", type=int, default=None)
    cp.add_argument("--partition", type=_partition, default=None)
    cp.add_argument("--kind", choices=("cographic", "nonspanning", "flats"), default="cographic")
    cp.add_argument("--faces", action="store_true", help="include the full face list")
    cp.add_argument("--face-limit", type=non_negative, default=DEFAULT_FACE_LIMIT, help="exit 2 on a complex with more non-empty faces")
    common(cp)

    ch = sub.add_parser("character", help="top homology character vs induced character")
    ch.add_argument("--r", type=int, choices=range(3, 7), required=True)
    ch.add_argument("--alphas", type=_int_list, default=None, help="comma separated multiplicities for restriction")
    common(ch)

    ck = sub.add_parser("cks", help="monodromy complex dimensions and top-weight check")
    ck.add_argument("--genus", type=int, required=True)
    ck.add_argument("--partition", type=_partition, required=True)
    ck.add_argument("--exterior", type=non_negative, required=True)
    ck.add_argument("--wedge-limit", type=non_negative, default=DEFAULT_WEDGE_LIMIT)
    common(ck)

    st = sub.add_parser("selftest", help="run the seeded property suites")
    # the sizes default to SelftestConfig's, and --only is checked against
    # PROPERTIES, in cmd_selftest: selftest is not imported at start-up
    st.add_argument("--max-edges", type=positive, default=None)
    st.add_argument("--count", type=positive, default=None)
    st.add_argument("--only", default=None)
    # r = 7 would enumerate the 1,866,256 faces of the cographic complex of K_7
    st.add_argument("--r", type=int, choices=range(2, 7), default=None)
    st.add_argument("--seed", type=int, default=0)
    common(st)

    return parser


COMMANDS = {
    "report": cmd_report,
    "complex": cmd_complex,
    "character": cmd_character,
    "cks": cmd_cks,
    "selftest": cmd_selftest,
}


def main(argv: list[str] | None = None) -> int:
    try:
        parser = _build_parser()
        args = parser.parse_args(argv)
        if args.anchors is not None and args.format != "md":
            parser.error("--anchors needs --format md")
        return COMMANDS[args.subcommand](args)
    except (argparse.ArgumentError, GraphError, CksError, SymgroupError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR
    except Exception:
        import traceback  # only an internal error pays for it

        traceback.print_exc()
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
