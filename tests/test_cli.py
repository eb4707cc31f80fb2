import hashlib
import json
import math
import shlex
from pathlib import Path

import pytest

from hitchin_supports import cli, numerology, selftest, symgroup
from hitchin_supports.cli import main
from hitchin_supports.selftest import SelftestConfig, run_selftest


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def test_report_json(capsys):
    code, out, _ = run_cli(capsys, "report", "--genus", "2", "--partition", "1,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["delta_aff"] == 1
    assert doc["perversity_range"] == [1, 9]
    assert doc["local_system_ranks"]["3"] == 28
    assert "seed" not in doc


def test_report_trivial_partition_notes_full_base(capsys):
    code, out, _ = run_cli(
        capsys, "report", "--genus", "2", "--partition", "3", "--format", "md"
    )
    assert code == 0
    assert "no new support content" in out
    assert out.startswith("# Support stratum report")


def test_report_homology_verification(capsys):
    code, out, _ = run_cli(
        capsys,
        "report", "--genus", "2", "--partition", "1,1,1",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["checks"]["top_rank"]["result"] == "EQUAL"
    assert doc["top_rank"] == 2


@pytest.mark.parametrize("k", range(1, 21))
def test_report_checks_the_rank_factor_up_to_twenty_parts(capsys, k):
    code, out, err = run_cli(
        capsys, "report", "--genus", "2", "--partition", ",".join("1" * k),
    )
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert {row: check["result"] for row, check in doc["checks"].items()} == {"delta_aff": "EQUAL", "top_rank": "EQUAL"}
    assert doc["top_rank"] == math.factorial(k - 1)


def test_report_skips_the_check_above_twenty_parts_with_a_warning(capsys):
    code, out, err = run_cli(
        capsys, "report", "--genus", "2", "--partition", ",".join("1" * 21),
    )
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["top_rank"] == math.factorial(20)
    assert doc["checks"]["top_rank"]["result"] == "SKIPPED: dual graph has 21 vertices (limit 20)"
    assert doc["checks"]["delta_aff"]["result"] == "EQUAL"


def test_report_usage_error(capsys):
    code, _, err = run_cli(capsys, "report", "--genus", "2", "--partition", "1,x")
    assert code == 2
    assert "error" in err


def test_report_csv(capsys):
    code, out, _ = run_cli(
        capsys, "report", "--genus", "2", "--partition", "1,1", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines()[0] == "field,value"
    assert any(line.startswith("delta_aff,1") for line in out.splitlines())
    assert "checks.top_rank.result,EQUAL" in out.splitlines()


# ---------------------------------------------------------------------------
# complex
# ---------------------------------------------------------------------------


def test_complex_r4_cographic(capsys):
    code, out, _ = run_cli(capsys, "complex", "--r", "4", "--kind", "cographic")
    assert code == 0
    doc = json.loads(out)
    assert doc["betti"] == {"2": 6}
    assert doc["f_vector"] == [1, 6, 15, 16]


def test_complex_r0_prints_an_integer_euler_characteristic(capsys):
    # only the empty face: H_{-1} = Q, and the sign (-1)^(-1) stays an int
    code, out, _ = run_cli(capsys, "complex", "--r", "0")
    assert code == 0
    assert '"euler": -1,' in out
    assert json.loads(out)["betti"] == {"-1": 1}


def test_complex_flats_r4(capsys):
    code, out, _ = run_cli(capsys, "complex", "--r", "4", "--kind", "flats")
    assert code == 0
    doc = json.loads(out)
    assert doc["betti"] == {"1": 6}


def test_complex_from_graph_file(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text('{"vertices": 2, "edges": [[0, 1], [0, 1]]}')
    code, out, _ = run_cli(
        capsys, "complex", "--graph", str(path), "--kind", "nonspanning"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["betti"] == {"-1": 1}  # both subsets of size <= 1 fail... only the empty face survives


def test_complex_faces_flag(capsys):
    code, out, _ = run_cli(capsys, "complex", "--r", "3", "--faces")
    assert code == 0
    doc = json.loads(out)
    assert doc["faces"]["0"] == [[0], [1], [2]]


def test_complex_source_validation(capsys):
    code, _, err = run_cli(capsys, "complex", "--r", "3", "--partition", "1,1")
    assert code == 2
    assert "exactly one" in err


def test_complex_dual_graph_source(capsys):
    code, out, _ = run_cli(
        capsys, "complex", "--genus", "2", "--partition", "1,1"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["betti"] == {"0": 1}


# ---------------------------------------------------------------------------
# character
# ---------------------------------------------------------------------------


def test_character_r3(capsys):
    code, out, _ = run_cli(capsys, "character", "--r", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["checks"]["top_homology"]["result"] == "EQUAL"
    assert doc["top_homology"] == {"1+1+1": 2, "2+1": 0, "3": -1}


def test_character_r6_compares_with_the_sign_twist(capsys):
    code, out, _ = run_cli(capsys, "character", "--r", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["checks"]["top_homology"]["result"] == "EQUAL"
    assert "sgn (x) Lie_r" in doc["checks"]["top_homology"]["route"]
    # r = 6 is the first r where Lie_r and its sign twist differ
    assert doc["top_homology"]["6"] == -1 and doc["induced"]["6"] == 1


def test_character_restriction_block(capsys):
    code, out, _ = run_cli(capsys, "character", "--r", "3", "--alphas", "2,1")
    assert code == 0
    doc = json.loads(out)
    assert "restriction" in doc
    assert doc["restriction"]["1+1 x 1"] == 2


def test_character_r_out_of_bounds(capsys):
    code, _, err = run_cli(capsys, "character", "--r", "7")
    assert code == 2


def test_character_bad_alphas_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "character", "--r", "4", "--alphas", "a")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# cks
# ---------------------------------------------------------------------------


def test_cks_two_parts(capsys):
    code, out, _ = run_cli(
        capsys, "cks", "--genus", "2", "--partition", "1,1", "--exterior", "1"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["top_weight"] == {"0": 0, "1": 1}
    assert doc["checks"]["top_weight"]["result"] == "EQUAL"


def test_cks_exterior_zero(capsys):
    code, out, _ = run_cli(
        capsys, "cks", "--genus", "2", "--partition", "1,1", "--exterior", "0"
    )
    assert code == 0
    doc = json.loads(out)
    assert all(v == 0 for v in doc["top_weight"].values())


def test_cks_three_parts_exterior_four(capsys):
    code, out, _ = run_cli(
        capsys, "cks", "--genus", "2", "--partition", "1,1,1", "--exterior", "4"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["top_weight"]["4"] == 2
    assert doc["checks"]["top_weight"]["result"] == "EQUAL"


def test_cks_wedge_limit_guard(capsys):
    code, _, err = run_cli(
        capsys,
        "cks", "--genus", "2", "--partition", "1,1,1", "--exterior", "4",
        "--wedge-limit", "100",
    )
    assert code == 2
    assert "too large" in err


# ---------------------------------------------------------------------------
# selftest and determinism
# ---------------------------------------------------------------------------


def test_selftest_single_property(capsys):
    code, out, err = run_cli(
        capsys, "selftest", "--only", "doubling", "--seed", "7", "--count", "6",
        "--max-edges", "6",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["seed"] == 7
    assert [r["name"] for r in doc["results"]] == ["doubling"]
    assert "PASS doubling" in err


@pytest.mark.parametrize("seed", [10, 17, 18, 19, 21, 31, 33, 35, 37])
def test_doubling_passes_on_seeds_that_draw_an_edgeless_graph(seed):
    report = run_selftest(SelftestConfig(seed=seed), only="doubling")
    assert report["all_pass"], report["results"]


def test_unit_leads_fails_on_a_lead_other_than_one(monkeypatch):
    real = selftest.top_cycle_basis

    def doubled(cc):
        return [{k: 2 * v for k, v in vec.items()} for vec in real(cc)]

    monkeypatch.setattr(selftest, "top_cycle_basis", doubled)
    report = run_selftest(SelftestConfig(seed=1), only="unit_leads")
    assert not report["all_pass"]
    assert "leads [2]" in report["results"][0]["detail"]


def test_closure_checks_a_graph_at_count_one(monkeypatch):
    built = []
    real = selftest.cographic_complex

    def recording(g):
        built.append(g)
        return real(g)

    monkeypatch.setattr(selftest, "cographic_complex", recording)
    report = run_selftest(SelftestConfig(1, count=1), only="closure")
    assert report["all_pass"], report["results"]
    assert built


def test_identical_flags_are_byte_identical(capsys):
    args = ("report", "--genus", "2", "--partition", "2,1", "--format", "json")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_output_to_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        "report", "--genus", "2", "--partition", "1,1", "--output", str(target),
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["delta_aff"] == 1


def test_markdown_anchors(tmp_path, capsys):
    anchors = tmp_path / "anchors.json"
    anchors.write_text('{"delta_aff": "support range lower end", "checks": "independent routes"}')
    code, out, _ = run_cli(
        capsys,
        "report", "--genus", "2", "--partition", "1,1",
        "--format", "md", "--anchors", str(anchors),
    )
    assert code == 0
    assert "| delta_aff | 1 | support range lower end |" in out.splitlines()
    noted = [line.split(" | ")[0] for line in out.splitlines() if line.endswith(" | independent routes |")]
    assert noted == ["| checks.delta_aff.result", "| checks.delta_aff.route", "| checks.top_rank.result", "| checks.top_rank.route"]


BAD_INPUTS = [
    ("selftest", "--r", "1"),
    ("selftest", "--r", "0"),
    # --only keeps a regression cheap: an unguarded r = 7 would enumerate K_7
    ("selftest", "--r", "7", "--only", "delta_formula"),
    ("selftest", "--count", "0"),
    ("selftest", "--count", "-3"),
    ("selftest", "--only", "nope"),
    ("anchors", "{bad json"),
    ("anchors", "[1, 2]"),
    ("selftest", "--max-edges", "0"),
    ("graph", '{"vertices": 2, "edges": [[0]]}'),
    ("graph", '{"vertices": "a", "edges": []}'),
    ("graph", '{"vertices": 2.9, "edges": [[0, 1.7], [true, 0]]}'),
    ("graph", "[]"),
    ("graph", '{"vertices": 2}'),
    ("complex", "--genus", "2", "--r", "3"),
    # K_5 has 727 non-empty faces; the default limit refuses K_7 the same way
    ("complex", "--r", "5", "--face-limit", "726"),
    ("character", "--r", "2"),
    ("character", "--r", "7"),
    # a flag given with an empty value is refused, not dropped
    ("character", "--r", "3", "--alphas", ","),
    ("character", "--r", "3", "--alphas", ""),
    ("complex", "--graph", "", "--r", "3"),
    ("report", "--genus", "2", "--partition", "1,1", "--anchors", ""),
    # --seed belongs to selftest, the one subcommand that draws from it
    ("report", "--genus", "2", "--partition", "1,1", "--seed", "1"),
    ("complex", "--r", "3", "--seed", "1"),
    ("character", "--r", "3", "--seed", "1"),
    ("cks", "--genus", "2", "--partition", "1,1", "--exterior", "2", "--seed", "1"),
    # stalk ranks past the int-to-string digit limit are refused before any binomial
    ("report", "--genus", "3700", "--partition", "1,1"),
    ("report", "--genus", "100000", "--partition", "1,1"),
]

# rows the parser refuses, each with the flag its message names
PARSE_ERRORS = [
    (("report", "--genus", "x", "--partition", "1,1"), "--genus"),
    (("report", "--genus", "2"), "--partition"),
    (("cks", "--genus", "2", "--partition", "1,1"), "--exterior"),
    (("nosuch",), "subcommand"),
    (("complex", "--kind", "bogus", "--r", "3"), "--kind"),
    # argparse reads "-1,4" as an option, not as the value of --alphas
    (("character", "--r", "3", "--alphas", "-1,4"), "--alphas"),
    (("complex", "--r", "3", "--face-limit", "-1"), "--face-limit"),
    (("cks", "--genus", "2", "--partition", "1,1,1", "--exterior", "4", "--wedge-limit", "-5"), "--wedge-limit"),
    # not a flag of report: refused as an unrecognized argument
    (("report", "--genus", "2", "--partition", "1,1", "--homology-threshold", "-1"), "--homology-threshold"),
    # no number depended on the bundle degree, so report no longer takes one
    (("report", "--genus", "2", "--partition", "1,1", "--degree", "3"), "--degree"),
    # report checks its rank factor on every run, so it has no verify levels
    (("report", "--genus", "2", "--partition", "1,1", "--verify", "homology"), "--verify"),
    (("report", "--genus", "2", "--partition", "1,1", "--verify", "none"), "--verify"),
]
BAD_INPUTS += [argv for argv, _ in PARSE_ERRORS]
# the notes of --anchors only go into the markdown table, so a readable
# anchors file is refused with json or csv
BAD_INPUTS += [("anchors", '{"delta_aff": "note"}', "json"), ("anchors", '{"delta_aff": "note"}', "csv")]


@pytest.mark.parametrize("argv", BAD_INPUTS)
def test_bad_input_is_a_one_line_usage_error(tmp_path, capsys, argv):
    if argv[0] == "anchors":
        anchors = tmp_path / "anchors.json"
        anchors.write_text(argv[1])
        fmt = argv[2] if len(argv) > 2 else "md"
        argv = ("report", "--genus", "2", "--partition", "1,1", "--format", fmt, "--anchors", str(anchors))
    if argv[0] == "graph":
        graph = tmp_path / "graph.json"
        graph.write_text(argv[1])
        argv = ("complex", "--graph", str(graph))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err
    assert "--anchors" not in argv or "--anchors" in err


@pytest.mark.parametrize("argv, flag", PARSE_ERRORS)
def test_parse_errors_name_their_flag(capsys, argv, flag):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert flag in err


# usage errors, each with its whole message
LIBRARY_ERRORS = [
    (("complex", "--kind", "flats", "--genus", "2", "--partition", "1,1"), "error: --kind flats needs --r\n"),
    # the model of g = 2, (1,1) has dimension 10
    (("cks", "--genus", "2", "--partition", "1,1", "--exterior", "11"), "error: exterior degree out of range\n"),
    (("selftest", "--count", "x"), "error: argument --count: must be an integer >= 1, got 'x'\n"),
    # refused by their closed-form face bounds before anything is enumerated
    (("complex", "--r", "60"), "error: complex has more than 500000 faces\n"),
    (("complex", "--r", "9", "--kind", "flats"), "error: complex has more than 500000 faces\n"),
    (("complex", "--r", "60", "--kind", "nonspanning"), "error: complex has more than 500000 faces\n"),
    (("complex", "--genus", "100000", "--partition", "1,1"), "error: complex has more than 500000 faces\n"),
    # C(799994, 2) wedges: refused from the closed-form model dimension
    (("cks", "--genus", "100000", "--partition", "1,1", "--exterior", "2"), "error: exterior degree too large\n"),
]
LIBRARY_ERROR_IDS = ["flats-without-r", "exterior-11", "count-x", "k60", "pi9", "k60-nonspanning", "g100000", "g100000-cks"]


@pytest.mark.parametrize("argv, err", LIBRARY_ERRORS, ids=LIBRARY_ERROR_IDS)
def test_usage_errors_print_their_message(capsys, argv, err):
    assert run_cli(capsys, *argv) == (2, "", err)


@pytest.mark.parametrize(
    "genus, exterior, err",
    [("3000", "2", "error: exterior degree too large\n"), ("2", "11", "error: exterior degree out of range\n")],
    ids=["g3000", "exterior-11"],
)
def test_cks_refuses_the_exterior_degree_before_building_the_model(capsys, monkeypatch, genus, exterior, err):
    def unreachable(p):
        raise AssertionError("the model was built")

    monkeypatch.setattr(cli, "build_graded_model", unreachable)
    argv = ("cks", "--genus", genus, "--partition", "1,1", "--exterior", exterior)
    assert run_cli(capsys, *argv) == (2, "", err)


# each row's independent route, replaced by a wrong one: (module, name, wrong
# route, command, row); a row no wrong route can turn DIFFER checks nothing
DIFFER_ROWS = [
    (numerology, "delta_aff", lambda graph: 0, "report --genus 2 --partition 1,1,1", "delta_aff"),
    # T_G(1,0) off by one, as in the in-process numerology test
    (
        numerology, "cographic_top_betti", lambda graph: math.factorial(graph.vertex_count - 1) + 1,
        "report --genus 2 --partition 1,1,1", "top_rank",
    ),
    # r = 6 is the first r where Lie_r and its sign twist differ
    (
        cli, "induced_character_oracle", lambda r: symgroup.induced_character_oracle(r).twist_by_sign(),
        "character --r 6", "top_homology",
    ),
    (cli, "cographic_top_betti", lambda graph: 0, "cks --genus 2 --partition 1,1,1 --exterior 4", "top_weight"),
]


@pytest.mark.parametrize(
    "module, name, wrong, command, row", DIFFER_ROWS, ids=[f"{c.split()[0]}-{row}" for *_, c, row in DIFFER_ROWS]
)
def test_a_differ_row_exits_1_and_prints_the_document(capsys, monkeypatch, module, name, wrong, command, row):
    monkeypatch.setattr(module, name, wrong)
    code, out, err = run_cli(capsys, *command.split())
    assert (code, err) == (1, "")
    results = {key: check["result"] for key, check in json.loads(out)["checks"].items()}
    assert results.pop(row) == "DIFFER"
    assert set(results.values()) <= {"EQUAL"}


def test_readme_cli_examples_run(tmp_path, capsys, monkeypatch):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    examples = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("hitchin-supports ")]
    assert len(examples) == 12
    (tmp_path / "g.json").write_text('{"vertices": 3, "edges": [[0, 1], [1, 2], [0, 2], [0, 1]]}')
    monkeypatch.chdir(tmp_path)
    for argv in examples:
        code, out, err = run_cli(capsys, *argv)
        assert (code, bool(out)) == (0, True), (argv, err)


def test_internal_error_exits_3_with_its_traceback(capsys, monkeypatch):
    def broken(cfg):
        raise KeyError("internal")

    monkeypatch.setitem(cli.COMMANDS, "report", broken)
    code, out, err = run_cli(capsys, "report", "--genus", "2", "--partition", "1,1")
    assert code == 3
    assert out == ""
    assert "Traceback" in err
    assert "KeyError" in err


# ---------------------------------------------------------------------------
# golden documents
# ---------------------------------------------------------------------------

# sha256 of the stdout of documents that must stay byte-identical: a change to
# the exact kernels that reorders a dict or moves a number fails here
GOLDEN = (
    ("character --r 3", "d1b52412e83fedf9a020cadd794c4ec8abb6d5dd0944c89b26d1574414646eb0"),
    ("character --r 4", "308ed80dfa52e22b9dbc79e0312671d6b5a7664c4b411ad199f0306c4c6cb082"),
    ("character --r 5", "648204e53011d3c9eb71bcf4b1159a1d247770f6250fc8c685c9e1acac6d8492"),
    ("character --r 6", "f6dbd1aa37af68a7564b393b49a3d98fdbc69bcee7609b8ccef827b2a983e78a"),
    ("complex --r 5", "45d68c4da21b37139e71d2e0aa0fcd66a9a12fa3f71c782b87ace13231b77b6c"),
    ("complex --r 6 --kind flats", "4ce1e9587f2275a125c7cea6397c386729f73d9c3eaac058a53c81c98fdb6298"),
    ("cks --genus 2 --partition 1,1,1 --exterior 4", "0a74fe55e0d8c76c1d5a8dafc53bb3f70bdc16c8001f6cbe1ec9d47713c6637d"),
    ("cks --genus 2 --partition 1,1,1 --exterior 5", "9b710bb0f62b0f111254a3cf095005e4154884ebad7b823559cd8f427700f7df"),
    ("cks --genus 2 --partition 1,1,1,1 --exterior 3", "e80d00b43a08e7dff44049f0e27fd98e46c8de2c0914e2756619004ff78071f5"),
    ("cks --genus 2 --partition 1,1,1,1 --exterior 4", "3bacb5b483aeb632f6b577cad2a22043d0a09a589724cbf9d218b96a72bfbfca"),
    ("cks --genus 3 --partition 1,1 --exterior 4", "e488159c62d425cf6cb9d843360b921be5dd9602234a9679a754820199904944"),
    ("cks --genus 2 --partition 2,1 --exterior 3", "eb6897ececa853fbf92dafb7d86170c70fa3c1a015e51792c0751653297f07c4"),
    ("report --genus 2 --partition 1,1,1,1,1", "87e25aec042cb50faa7970aede359893d859c3f400ead67e7f6cf7163aaf74bf"),
)


@pytest.mark.parametrize("command, digest", GOLDEN, ids=[command for command, _ in GOLDEN])
def test_golden_document(capsys, command, digest):
    code, out, err = run_cli(capsys, *command.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest
