"""Script language and CLI: grammar, verbs, reports, exit codes."""

import json

import pytest

from chowcalc import cli
from chowcalc.script import (ScriptParseError, render_report, run_script)


def run(text, field=None):
    lines = []
    report, code = run_script(text, field=field, echo=lines.append)
    return report, code, lines


# ----------------------------------------------------------------------
# the three advertised behaviors

def test_plane_curve_product_prints_cycle():
    report, code, lines = run("""
        let R = ring(x, y)
        let I = ideal(R; y - x^2)
        let J = ideal(R; y)
        product [I] [J]
    """)
    assert code == 0
    assert lines == ["2*[(x, y)]"]
    entry = report["results"][0]
    assert entry["op"] == "product"
    assert entry["cycle"] == [{"prime": ["x", "y"], "mult": 2}]
    assert entry["tor_table"][0]["tor_lengths"][0] == 2


def test_degree_of_double_cover_prints_two():
    report, code, lines = run("""
        let S = ring(t)
        let T = ring(x)
        let Src = chart(S)
        let Tgt = chart(T)
        let f = map(Src -> Tgt; x = t^2; flat, finite, proper)
        degree f
    """)
    assert code == 0
    assert lines == ["2"]
    assert report["results"][0] == {"op": "degree", "arg": "f", "value": 2}


def test_self_product_of_line_fails_as_improper():
    report, code, lines = run("""
        let R = ring(x, y)
        let A = chart(R)
        product [(x)] [(x)]
    """)
    assert code == 1
    assert not report["ok"]
    assert "improper intersection at component (x)" in report["error"]["message"]


# ----------------------------------------------------------------------
# report shape and determinism

SCRIPT = """
field QQ
let R = ring(x, y)
let A = chart(R)
let I = ideal(R; y - x^2)
let C = cycle(A; [I])
let D = divisor(A; y)
let W = weil(D)
product C W
print C
"""


def test_report_schema_and_objects():
    report, code, lines = run(SCRIPT)
    assert code == 0
    assert report["schema"] == "chowcalc-report/1"
    assert report["field"] == "QQ"
    assert report["ok"] is True
    objs = report["objects"]
    assert objs["R"] == {"kind": "ring", "field": "QQ", "vars": ["x", "y"]}
    assert objs["A"]["dim"] == 2
    assert objs["I"]["basis"] == ["x^2 - y"]
    assert objs["C"]["components"] == [{"prime": ["x^2 - y"], "mult": 1}]
    assert objs["D"] == {"kind": "divisor", "chart": "A", "num": "y",
                         "den": "1"}
    assert objs["W"]["components"] == [{"prime": ["y"], "mult": 1}]


def test_reports_are_byte_identical_across_runs():
    first = render_report(run(SCRIPT)[0])
    second = render_report(run(SCRIPT)[0])
    assert first == second
    json.loads(first)  # and they are valid JSON


def test_printed_cycles_reparse_to_equal_cycles():
    # compute a few nontrivial cycles, print them, feed the text back in
    source = """
        let R = ring(x, y)
        let A = chart(R)
        let C1 = product([(y - x^2)], [(y - 1)])
        let C2 = product([(x^2 + y^2 - 1)], [(y - 1)])
        print C1
        print C2
    """
    report, code, lines = run(source)
    assert code == 0
    again = """
        let R = ring(x, y)
        let A = chart(R)
        let C1 = cycle(A; %s)
        let C2 = cycle(A; %s)
        assert_equal C1 C1
    """ % (lines[0], lines[1])
    report2, code2, _ = run(again)
    assert code2 == 0
    assert report2["objects"]["C1"] == report["objects"]["C1"]
    assert report2["objects"]["C2"] == report["objects"]["C2"]


# ----------------------------------------------------------------------
# verbs

def test_verify_verb_records_both_sides():
    report, code, lines = run("""
        let R = ring(x, y)
        let A = chart(R)
        verify commutativity [(y - x^2)] [(y)]
    """)
    assert code == 0
    entry = report["results"][0]
    assert entry["identity"] == "commutativity"
    assert entry["pass"] is True
    assert entry["lhs"] == entry["rhs"] == [{"prime": ["x", "y"], "mult": 2}]
    assert lines == ["verify commutativity: pass"]


def test_projection_formula_through_the_script():
    report, code, lines = run("""
        let S = ring(t)
        let T = ring(x)
        let Src = chart(S)
        let Tgt = chart(T)
        let f = map(Src -> Tgt; x = t^2; flat, finite, proper)
        let alpha = fundamental(Src)
        let beta = points(Tgt; x - 1)
        verify projection_formula f alpha beta
        pushforward f alpha
        pullback f beta
    """)
    assert code == 0
    assert lines[0] == "verify projection_formula: pass"
    assert lines[1] == "2*[(0)]"
    assert lines[2] == "[(t + 1)] + [(t - 1)]"


def test_correspondence_verbs():
    report, code, lines = run("""
        let S = ring(t)
        let T = ring(x)
        let Src = chart(S)
        let Tgt = chart(T)
        let f = map(Src -> Tgt; x = t^2; flat, finite, proper)
        let g = graph(f)
        let gt = transpose(g)
        compose gt g
        let h = compose(g, gt)
        degree h
    """)
    assert code == 0
    assert lines == ["2*[(x - x_r)]", "2"]
    entry = report["results"][0]
    assert entry["source"] == "Tgt" and entry["target"] == "Tgt"


MAPS = """
    let S = ring(t)
    let T = ring(x)
    let Src = chart(S)
    let Tgt = chart(T)
    let f = map(Src -> Tgt; x = t^2; flat, finite, proper)
    let g = graph(f)
    let gt = transpose(g)
    let alpha = fundamental(Src)
    let beta = points(Tgt; x - 1)
    let Q = ring(u, v)
    let Plane = chart(Q)
    let C = cycle(Plane; [(v - u^2)])
    let D = cycle(Plane; [(v)])
"""

# (verb statement, let statement, the let form's declared kind)
VERB_AND_LET = [
    ("product C D", "let V = product(C, D)", "cycle"),
    ("pullback f beta", "let V = pullback(f, beta)", "cycle"),
    ("pushforward f alpha", "let V = pushforward(f, alpha)", "cycle"),
    ("compose gt g", "let V = compose(gt, g)", "correspondence"),
]


@pytest.mark.parametrize("verb, let, kind", VERB_AND_LET)
def test_verb_and_let_forms_give_the_same_cycle(verb, let, kind):
    verb_report, verb_code, lines = run(MAPS + verb)
    let_report, let_code, _ = run(MAPS + let)
    assert verb_code == let_code == 0
    entry = verb_report["results"][0]
    declared = let_report["objects"]["V"]
    assert declared["kind"] == kind
    cycle = declared["cycle" if kind == "correspondence" else "components"]
    assert entry["op"] == verb.split()[0]
    assert entry["args"] == verb.split()[1:]
    assert entry["cycle"] == cycle and cycle
    assert len(lines) == 1


@pytest.mark.parametrize("verb, let, usage", [
    ("product C", "let V = product(C)", ("product A B", "product(A, B)")),
    ("pullback f", "let V = pullback(f)", ("pullback F C", "pullback(F, C)")),
    ("pushforward f alpha beta", "let V = pushforward(f; alpha)",
     ("pushforward F C", "pushforward(F, C)")),
    ("compose g", "let V = compose(g, gt, g)",
     ("compose FIRST SECOND", "compose(FIRST, SECOND)")),
])
def test_verb_and_let_forms_keep_their_usage(verb, let, usage):
    for text, message in zip((verb, let), usage):
        with pytest.raises(ScriptParseError) as info:
            run(MAPS + text)
        assert str(info.value) == f"line 15: {message}"


def test_glue_accepts_consistent_and_rejects_corrupted():
    report, code, lines = run("""
        let R = ring(x, y)
        let P = chart(R)
        let U = atlas(P; x, y)
        glue U: U0 = [(x - y)], U1 = [(x - y)]
        glue U: U0 = [(x - y)], U1 = 2*[(x - y)]
    """)
    assert code == 1  # the corrupted family makes the run fail
    good, bad = report["results"]
    assert good["pass"] is True
    assert bad["pass"] is False
    assert any("mismatch" in msg for msg in bad["messages"])
    assert lines == ["glue U: consistent", "glue U: INCONSISTENT"]


def test_restrict_and_localize():
    report, code, lines = run("""
        let R = ring(x, y)
        let P = chart(R)
        let L = localize(P; x)
        let line = cycle(P; [(x - y)])
        let r = restrict(line, L)
        print r
    """)
    assert code == 0
    assert lines == ["[(y*u - 1, x - y)]"]


# the reduced basis of the cycle's ideal on L holds y*u - 2, which presents
# the localization at 1/2*y; it used to fall outside the certification
# fragment and exit 1
LOCALIZED_CYCLE = """\
let R = ring(x, y)
let A = chart(R)
let L = localize(A; x)
let C = cycle(L; [(y - 2*x)])
print C
"""


def test_cycle_on_a_localized_chart_reads_any_nonzero_constant():
    report, code, lines = run(LOCALIZED_CYCLE)
    assert code == 0
    assert lines == ["[(y*u - 2, x - 1/2*y)]"]
    assert report["objects"]["C"]["components"] == [
        {"prime": ["y*u - 2", "x - 1/2*y"], "mult": 1}]


def test_cli_prints_a_cycle_on_a_localized_chart(tmp_path, capsys):
    assert cli.main(["--script", write(tmp_path, LOCALIZED_CYCLE)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "[(y*u - 2, x - 1/2*y)]"


# z occurs in neither curve; the product used to exit 1 with "ideal shape
# outside the certification fragment"
FREE_VARIABLE_PRODUCT = """\
let R = ring(x, y, z)
product [(x^2 - 2)] [(y^2 - 2)]
"""


def test_product_with_a_variable_in_neither_cycle(tmp_path, capsys):
    report, code, lines = run(FREE_VARIABLE_PRODUCT)
    assert code == 0
    assert lines == ["[(y^2 - 2, x + y)] + [(y^2 - 2, x - y)]"]
    assert cli.main(["--script", write(tmp_path, FREE_VARIABLE_PRODUCT)]) == 0
    assert capsys.readouterr().out.splitlines() == lines


def test_atlas_picks_fresh_inverse_names():
    # u0 is a coordinate here, so U0 inverts x by u0_; this used to exit 1
    # with "inverse variable 'u0' already in use"
    report, code, lines = run("""
        let R = ring(x, u0)
        let X = chart(R)
        let A = atlas(X; x, u0)
        glue A: U0 = [(x - u0)], U1 = [(x - u0)]
    """)
    assert code == 0
    assert report["objects"]["A.U0"]["vars"] == ["x", "u0", "u0_"]
    assert report["objects"]["A.U1"]["vars"] == ["x", "u0", "u1"]
    assert lines == ["glue A: consistent"]


@pytest.mark.parametrize("name", ["w1", "w2"])
def test_atlas_keeps_the_overlap_names_reserved(name):
    report, code, _ = run(f"let R = ring(x, {name})\nlet X = chart(R)\n"
                          f"let A = atlas(X; x, {name})\n")
    assert code == 1
    assert report["error"]["message"] == f"inverse variable {name!r} already in use"


OFF_CHART_HEADER = """\
let R = ring(x, y)
let A = chart(R)
let U = atlas(A; x, y)
let L = cycle(A; [(x - y)])
let L0 = restrict(L, U.U0)
let L1 = restrict(L, U.U1)
"""

# each used to print a wrong cycle, pass, or fail with a misleading message
OFF_CHART = [
    pytest.param("let B = chart(R; y - x^2)\nlet V = localize(B; x)\nlet r = restrict(L, V)",
                 "line 9: chart 'V' is not a localization of chart 'A'",
                 id="restrict-to-another-charts-localization"),
    pytest.param("let S = ring(x, y, z)\nlet V = chart(S)\nlet r = restrict(L, V)",
                 "line 9: chart 'V' is not a localization of chart 'A'",
                 id="restrict-to-another-ring"),
    pytest.param("glue U: U0 = L, U1 = L",
                 "line 7: the cycle for 'U0' lives on chart 'A', expected 'U0'",
                 id="glue-the-base-cycle"),
    pytest.param("glue U: U0 = L1, U1 = L0",
                 "line 7: the cycle for 'U0' lives on chart 'U1', expected 'U0'",
                 id="glue-swapped-cycles"),
]


@pytest.mark.parametrize("statements, message", OFF_CHART)
def test_cycles_off_their_chart_are_engine_errors(statements, message):
    report, code, lines = run(OFF_CHART_HEADER + statements)
    assert code == 1
    assert lines[-1] == f"error: {message}"
    where, what = message.split(": ", 1)
    assert report["error"] == {"line": int(where.split()[1]), "message": what}


@pytest.mark.parametrize("statements, message", OFF_CHART)
def test_cli_exits_1_for_cycles_off_their_chart(tmp_path, capsys, statements, message):
    code = cli.main(["--script", write(tmp_path, OFF_CHART_HEADER + statements)])
    assert code == 1
    assert capsys.readouterr().out.splitlines()[-1] == f"error: {message}"


def test_assert_equal_failure_sets_exit_code():
    report, code, lines = run("""
        let R = ring(x)
        let A = chart(R)
        let one = points(A; x - 1)
        let two = points(A; x - 2)
        assert_equal one two
    """)
    assert code == 1
    assert report["results"][0]["pass"] is False
    assert report["ok"] is False
    assert report.get("error") is None  # a failed check is not an error


def test_map_verbs_infer_charts_from_endpoints():
    # two charts are declared, so bare literals are ambiguous in general;
    # pushforward/pullback arguments resolve against the map's endpoints
    report, code, lines = run("""
        field Fp:7
        let S = ring(t)
        let T = ring(x)
        let A = chart(S)
        let B = chart(T)
        let f = map(A -> B; x = t^2; flat, finite, proper)
        pushforward f [(t - 3)]
        pullback f [(x - 2)]
    """)
    assert code == 0
    assert lines == ["[(x + 5)]", "[(t + 3)] + [(t + 4)]"]


def test_an_ideal_literal_takes_its_rings_one_declared_chart():
    report, code, lines = run("""
        let R = ring(x, y)
        let C = chart(R)
        let I = ideal(R; y - x^2)
        print [I]
    """)
    assert code == 0
    assert lines == ["[(x^2 - y)]"]
    assert report["results"][0]["value"]["chart"] == "C"


def test_an_ideal_literal_on_a_ring_with_two_charts_is_ambiguous():
    report, code, lines = run("""
        let R = ring(x, y)
        let C = chart(R)
        let D = chart(R)
        let I = ideal(R; y - x^2)
        print [I]
    """)
    assert code == 1
    assert report["results"] == []
    assert report["error"] == {
        "line": 6,
        "message": "several charts share this ring; name the chart explicitly"}


def test_finite_field_scripts():
    report, code, lines = run("""
        field Fp:5
        let R = ring(t)
        let A = chart(R)
        let pts = points(A; t^2 + 1)
        print pts
        degree pts
    """)
    assert code == 0
    assert report["field"] == "Fp:5"
    assert lines == ["[(t + 2)] + [(t + 3)]", "2"]


def test_a_tab_may_follow_the_verb():
    # any whitespace may follow a verb, `field` and `let` included
    report, code, lines = run("field\tFp:5\nlet\tR = ring(t)\nprint\tR")
    assert code == 0
    assert report["field"] == "Fp:5"
    assert lines == ["Fp(5)[t]"]


# ----------------------------------------------------------------------
# errors

def test_parse_errors_carry_line_numbers():
    with pytest.raises(ScriptParseError, match="line 3"):
        run_script("let R = ring(x)\nlet A = chart(R)\nlet = bogus(")


def test_undeclared_name_is_a_semantic_error():
    report, code, _ = run("degree nope")
    assert code == 1
    assert "undeclared name 'nope'" in report["error"]["message"]


def test_execution_stops_at_first_error():
    report, code, lines = run("""
        let R = ring(x)
        degree nope
        print R
    """)
    assert code == 1
    assert len(report["results"]) == 0  # print never ran
    assert report["error"]["line"] == 3


def test_duplicate_declarations_rejected():
    report, code, _ = run("let R = ring(x)\nlet R = ring(y)")
    assert code == 1
    assert "already declared" in report["error"]["message"]


def test_field_must_precede_declarations():
    report, code, _ = run("let R = ring(x)\nfield Fp:7")
    assert code == 1
    assert "before declarations" in report["error"]["message"]


def test_trailing_semicolons_are_dropped():
    report, code, lines = run("let R = ring(x);\nprint R ;")
    assert code == 0
    assert report["objects"]["R"]["vars"] == ["x"]
    assert len(lines) == 1


# a ring, a chart on it and an atlas; the statement under test is line 4.
# The usage errors of product, pullback, pushforward and compose are pinned
# by test_verb_and_let_forms_keep_their_usage.
USAGE_HEADER = """let R = ring(x, y)
let A = chart(R)
let U = atlas(A; x, y)
"""

USAGE_ERRORS = [
    # let kinds
    ("let S = ring(x; y)", "ring(v1, v2, ...)"),
    ("let S = ring(1x)", "bad variable list '1x'"),
    ("let C = chart(R; x; y)", "chart(RING[; relations])"),
    ("let L = localize(A)", "localize(CHART; element)"),
    ("let V = atlas(A)", "atlas(CHART; element, ...)"),
    ("let K = ideal(R)", "ideal(RING; gen, ...)"),
    ("let c = cycle(A)", "cycle(CHART; literal)"),
    ("let c = points(A)", "points(CHART; gen, ...)"),
    ("let c = fundamental(A; x)", "fundamental(CHART)"),
    ("let D = divisor(A)", "divisor(CHART; num[; den])"),
    ("let c = weil(D; x)", "weil(DIVISOR)"),
    ("let f = map(A)", "map(SRC -> TGT; var = image, ...[; flags])"),
    ("let f = map(A; x = x)", "bad map header 'A'"),
    ("let f = map(A -> A; x)", "bad image assignment 'x'"),
    ("let f = map(A -> A; x = x, y = y; smooth)", "unknown map flag 'smooth'"),
    ("let g = graph(f; f)", "graph(MAP)"),
    ("let g = transpose(f; f)", "transpose(CORR)"),
    ("let c = restrict(A)", "restrict(CYCLE, CHART)"),
    ("let c = blob(A)", "unknown kind 'blob'"),
    ("let c = ring x", "bad let statement 'let c = ring x'"),
    ("let K = ideal(R; (x)", "unbalanced brackets in 'R; (x'"),
    ("let K = ideal(R; x))", "unbalanced brackets in 'R; x)'"),
    ("let K = ideal(R; (x])", "unbalanced brackets in 'R; (x]'"),
    # cycle literals
    ("let c = cycle(A; )", "empty cycle literal ''"),
    ("let c = cycle(A; [(x)] + y)", "bad cycle term 'y'"),
    ("let c = cycle(A; [(x), y])", "bad cycle term [('(x), y']"),
    # verbs
    ("degree", "degree X"),
    ("degree a b", "degree X"),
    ("verify commutativity", "verify IDENTITY ARG..."),
    ("glue U", "glue SPACE: chart = cycle, ..."),
    ("glue U: U0", "bad glue assignment 'U0'"),
    ("glue U: U0 = [(x)]]", "unbalanced brackets in ' U0 = [(x)]]'"),
    ("assert_equal a", "assert_equal A B"),
    ("print", "print X"),
    ("print a b", "print X"),
    ("print [I)", "unbalanced brackets in '[I)'"),
    ("field", "field QQ|Fp:<p>"),
    ("field Fp(7", "unbalanced brackets in 'Fp(7'"),
    ("fields QQ", "unknown statement 'fields'"),
    ("frobnicate A", "unknown statement 'frobnicate'"),
]


@pytest.mark.parametrize("statement, message", USAGE_ERRORS)
def test_malformed_statements_raise_their_usage(statement, message):
    with pytest.raises(ScriptParseError) as info:
        run_script(USAGE_HEADER + statement)
    assert str(info.value) == f"line 4: {message}"


# ----------------------------------------------------------------------
# the command-line wrapper

def write(tmp_path, text):
    path = tmp_path / "script.chow"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_cli_runs_script_and_writes_report(tmp_path, capsys):
    script = write(tmp_path, "let R = ring(x, y)\n"
                             "product [(y - x^2)] [(y)]\n")
    out = tmp_path / "report.json"
    code = cli.main(["--script", script, "--report", str(out)])
    assert code == 0
    assert capsys.readouterr().out == "2*[(x, y)]\n"
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["schema"] == "chowcalc-report/1"
    assert report["results"][0]["cycle"] == [{"prime": ["x", "y"], "mult": 2}]


def test_cli_report_to_stdout(tmp_path, capsys):
    script = write(tmp_path, "let R = ring(x)\nlet A = chart(R)\n")
    code = cli.main(["--script", script, "--report", "-"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True


def test_cli_field_flag(tmp_path, capsys):
    script = write(tmp_path, "let R = ring(t)\nlet A = chart(R)\n"
                             "let p = points(A; t^2 + 1)\nprint p\n")
    code = cli.main(["--script", script, "--field", "Fp:5"])
    assert code == 0
    assert capsys.readouterr().out == "[(t + 2)] + [(t + 3)]\n"


def test_cli_unknown_field_exits_2(tmp_path, capsys):
    script = write(tmp_path, "let R = ring(x)\nlet A = chart(R)\n")
    code = cli.main(["--script", script, "--field", "Fp:x"])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "chowcalc: unknown field 'Fp:x' (expected QQ or Fp:<p>)\n"


def test_cli_parse_error_exits_2(tmp_path, capsys):
    script = write(tmp_path, "let = bogus(\n")
    code = cli.main(["--script", script])
    assert code == 2
    assert "line 1" in capsys.readouterr().err


def test_cli_missing_file_exits_2(tmp_path, capsys):
    code = cli.main(["--script", str(tmp_path / "absent.chow")])
    assert code == 2


def test_cli_unwritable_report_exits_2(tmp_path, capsys):
    script = write(tmp_path, "let R = ring(x)\nlet A = chart(R)\n")
    report = tmp_path / "missing" / "r.json"
    code = cli.main(["--script", script, "--report", str(report)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("chowcalc: ") and str(report) in err
    assert "Traceback" not in err
    assert not report.exists()


def test_cli_semantic_error_exits_1(tmp_path, capsys):
    script = write(tmp_path, "let R = ring(x, y)\n"
                             "product [(x)] [(x)]\n")
    code = cli.main(["--script", script])
    assert code == 1
    assert "improper intersection" in capsys.readouterr().out


def test_cli_max_degree_aborts_cleanly(tmp_path, capsys):
    script = write(tmp_path, "let R = ring(x, y)\n"
                             "let I = ideal(R; x^3 + y^3 - 1, x*y - 3)\n"
                             "product [I] [(x - y)]\n")
    out = tmp_path / "report.json"
    code = cli.main(["--script", script, "--max-degree", "2",
                     "--report", str(out)])
    assert code == 1
    report = json.loads(out.read_text(encoding="utf-8"))
    assert "exceeds --max-degree 2" in report["error"]["message"]
    # without the cap the same script succeeds
    assert cli.main(["--script", script]) == 0
    capsys.readouterr()


def test_cli_verbose_traces_statements(tmp_path, capsys):
    script = write(tmp_path, "let R = ring(x)\nlet A = chart(R)\n")
    code = cli.main(["--script", script, "--verbose"])
    assert code == 0
    err = capsys.readouterr().err
    assert "+ let R = ring(x)" in err
    assert "+ let A = chart(R)" in err


def test_cli_reports_are_deterministic(tmp_path):
    script = write(tmp_path, "let R = ring(x, y)\n"
                             "let I = ideal(R; y - x^2)\n"
                             "product [I] [(y)]\nverify commutativity [I] [(y)]\n")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["--script", script, "--report", str(a)]) == 0
    assert cli.main(["--script", script, "--report", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("statement", [
    "print [I]]",
    "product [I] )[J](",
    "degree (I",
    "verify commutativity [I] [J",
    "glue U]: U0 = [I]",
    "let K = ideal(R; (x])",
    "print [I)",
])
def test_unbalanced_brackets_in_verb_arguments_exit_2(statement, tmp_path, capsys):
    text = ("let R = ring(x, y)\nlet I = ideal(R; x)\nlet J = ideal(R; y)\n"
            + statement + "\n")
    with pytest.raises(ScriptParseError, match="line 4: unbalanced brackets"):
        run_script(text)
    assert cli.main(["--script", write(tmp_path, text)]) == 2
    assert "line 4: unbalanced brackets" in capsys.readouterr().err
