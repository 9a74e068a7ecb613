import dataclasses
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import residua
from residua import cli, residues
from residua.cli import (
    ParseFailure,
    corpus_text,
    encode,
    main,
    parse_complex,
    parse_fraction,
    parse_ideal,
    parse_matrix,
    parse_polynomial,
    parse_script,
    run_script,
)
from residua.groebner import Ideal, InvariantError, QuotientContext
from residua.homalg import (
    ChainComplex,
    buchsbaum_eisenbud_check,
    cohen_macaulay_check,
    detect_periodicity,
    free_resolution,
    koszul_complex,
    proper_intersection_check,
    rank_loci,
)
from residua.polyring import PolynomialRing, order_by_name
from residua.residues import (
    HomotopyFailure,
    poincare_residue,
    regular_sequence_check,
    structure_form_shape,
)

ZW = PolynomialRing(("z", "w"))
XY = PolynomialRing(("x", "y"))
XYZ = PolynomialRing(("x", "y", "z"))


def test_spec_one_liner():
    code, lines, doc = run_script(
        "ring R = Q[z,w]; quotient Z = R/(z^3 - w^2); ideal J = Z:(z, w); "
        "recipe X = recipe(Z, J); annmember(X, z)"
    )
    assert code == 0
    assert lines[-1].endswith("annmember -> true")
    assert doc["statements"][-1]["result"] is True


def test_periodic_example():
    code, lines, doc = run_script("resolve((x), over Q[x,y]/(x*y), cap=6); period(last)")
    assert code == 0
    assert doc["statements"][-1]["result"] == {"detected": True, "offset": 0, "period": 2}


def test_empty_script():
    code, lines, doc = run_script("")
    assert code == 0 and lines == [] and doc["statements"] == []


def test_polynomial_json_schema():
    assert encode(ZW.poly("z^3 - w^2")) == {
        "vars": ["z", "w"],
        "terms": [{"coeff": "1", "exps": [3, 0]}, {"coeff": "-1", "exps": [0, 2]}],
    }


def test_koszul_json_schema():
    K = koszul_complex((ZW.poly("z"), ZW.poly("w")))
    assert encode(K) == {"ranks": [1, 2, 1], "diffs": [[["z", "w"]], [["-w"], ["z"]]]}


def test_resolution_diagnostics_encode_as_their_fields():
    d = rank_loci(koszul_complex((XY.poly("x"), XY.poly("y"))))
    assert encode(d) == {
        "ranks_used": [1, 1],
        "loci": [{"gens": ["x", "y"]}, {"gens": ["y", "x"]}],
        "codims": [2, 2],
        "level_ok": [True, True],
        "containments": [True],
    }


def _two_lines_and_plane_shape():
    Z = QuotientContext(XYZ, Ideal(XYZ, (XYZ.poly("x*z"), XYZ.poly("y*z"))))
    decomposition = [
        (Ideal(XYZ, (XYZ.poly("z"),)), 2),
        (Ideal(XYZ, (XYZ.poly("x"), XYZ.poly("y"))), 1),
    ]
    return structure_form_shape(Z, decomposition)


REPORTS = {
    "RegularSequenceReport": lambda: regular_sequence_check((XY.poly("x"), XY.poly("y"))),
    "ExactnessReport": lambda: buchsbaum_eisenbud_check(koszul_complex((XY.poly("x"), XY.poly("y")))),
    "ExactnessLevel": lambda: REPORTS["ExactnessReport"]().levels[0],
    "ProperIntersectionReport": lambda: proper_intersection_check(
        koszul_complex((XY.poly("x"),)), koszul_complex((XY.poly("y"),)), 1, 1
    ),
    "PeriodicityReport": lambda: detect_periodicity(koszul_complex((XY.poly("x"), XY.poly("y")))),
    "CMReport": lambda: cohen_macaulay_check(Ideal(XY, (XY.poly("x"), XY.poly("y")))),
    "StructureFormShape": _two_lines_and_plane_shape,
    "ShapeComponent": lambda: _two_lines_and_plane_shape().components[0],
    "PairBound": lambda: _two_lines_and_plane_shape().pair_bounds[0],
}


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_keys_are_field_names(name):
    report = REPORTS[name]()
    assert type(report).__name__ == name
    assert list(encode(report)) == [f.name for f in dataclasses.fields(report)]


def test_homotopy_failure_json():
    failure = HomotopyFailure(1, ((XY.poly("x - 1/2*y"), XY.zero()),))
    assert encode(failure) == {"homotopic": False, "level": 1, "residual": [["x - 1/2*y", "0"]]}


def test_report_polynomials_encode_as_text_without_the_context():
    form = poincare_residue(XY.poly("x^2 - y^3"), "x")
    assert encode(form) == {"numerator": "1", "denominator": "2*x", "wedge": ["y"], "twopi_exponent": 1}


def test_empty_ideal_json():
    assert encode(Ideal(ZW, ())) == {"gens": []}


def test_round_trips():
    p = ZW.poly("-1/2*z*w + 3")
    assert parse_polynomial(ZW, encode(p)) == p
    assert parse_fraction(encode(p.constant_term())) == p.constant_term()
    I = Ideal(ZW, (ZW.poly("z^2"), ZW.poly("2*w - 1")))
    assert parse_ideal(ZW, encode(I)) == I
    M = ((ZW.poly("z"), ZW.zero()), (ZW.poly("-w"), ZW.one()))
    assert parse_matrix(ZW, [[str(e) for e in row] for row in M]) == M
    K = koszul_complex((ZW.poly("z"), ZW.poly("w")))
    assert parse_complex(ZW, encode(K)) == K
    ctx = QuotientContext(XY, Ideal(XY, (XY.poly("x*y"),)))
    T = free_resolution(Ideal(XY, (XY.poly("x"),)), context=ctx, cap=6)
    assert not T.complete
    assert parse_complex(XY, encode(T), context=ctx) == T


def test_parse_error_carries_line_number():
    with pytest.raises(ParseFailure) as exc:
        parse_script("ring R = Q[z,w]\nbogus(1)\n")
    assert exc.value.line == 2
    with pytest.raises(ParseFailure):
        parse_script("matrix A = R:[[1, 0], [1]]")
    with pytest.raises(ParseFailure):
        parse_script("ideal last = R:(x)")
    with pytest.raises(ParseFailure):
        parse_script("resolve((x)")  # unbalanced


def test_execution_errors_continue():
    code, lines, doc = run_script(
        "resolve((x), over Q[x,y], cap=3)\n"
        "annmember(last, x)\n"
        "koszul((x), over Q[x,y])\n"
    )
    assert code == 1
    assert lines[1].startswith("2: error:")
    assert len(doc["statements"]) == 3
    assert "error" in doc["statements"][1]
    assert doc["statements"][2]["command"] == "koszul"


def test_cap_takes_only_ascii_digits():
    # \d would read ARABIC-INDIC DIGIT SIX as 6 and run the resolution
    code, lines, doc = run_script(
        "resolve((x, y), over Q[x,y]/(x*y), cap=\u0666)\nkoszul((x), over Q[x,y])\n"
    )
    assert code == 1
    assert lines[0] == "1: error: cap must be an integer"
    assert doc["statements"][0]["error"] == "cap must be an integer"
    assert doc["statements"][1]["command"] == "koszul" and "result" in doc["statements"][1]


def test_script_names_are_ascii():
    # \w would take any Unicode word character into a name, while ring
    # variables are ASCII: each of these scripts ran with exit 0
    for text in (
        "ring S٣ = Q[x]\ntuple té = S٣:(x)\nkoszul(té)\n",
        "ring S٣ = Q[x]\nkoszul((x), over S٣)\n",
        "ring S = Q[x]\ntuple té = S:(x)\n",
        "ring S = Q[x]\ntuple t = S:(x)\nté = koszul(t)\n",
    ):
        with pytest.raises(ParseFailure):
            parse_script(text)
    code, lines, _ = run_script("ring S_3 = Q[x]\ntuple t3 = S_3:(x)\nkoszul(t3)\n")
    assert code == 0 and lines == ['3: koszul -> {"diffs": [[["x"]]], "ranks": [1, 1]}']


def test_script_whitespace_and_line_breaks_are_ascii():
    # \s and str.strip took any Unicode whitespace and str.splitlines broke
    # lines at LINE SEPARATOR, NEXT LINE and FORM FEED: the four scripts
    # that must not parse ran with exit 0, and so did the two statements
    # that must fail
    for text in (
        "ring\u3000S = Q[x, y]\nkoszul((x, y), over S)\n",
        "ring S = Q[x, y]\u2028koszul((x, y), over S)\n",
        "ring S = Q[x, y]\x85koszul((x, y), over S)\n",
        "ring S = Q[x, y]\x0ckoszul((x, y), over S)\n",
    ):
        with pytest.raises(ParseFailure):
            parse_script(text)
    code, lines, _ = run_script(
        "ring S = Q[x, y]\nkoszul((x,\u3000y), over S)\nkoszul((x, y), over\u00a0S)\n"
    )
    assert code == 1
    assert lines == [
        "2: error: bad polynomial '\\u3000y' over Q[x,y]: unexpected character '\\u3000'"
        " (at position 0)",
        "3: error: bad scope '\\xa0S'",
    ]
    # ASCII whitespace and the \n, \r\n and \r line breaks still work
    code, lines, _ = run_script(
        "ring\tS = Q[x,\ty]\r\n\x0bkoszul((x, y),\x0cover S)\rkoszul((x), over S)\n"
    )
    assert code == 0
    assert [line.split(":")[0] for line in lines] == ["2", "3"]


def test_a_bound_lift_supplies_its_ring():
    # resolve(L) and koszul(L) found no ring in scope
    head = "ring R = Q[z, w]\nquotient Z = R/(z^3 - w^2)\nideal J = R:(z + w)\nL = lift(J, Z)\n"
    for cmd in ("resolve", "koszul"):
        code, lines, _ = run_script(head + f"{cmd}(L)\n{cmd}(L, over R)\n")
        assert code == 0
        assert lines[1].split(": ", 1)[1] == lines[2].split(": ", 1)[1]
        assert lines[1].startswith(f"5: {cmd} -> ")


# A kernel whose first division that tracks quotients and leaves no
# remainder reports its whole dividend as the remainder instead.
_CORRUPT_ONE_DIVISION = """
import json, sys
sys.path.insert(0, {src!r})
from residua import groebner
from residua.cli import run_script

reduce_terms = groebner.kernel.reduce_terms
armed = [True]

def corrupted(f, divisors, codec, want_quotients, below=None):
    quots, rem, mult = reduce_terms(f, divisors, codec, want_quotients, below)
    if armed[0] and want_quotients and not rem:
        armed[0] = False
        rem = dict(f)
    return quots, rem, mult

groebner.kernel.reduce_terms = corrupted
# (x + y, y) is not structurally reduced (the lead y divides the tail
# term y), so its syzygies run the engine, whose own check of the inputs
# meets the corrupted division
code, lines, _ = run_script("resolve((x + y, y), over Q[x,y])\\nresolve((x, y), over Q[x,y])")
print(json.dumps([code, lines]))
"""


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["asserts", "optimized"])
def test_broken_invariant_is_reported_per_statement(flags):
    # run in a fresh interpreter so that -O (which strips asserts) applies
    src = str(Path(residua.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _CORRUPT_ONE_DIVISION.format(src=src)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    code, lines = json.loads(proc.stdout)
    assert code == 1
    assert lines[0] == "1: error: input does not reduce to zero against its own basis"
    assert lines[1].startswith("2: resolve -> ")


def test_annihilator_route_mismatch_is_reported_per_statement(monkeypatch):
    # the ambient route (membership without a context) answers "not a
    # member" where the quotient route answers "member"
    member = residues.ideal_member
    monkeypatch.setattr(
        residues, "ideal_member", lambda f, I, context=None: context is not None and member(f, I, context)
    )
    code, lines, doc = run_script(
        "ring R = Q[z,w]\nquotient Z = R/(z^3 - w^2)\nideal J = Z:(z, w)\n"
        "recipe X = recipe(Z, J)\nannmember(X, z)\nkoszul((z), over R)"
    )
    assert code == 1
    assert lines[-2] == (
        "5: error: annihilator oracle mismatch between the ambient and quotient routes"
    )
    assert "error" in doc["statements"][-2]
    assert doc["statements"][-1]["command"] == "koszul"
    assert "error" not in doc["statements"][-1]
    recipe = residues.build_current_recipe(
        QuotientContext(ZW, Ideal(ZW, [ZW.poly("z^3 - w^2")])), Ideal(ZW, ZW.gens())
    )
    with pytest.raises(InvariantError):
        residues.annihilator_member(recipe, ZW.poly("z"))


def test_compare_across_rings_is_reported_per_statement():
    code, lines, doc = run_script(
        "K = koszul((x, y), over Q[x,y])\nL = koszul((z), over Q[z])\n"
        "compare(K, L)\nkoszul((z), over Q[z])"
    )
    assert code == 1
    assert lines[2] == "3: error: complexes must share one ring"
    assert doc["statements"][2] == {"line": 3, "error": "complexes must share one ring"}
    assert doc["statements"][3]["command"] == "koszul"
    assert "error" not in doc["statements"][3]


def test_compare_and_homotopy_lift_through_a_zero_column(monkeypatch):
    made = []
    real = cli.comparison_morphism

    def spy(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(cli, "comparison_morphism", spy)
    code, lines, _ = run_script(
        "ring R = Q[x,y]\nK = koszul((x, 0), over R)\nF = resolve((x), over R)\n"
        "A = compare(F, K)\nhomotopy(A, A)"
    )
    assert code == 0
    assert lines[-2] == '4: A = compare -> {"levels": [[["1"]], [["1"], ["0"]]]}'
    assert lines[-1].startswith('5: homotopy -> {"homotopic": true')
    levels = [[[str(c) for c in row] for row in M] for M in made[0].levels]
    assert levels == [[["1"]], [["1"], ["0"]]]
    assert made[0].verify()


def test_compare_into_a_truncation_reports_the_level_past_its_length(monkeypatch):
    real = cli.comparison_morphism

    def into_truncation(F, E, order=None):
        return real(F, ChainComplex(E.ring, E.ranks[:2], E.diffs[:1]), order=order)

    monkeypatch.setattr(cli, "comparison_morphism", into_truncation)
    code, lines, doc = run_script("F = resolve((x, y), over Q[x,y])\ncompare(F, F)")
    assert code == 1
    message = "level 2: target complex ended but the composite map has not"
    assert lines[-1] == f"2: error: {message}"
    assert doc["statements"][-1] == {"line": 2, "error": message}


def test_quotient_declared_arguments_run_over_their_quotient():
    script = "ring R = Q[x,y]\nquotient Z = R/(x*y)\nideal I = Z:(x)\ntuple f = Z:(x)\n"
    for call, arg in (("resolve", "I"), ("regseq", "f"), ("ch", "f")):
        cap = ", cap=3" if call == "resolve" else ""
        script += f"{call}({arg}{cap})\n{call}((x), over Z{cap})\n{call}((x), over R{cap})\n"
    _, _, doc = run_script(script)
    got = [{k: v for k, v in s.items() if k != "line"} for s in doc["statements"]]
    for k in range(0, 9, 3):
        implicit, over_z, over_r = got[k : k + 3]
        assert implicit == over_z != over_r


def test_undefined_identifier_is_an_execution_error():
    code, lines, doc = run_script(
        "ring S = Q[x,y,z]\nquotient Z5 = S/(x*z, y*z)\nshape(Z5, W9:1)"
    )
    assert code == 1
    assert "undefined identifier 'W9'" in lines[-1]


def test_last_before_any_command():
    code, lines, _ = run_script("ring R = Q[x,y]\nperiod(last)")
    assert code == 1 and "before any command" in lines[0]


def test_quotient_scope_refusals():
    code, lines, _ = run_script("cm-check((x), over Q[x,y]/(x*y))")
    assert code == 1 and "ambient" in lines[0]


def test_global_cap_default_and_per_command_override():
    code, _, doc = run_script("resolve((x), over Q[x,y]/(x*y))", cap=4)
    assert code == 0
    assert doc["statements"][0]["result"]["ranks"] == [1, 1, 1, 1, 1]
    code, _, doc = run_script("resolve((x), over Q[x,y]/(x*y), cap=6)", cap=4)
    assert doc["statements"][0]["result"]["ranks"] == [1] * 7


def test_order_flag_reroutes_liftings():
    script = (
        "E = resolve((x, y^2), over Q[x,y])\n"
        "F = resolve((x*y^2), over Q[x,y])\n"
        "compare(F, E)\n"
    )
    _, _, doc = run_script(script)
    assert doc["statements"][-1]["result"]["levels"][1] == [["0"], ["x"]]
    _, _, doc = run_script(script, order=order_by_name("lex"))
    assert doc["statements"][-1]["result"]["levels"][1] == [["y^2"], ["0"]]


def test_corpus_runs_clean_and_deterministically():
    text = corpus_text()
    code1, lines1, doc1 = run_script(text)
    code2, lines2, doc2 = run_script(text)
    assert code1 == code2 == 0
    assert lines1 == lines2
    blob1 = json.dumps(doc1, sort_keys=True, separators=(",", ":"))
    blob2 = json.dumps(doc2, sort_keys=True, separators=(",", ":"))
    assert blob1 == blob2


def test_corpus_json_is_pinned():
    blob = json.dumps(run_script(corpus_text())[2], sort_keys=True, separators=(",", ":")) + "\n"
    digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()
    assert digest == "7b363c29e442ce7cccf552c3b51dd2fd5b93c9818cccc35730d8e26fec7e2ad6"


def test_main_with_script_and_json_files(tmp_path, capsys):
    script = tmp_path / "job.rcs"
    script.write_text("koszul((z, w), over Q[z,w])\n", encoding="utf-8")
    out = tmp_path / "report.json"
    assert main(["--script", str(script), "--json", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("1: koszul ->")
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["exit"] == 0
    assert doc["statements"][0]["result"]["ranks"] == [1, 2, 1]


def test_main_reports_an_unwritable_json_path(tmp_path, capsys):
    script = tmp_path / "job.rcs"
    script.write_text("koszul((z, w), over Q[z,w])\n", encoding="utf-8")
    out = tmp_path / "missing" / "out.json"
    assert main(["--script", str(script), "--json", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out.startswith("1: koszul ->")
    assert captured.err.startswith("cannot write JSON report: ")
    assert "Traceback" not in captured.err
    assert not out.exists()


def test_main_json_to_stdout_suppresses_text(capsys):
    assert main(["--corpus", "--json", "-"]) == 0
    captured = capsys.readouterr()
    body = captured.out.strip().splitlines()
    assert len(body) == 1 and body[0].startswith("{")
    json.loads(body[0])


def test_main_parse_error_exit_code(tmp_path, capsys):
    script = tmp_path / "bad.rcs"
    script.write_text("nonsense here\n", encoding="utf-8")
    assert main(["--script", str(script)]) == 2
    assert "line 1" in capsys.readouterr().err
