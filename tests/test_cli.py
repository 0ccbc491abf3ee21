from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

from cutval.algebra import matrix_algebra, quadratic_algebra, rank_of
from cutval.cli import eval_cut_expression, main
from cutval.cuts import format_value, parse_value
from cutval.errors import StructuralError
from cutval.numfield import RationalFunction, ValuedField
from cutval.orders import NiceCheck, NiceReport
from cutval.problemfile import load_problem
from cutval.samplers import sample_scalar
from cutval.sampling import SampleSpec, SplitMix64


def problem_dict(alg, domain_desc, bases=None, ideals=None):
    ser = alg.field.scalar_to_json
    out = {
        "format": 1,
        "field": {"kind": alg.field.kind, "p": alg.field.p},
        "domain": domain_desc,
        "algebra": {
            "names": list(alg.names),
            "unit": [ser(c) for c in alg.unit],
            "table": [[[ser(c) for c in cell] for cell in row] for row in alg.table],
        },
    }
    if bases:
        out["bases"] = {k: [[ser(c) for c in v] for v in vs] for k, vs in bases.items()}
    if ideals:
        out["ideals"] = {k: [[ser(c) for c in v] for v in vs] for k, vs in ideals.items()}
    return out


@pytest.fixture
def m2_file(tmp_path, field_q):
    alg = matrix_algebra(field_q, 2)
    units = [alg.basis_vector(i) for i in range(4)]
    with_one = [alg.unit, alg.basis_vector(1), alg.basis_vector(2), alg.basis_vector(3)]
    data = problem_dict(alg, {"kind": "Zp", "p": 2},
                        bases={"units": units, "unital": with_one})
    path = tmp_path / "m2.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def dual_file(tmp_path, field_q):
    alg = quadratic_algebra(field_q, 0)
    data = problem_dict(alg, {"kind": "Zp", "p": 2},
                        bases={"std": [alg.unit, alg.basis_vector(1)]},
                        ideals={"rad": [alg.basis_vector(1)]})
    path = tmp_path / "dual.json"
    path.write_text(json.dumps(data))
    return str(path)


def run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, out


def test_cutcalc(capsys):
    rc, out = run(capsys, ["cutcalc", "AM(1;2) + AM(0;1,7)"])
    assert rc == 0 and out.strip() == "AM(1;3)"
    assert eval_cut_expression("2*AM(1;4)") == parse_value("AM(1;8)")
    assert eval_cut_expression("AM(0;5) - (2)") == parse_value("AM(0;3)")
    assert format_value(eval_cut_expression("INF - (4)")) == "INF"
    assert format_value(eval_cut_expression("BOT + TOP")) == "BOT"
    assert format_value(eval_cut_expression("(1,2) + (3,-5)")) == "AM(0;4,-3)"
    rc, out = run(capsys, ["cutcalc", "INF + AM(0;7)"])
    assert rc == 0 and out.strip() == "INF"


@pytest.mark.parametrize("expr, reason", [("AM(1;2", "unclosed parenthesis"),
                                          ("3*", "ends after an operator"),
                                          ("AM(0;1) +", "ends after an operator"),
                                          ("AM(0;1) AM(0;2)", "unexpected token"),
                                          pytest.param("9" * 5000 + "*(1)", "scale factor",
                                                       id="scale-5000-digits"),
                                          pytest.param("\u00b2*(1)", "scale factor",
                                                       id="scale-superscript-two")])
def test_cutcalc_malformed_fails_closed(capsys, expr, reason):
    rc = main(["cutcalc", expr])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err.startswith("FAIL: ") and reason in captured.err


@pytest.mark.parametrize("expr", ["AM(1;2) - AM(1;1)", "AM(0;2) - TOP", "(1) - INF"])
def test_cutcalc_subtracts_only_a_group_element(capsys, expr):
    rc = main(["cutcalc", expr])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == "FAIL: can only subtract a group element (principal cut)\n"


@pytest.mark.parametrize("rank, expr", [("-2", "INF"), ("0", "(1)"), ("0", "AM(1;2)"),
                                        ("-1", "BOT + TOP"), ("0", "AM(1;2")])
def test_cutcalc_refuses_a_rank_below_one(capsys, rank, expr):
    """--rank R with R < 1 fails before the expression is read, whatever it is."""
    rc = main(["cutcalc", "--rank", rank, expr])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == "FAIL: rank must be >= 1\n"


def test_broken_pipe_exits_without_traceback(capsys, monkeypatch, m2_file):
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as closed:
        monkeypatch.setattr(sys, "stdout", closed)
        rc = main(["stable", m2_file, "--basis", "units"])
        monkeypatch.undo()
    assert rc == 1
    assert capsys.readouterr().err == ""


def test_algebra_check(capsys, m2_file):
    rc, out = run(capsys, ["algebra", "check", m2_file])
    assert rc == 0
    assert out.strip() == "OK: associative, unital (n=4)"


def test_algebra_check_scans_the_table_once(capsys, monkeypatch, m2_file):
    import cutval.algebra
    import cutval.problemfile
    scan, scans = cutval.algebra.check_associative_unital, []

    def counted(alg):
        scans.append(alg.dim)
        return scan(alg)

    monkeypatch.setattr(cutval.problemfile, "check_associative_unital", counted)
    monkeypatch.setattr(cutval.algebra, "check_associative_unital", counted)
    rc, out = run(capsys, ["algebra", "check", m2_file])
    assert (rc, out, scans) == (0, "OK: associative, unital (n=4)\n", [4])


def test_algebra_check_rejects_corrupt_table(capsys, tmp_path, field_q):
    alg = matrix_algebra(field_q, 2)
    data = problem_dict(alg, {"kind": "Zp", "p": 2})
    data["algebra"]["table"][1][2] = ["1", "0", "0", "1"]  # corrupt e12*e21
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    rc, out = run(capsys, ["algebra", "check", str(path)])
    assert rc == 1
    assert "FAIL" in out and "associativity" in out


def test_qv_eval(capsys, m2_file):
    rc, out = run(capsys, ["qv", "eval", m2_file, "--basis", "units",
                           "--element", "1/2,0,0,4"])
    assert rc == 0 and out.strip() == "AM(0;-1)"


def test_qv_audit_deterministic(capsys, m2_file):
    argv = ["qv", "audit", m2_file, "--basis", "units", "--samples", "150", "--seed", "7"]
    rc1, out1 = run(capsys, argv)
    rc2, out2 = run(capsys, argv)
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert "PASS" in out1 and "FAIL" not in out1


@pytest.mark.parametrize("command", [["qv", "audit"], ["nice"]])
@pytest.mark.parametrize("samples", ["0", "-5"])
def test_audit_refuses_to_pass_vacuously(capsys, m2_file, command, samples):
    rc = main(command + [m2_file, "--basis", "units", "--samples", samples])
    captured = capsys.readouterr()
    assert rc == 1
    assert "PASS" not in captured.out
    assert captured.err.startswith("FAIL: ") and f"count={samples}" in captured.err


def test_stable_and_nice(capsys, m2_file):
    rc, out = run(capsys, ["stable", m2_file, "--basis", "units"])
    assert rc == 0 and "stable: yes" in out
    rc, out = run(capsys, ["nice", m2_file, "--basis", "units"])
    assert rc == 0
    assert "PASS R cap F = S (exact)" in out


def test_chain_descend(capsys, m2_file):
    rc, out = run(capsys, ["chain", "descend", m2_file, "--basis", "unital",
                           "--steps", "2", "--samples", "80"])
    assert rc == 0
    assert "step 1: witness (0, 1, 0, 0)" in out
    assert out.count("nice audit PASS") == 2


def test_ideal_nice(capsys, dual_file):
    rc, out = run(capsys, ["ideal-nice", dual_file, "--ideal", "rad", "--samples", "100"])
    assert rc == 0 and "FAIL" not in out


def test_matrix_chain(capsys):
    rc, out = run(capsys, ["matrix-chain", "--n", "2", "--domain", "Z",
                           "--ideals", "4,2", "--samples", "100"])
    assert rc == 0
    assert "strictness witness (0, 2, 0, 0) verified" in out
    assert out.count("nice audit PASS") == 2


@pytest.mark.parametrize("argv", [
    ["chain", "descend", "{m2}", "--basis", "unital", "--steps", "2", "--samples", "80"],
    ["matrix-chain", "--n", "2", "--domain", "Z", "--ideals", "4,2", "--samples", "100"],
], ids=["chain-descend", "matrix-chain"])
def test_chain_audit_failure_prints_the_report(capsys, monkeypatch, m2_file, argv):
    """A chain whose first term fails its nice audit prints that term's FAIL
    line and its full report, the later terms as before, and exits 1."""
    import cutval.cli
    argv = [a.format(m2=m2_file) for a in argv]
    rc, passing = run(capsys, argv)
    assert rc == 0 and passing.count("nice audit PASS") == 2
    verify, reports = cutval.cli.verify_nice, []

    def first_fails(oracle, spec):
        report = verify(oracle, spec)
        if not reports:
            report = NiceReport(report.provenance, report.spec_text,
                                report.checks + (NiceCheck("forced", "exact", False, "in the test"),))
        reports.append(report)
        return report
    monkeypatch.setattr(cutval.cli, "verify_nice", first_fails)
    rc, out = run(capsys, argv)
    first, rest = passing.split("\n", 1)
    assert first.endswith("nice audit PASS") and not reports[0].ok and reports[1].ok
    assert rc == 1
    assert out == f"{first[:-4]}FAIL\n{reports[0]}\n{rest}"
    assert "  FAIL forced (exact) -- in the test" in out


@pytest.mark.parametrize("domain", ["Zp", "Ov"])
def test_matrix_chain_refuses_other_domains_on_stderr(capsys, domain):
    """A domain other than Z is refused as every other refusal is: a FAIL:
    line on stderr, nothing on stdout, exit 1."""
    rc = main(["matrix-chain", "--n", "2", "--domain", domain, "--ideals", "4,2"])
    captured = capsys.readouterr()
    assert (rc, captured.out, captured.err) == (1, "", "FAIL: only --domain Z is supported\n")


def test_report_values_round_trip(capsys, m2_file):
    _, out = run(capsys, ["qv", "eval", m2_file, "--basis", "units",
                          "--element", "3,0,0,12"])
    token = out.strip()
    assert format_value(parse_value(token)) == token


def test_load_problem_validates(tmp_path, field_q):
    alg = matrix_algebra(field_q, 2)
    data = problem_dict(alg, {"kind": "Zp", "p": 2})
    data["format"] = 2
    path = tmp_path / "v2.json"
    path.write_text(json.dumps(data))
    with pytest.raises(StructuralError):
        load_problem(str(path))


def run_failing(capsys, argv):
    """Exit status and stderr of a run that must fail closed."""
    rc = main(argv)
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    return rc, captured.err


def test_missing_problem_file_fails_closed(capsys, tmp_path):
    path = str(tmp_path / "absent.json")
    rc, err = run_failing(capsys, ["nice", path, "--basis", "units"])
    assert rc == 1
    assert err.startswith("FAIL: cannot read problem file") and path in err


def edited_problem(path, value, kind="Q"):
    """A valid M2(Q) problem over Z_(2), or M2(Q(t)) over O_v for kind "Qt",
    the entry at the key path replaced."""
    domain = {"kind": "Zp", "p": 2} if kind == "Q" else {"kind": "Ov"}
    data = problem_dict(matrix_algebra(ValuedField(kind, 2), 2), domain)
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return json.dumps(data)


def wrong_type(path, value, reason):
    return pytest.param(edited_problem(path, value), reason, id="-".join(map(str, path)))


@pytest.mark.parametrize("text, reason", [
    ('{"format": 1, "field": ', "not valid JSON"),
    ("[1, 2]", "not a JSON object"),
    (edited_problem(("field", "p"), "two"), "key 'p' of 'field' must be an integer, got 'two'"),
    (edited_problem(("domain", "p"), "x"), "key 'p' of 'domain' must be an integer, got 'x'"),
    wrong_type(("domain",), "Zp", "key 'domain' must be a JSON object, got 'Zp'"),
    wrong_type(("field",), ["Q", 2], "key 'field' must be a JSON object, got ['Q', 2]"),
    wrong_type(("algebra", "unit"), 1, "key 'algebra.unit' must be a JSON array, got 1"),
    wrong_type(("algebra", "names"), 4, "key 'algebra.names' must be a JSON array, got 4"),
    wrong_type(("bases",), {"units": [1]}, "key 'bases.units' must be a JSON array, got 1"),
    wrong_type(("bases",), [1], "key 'bases' must be a JSON object, got [1]"),
    pytest.param(edited_problem(("algebra", "unit", 0), {"num": ["1"], "den": ["0"]}, "Qt"),
                 "key 'algebra.unit': zero denominator", id="qt-den-zero"),
    pytest.param(edited_problem(("algebra", "unit", 0), {"num": ["1"], "den": []}, "Qt"),
                 "key 'algebra.unit': zero denominator", id="qt-den-empty"),
    pytest.param("[" * 100_000, "not valid JSON", id="nested-100000"),
    pytest.param('{"format": ' + "1" * 4301 + "}", "not valid JSON", id="int-4301-digits"),
    pytest.param(edited_problem(("algebra", "unit", 0), True),
                 "key 'algebra.unit': cannot coerce True into Q", id="unit-true"),
    pytest.param(edited_problem(("format",), True), "unsupported format True", id="format-true"),
    pytest.param(edited_problem(("format",), 1.0), "unsupported format 1.0", id="format-1.0"),
])
def test_malformed_problem_json_fails_closed(capsys, tmp_path, text, reason):
    path = tmp_path / "broken.json"
    path.write_text(text)
    rc, err = run_failing(capsys, ["qv", "audit", str(path), "--basis", "units"])
    assert rc == 1
    assert err.startswith(f"FAIL: problem file {path}") and reason in err


def test_prime_past_the_bound_fails_closed(capsys, tmp_path):
    path = tmp_path / "bigp.json"
    path.write_text(edited_problem(("field", "p"), "1000000000000000000000000000057"))
    rc, err = run_failing(capsys, ["stable", str(path), "--basis", "units"])
    assert rc == 1
    assert err.startswith("FAIL: p must be below 2^64")


def test_problem_missing_key_fails_closed(capsys, tmp_path, field_q):
    data = problem_dict(matrix_algebra(field_q, 2), {"kind": "Zp", "p": 2})
    del data["field"]["p"]
    path = tmp_path / "nop.json"
    path.write_text(json.dumps(data))
    rc, err = run_failing(capsys, ["stable", str(path), "--basis", "units"])
    assert rc == 1
    assert err.startswith("FAIL: problem file") and "required key 'p'" in err


@pytest.mark.parametrize("command", [["stable"], ["nice", "--samples", "5"]])
def test_dependent_basis_fails_closed(capsys, tmp_path, field_q, command):
    """A named basis that is dependent (1 = e11 + e22 beside e11 and e22)."""
    alg = matrix_algebra(field_q, 2)
    dependent = [alg.unit, alg.basis_vector(0), alg.basis_vector(1), alg.basis_vector(3)]
    path = tmp_path / "dependent.json"
    path.write_text(json.dumps(problem_dict(alg, {"kind": "Zp", "p": 2},
                                            bases={"dependent": dependent})))
    rc = main([command[0], str(path), "--basis", "dependent"] + command[1:])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == "FAIL: basis is dependent\n"


def test_qt_problem_round_trip(tmp_path, capsys):
    field = ValuedField("Qt", 2)
    alg = matrix_algebra(field, 2)
    data = problem_dict(alg, {"kind": "Ov"},
                        bases={"units": [alg.basis_vector(i) for i in range(4)]})
    path = tmp_path / "m2qt.json"
    path.write_text(json.dumps(data))
    prob = load_problem(str(path))
    assert prob.domain.kind == "Ov"
    element = json.dumps([{"num": ["0", "1"]}, "0", "0", {"num": ["0", "1"]}])
    rc, out = run(capsys, ["qv", "eval", str(path), "--basis", "units",
                           "--element", element])
    assert rc == 0 and out.strip() == "AM(0;1,0)"


@pytest.mark.parametrize("element, reason", [
    ("1,2", "not valid JSON"),
    ("[1,", "not valid JSON"),
    ('[{"num": 5}, "0"]', "coefficient lists 'num'"),
    ('["1/2", {"den": ["1"]}]', "coefficient lists 'num'"),
    ('{"a": 1}', "must be a JSON array of scalars"),
    ('["[1,2]/[0]", "0"]', "zero denominator"),
    ('["[1,2]/[]", "0"]', "zero denominator"),
    ('[{"num": ["1"], "den": ["0"]}, "0"]', "zero denominator"),
    pytest.param("[" * 100_000, "not valid JSON", id="nested-100000"),
    pytest.param("[" + "1" * 4301 + ', "0"]', "not valid JSON", id="int-4301-digits"),
    pytest.param('[true, "1/2"]', "cannot coerce True into Q(t)", id="true"),
])
def test_malformed_qt_element_fails_closed(capsys, qx_file, element, reason):
    rc, err = run_failing(capsys, ["qv", "eval", qx_file, "--basis", "random",
                                   "--element", element])
    assert rc == 1
    assert err.startswith("FAIL: ") and reason in err


def test_nice_over_z_sampled(capsys, tmp_path, field_q):
    alg = matrix_algebra(field_q, 2)
    data = problem_dict(alg, {"kind": "Z"},
                        bases={"units": [alg.basis_vector(i) for i in range(4)]})
    path = tmp_path / "m2z.json"
    path.write_text(json.dumps(data))
    rc, out = run(capsys, ["nice", str(path), "--basis", "units", "--samples", "100"])
    assert rc == 0
    assert "PASS R cap F = S (sampled)" in out


# --- golden stdout -------------------------------------------------------------

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "cli_stdout.json")
FILE = "<problem file>"


def random_basis_problem(tmp_path, name, alg, domain_desc, seed, **draw):
    """A problem file with one basis, "random", drawn coordinate by
    coordinate from `seed` (rank-deficient draws rejected)."""
    spec = SampleSpec(seed=seed, count=0, **draw)
    rng = spec.rng()
    while True:
        cand = [tuple(sample_scalar(rng, spec, alg.field) for _ in range(alg.dim))
                for _ in range(alg.dim)]
        if rank_of(alg.field, cand) == alg.dim:
            break
    path = tmp_path / name
    path.write_text(json.dumps(problem_dict(alg, domain_desc, bases={"random": cand})))
    return str(path)


M3_GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "m3-q-random.json")


def write_m3_problem(tmp_path):
    """M3(Q) over Z_(3) with the seed-7 random basis."""
    alg = matrix_algebra(ValuedField("Q", 3), 3)
    return random_basis_problem(tmp_path, "m3.json", alg, {"kind": "Zp", "p": 3}, 7,
                                coef_bound=5, max_p_exp=2)


@pytest.fixture
def m3_file():
    """write_m3_problem's file, checked in as tests/golden/m3-q-random.json
    (test_m3_golden_problem_is_the_random_basis_draw)."""
    return M3_GOLDEN


def test_m3_golden_problem_is_the_random_basis_draw(tmp_path):
    """The checked-in problem is the one write_m3_problem writes, byte for byte."""
    with open(write_m3_problem(tmp_path), "rb") as written, open(M3_GOLDEN, "rb") as golden:
        assert written.read() == golden.read()


@pytest.fixture
def qx_file(tmp_path):
    field = ValuedField("Qt", 2)
    alg = quadratic_algebra(field, RationalFunction.T)
    return random_basis_problem(tmp_path, "qx.json", alg, {"kind": "Ov"}, 303,
                                coef_bound=3, max_p_exp=1, poly_degree=2)


@pytest.fixture
def m2qt_file():
    """audit-qt's problem: M2(Q(t)) over O_v with the unit basis b0,
    written by cutbench.workloads.write_problem."""
    return os.path.join(os.path.dirname(__file__), "golden", "m2-qt-units.json")


def _random_basis_cases(tag, fixture, element, samples):
    rb = ["--basis", "random"]
    audit = ["--samples", samples, "--seed", "5"]
    return {
        f"{tag}-stable": (fixture, ["stable", FILE] + rb),
        f"{tag}-nice": (fixture, ["nice", FILE] + rb + audit),
        f"{tag}-qv-audit": (fixture, ["qv", "audit", FILE] + rb + audit),
        f"{tag}-qv-eval": (fixture, ["qv", "eval", FILE] + rb + ["--element", element]),
        f"{tag}-chain-descend": (fixture, ["chain", "descend", FILE] + rb + ["--steps", "1"] + audit),
    }


# name: (problem-file fixture or None, argv with FILE standing for its path)
GOLDEN_CASES = {
    "readme-cutcalc": (None, ["cutcalc", "AM(1;2) + AM(0;1,7)"]),
    "readme-algebra-check": ("m2_file", ["algebra", "check", FILE]),
    "readme-stable": ("m2_file", ["stable", FILE, "--basis", "units"]),
    "readme-nice": ("m2_file", ["nice", FILE, "--basis", "units", "--samples", "40"]),
    "readme-qv-eval": ("m2_file", ["qv", "eval", FILE, "--basis", "units",
                                   "--element", "1/2,0,0,4"]),
    "readme-qv-audit": ("m2_file", ["qv", "audit", FILE, "--basis", "units",
                                    "--samples", "40", "--seed", "42"]),
    "readme-chain-descend": ("m2_file", ["chain", "descend", FILE, "--basis", "unital",
                                         "--steps", "4", "--samples", "20"]),
    "readme-ideal-nice": ("dual_file", ["ideal-nice", FILE, "--ideal", "rad",
                                        "--samples", "40"]),
    "readme-matrix-chain": (None, ["matrix-chain", "--n", "2", "--domain", "Z",
                                   "--ideals", "4,2", "--samples", "40"]),
    **_random_basis_cases("m3-z3", "m3_file", "1,2/3,0,0,3,0,-1/9,0,9", "12"),
    "m2qt-nice": ("m2qt_file", ["nice", FILE, "--basis", "b0", "--samples", "10", "--seed", "5"]),
    "m2qt-qv-audit": ("m2qt_file", ["qv", "audit", FILE, "--basis", "b0",
                                    "--samples", "10", "--seed", "5"]),
    **_random_basis_cases("qx-ov", "qx_file", '[{"num": ["1", "2"], "den": ["0", "1"]}, "1/2"]', "6"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_stdout_matches_recording(request, capsys, name):
    """Exit status and stdout, byte for byte, as recorded in
    tests/golden/cli_stdout.json ({name: {"exit": ..., "stdout": ...}});
    an intended output change re-records the cases it touches."""
    fixture, argv = GOLDEN_CASES[name]
    if fixture is not None:
        path = request.getfixturevalue(fixture)
        argv = [path if a == FILE else a for a in argv]
    rc, out = run(capsys, argv)
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        recorded = json.load(fh)[name]
    assert {"exit": rc, "stdout": out} == recorded


# --- CLI contract fuzz ------------------------------------------------------------

FUZZ_BYTES = b'0123456789[]{}",:/- .ea'
FUZZ_TOKENS = ["AM(", "AM(0;", "AM(1;", ";", ",", "(", ")", "+", "-", "*", " ",
               "BOT", "TOP", "INF", "x", "\u00b2", "9" * 5000]


def mutate_bytes(rng, data: bytes) -> bytes:
    """One to three byte edits: overwrite (from JSON's alphabet or any
    byte), delete, or duplicate a short run."""
    out = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        kind, i = rng.randrange(4), rng.randrange(len(out))
        if kind == 0:
            out[i] = FUZZ_BYTES[rng.randrange(len(FUZZ_BYTES))]
        elif kind == 1:
            out[i] = rng.randrange(256)
        elif kind == 2:
            del out[i]
        else:
            out[i:i] = out[i:i + rng.randint(1, 8)]
    return bytes(out)


def random_cut_expression(rng) -> str:
    return "".join(str(rng.randint(-12, 12)) if rng.randrange(3) == 0 else rng.choice(FUZZ_TOKENS)
                   for _ in range(rng.randint(1, 8)))


def assert_contract(capsys, argv):
    """Exit 0, exit 1 with a FAIL: line, or argparse's usage exit 2; any
    other exception propagates and fails the test."""
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = ("usage", exc.code)
    captured = capsys.readouterr()
    lines = (captured.out + captured.err).splitlines()
    ok = rc in (0, ("usage", 2)) or (rc == 1 and any(ln.startswith("FAIL:") for ln in lines))
    assert ok, f"{[a[:60] for a in argv]} -> {rc}: {captured.err[-300:]!r}"


def test_cli_contract_under_fuzz(capsys, tmp_path, m2_file, qx_file, dual_file):
    """Seeded byte mutations of three problem files through stable, nice,
    qv audit, ideal-nice and chain descend, and random cutcalc expressions."""
    bases = [(Path(m2_file).read_bytes(), "unital"), (Path(qx_file).read_bytes(), "random"),
             (Path(dual_file).read_bytes(), "std")]
    audit = ["--samples", "3", "--seed", "5"]
    rng = SplitMix64(2024)
    path = str(tmp_path / "mutated.json")
    for k in range(210):
        data, basis = bases[k % 3]
        with open(path, "wb") as fh:
            fh.write(mutate_bytes(rng, data))
        for argv in (["stable", path, "--basis", basis],
                     ["nice", path, "--basis", basis] + audit,
                     ["qv", "audit", path, "--basis", basis] + audit,
                     ["ideal-nice", path, "--ideal", "rad"] + audit,
                     ["chain", "descend", path, "--basis", basis, "--steps", "1"] + audit):
            assert_contract(capsys, argv)
    for _ in range(1000):
        rank = ["--rank", str(rng.randint(-1, 3))] if rng.randrange(3) == 0 else []
        assert_contract(capsys, ["cutcalc", random_cut_expression(rng)] + rank)


Q_SCALARS = ["0", "1", "-1", "1/2", "-3/4", "12", "5/9"]
Q_TOKENS = Q_SCALARS + ["1/0", "2/-3", "x", "/", ",", ",,", " ", "", "1e3", "0x1f", "_1",
                        "\u00b2", "9" * 5000, "nan"]
QT_SCALARS = ['"1/2"', "3", "-1", '{"num": ["0", "1"]}', '{"num": ["1", "2"], "den": ["0", "1"]}']
QT_TOKENS = QT_SCALARS + ['"x"', "null", "true", "[]", '{"num": ["1"], "den": ["0"]}',
                          '{"den": ["1"]}', '{"num": "1"}', '"' + "9" * 5000 + '"',
                          "[", "]", ",", "{", "}", ":", '"num"', " "]
IDEAL_TOKENS = ["1", "2", "4", "8", "3", "9", "27", "1/2", "3/4", "0", "-4", "x", "",
                " ", "/", "2/0", "9" * 5000]


def random_tokens(rng, tokens, low, high) -> str:
    return "".join(rng.choice(tokens) for _ in range(rng.randint(low, high)))


def random_element(rng, scalars, tokens, dim, join):
    """Mostly dim scalars joined as the CLI reads them; at times one part
    mangled, a part too few or too many, or only noise."""
    kind = rng.randrange(6)
    if kind == 0:
        return random_tokens(rng, tokens, 0, 9)
    parts = [rng.choice(scalars) for _ in range(dim + (kind == 1) - (kind == 2))]
    if kind == 3:
        parts[rng.randrange(len(parts))] = random_tokens(rng, tokens, 0, 3)
    return join(parts)


def mutate_digit(rng, data: bytes) -> bytes:
    """One digit replaced by a digit: the JSON stays valid, its table may not."""
    out = bytearray(data)
    digits = [i for i, b in enumerate(out) if chr(b).isdigit()]
    out[rng.choice(digits)] = ord("0") + rng.randrange(10)
    return bytes(out)


def random_matrix_chain_args(rng) -> list:
    ideals = [rng.choice(IDEAL_TOKENS) for _ in range(rng.randint(1, 4))]
    if rng.randrange(3):  # a chain that ascends, in powers of p
        p = rng.choice([2, 3])
        ideals = [str(p ** e) for e in range(rng.randint(1, 3), 0, -1)]
    else:
        p = rng.choice([2, 3, 5, 0, 1, -2, 4, 9, 2 ** 64 + 13])
    return ["matrix-chain", "--n", str(rng.choice([-1, 0, 1, 2, 2, 3, 3])),
            "--domain", rng.choice(["Z", "Z", "Z", "Z", "Zp", "Ov", ""]),
            "--ideals=" + ",".join(ideals), "--p", str(p), "--samples", "3", "--seed", "5"]


def test_cli_contract_under_fuzz_eval_check_and_matrix_chain(capsys, tmp_path, m2_file,
                                                             qx_file, dual_file):
    """qv eval with random --element strings, algebra check on mutated
    problem files, and matrix-chain with random --n, --domain, --ideals, --p."""
    rng = SplitMix64(2025)
    for _ in range(300):
        element = random_element(rng, Q_SCALARS, Q_TOKENS, 4, ",".join)
        assert_contract(capsys, ["qv", "eval", m2_file, "--basis", "unital",
                                 "--element=" + element])
    for _ in range(50):
        element = random_element(rng, QT_SCALARS, QT_TOKENS, 2,
                                 lambda parts: "[" + ", ".join(parts) + "]")
        assert_contract(capsys, ["qv", "eval", qx_file, "--basis", "random",
                                 "--element=" + element])
    files = [Path(f).read_bytes() for f in (m2_file, qx_file, dual_file)]
    path = tmp_path / "mutated.json"
    for k in range(90):
        path.write_bytes((mutate_digit if k % 2 else mutate_bytes)(rng, files[k % 3]))
        assert_contract(capsys, ["algebra", "check", str(path)])
    for _ in range(80):
        assert_contract(capsys, random_matrix_chain_args(rng))
