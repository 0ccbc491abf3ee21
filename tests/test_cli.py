from __future__ import annotations

import json

import pytest

from cutval.algebra import matrix_algebra, quadratic_algebra
from cutval.cli import eval_cut_expression, main
from cutval.cuts import format_value, parse_value
from cutval.errors import StructuralError
from cutval.numfield import ValuedField
from cutval.problemfile import load_problem


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


def test_algebra_check(capsys, m2_file):
    rc, out = run(capsys, ["algebra", "check", m2_file])
    assert rc == 0
    assert out.strip() == "OK: associative, unital (n=4)"


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


@pytest.mark.parametrize("text, reason", [('{"format": 1, "field": ', "not valid JSON"),
                                          ("[1, 2]", "not a JSON object")])
def test_malformed_problem_json_fails_closed(capsys, tmp_path, text, reason):
    path = tmp_path / "broken.json"
    path.write_text(text)
    rc, err = run_failing(capsys, ["qv", "audit", str(path), "--basis", "units"])
    assert rc == 1
    assert err.startswith(f"FAIL: problem file {path}") and reason in err


def test_problem_missing_key_fails_closed(capsys, tmp_path, field_q):
    data = problem_dict(matrix_algebra(field_q, 2), {"kind": "Zp", "p": 2})
    del data["field"]["p"]
    path = tmp_path / "nop.json"
    path.write_text(json.dumps(data))
    rc, err = run_failing(capsys, ["stable", str(path), "--basis", "units"])
    assert rc == 1
    assert err.startswith("FAIL: problem file") and "required key 'p'" in err


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


def test_nice_over_z_sampled(capsys, tmp_path, field_q):
    alg = matrix_algebra(field_q, 2)
    data = problem_dict(alg, {"kind": "Z"},
                        bases={"units": [alg.basis_vector(i) for i in range(4)]})
    path = tmp_path / "m2z.json"
    path.write_text(json.dumps(data))
    rc, out = run(capsys, ["nice", str(path), "--basis", "units", "--samples", "100"])
    assert rc == 0
    assert "PASS R cap F = S (sampled)" in out
