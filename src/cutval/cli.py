"""Batch CLI over the library.

Subcommands: cutcalc, algebra check, stable, nice, qv eval, qv audit,
chain descend, ideal-nice, matrix-chain.  Output is deterministic for a
fixed seed; exit status is nonzero on validation failures or audit
counterexamples, with the witness printed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import cuts
from .algebra import TableReport
from .basedomain import integers
from .errors import CutvalError, DomainError, StructuralError
from .numfield import ValuedField, parse_rational
from .orders import descend_chain, matrix_nice_chain, nice_from_certificate, nice_with_ideal, verify_nice
from .problemfile import load_problem
from .quasival import filter_qv, filter_qv_eval, qv_audit
from .sampling import SampleSpec
from .stability import is_stable, stabilizer_finite


# --- cut expression evaluation -------------------------------------------


def _tokenize(expr: str):
    out = []
    i = 0
    while i < len(expr):
        ch = expr[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*":
            out.append(ch)
            i += 1
        elif ch == "(" or expr.startswith("AM(", i):
            j = expr.find(")", i)
            if j < 0:
                raise CutvalError(f"unclosed parenthesis in {expr[i:]!r}")
            out.append(expr[i:j + 1])
            i = j + 1
        else:
            j = i
            while j < len(expr) and (expr[j].isalnum()):
                j += 1
            if j == i:
                raise CutvalError(f"cannot tokenize {expr[i:]!r}")
            out.append(expr[i:j])
            i = j
    return out


def eval_cut_expression(expr: str, rank: int | None = None) -> cuts.Value:
    """Left-associative +/- over atoms BOT, TOP, INF, AM(j;...) and group
    literals (a,b) read as their principal cuts; n*atom scales.  '-' is
    translation and needs a principal right operand.  A given rank below 1
    is refused before the expression is read."""
    if rank is not None and rank < 1:
        raise CutvalError("rank must be >= 1")
    tokens = _tokenize(expr)
    if not tokens:
        raise CutvalError("empty expression")
    if rank is None:
        for t in tokens:
            if t.startswith("AM(") or t.startswith("("):
                rank = _atom_rank(t)
                break
        else:
            rank = 1

    def atom(pos: int) -> cuts.Value:
        if pos >= len(tokens):
            raise CutvalError(f"expression ends after an operator: {expr!r}")
        return cuts.parse_value(tokens[pos], rank)

    def term(pos: int):
        if pos + 1 < len(tokens) and tokens[pos + 1] == "*":
            try:  # int() refuses digits such as '²' that isdigit() admits, and 4,301 digits
                factor = int(tokens[pos]) if tokens[pos].isdigit() else 0
            except ValueError:
                factor = 0
            if factor < 1:
                raise CutvalError(f"scale factor must be a positive integer, got {tokens[pos][:40]!r}")
            return cuts.value_scale(factor, atom(pos + 2)), pos + 3
        return atom(pos), pos + 1

    value, pos = term(0)
    while pos < len(tokens):
        op = tokens[pos]
        if op not in ("+", "-"):
            raise CutvalError(f"unexpected token {op!r}")
        rhs, pos = term(pos + 1)
        if op == "+":
            value = cuts.value_add(value, rhs)
        else:
            if rhs is cuts.INF or rhs.kind != cuts.ATMOST or rhs.level != 0:
                raise CutvalError("can only subtract a group element (principal cut)")
            value = cuts.value_translate(value, rhs.bound)
    return value


def _atom_rank(tok: str) -> int:
    v = cuts.parse_value(tok, None)
    return v.rank


# --- element parsing -------------------------------------------------------


def parse_element(alg, text: str):
    """Comma-separated rationals for Q; a JSON array of scalars for Q(t)."""
    if alg.field.kind == "Q":
        return alg.element([parse_rational(c) for c in text.split(",")])
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, too many digits, too deep
        raise StructuralError(f"--element is not valid JSON: {exc}") from exc
    if not isinstance(raw, list):
        raise StructuralError(f"--element must be a JSON array of scalars, got {text!r}")
    return alg.element(raw)


# --- subcommands -------------------------------------------------------------


def _cmd_cutcalc(args) -> int:
    print(cuts.format_value(eval_cut_expression(args.expr, args.rank)))
    return 0


def _cmd_algebra_check(args) -> int:
    try:
        prob = load_problem(args.file)
    except CutvalError as exc:
        print(f"FAIL: {exc}")
        return 1
    # load_problem has scanned the table and raised on a failure
    print(TableReport(True, prob.algebra.dim))
    return 0


def _cmd_stable(args) -> int:
    prob = load_problem(args.file)
    cert = stabilizer_finite(prob.algebra, prob.basis(args.basis), prob.domain)
    report = is_stable(prob.algebra, cert.basis, cert.stabilizer, prob.domain)
    print(f"basis {args.basis!r} over {prob.domain.describe()}:")
    for c in cert.stabilizer:
        print(f"  stabilizer {prob.algebra.format_element(c)}")
    print(report)
    return 0 if report.ok else 1


def _build_order(prob, basis_name):
    cert = stabilizer_finite(prob.algebra, prob.basis(basis_name), prob.domain)
    return nice_from_certificate(cert)


def _cmd_nice(args) -> int:
    prob = load_problem(args.file)
    oracle = _build_order(prob, args.basis)
    report = verify_nice(oracle, SampleSpec(seed=args.seed, count=args.samples))
    if oracle.lattice_basis is not None:
        for b in oracle.lattice_basis:
            print(f"lattice basis {prob.algebra.format_element(b)}")
    print(report)
    return 0 if report.ok else 1


def _cmd_qv_eval(args) -> int:
    prob = load_problem(args.file)
    qv = filter_qv(_build_order(prob, args.basis))
    x = parse_element(prob.algebra, args.element)
    print(cuts.format_value(filter_qv_eval(qv, x)))
    return 0


def _cmd_qv_audit(args) -> int:
    prob = load_problem(args.file)
    qv = filter_qv(_build_order(prob, args.basis))
    report = qv_audit(qv, SampleSpec(seed=args.seed, count=args.samples))
    print(report)
    return 0 if report.ok else 1


def _audit_chain(args, terms) -> bool:
    """verify_nice on each (oracle, label) term of a chain: its label's PASS
    or FAIL line, and the report when it fails.  True when all pass."""
    spec, ok = SampleSpec(seed=args.seed, count=args.samples), True
    for oracle, label in terms:
        report = verify_nice(oracle, spec)
        ok = ok and report.ok
        print(f"{label}nice audit {'PASS' if report.ok else 'FAIL'}")
        if not report.ok:
            print(report)
    return ok


def _cmd_chain_descend(args) -> int:
    prob = load_problem(args.file)
    chain = descend_chain(_build_order(prob, args.basis), args.steps)
    fmt = prob.algebra.format_element
    ok = _audit_chain(args, ((step.oracle, f"step {i}: witness {fmt(step.witness)} "
                                           f"excluded after inserting {fmt(step.inserted)}; ")
                             for i, step in enumerate(chain.steps, start=1)))
    return 0 if ok else 1


def _cmd_ideal_nice(args) -> int:
    prob = load_problem(args.file)
    oracle = nice_with_ideal(prob.ideal(args.ideal), prob.domain)
    report = verify_nice(oracle, SampleSpec(seed=args.seed, count=args.samples))
    print(report)
    return 0 if report.ok else 1


def _cmd_matrix_chain(args) -> int:
    if args.domain != "Z":
        raise DomainError("only --domain Z is supported")
    field = ValuedField("Q", args.p)
    gens = [parse_rational(g) for g in args.ideals.split(",")]
    chain = matrix_nice_chain(field, integers(), gens, args.n)
    ok = _audit_chain(args, ((oracle, f"ideal ({field.scalar_text(g)}): ")
                             for g, oracle in zip(chain.generators, chain.oracles)))
    for w in chain.witnesses:
        print(f"strictness witness {chain.algebra.format_element(w)} verified")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cutval")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cutcalc", help="evaluate a cut expression")
    p.add_argument("expr")
    p.add_argument("--rank", type=int, default=None)
    p.set_defaults(func=_cmd_cutcalc)

    p = sub.add_parser("algebra", help="algebra file operations")
    asub = p.add_subparsers(dest="subcommand", required=True)
    pc = asub.add_parser("check", help="validate the structure-constant table")
    pc.add_argument("file")
    pc.set_defaults(func=_cmd_algebra_check)

    def common(p, samples=200):
        p.add_argument("--samples", type=int, default=samples)
        p.add_argument("--seed", type=int, default=42)

    p = sub.add_parser("stable", help="stabilizer construction for a named basis")
    p.add_argument("file")
    p.add_argument("--basis", required=True)
    p.set_defaults(func=_cmd_stable)

    p = sub.add_parser("nice", help="left order + niceness audit")
    p.add_argument("file")
    p.add_argument("--basis", required=True)
    common(p)
    p.set_defaults(func=_cmd_nice)

    p = sub.add_parser("qv", help="filter quasi-valuation operations")
    qsub = p.add_subparsers(dest="subcommand", required=True)
    pe = qsub.add_parser("eval", help="evaluate at an element")
    pe.add_argument("file")
    pe.add_argument("--basis", required=True)
    pe.add_argument("--element", required=True)
    pe.set_defaults(func=_cmd_qv_eval)
    pa = qsub.add_parser("audit", help="axiom audit")
    pa.add_argument("file")
    pa.add_argument("--basis", required=True)
    common(pa, samples=500)
    pa.set_defaults(func=_cmd_qv_audit)

    p = sub.add_parser("chain", help="chain constructions")
    csub = p.add_subparsers(dest="subcommand", required=True)
    pd = csub.add_parser("descend", help="strictly descending nice chain")
    pd.add_argument("file")
    pd.add_argument("--basis", required=True)
    pd.add_argument("--steps", type=int, default=2)
    common(pd)
    pd.set_defaults(func=_cmd_chain_descend)

    p = sub.add_parser("ideal-nice", help="nice subalgebra containing an ideal")
    p.add_argument("file")
    p.add_argument("--ideal", required=True)
    common(p)
    p.set_defaults(func=_cmd_ideal_nice)

    p = sub.add_parser("matrix-chain", help="ascending matrix chain")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--domain", default="Z")
    p.add_argument("--ideals", required=True)
    p.add_argument("--p", type=int, default=2)
    common(p)
    p.set_defaults(func=_cmd_matrix_chain)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except CutvalError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader left (`| head`): stdout, and its flush at exit, go to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
