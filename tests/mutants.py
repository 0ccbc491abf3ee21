"""Registered mutants, each of which the named tests must catch.

Each entry names a file, a text that must occur in it exactly once, its
replacement, and the tests that must fail once it is applied.  For each
entry the runner copies `src/`, `tests/`, `cutbench/` and `pyproject.toml`
to a temporary directory, applies the patch there and runs the named tests
with pytest; the entry passes when pytest reports failed tests (exit code
1).  A patch that does not match exactly once, a mutant that passes, and a
run that ends in anything but test failures (a collection error, say) fail
the runner.  First, the named tests of every entry run once unpatched
and must pass, so a test that fails anyway cannot catch a mutant.
The repository itself is never changed.  Run from anywhere:

    python3 tests/mutants.py

It exits 0 when every mutant is caught.  pytest does not collect
this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "cutbench", "pyproject.toml")


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple  # pytest node ids, relative to the repository root
    why: str


MUTANTS = (
    Mutant(
        "compare-level-tie-reversed", "src/cutval/cuts.py",
        "ka, kb = (_dropped_bound(a, j), a.level), (_dropped_bound(b, j), b.level)",
        "ka, kb = (_dropped_bound(a, j), -a.level), (_dropped_bound(b, j), -b.level)",
        ("tests/test_cuts.py",),
        "at equal projections the coarser cut taken as below"),
    Mutant(
        "compare-projects-to-finer-level", "src/cutval/cuts.py",
        "        j = max(a.level, b.level)\n        ka, kb",
        "        j = min(a.level, b.level)\n        ka, kb",
        ("tests/test_cuts.py",),
        "cut_compare projects both bounds to the finer level"),
    Mutant(
        "add-bottom-not-absorbing", "src/cutval/cuts.py",
        "    if a.kind == BOTTOM or b.kind == BOTTOM:\n        return bottom(a.rank)\n"
        "    if a.kind == TOP or b.kind == TOP:\n        return top(a.rank)\n",
        "    if a.kind == TOP or b.kind == TOP:\n        return top(a.rank)\n"
        "    if a.kind == BOTTOM or b.kind == BOTTOM:\n        return bottom(a.rank)\n",
        ("tests/test_cuts.py",),
        "Top absorbs Bottom in cut_add"),
    Mutant(
        "ratfunc-root-test-plus-b", "src/cutval/samplers.py",
        "root, power = root * a + x * power, -power * b",
        "root, power = root * a + x * power, power * b",
        ("tests/test_numfield.py::test_sample_ratfunc_matches_divmod_reference",),
        "the root test of 1 + c*t in sample_ratfunc evaluates at +b/a"),
    Mutant(
        "ov-lift-no-t-cancellation", "src/cutval/samplers.py",
        "m = min(n, den.ord())",
        "m = 0",
        ("tests/test_sampling.py::test_sample_in_domain_over_ov_matches_the_product_lift",),
        "sample_in_domain over O_v does not cancel t^m against the denominator"),
    Mutant(
        "hermite-reduction-right-to-left", "src/cutval/algebra.py",
        "    for j, pivot in enumerate(lifted):\n",
        "    for j, pivot in reversed(list(enumerate(lifted))):\n",
        ("tests/test_kernel.py::test_t_is_in_hermite_form",),
        "_padic_pivots reduces above the pivots from the last column first"),
    Mutant(
        "bareiss-divides-by-pivot", "src/cutval/algebra.py",
        "m[i] = ([(p * x - f * y) // prev for x, y in zip(row[1:], tail)] if f\n"
        "                        else [p * x // prev for x in row[1:]])",
        "m[i] = ([(p * x - f * y) // p for x, y in zip(row[1:], tail)] if f\n"
        "                        else [p * x // p for x in row[1:]])",
        ("tests/test_kernel.py::test_rank_of_is_a_forward_bareiss",
         "tests/test_kernel.py::test_fraction_free_inverse_matches_reference"),
        "_bareiss divides each updated row by the pivot instead of the previous pivot"),
    Mutant(
        "ov-lift-power-on-den", "src/cutval/samplers.py",
        "[x * field.p ** a for x in f.num.ints], f.num.den)",
        "f.num.ints, f.num.den * field.p ** a)",
        ("tests/test_sampling.py::test_sample_in_domain_over_ov_matches_the_product_lift",),
        "sample_in_domain over O_v divides by p^a instead of multiplying"),
    Mutant(
        "accepts-nonpositive-as-negative", "src/cutval/basedomain.py",
        "v is not None and v < zero",
        "v is not None and v <= zero",
        ("tests/test_kernel.py::test_admits_and_reads_match_the_row_values",),
        "a valuation ring refuses the units"),
    Mutant(
        "qvector-canonical-gcd-dropped", "src/cutval/numfield.py",
        "        g = gcd(den, *ints)\n",
        "        g = 1\n",
        ("tests/test_algebra.py::test_cleared_elements_match_the_fraction_tuples",),
        "an element over Q keeps a common factor of its integers and denominator"),
    Mutant(
        "add-cofactors-swapped", "src/cutval/algebra.py",
        "[s * m + t * k for s, t in zip(a, b)]",
        "[s * k + t * m for s, t in zip(a, b)]",
        ("tests/test_algebra.py::test_cleared_elements_match_the_fraction_tuples",),
        "add scales each side by its own denominator's cofactor"),
    Mutant(
        "padic-unit-part-not-inverted", "src/cutval/algebra.py",
        "w = pow(col.pop(j) // pk, -1, q)",
        "w = col.pop(j) // pk % q",
        ("tests/test_kernel.py::test_padic_pivots_rerun_settle_and_tie_as_the_reference",
         "tests/test_kernel.py::test_hermite_lattice_is_the_reference_lattice[M3(Q)/Z_(3)]"),
        "_padic_pivots scales a pivot's row by its unit part instead of the unit's inverse"),
    Mutant(
        "bareiss-forward-updates-above", "src/cutval/algebra.py",
        "live = range(0 if above else r, len(m))",
        "live = range(0, len(m))",
        ("tests/test_kernel.py::test_rank_of_is_a_forward_bareiss",),
        "_bareiss forward only also updates the rows above each pivot"),
    Mutant(
        "zt-value-drops-q", "src/cutval/numfield.py",
        "return v[0] - qt - xv[0], v[1] - qe - xv[1]",
        "return v[0] - xv[0], v[1] - xv[1]",
        ("tests/test_kernel.py::test_qt_valuations_match_the_scalar_values",),
        "a Q(t) row value read leaves out v(Q) of the row's denominator"),
    Mutant(
        "window-width-2b", "src/cutval/oracle.py",
        "weights = [(4 * bound + 1) ** i",
        "weights = [(2 * bound + 1) ** i",
        ("tests/test_oracle.py::test_window_margin_boundary",),
        "window_cut_sum encodes box points in base 2B+1, so digit sums carry"),
    Mutant(
        "window-inner-bit-at-b", "src/cutval/oracle.py",
        "codes(2 * bound - h, 2 * bound + h)",
        "codes(bound - h, bound + h)",
        ("tests/test_oracle.py", "tests/test_cuts.py"),
        "window_cut_sum reads the inner bit at B instead of 2B"),
    Mutant(
        "padic-precision-not-lowered", "src/cutval/algebra.py",
        "left -= _int_p_exponent(pk, p)",
        "left -= 0",
        ("tests/test_kernel.py::test_padic_pivots_rerun_settle_and_tie_as_the_reference",),
        "_padic_pivots reads valuations past the precision a pivot leaves"),
    Mutant(
        "invert-sign-not-flipped", "src/cutval/algebra.py",
        "block, det = [[-x for x in row] for row in block], -det",
        "block, det = block, det",
        ("tests/test_kernel.py::test_fraction_free_inverse_matches_reference",
         "tests/test_kernel.py::test_every_q_row_set_is_canonical_qvectors"),
        "_elements keeps the rows over a negative det as they are"),
    Mutant(
        "column-rows-scales-by-own-den", "src/cutval/algebra.py",
        "[x * (den // v.den) for x in v.ints]",
        "[x * v.den for x in v.ints]",
        ("tests/test_kernel.py::test_every_q_row_set_is_canonical_qvectors",),
        "column_rows over Q scales column i by d_i instead of L/d_i"),
    Mutant(
        "qtvector-gcd-dropped", "src/cutval/numfield.py",
        "                lists = _coprime(lists)\n",
        "                pass\n",
        ("tests/test_algebra.py::test_qt_elements_match_the_ratfunc_tuples[M2(Q(t))]",),
        "an element over Q(t) keeps a common factor of Q[t] other than a power of t"),
    Mutant(
        "qtvector-content-kept", "src/cutval/numfield.py",
        "    return lists if c == 1 else [[y // c for y in a] for a in lists]",
        "    return lists",
        ("tests/test_algebra.py::test_qt_clearing_is_made_canonical_when_observed",
         "tests/test_algebra.py::test_qt_samplers_draw_the_ratfunc_tuples"),
        "an element over Q(t) keeps the integer content of its coefficients"),
    Mutant(
        "qtvector-sign-kept", "src/cutval/numfield.py",
        "    if lists[-1][-1] < 0:\n        c = -c\n",
        "",
        ("tests/test_algebra.py::test_qt_clearing_is_made_canonical_when_observed",),
        "a clearing over Q(t) keeps a denominator with a negative leading coefficient"),
    Mutant(
        "qt-mul-drops-table-den", "src/cutval/algebra.py",
        "de if self._den == [1] else _convolve(de, self._den)",
        "de",
        ("tests/test_algebra.py::test_qt_elements_match_the_ratfunc_tuples[Q(t)[x]/(x^2-1/t)]",),
        "a product over Q(t) leaves out the table's denominator"),
    Mutant(
        "kronecker-width-from-largest-coefficient", "src/cutval/algebra.py",
        "w = prod(sorted(norms, reverse=True)[:count]).bit_length() + 1",
        "w = max(map(abs, chain.from_iterable(chain.from_iterable(rows)))).bit_length() + 1",
        ("tests/test_kernel.py::test_qt_kernel_reads_a_minor_as_wide_as_the_bound",
         "tests/test_kernel.py::test_qt_kernel_matches_ratfunc_reference"),
        "a Q(t) matrix is read at t = 2^w for w past its largest coefficient, not past the bound on its minors"),
    Mutant(
        "digits-without-signed-borrow", "src/cutval/algebra.py",
        "d := ((v + half) & mask) - half",
        "d := v & mask",
        ("tests/test_kernel.py::test_qt_kernel_matches_ratfunc_reference",),
        "_digits reads each w-bit digit as nonnegative, so a negative coefficient comes back wrong"),
    Mutant(
        "packing-digit-one-bit-short", "src/cutval/algebra.py",
        "k = (cbits + bits + nbits + 8) // 8",
        "k = (cbits + bits + nbits + 7) // 8",
        ("tests/test_content_read.py::test_content_packs_wide_enough_and_packs_again",),
        "a packed row sum may fill its whole digit, so it borrows from the next"),
    Mutant(
        "content-drops-e", "src/cutval/algebra.py",
        "return gcd(*packing.sums(b)), den * e",
        "return gcd(*packing.sums(b)), den",
        ("tests/test_content_read.py::test_content_and_its_reads_match_the_per_row_references",
         "tests/test_kernel.py::test_admits_and_reads_match_the_row_values"),
        "the one read over Q forgets the point's denominator e"),
    Mutant(
        "content-row-not-scaled", "src/cutval/algebra.py",
        "scaled = [r.ints if (k := den // r.den) == 1 else [a * k for a in r.ints] for r in self.stored]",
        "scaled = [r.ints for r in self.stored]",
        ("tests/test_content_read.py::test_content_and_its_reads_match_the_per_row_references",),
        "a row over d_r is packed as over the lcm L, not scaled by L/d_r"),
    Mutant(
        "qt-product-rows-drop-table-den", "src/cutval/algebra.py",
        "ed = e * alg._den if q else _convolve(e, alg._den)",
        "ed = e * alg._den if q else e",
        ("tests/test_kernel.py::test_product_rows_match_reference[Q(t)[x]/(x^2-1/t)]",),
        "a product row over Q(t) is summed over Q_row*E, leaving out the table's denominator D"),
    Mutant(
        "left-order-checks-1-over-q-only", "src/cutval/orders.py",
        "        if not all(map(oracle.contains, (alg.unit, *cert.stabilizer))):",
        "        if alg.field.kind == \"Q\" and not all(map(oracle.contains, (alg.unit, *cert.stabilizer))):",
        ("tests/test_orders.py::test_left_order_refuses_an_order_without_1",),
        "left_order checks that 1 and the stabilizer lie in the order over Z_(p) only, not over O_v"),
    Mutant(
        "ov-pivots-first-nonzero", "src/cutval/algebra.py",
        "if key else next(nonzero, None)",
        "if False else next(nonzero, None)",
        ("tests/test_kernel.py::test_ov_pivots_keep_the_row_order_on_ties",
         "tests/test_kernel.py::test_ov_pivots_match_the_reference_on_drawn_bases"),
        "_bareiss drops the key, so T over O_v pivots on the first nonzero entry of each column"),
    Mutant(
        "bareiss-pivot-swapped-up", "src/cutval/algebra.py",
        "m.insert(r, m.pop(piv))",
        "m[r], m[piv] = m[piv], m[r]",
        ("tests/test_kernel.py::test_ov_pivots_keep_the_row_order_on_ties",),
        "_bareiss swaps the pivot row up, so the rows it passes change order and a tie goes to another row"),
    Mutant(
        "digit-value-unsigned", "src/cutval/algebra.py",
        "_int_p_exponent((((x >> w * k) + half) & ((1 << w) - 1)) - half, p)",
        "_int_p_exponent((x >> w * k) & ((1 << w) - 1), p)",
        ("tests/test_kernel.py::test_digit_value_reads_the_lowest_signed_digit",),
        "the least-valuation key reads the lowest nonzero w-bit digit as nonnegative"),
    Mutant(
        "ov-width-one-row-short", "src/cutval/algebra.py",
        "m, w = _kronecker(rows, ncols)",
        "m, w = _kronecker(rows, ncols - 1)",
        ("tests/test_kernel.py::test_ov_pivots_read_a_minor_as_wide_as_the_bound",),
        "T over O_v is read at t = 2^w for w past the bound on minors of one row fewer than it reads"),
    Mutant(
        "certificate-ignores-given-stabilizer", "src/cutval/stability.py",
        "seeds = self.basis if self.stabilizer is None else self.stabilizer",
        "seeds = self.basis",
        ("tests/test_kernel.py::test_insertion_clears_the_coordinates_over_the_new_basis",),
        "a certificate always seeds its stabilizer with the basis, so insertion's seeds s0*c are lost"),
    Mutant(
        "insertion-s0-without-inverse-of-c0", "src/cutval/stability.py",
        "s0 = domain.clear_many([domain.one / c0, *(c / c0 for c in coords)])",
        "s0 = domain.clear_many([c / c0 for c in coords])",
        ("tests/test_kernel.py::test_insertion_clears_the_coordinates_over_the_new_basis",),
        "insertion's s0 leaves 1/c0, b0's new coordinate on x0, out of its clearing"),
    Mutant(
        "certificate-from-json-takes-a-false-stabilizer", "src/cutval/stability.py",
        "    if cert.stabilizer != stab:\n        raise StructuralError(\"stabilizer does not stabilize the basis\")\n",
        "",
        ("tests/test_stability.py::test_certificate_json_round_trips_and_refuses_a_false_stabilizer",),
        "certificate_from_json clears a stabilizer that does not stabilize instead of refusing it"),
)


def _copy(dest: Path) -> None:
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(src, dest / name)


def _patched(text: str, m: Mutant) -> str:
    if (count := text.count(m.old)) != 1:
        raise SystemExit(f"FAIL: {m.name}: the patch matches {m.path} {count} times, not once")
    return text.replace(m.old, m.new)


def _pytest(cwd: Path, tests) -> tuple[int, str]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(("src", ".")), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
                         cwd=cwd, env=env, capture_output=True, text=True)
    lines = run.stdout.strip().splitlines()
    return run.returncode, lines[-1] if lines else run.stderr.strip()[-200:]


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="cutval-mutants-") as tmp:
        base = Path(tmp) / "unpatched"
        _copy(base)
        for m in MUTANTS:  # every patch matches once before any test runs
            _patched((base / m.path).read_text(), m)
        tests = list(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        code, last = _pytest(base, tests)
        if code != 0:
            print(f"FAIL: the named tests do not pass unpatched: {last}")
            return 1
        print(f"unpatched: {last}")
        survivors = []
        for m in MUTANTS:
            start = time.perf_counter()
            work = Path(tmp) / m.name
            _copy(work)
            path = work / m.path
            path.write_text(_patched(path.read_text(), m))
            code, last = _pytest(work, m.tests)
            shutil.rmtree(work)
            verdict = "caught" if code == 1 else f"NOT CAUGHT, {m.why}"
            print(f"{m.name}: {verdict} ({last}; {time.perf_counter() - start:.1f} s)")
            if code != 1:
                survivors.append(m.name)
    if survivors:
        print(f"FAIL: {len(survivors)} of {len(MUTANTS)} mutants not caught: {', '.join(survivors)}")
        return 1
    print(f"all {len(MUTANTS)} mutants caught")
    return 0


if __name__ == "__main__":
    sys.exit(main())
