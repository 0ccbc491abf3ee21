"""Acceptance suite: one test per criterion, each printing a PASS line with
its elapsed time and asserting the stated budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

from __future__ import annotations

import time
from fractions import Fraction

import pytest

from conftest import random_cut, random_vec
from cutval.algebra import (PolynomialAlgebra, matrix_algebra,
                            quadratic_algebra, rank_of)
from cutval.basedomain import integers, p_local, valuation_ring
from cutval.cuts import (INF, cut_add, cut_compare, cut_translate, embed_phi,
                         value_compare, zero_cut)
from cutval.errors import StructuralError
from cutval.numfield import ValuedField
from cutval.oracle import (Window, enumerate_canonical, window_cut_sum,
                           window_left_set)
from cutval.orders import (IdealSpec, LatticeModule, descend_chain, going_down,
                           left_order, matrix_nice_chain, nice_from_certificate,
                           nice_with_ideal, verify_nice)
from cutval.quasival import filter_qv, filter_qv_eval, qv_audit, qv_compare
from cutval.samplers import (sample_algebra_element, sample_poly_element,
                             sample_scalar)
from cutval.sampling import SampleSpec, SplitMix64
from cutval.stability import stabilizer_finite


class Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.name}: {status} ({elapsed:.2f}s / budget {self.seconds:.0f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.name} exceeded its {self.seconds}s budget"
        return False


FIELD_Q2 = ValuedField("Q", 2)
FIELD_QT2 = ValuedField("Qt", 2)


def test_acceptance_1_cut_monoid_suite():
    """Monoid/order laws on >= 1000 seeded cases per rank, with the closed
    forms validated exactly against the window oracle on >= 1000 fuzzed
    pairs per rank."""
    with Budget("1 cut-monoid suite", 30):
        for rank in (1, 2):
            rng = SplitMix64(1000 + rank)
            zero = zero_cut(rank)
            for _ in range(1000):
                a, b, c = (random_cut(rng, rank) for _ in range(3))
                assert cut_add(cut_add(a, b), c) == cut_add(a, cut_add(b, c))
                assert cut_add(a, b) == cut_add(b, a)
                assert cut_add(a, zero) == a
                if cut_compare(a, b) <= 0:
                    assert cut_compare(cut_add(a, c), cut_add(b, c)) <= 0
                alpha, beta = random_vec(rng, rank, 4), random_vec(rng, rank, 4)
                alpha_beta = tuple(x + y for x, y in zip(alpha, beta))
                assert cut_add(embed_phi(alpha), embed_phi(beta)) == embed_phi(alpha_beta)
                assert cut_compare(embed_phi(alpha), embed_phi(beta)) == \
                    ((alpha > beta) - (alpha < beta))
                assert cut_translate(a, alpha) == cut_add(a, embed_phi(tuple(-x for x in alpha)))
            # the ground truth for the closed forms: the window oracle
            win = Window(rank, 16)
            rng = SplitMix64(2000 + rank)
            for _ in range(1000):
                a, b = random_cut(rng, rank), random_cut(rng, rank)
                res = window_cut_sum(a, b, win)
                assert res.match, str(res)


def test_acceptance_2_representation_completeness():
    """Z^2, window 8: canonical descriptors realize pairwise distinct
    initial window sets, and all pair sums match cut_add on the window.

    Distinctness enumerates bound coordinates in [-7, 7]: a level-0 bound
    whose low coordinate sits on the window edge is indistinguishable from
    the level-1 descriptor inside the window.  The sum pass enumerates
    bounds within the oracle's safety margin for window 8.
    """
    with Budget("2 representation completeness", 10):
        descriptors = enumerate_canonical(2, 7)
        sets = {}
        for c in descriptors:
            key = window_left_set(c, 8)
            assert key not in sets, f"{c} duplicates {sets[key]}"
            sets[key] = c
        win = Window(2, 8)
        small = enumerate_canonical(2, 3)
        for i, a in enumerate(small):
            for b in small[i:]:
                res = window_cut_sum(a, b, win)
                assert res.match, str(res)


def _m2_z2_qv():
    alg = matrix_algebra(FIELD_Q2, 2)
    R = left_order(LatticeModule(alg, p_local(2),
                                 tuple(alg.basis_vector(i) for i in range(4))))
    return alg, filter_qv(R)


def test_acceptance_3_filter_qv_audits_rank1():
    """Full audit battery at 500 samples on M2(Z_(2)) and on the left
    order of Z_(2){1, sqrt2/2}, with the zero-divisor strictness witness."""
    with Budget("3 filter quasi-valuation audits (rank 1)", 30):
        alg, qv = _m2_z2_qv()
        report = qv_audit(qv, SampleSpec(seed=42, count=500))
        assert report.ok, str(report)
        e12 = alg.basis_vector(1)
        assert filter_qv_eval(qv, alg.mul(e12, e12)) is INF
        assert filter_qv_eval(qv, e12) == zero_cut(1)
        assert value_compare(INF, cut_add(zero_cut(1), zero_cut(1))) > 0

        sqrt2 = quadratic_algebra(FIELD_Q2, 2)
        B = (sqrt2.unit, sqrt2.element(["0", "1/2"]))
        qv2 = filter_qv(left_order(LatticeModule(sqrt2, p_local(2), B)))
        report2 = qv_audit(qv2, SampleSpec(seed=43, count=500))
        assert report2.ok, str(report2)


def test_acceptance_4_composite_rank2_instance():
    """Same battery at 200 samples for M2(Q(t)) over the composite rank-2
    valuation ring."""
    with Budget("4 composite rank-2 instance", 30):
        alg = matrix_algebra(FIELD_QT2, 2)
        S = valuation_ring(FIELD_QT2)
        R = left_order(LatticeModule(alg, S, tuple(alg.basis_vector(i) for i in range(4))))
        qv = filter_qv(R)
        report = qv_audit(qv, SampleSpec(seed=44, count=200, poly_degree=1))
        assert report.ok, str(report)
        t_unit = alg.smul(FIELD_QT2.scalar({"num": ["0", "1"]}), alg.unit)
        assert filter_qv_eval(qv, t_unit) == embed_phi((1, 0))


def test_acceptance_5_gauss_case():
    """Polynomial backend: evaluator equals the min-coefficient valuation
    and B2 holds with equality on 300 pairs."""
    with Budget("5 Gauss case", 10):
        A = PolynomialAlgebra(FIELD_Q2)
        S = p_local(2)
        qv = filter_qv(left_order(LatticeModule(A, S, None)))
        rng = SplitMix64(45)
        spec = SampleSpec(seed=45, count=300)
        for _ in range(300):
            f = sample_poly_element(rng, spec, A)
            g = sample_poly_element(rng, spec, A)
            wf, wg = filter_qv_eval(qv, f), filter_qv_eval(qv, g)
            if f:
                vals = [FIELD_Q2.value(c) for c in f.values()]
                assert wf == embed_phi(min(vals))
            else:
                assert wf is INF
            wprod = filter_qv_eval(qv, A.mul(f, g))
            if wf is INF or wg is INF:
                assert wprod is INF
            else:
                assert wprod == embed_phi((wf.bound[0] + wg.bound[0],))


def test_acceptance_6_nice_constructions_random_bases():
    """stabilizer_finite -> left_order -> verify_nice on 20 seeded random
    bases of M2(Q) and Q(sqrt2), over Z and Z_(2); lying over exact where
    the lattice representation exists."""
    with Budget("6 nice constructions on random bases", 30):
        rng = SplitMix64(61)
        gen_spec = SampleSpec(seed=61, count=0, coef_bound=5, max_p_exp=2)
        audit_spec = SampleSpec(seed=62, count=60)
        algebras = [matrix_algebra(FIELD_Q2, 2), quadratic_algebra(FIELD_Q2, 2)]
        domains = [integers(), p_local(2)]
        for alg in algebras:
            for _ in range(20):
                basis = None
                while basis is None:
                    cand = [tuple(sample_scalar(rng, gen_spec, alg.field)
                                  for _ in range(alg.dim)) for _ in range(alg.dim)]
                    if rank_of(alg.field, cand) == alg.dim:
                        basis = tuple(cand)
                for domain in domains:
                    cert = stabilizer_finite(alg, basis, domain)
                    oracle = nice_from_certificate(cert)
                    report = verify_nice(oracle, audit_spec)
                    assert report.ok, str(report)
                    lying = next(c for c in report.checks if c.name == "R cap F = S")
                    assert lying.method == ("exact" if domain.is_valuation_like else "sampled")


def test_acceptance_7_descending_chain():
    """descend_chain k=4 on M2(Z_(2)): strict inclusions with verified
    witnesses, every term nice, induced evaluators <='-monotone with a
    strict witness per step."""
    with Budget("7 descending chain", 30):
        alg = matrix_algebra(FIELD_Q2, 2)
        S = p_local(2)
        basis = (alg.unit, alg.basis_vector(1), alg.basis_vector(2), alg.basis_vector(3))
        start = nice_from_certificate(stabilizer_finite(alg, basis, S))
        chain = descend_chain(start, 4)
        assert len(chain.oracles) == 5
        spec = SampleSpec(seed=71, count=120)
        for i, step in enumerate(chain.steps):
            assert chain.oracles[i].contains(step.witness)
            for later in chain.oracles[i + 1:]:
                assert not later.contains(step.witness)
        for oracle in chain.oracles:
            report = verify_nice(oracle, spec)
            assert report.ok, str(report)
        qvs = [filter_qv(o) for o in chain.oracles]
        for i, step in enumerate(chain.steps):
            verdict = qv_compare(qvs[i + 1], qvs[i], spec, extra_points=[step.witness])
            assert verdict.relation == "le", verdict.relation
            assert value_compare(filter_qv_eval(qvs[i + 1], step.witness),
                                 filter_qv_eval(qvs[i], step.witness)) < 0


def test_acceptance_8_ideal_variant():
    """A = Q[x]/(x^2), I = (xbar), S in {Z, Z_(2)}: oracle contains I,
    passes the audits, and matches S + Q*xbar on 200 samples."""
    with Budget("8 ideal variant", 10):
        dual = quadratic_algebra(FIELD_Q2, 0)
        ideal = IdealSpec(dual, (dual.basis_vector(1),))
        for domain in (integers(), p_local(2)):
            oracle = nice_with_ideal(ideal, domain)
            assert oracle.contains(dual.basis_vector(1))
            assert oracle.contains(dual.element(["0", "1/1000"]))
            report = verify_nice(oracle, SampleSpec(seed=81, count=200))
            assert report.ok, str(report)
            rng = SplitMix64(82)
            spec = SampleSpec(seed=82, count=200)
            for _ in range(200):
                x = sample_algebra_element(rng, spec, dual)
                assert oracle.contains(x) == domain.contains(x[0])


def test_acceptance_9_matrix_chain():
    """n = 2, C = Z, ideals (4) inside (2): both oracles pass the sampled
    C-nice audits, strictness witness 2*e12 confirmed."""
    with Budget("9 matrix chain", 10):
        chain = matrix_nice_chain(FIELD_Q2, integers(), ["4", "2"], 2)
        alg = chain.algebra
        two_e12 = alg.smul(Fraction(2), alg.basis_vector(1))
        assert chain.witnesses == (two_e12,)
        assert not chain.oracles[0].contains(two_e12)
        assert chain.oracles[1].contains(two_e12)
        for oracle in chain.oracles:
            report = verify_nice(oracle, SampleSpec(seed=91, count=200))
            assert report.ok, str(report)


def test_acceptance_10_going_down():
    """(Z, Z_(2)) with R2 = M2(Z_(2)): result contained in R2 and equal to
    M2(Z) on 300 samples."""
    with Budget("10 going down", 10):
        alg = matrix_algebra(FIELD_Q2, 2)
        units = tuple(alg.basis_vector(i) for i in range(4))
        r2 = left_order(LatticeModule(alg, p_local(2), units))
        oracle = going_down(r2, integers(), units)
        Z = integers()
        rng = SplitMix64(101)
        spec = SampleSpec(seed=101, count=300)
        for _ in range(300):
            x = sample_algebra_element(rng, spec, alg)
            member = oracle.contains(x)
            assert member == all(Z.contains(c) for c in x)
            if member:
                assert r2.contains(x)
