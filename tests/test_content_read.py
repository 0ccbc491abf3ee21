"""The one read of a row set over Q, `_Rows.content`, against plain sums.

Over Q a domain reads a whole row set at x as one pair (g, L*e): g the gcd
of the row sums over the lcm L of the rows' denominators, read off the
rows packed into one integer per column (`algebra._Packing`).  These tests
check the packed sums against `sum(map(mul, ...))`, at the widest sums a
digit holds and at the largest entries a packing admits, and check
membership, clearing and the least value read off the pair against each
row value's own.  Standard library only.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from cutval import orders
from cutval.algebra import _Packing, _Rows, matrix_algebra, quadratic_algebra, rank_of
from cutval.basedomain import integers, p_local
from cutval.numfield import QVector, ValuedField
from cutval.samplers import sample_algebra_element, sample_scalar
from cutval.sampling import SampleSpec
from cutval.stability import stabilizer_finite

Q3 = ValuedField("Q", 3)
M3_DRAW = dict(coef_bound=5, max_p_exp=2)


def plain_sums(rows, b):
    return [sum(map(mul, r, b)) for r in rows]


def content_reference(rows, x):
    """(gcd of the sums s_r = sum_j (L/d_r)*a_rj*b_j, L*e), by plain sums."""
    b, e = QVector.pair(x)
    den = lcm(*(r.den for r in rows.stored))
    return gcd(*(sum(map(mul, r.ints, b)) * (den // r.den) for r in rows.stored)), den * e


def test_packed_sums_match_plain_sums():
    """_Packing.sums is the plain sum of every row at b, in row order: on
    signed entries of mixed sizes whose sums fit a digit of w = 8k bits,
    k = 1..5, and on sums of exactly +-(2^(w-1) - 1), the largest a digit
    holds."""
    rng = random.Random(4101)
    for k in range(1, 6):
        w = 8 * k
        top = 2 ** (w - 1) - 1
        rows = [(top, 0), (-top, 0), (top - 5, 5), (5 - top, -5), (0, 0), (3, -3)]
        for b in ((1, 1), (-1, -1), (1, 0), (0, 1), (0, 0)):
            assert _Packing(rows, k).sums(b) == plain_sums(rows, b)
        for _ in range(60):
            n, m = rng.randint(1, 7), rng.randint(1, 12)
            room = w - 1 - n.bit_length()  # bits(c) + bits(b) <= room keeps |sum| < 2^(w-1)
            cb = rng.randint(0, room)
            rows = [[rng.randint(1 - 2 ** rng.randint(0, cb), 2 ** rng.randint(0, cb) - 1)
                     for _ in range(n)] for _ in range(m)]
            for _ in range(4):
                b = [rng.randint(1 - 2 ** rng.randint(0, room - cb), 2 ** rng.randint(0, room - cb) - 1)
                     for _ in range(n)]
                assert _Packing(rows, k).sums(b) == plain_sums(rows, b)


def test_content_packs_wide_enough_and_packs_again():
    """_Rows.content at the largest entries its packing admits: rows of
    entries +-C, C = 2^c - 1 for c = 1..16, one row over 2, and width
    n = 1..8, read at points of entries +-(2^bits - 1) for the most bits
    the packing takes without being made again, of one sign and of mixed
    signs.  Then a point of one bit more, which packs the rows again into
    digits one byte wider.  Each read is the plain sums' gcd over L*e, and
    the packed sums are the plain ones."""
    for n in range(1, 9):
        for c in range(1, 17):
            C = 2 ** c - 1
            signs = [(-1) ** j for j in range(n)]
            rows = _Rows(Q3, [(Fraction(C),) * n, (Fraction(-C),) * n,
                              tuple(Fraction(s * C) for s in signs),
                              (Fraction(C, 2),) + (Fraction(0),) * (n - 1)])
            # over L = 2 (C is odd): the rows the packing holds
            scaled = [[2 * C] * n, [-2 * C] * n, [2 * s * C for s in signs], [C] + [0] * (n - 1)]
            one = (Fraction(1),) * n
            assert rows.content(one) == content_reference(rows, one)
            bits, _, packing = rows._packed
            B = 2 ** bits - 1
            for x in ((B,) * n, (-B,) * n, tuple(s * B for s in signs)):
                assert rows.content(tuple(map(Fraction, x))) == content_reference(rows, x)
                assert rows._packed[2] is packing
                assert packing.sums(x) == plain_sums(scaled, x)
            x = (Fraction(2 * B + 1),) * n
            assert rows.content(x) == content_reference(rows, x)
            assert rows._packed[0] == bits + 8 and rows._packed[2] is not packing


def draw_bases(alg, seed, count):
    spec = SampleSpec(seed=seed, count=0, **M3_DRAW)
    rng, bases = spec.rng(), []
    while len(bases) < count:
        cand = [tuple(sample_scalar(rng, spec, alg.field) for _ in range(alg.dim))
                for _ in range(alg.dim)]
        if rank_of(alg.field, cand) == alg.dim:
            bases.append(tuple(cand))
    return bases


def m3_cases():
    """(rows, points, domains) of drawn M3(Q) bases over Z and Z_(3): the
    certificate's product rows, T over Z_(3), the rows an ideal variant
    with m = 1 keeps, and each with a zero row; at 0, the basis vectors,
    drawn elements and contained basis vectors, unscaled and over 7 and 9."""
    alg = matrix_algebra(Q3, 3)
    n, spec = alg.dim, SampleSpec(seed=313, count=0, **M3_DRAW)
    rng, cases = spec.rng(), []
    for domain, seed in ((integers(), 302), (p_local(3), 301)):
        for basis in draw_bases(alg, seed, 2):
            cert = stabilizer_finite(alg, basis, domain)
            R = orders.nice_from_certificate(cert)
            sets = [cert.rows, cert.rows.subset([j * n + k for j in range(1, n) for k in range(1, n)])]
            if R.lattice_rows is not None:
                sets.append(R.lattice_rows)
            sets += [_Rows(Q3, list(rows) + [(Fraction(0),) * n]) for rows in sets]
            drawn = [sample_algebra_element(rng, spec, alg) for _ in range(3)]
            points = [alg.zero] + [alg.basis_vector(i) for i in range(n)]
            points += [alg.smul(Fraction(1, q), x)
                       for x in drawn + list(R.contained_basis) for q in (1, 7, 9)]
            cases += [(rows, points, (integers(), p_local(3))) for rows in sets]
    return cases


def dual_cases():
    """The dual numbers' ideal rows, of the ideal (s) over Z and Z_(2)."""
    dual = quadratic_algebra(ValuedField("Q", 2), 0)
    half = Fraction(1, 2)
    points = [dual.zero, dual.unit, dual.basis_vector(1), (half, Fraction(3)), (Fraction(6), half),
              (Fraction(-4, 9), Fraction(8, 3))]
    return [(orders.nice_with_ideal(orders.IdealSpec(dual, (dual.basis_vector(1),)), domain)
             .constraints[0][1], points, (integers(), p_local(2)))
            for domain in (integers(), p_local(2))]


def test_content_and_its_reads_match_the_per_row_references():
    """content is the plain sums' gcd over L*e, and S reads off it what the
    row values give one by one: membership is `contains` of every value,
    the clearing is clear_many of the values, and over Z_(p) the read is
    their least field.value, None when every value is 0."""
    seen = set()
    for rows, points, domains in m3_cases() + dual_cases():
        for x in points:
            g, den = rows.content(x)
            assert (g, den) == content_reference(rows, x)
            values = list(rows.values(x))
            for domain in domains:
                assert domain.admits(rows, x) == all(domain.contains(v) for v in values)
                assert domain._clearing(domain.reads(rows, x)) == domain.clear_many(values)
                if domain.valued_field is not None:
                    live = [domain.valued_field.value(v) for v in values if v]
                    assert domain.reads(rows, x) == (min(live) if live else None,)
            seen.add("g = 0" if g == 0 else "in Z" if g % den == 0 else "not in Z")
    assert seen == {"g = 0", "in Z", "not in Z"}
