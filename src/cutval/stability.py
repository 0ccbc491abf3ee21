"""S-stable bases: verification, stabilizer construction, basis insertion.

A basis B of A over F is S-stable when some basis C multiplies it into the
S-span of B (all coordinates of c*b on B lie in S, for every c in C and
b in B); C is said to stabilize B.  At finite dimension every basis is
stable: C = {delta_i * b_i} for delta_i one clearing of the coordinates of
every product b_i * b_j.

A certificate inverts B once, for its coordinate rows, and builds its
product rows x -> coords_B(x*b_j) from them with no product formed
(`algebra.product_rows`; over Q each row is a QVector, made canonical
as it is built, over Q(t) a QtVector, left as the clearing it was summed
in): it is their only builder, and its stabilizer and `orders` read them
as they are.  Each seed t of the stabilizer, the basis by default,
becomes delta(t)*t, delta(t) clearing what `BaseDomain.reads` takes off
the row values at t, with no value built over Q: there one read for all
n^2 rows, the gcd of their packed sums over L*e (`_Rows.content`).
`is_stable` forms its own products with `StructureAlgebra.mul` and tests
them with `contains`, as the independent check.

Insertion swaps a new element x0 into a stable basis in place of some
basis element b0 carrying a nonzero coordinate of x0, and seeds the new
certificate with the stabilizer scaled by s0, which clears b0's
coordinates; the one rule rescales the seeds so stability is preserved.
Iterating insertion embeds any finite independent set into a stable
basis, provided the already-inserted elements are protected from eviction.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .algebra import (StructureAlgebra, _Rows, coordinate_rows, is_independent,
                      product_rows)
from .basedomain import BaseDomain
from .errors import DomainError, StructuralError
from .numfield import QtVector, QVector


@dataclass(frozen=True)
class StableBasisCertificate:
    """A basis of A, checked to be one, with a stabilizer, its coordinate
    rows `coords` and its product rows: row j*n + k of `algebra.product_rows`,
    whose value at x is coordinate k of x*b_j.  `rows` is a `_Rows` of
    QVectors over Q and of QtVectors over Q(t), read as they are.  The
    stabilizer is delta(t)*t for each seed t, the given stabilizer or else
    the basis, delta(t) one clearing of the row values at t: coords(t*b_j),
    all j.  A seed that stabilizes has delta(t) = 1, so it is kept."""

    algebra: StructureAlgebra
    domain: BaseDomain
    basis: tuple
    stabilizer: tuple | None = None
    coords: _Rows = dataclasses.field(init=False, repr=False, compare=False)
    rows: _Rows = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        alg, domain = self.algebra, self.domain
        domain.check_field(alg.field)
        # a basis given as tuples is cleared once, here
        object.__setattr__(self, "basis", tuple(map(QVector.of if alg._q else QtVector.of, self.basis)))
        object.__setattr__(self, "coords", coordinate_rows(alg, self.basis))
        object.__setattr__(self, "rows", product_rows(alg, self.coords, self.basis))
        seeds = self.basis if self.stabilizer is None else self.stabilizer
        if len(seeds) != len(self.basis):
            raise StructuralError("basis and stabilizer must have the same size")
        object.__setattr__(self, "stabilizer", tuple(
            alg.smul(domain._clearing(domain.reads(self.rows, t)), t) for t in seeds))


@dataclass(frozen=True)
class StabilityReport:
    ok: bool
    # (stabilizer index, basis index, coordinate index, offending coordinate)
    violations: tuple = ()

    def __str__(self):
        if self.ok:
            return "stable: yes"
        c, b, k, coord = self.violations[0]
        return (f"stable: no ({len(self.violations)} violations; first at "
                f"c[{c}]*b[{b}] coordinate {k} = {coord})")


def is_stable(alg: StructureAlgebra, basis, stabilizer, domain: BaseDomain) -> StabilityReport:
    """Check every product c*b has all B-coordinates in S; C must be a basis."""
    basis, stabilizer = list(basis), list(stabilizer)
    coords = coordinate_rows(alg, basis)
    if len(stabilizer) != alg.dim or not is_independent(alg.field, stabilizer):
        raise StructuralError("stabilizer is not a basis of A")
    violations = []
    for ci, c in enumerate(stabilizer):
        for bi, b in enumerate(basis):
            for k, coord in enumerate(coords.values(alg.mul(c, b))):
                if not domain.contains(coord):
                    violations.append((ci, bi, k, coord))
    return StabilityReport(not violations, tuple(violations))


def stabilizer_finite(alg: StructureAlgebra, basis, domain: BaseDomain) -> StableBasisCertificate:
    """Denominator-clearing stabilizer {delta_i * b_i}, the certificate's
    seeded with the basis: delta_i clears coords(b_i * b_j) for all j (the
    lcm of the denominators over Z, the least p^M over Z_(p))."""
    return StableBasisCertificate(alg, domain, tuple(basis))


def insert_into_basis(cert: StableBasisCertificate, x0,
                      protected=frozenset()) -> StableBasisCertificate:
    """The certificate with x0 in place of the first unprotected basis
    element b0 with a nonzero coordinate c0 in x0's expansion, seeded with
    s0*c for each stabilizer element c; s0 clears b0's new coordinates
    1/c0 and -c_k/c0, off x0's old ones c_k.  delta(s0*c) is the paper's
    s_c, the clearing of s0*c*x0: for a kept b_k, c*b_k lies in the old
    S-span, as c stabilizes, and s0 maps it into the new one, as s0*b0
    lies there, so only the rows at x0 can need clearing."""
    alg, domain = cert.algebra, cert.domain
    if alg.is_zero(x0):
        raise DomainError("cannot insert 0 into a basis")
    if x0 in cert.basis:
        raise DomainError("element is already in the basis")
    coords = tuple(cert.coords.values(x0))
    b0_idx = next((i for i, c in enumerate(coords) if c and cert.basis[i] not in protected), None)
    if b0_idx is None:
        raise StructuralError("x0 lies in the span of the protected elements")
    new_basis = tuple(x0 if i == b0_idx else b for i, b in enumerate(cert.basis))
    c0 = coords[b0_idx]
    s0 = domain.clear_many([domain.one / c0, *(c / c0 for c in coords)])
    return StableBasisCertificate(alg, domain, new_basis, tuple(alg.smul(s0, c) for c in cert.stabilizer))


def insert_many(cert: StableBasisCertificate, elements) -> StableBasisCertificate:
    """Insert a finite independent set, protecting earlier insertions (and
    elements already present) from eviction.  Members of the current basis
    are kept as they are."""
    protected, current = set(), cert
    for x in elements:
        if x not in current.basis:
            current = insert_into_basis(current, x, frozenset(protected))
        protected.add(x)
    return current


def certificate_to_json(cert: StableBasisCertificate) -> dict:
    """Basis and stabilizer coordinate matrices plus the domain descriptor."""
    from .basedomain import domain_to_descriptor
    ser = cert.algebra.field.scalar_to_json
    return {
        "domain": domain_to_descriptor(cert.domain),
        "basis": [[ser(c) for c in b] for b in cert.basis],
        "stabilizer": [[ser(c) for c in s] for s in cert.stabilizer],
    }


def certificate_from_json(alg: StructureAlgebra, domain: BaseDomain,
                          data: dict) -> StableBasisCertificate:
    """The certificate of `certificate_to_json`, refusing a stabilizer that
    is not a basis of A or does not stabilize (clearing would change it)."""
    basis = tuple(alg.element(v) for v in data["basis"])
    stab = tuple(alg.element(v) for v in data["stabilizer"])
    cert = StableBasisCertificate(alg, domain, basis, stab)
    if not is_independent(alg.field, stab):
        raise StructuralError("stabilizer is not a basis of A")
    if cert.stabilizer != stab:
        raise StructuralError("stabilizer does not stabilize the basis")
    return cert
