"""S-stable bases: verification, stabilizer construction, basis insertion.

A basis B of A over F is S-stable when some basis C multiplies it into the
S-span of B (all coordinates of c*b on B lie in S, for every c in C and
b in B); C is said to stabilize B.  At finite dimension every basis is
stable: clearing the denominators of each product row by row yields
multipliers delta_i with C = {delta_i * b_i}.

A certificate builds B's product rows, x -> coords_B(x*b_j), once and is
their only builder: the clearing stabilizer and the orders of `orders`
read them.  `is_stable` forms its own products, as the independent check.

Insertion swaps a new element x0 into a stable basis in place of some
basis element carrying a nonzero coordinate of x0, rescaling the
stabilizer so stability is preserved.  Iterating insertion embeds any
finite independent set into a stable basis, provided the already-inserted
elements are protected from eviction.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .algebra import (StructureAlgebra, _Rows, coordinate_rows, is_independent,
                      product_rows, solve_columns)
from .basedomain import BaseDomain
from .errors import DomainError, StructuralError


@dataclass(frozen=True)
class StableBasisCertificate:
    """A basis of A, checked to be one, with a stabilizer (by default the
    clearing one) and its product rows: row j*n + k of
    `algebra.product_rows`, whose value at x is coordinate k of x*b_j."""

    algebra: StructureAlgebra
    domain: BaseDomain
    basis: tuple
    stabilizer: tuple | None = None
    rows: tuple = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        alg, domain = self.algebra, self.domain
        rows = product_rows(alg, coordinate_rows(alg, self.basis), self.basis)
        object.__setattr__(self, "rows", rows)
        if self.stabilizer is None:
            n, stab, evaluate = alg.dim, [], _Rows(alg.field, rows).values
            for b in self.basis:
                values, delta = tuple(evaluate(b)), domain.one
                for j in range(0, n * n, n):
                    delta = delta * domain.clear_many(values[j:j + n])
                stab.append(alg.smul(delta, b))
            object.__setattr__(self, "stabilizer", tuple(stab))
        elif len(self.basis) != len(self.stabilizer):
            raise StructuralError("basis and stabilizer must have the same size")


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
    """Check every product c*b has all B-coordinates in S."""
    basis, stabilizer = list(basis), list(stabilizer)
    coords = coordinate_rows(alg, basis)
    if not is_independent(alg.field, stabilizer):
        raise StructuralError("stabilizer set is dependent")
    violations = []
    for ci, c in enumerate(stabilizer):
        for bi, b in enumerate(basis):
            for k, coord in enumerate(coords.values(alg.mul(c, b))):
                if not domain.contains(coord):
                    violations.append((ci, bi, k, coord))
    return StabilityReport(not violations, tuple(violations))


def stabilizer_finite(alg: StructureAlgebra, basis, domain: BaseDomain) -> StableBasisCertificate:
    """Denominator-clearing stabilizer {delta_i * b_i}: delta_i is the product
    over j of the clearing of coords(b_i * b_j), read off the certificate's
    product rows.  Canonical because clearing is."""
    return StableBasisCertificate(alg, domain, tuple(basis))


def insert_into_basis(cert: StableBasisCertificate, x0,
                      protected=frozenset()) -> StableBasisCertificate:
    """The certificate with x0 swapped into the basis in place of the first
    basis element b0 that has a nonzero coordinate in x0's expansion and
    is not protected; each stabilizer element c becomes s_c * s0 * c."""
    alg, domain = cert.algebra, cert.domain
    if alg.is_zero(x0):
        raise DomainError("cannot insert 0 into a basis")
    if x0 in cert.basis:
        raise DomainError("element is already in the basis")
    coords = solve_columns(alg.field, list(cert.basis), x0)
    b0_idx = next(
        (i for i, c in enumerate(coords) if c and cert.basis[i] not in protected),
        None,
    )
    if b0_idx is None:
        raise StructuralError("x0 lies in the span of the protected elements")

    new_basis = list(cert.basis)
    new_basis[b0_idx] = x0

    # b0 = (1/c0) x0 - sum_(k != b0) (c_k/c0) b_k; s0 clears that expansion.
    c0 = coords[b0_idx]
    s0 = domain.clear_many([alg.field.one / c0 if k == b0_idx else -c / c0
                            for k, c in enumerate(coords)])
    new_coords = coordinate_rows(alg, new_basis)

    new_stab = []
    for c in cert.stabilizer:
        t = alg.smul(s0, c)
        s_c = domain.clear_many(new_coords.values(alg.mul(t, x0)))
        new_stab.append(alg.smul(s_c, t))
    return StableBasisCertificate(alg, domain, tuple(new_basis), tuple(new_stab))


def insert_many(cert: StableBasisCertificate, elements) -> StableBasisCertificate:
    """Insert a finite independent set, protecting earlier insertions (and
    elements already present) from eviction.  Members of the current basis
    are kept as they are."""
    protected = set()
    current = cert
    for x in elements:
        if x in current.basis:
            protected.add(x)
            continue
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
    basis = tuple(alg.element(v) for v in data["basis"])
    stab = tuple(alg.element(v) for v in data["stabilizer"])
    return StableBasisCertificate(alg, domain, basis, stab)

