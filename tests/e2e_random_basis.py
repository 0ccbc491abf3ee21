"""One random-basis order end to end, with each stage timed.

The first seed-7 basis of cutbench's draw for the named case: its
certificate, left order and is_stable, then verify_nice and, where the
case has one, qv_audit, and for M5(Q) and M2(Q(t)) two descend_chain
steps on the order: each an insertion, its left order and an
intersection, over M2(Q(t)) on dense O_v rows.  The left order runs
`_lattice`'s check of the lattice basis against every product row and the
check that 1 and the stabilizer lie in it, which raise on a disagreement,
as do the chain's own checks of each step.  M3(Q(t)) stops after its
certificate, whose coordinate rows A_i/Q_i are checked against the basis
X_j/E_j in Z[t]: sum_k A_ik*X_jk = delta_ij*Q_i*E_j.  It exits 1 unless
those checks pass and every report is ok; the stage times, the process's
peak resident memory after them, and for M6(Q), M8(Q) and M2(Q(t)) the
largest bit length of T's coefficients (and over Q(t) its largest
t-degree), are printed, not gated.  Run from the repository root, which
holds `cutbench`:

    PYTHONPATH=src:. python3 tests/e2e_random_basis.py "M6(Q)"

pytest does not collect this file.
"""

from __future__ import annotations

import resource
import sys
import time
from dataclasses import dataclass

from cutbench.workloads import draw_bases, matrix_size
from cutval.algebra import matrix_algebra
from cutval.basedomain import p_local, valuation_ring
from cutval.numfield import ValuedField, _convolve, _zt_dot
from cutval.orders import descend_chain, nice_from_certificate, verify_nice
from cutval.quasival import filter_qv, qv_audit
from cutval.sampling import SampleSpec
from cutval.stability import is_stable, stabilizer_finite

Q2, QT = ValuedField("Q", 2), ValuedField("Qt", 2)
Q_DRAW = dict(coef_bound=5, max_p_exp=2)

# name: (field, n, domain, draw, left order stage or None for the
#        certificate alone, verify_nice spec, qv_audit spec or None,
#        print T's largest entry and t-degree)
CASES = {
    "M5(Q)": (Q2, 5, p_local(2), Q_DRAW, "left order", SampleSpec(seed=7, count=5), None, False),
    "M6(Q)": (Q2, 6, p_local(2), Q_DRAW, "left order, row check included",
              SampleSpec(seed=62, count=50), SampleSpec(seed=63, count=50), True),
    # the largest product rows and Hermite pivot search that CI runs
    "M8(Q)": (Q2, 8, p_local(2), Q_DRAW, "left order, row check included",
              SampleSpec(seed=62, count=20), SampleSpec(seed=63, count=20), True),
    # dense rows with distinct denominators, which no benchmark workload reads
    "M2(Q(t))": (QT, 2, valuation_ring(QT), dict(coef_bound=4, max_p_exp=2, poly_degree=1),
                 "left order", SampleSpec(seed=62, count=50), SampleSpec(seed=63, count=50), True),
    # the 9 x 9 basis inverse over Q(t); the left order needs an O_v Hermite form first
    "M3(Q(t))": (QT, 3, valuation_ring(QT), dict(coef_bound=4, max_p_exp=2, poly_degree=1),
                 None, None, None, False),
}
# descend_chain steps run on the order, gated only by the chain's raises
CHAIN_STEPS = {"M5(Q)": 2, "M2(Q(t))": 2}


def stage(name, f, *args):
    start = time.perf_counter()
    out = f(*args)
    print(f"{name}: {time.perf_counter() - start:.2f} s", flush=True)
    return out


def _stripped(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


@dataclass(frozen=True)
class InverseCheck:
    """Whether the coordinate rows A_i/Q_i of a certificate over Q(t) times
    its basis X_j/E_j are the identity, in Z[t] with no gcd:
    sum_k A_ik*X_jk = delta_ij*Q_i*E_j."""

    ok: bool

    @classmethod
    def of(cls, cert) -> "InverseCheck":
        return cls(all(_stripped(_zt_dot(row._nums, b._nums))
                       == (_stripped(_convolve(row._den, b._den)) if i == j else [])
                       for i, row in enumerate(cert.coords.stored) for j, b in enumerate(cert.basis)))

    def __str__(self):
        return f"coordinate rows times the basis: {'the identity' if self.ok else 'NOT the identity'}"


def main(name: str) -> int:
    field, n, domain, draw, order_stage, nice_spec, audit_spec, show_bits = CASES[name]
    alg = matrix_algebra(field, n)
    basis = draw_bases(alg, SampleSpec(seed=7, count=0, **draw), 1)[0]
    cert = stage("certificate", stabilizer_finite, alg, basis, domain)
    if order_stage is None:
        reports = [stage("coordinate rows times the basis in Z[t]", InverseCheck.of, cert)]
    else:
        order = stage(order_stage, nice_from_certificate, cert)
        reports = [stage("is_stable", is_stable, alg, cert.basis, cert.stabilizer, domain)]
        if show_bits:
            bits, tdeg = matrix_size(order.lattice_rows)
            degree = f", largest t-degree {tdeg}" if field.kind == "Qt" else ""
            print(f"T: {len(order.lattice_rows)} rows, largest entry {bits} bits{degree}")
        reports.append(stage(f"verify_nice ({nice_spec.count} samples)", verify_nice, order, nice_spec))
        if audit_spec is not None:
            reports.append(stage(f"qv_audit ({audit_spec.count} samples)", qv_audit,
                                 filter_qv(order), audit_spec))
        if name in CHAIN_STEPS:
            stage(f"descend_chain ({CHAIN_STEPS[name]} steps)", descend_chain, order, CHAIN_STEPS[name])
    # ru_maxrss is in KiB on Linux
    print(f"peak RSS: {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MiB", flush=True)
    for report in reports:
        print(report)
    return 0 if all(report.ok for report in reports) else 1


if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in CASES:
        sys.exit(f"usage: e2e_random_basis.py {' | '.join(CASES)}")
    sys.exit(main(sys.argv[1]))
