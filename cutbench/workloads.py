"""The four benchmark workloads: seeded inputs, timed items and their checks.

The workloads form a 2x2 grid, construction against querying and Q against
Q(t).  Each one writes its seeded inputs as format-1 problem files, loads
them with ``load_problem`` and runs a fixed number of items through the
library's public calls, one after another in one thread: a closed loop with
one client, like a user running CLI commands in a batch.

Every call that an item times goes through its module attribute
(``stability.stabilizer_finite``, not a name imported here), so the tracer
in ``spans.py`` sees it once it rebinds that name.  Input generation and the
untimed cross-checks call through names bound at import, so they stay out of
the trace.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from cutval import orders, problemfile, quasival, stability
from cutval.algebra import matrix_algebra, quadratic_algebra, rank_of
from cutval.basedomain import domain_to_descriptor, integers, p_local, valuation_ring
from cutval.numfield import RationalFunction, ValuedField
from cutval.oracle import brute_support
from cutval.quasival import support_mu
from cutval.samplers import sample_algebra_element, sample_member, sample_scalar
from cutval.sampling import SampleSpec, SplitMix64
from cutval.stability import StableBasisCertificate, is_stable

# Audit items of workload seed s use the sample seeds s * SEED_STRIDE + i.
SEED_STRIDE = 100_000
# Points per item on which lattice coordinates are checked against contains.
CHECK_POINTS = 4


@dataclass
class Setup:
    """What set-up hands to the timed items."""

    seed: int                  # the workload seed
    draw_spec: SampleSpec | None  # how the bases were drawn; None for the unit basis
    jobs: list | None = None   # build: (problem, basis name) per item
    oracle: object = None      # audit: the order built during set-up
    qv: object = None          # audit: its filter quasi-valuation
    built: tuple = ()          # certificates and oracles built during set-up

    @property
    def capacity(self):
        """The most items a run can take: the pool of drawn bases, if any."""
        return None if self.jobs is None else len(self.jobs)


@dataclass
class Outcome:
    """What one item produced: its reports and the objects it built."""

    reports: tuple             # objects with .ok and a rendered str()
    spec: SampleSpec | None    # the audit sample spec, None for build items
    built: tuple               # certificates and oracles


def draw_bases(alg, spec: SampleSpec, count: int) -> list:
    """Random bases drawn as acceptance test 6 draws them: one generator
    stream, sample_scalar per coordinate, rank-deficient draws rejected."""
    rng = spec.rng()
    bases = []
    while len(bases) < count:
        cand = [tuple(sample_scalar(rng, spec, alg.field) for _ in range(alg.dim))
                for _ in range(alg.dim)]
        if rank_of(alg.field, cand) == alg.dim:
            bases.append(tuple(cand))
    return bases


def write_problem(path: Path, alg, domain, bases) -> Path:
    """A format-1 problem file holding the algebra and bases b0, b1, ..."""
    ser = alg.field.scalar_to_json

    def vec(v):
        return [ser(c) for c in v]

    data = {
        "format": 1,
        "field": {"kind": alg.field.kind, "p": alg.field.p},
        "domain": domain_to_descriptor(domain),
        "algebra": {"names": list(alg.names), "unit": vec(alg.unit),
                    "table": [[vec(cell) for cell in row] for row in alg.table]},
        "bases": {f"b{k}": [vec(b) for b in basis] for k, basis in enumerate(bases)},
    }
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def _build_order(prob, basis_name):
    """The CLI's construction: stabilizer, then its left order."""
    cert = stability.stabilizer_finite(prob.algebra, prob.basis(basis_name), prob.domain)
    return cert, orders.nice_from_certificate(cert)


def _lattice_problems(oracle, rng: SplitMix64, spec: SampleSpec) -> list:
    """lattice_coords in S^n must agree with contains, on random elements and
    on sampled members."""
    if oracle.lattice_rows is None:
        return []
    alg, domain = oracle.algebra, oracle.domain
    problems = []
    for k in range(CHECK_POINTS):
        if k % 2:
            x = sample_member(rng, spec, oracle)
        else:
            x = sample_algebra_element(rng, spec, alg)
        by_coords = all(domain.contains(c) for c in oracle.lattice_coords(x))
        if by_coords != oracle.contains(x):
            problems.append(f"lattice coords and contains disagree at {alg.format_element(x)}")
    return problems


class BuildWorkload:
    """Each item builds one (basis, domain) pair: stabilizer_finite, its left
    order, and filter_qv when the domain is valuation-like.  Item i takes
    basis i // len(domains) over domain i % len(domains).  Set-up draws a
    pool of `pool` items, more than a run at the defining commit takes."""

    def __init__(self, name, algebra, domains, draw, pool):
        self.name = name
        self.algebra = algebra
        self.domains = domains
        self.draw = draw
        self.pool = pool

    def describe(self) -> str:
        alg = self.algebra()
        doms = ", ".join(d.describe() for d in self.domains)
        return f"{len(alg.names)}-dimensional algebra over {alg.field.kind}, domains {doms}"

    def setup(self, seed: int, workdir: Path) -> Setup:
        spec = SampleSpec(seed=seed, count=0, **self.draw)
        alg = self.algebra()
        bases = draw_bases(alg, spec, self.pool // len(self.domains))
        probs = [problemfile.load_problem(
                     write_problem(workdir / f"{self.name}-{k}.json", alg, dom, bases))
                 for k, dom in enumerate(self.domains)]
        jobs = [(probs[i % len(probs)], f"b{i // len(probs)}") for i in range(self.pool)]
        return Setup(seed, spec, jobs)

    def item(self, setup: Setup, i: int) -> Outcome:
        prob, basis_name = setup.jobs[i]
        cert, oracle = _build_order(prob, basis_name)
        built = (cert, oracle)
        if prob.domain.is_valuation_like:
            built += (quasival.filter_qv(oracle),)
        return Outcome((), None, built)

    def render(self, setup: Setup, i: int, out: Outcome) -> str:
        prob, basis_name = setup.jobs[i]
        cert, oracle = out.built[:2]
        fmt = prob.algebra.format_element
        lines = [f"basis {basis_name} over {prob.domain.describe()}:"]
        lines += [f"  stabilizer {fmt(c)}" for c in cert.stabilizer]
        lines += [f"  lattice basis {fmt(b)}" for b in oracle.lattice_basis or ()]
        return "\n".join(lines)

    def check(self, setup: Setup, i: int, out: Outcome) -> list:
        cert, oracle = out.built[:2]
        problems = []
        stable = is_stable(cert.algebra, cert.basis, cert.stabilizer, cert.domain)
        if not stable.ok:
            problems.append(str(stable))
        spec = SampleSpec(seed=setup.seed, count=CHECK_POINTS, **self.draw)
        problems += _lattice_problems(oracle, SplitMix64(setup.seed * SEED_STRIDE + i), spec)
        return problems


class AuditWorkload:
    """One order is built during set-up, on the unit basis or on the first
    basis drawn under `draw`.  Item i runs verify_nice and qv_audit on it
    with `count` samples on sample seed seed * SEED_STRIDE + i."""

    def __init__(self, name, algebra, domain, draw, count, poly_degree):
        self.name = name
        self.algebra = algebra
        self.domain = domain
        self.draw = draw
        self.count = count
        self.poly_degree = poly_degree

    def describe(self) -> str:
        alg = self.algebra()
        return (f"{len(alg.names)}-dimensional algebra over {alg.field.kind}, "
                f"domain {self.domain.describe()}, "
                f"{'a drawn basis' if self.draw else 'the unit basis'}; item i audits with "
                f"SampleSpec(seed=seed*{SEED_STRIDE}+i, count={self.count}, "
                f"poly_degree={self.poly_degree})")

    def setup(self, seed: int, workdir: Path) -> Setup:
        alg = self.algebra()
        if self.draw is None:
            basis = tuple(alg.basis_vector(k) for k in range(alg.dim))
        else:
            basis = draw_bases(alg, self.draw, 1)[0]
        prob = problemfile.load_problem(
            write_problem(workdir / f"{self.name}.json", alg, self.domain, [basis]))
        cert, oracle = _build_order(prob, "b0")
        qv = quasival.filter_qv(oracle)
        return Setup(seed, self.draw, None, oracle, qv, (cert, oracle))

    def item(self, setup: Setup, i: int) -> Outcome:
        spec = SampleSpec(seed=setup.seed * SEED_STRIDE + i, count=self.count,
                          poly_degree=self.poly_degree)
        nice = orders.verify_nice(setup.oracle, spec)
        audit = quasival.qv_audit(setup.qv, spec)
        return Outcome((nice, audit), spec, ())

    def render(self, setup: Setup, i: int, out: Outcome) -> str:
        return "\n".join(str(r) for r in out.reports)

    def check(self, setup: Setup, i: int, out: Outcome) -> list:
        rng = SplitMix64(out.spec.seed)
        problems = _lattice_problems(setup.oracle, rng, out.spec)
        if setup.oracle.domain.valued_field.rank == 1:
            problems += _support_problems(setup, rng, out.spec)
        return problems


def _support_problems(setup: Setup, rng: SplitMix64, spec: SampleSpec) -> list:
    """brute_support, a membership scan up to exponent 6, against support_mu
    on one sampled member."""
    scan_bound = 6
    oracle = setup.oracle
    x = sample_member(rng, spec, oracle)
    if oracle.algebra.is_zero(x):
        return []
    mu = support_mu(setup.qv, x).mu[0]
    brute = brute_support(oracle, x, scan_bound)
    if brute.inconclusive:
        agree = mu >= scan_bound
    else:
        agree = brute.exponent == mu
    if agree:
        return []
    return [f"brute_support {brute} disagrees with support_mu {mu} "
            f"at {oracle.algebra.format_element(x)}"]


def vacuous_checks(out: Outcome) -> list:
    """Checks that ran on fewer than one sample: an audit must not pass
    vacuously (SampleSpec itself accepts count <= 0)."""
    names = []
    for report in out.reports:
        for c in report.checks:
            n = getattr(c, "count", None)
            if n is None and c.method == "sampled":
                n = out.spec.count
            if n is not None and n < 1:
                names.append(f"{c.name} (n={n})")
    return names


Q3 = ValuedField("Q", 3)
QT2 = ValuedField("Qt", 2)
# The audit-q order: the first M3(Q) basis drawn from seed 7, the random-basis
# M3(Q) row of the ROADMAP baseline.  It is fixed so that every run audits an
# order of the same size; the workload seed drives the audit samples.
AUDIT_Q_DRAW = SampleSpec(seed=7, count=0, coef_bound=5, max_p_exp=2)

WORKLOADS = {
    "build-q": BuildWorkload(
        "build-q", lambda: matrix_algebra(Q3, 3), (p_local(3), integers()),
        draw=dict(coef_bound=5, max_p_exp=2), pool=80),
    "audit-q": AuditWorkload(
        "audit-q", lambda: matrix_algebra(Q3, 3), p_local(3), AUDIT_Q_DRAW,
        count=3, poly_degree=2),
    "audit-qt": AuditWorkload(
        "audit-qt", lambda: matrix_algebra(QT2, 2), valuation_ring(QT2), None,
        count=10, poly_degree=1),
    "build-qt": BuildWorkload(
        "build-qt", lambda: quadratic_algebra(QT2, RationalFunction.T), (valuation_ring(QT2),),
        draw=dict(coef_bound=3, max_p_exp=1, poly_degree=2), pool=250),
}


def scalar_size(x) -> tuple:
    """(bits, t-degree): the largest numerator or denominator bit length of
    the rationals in x, and its t-degree (0 over Q)."""
    if isinstance(x, Fraction):
        return max(x.numerator.bit_length(), x.denominator.bit_length()), 0
    qs = x.num.coeffs + x.den.coeffs
    bits = max(max(q.numerator.bit_length(), q.denominator.bit_length()) for q in qs)
    return bits, max(x.num.degree, x.den.degree)


def matrix_size(rows) -> tuple:
    sizes = [scalar_size(c) for row in rows for c in row] or [(0, 0)]
    return max(s[0] for s in sizes), max(s[1] for s in sizes)


def item_sizes(built) -> dict:
    """Largest bits and t-degree in the lattice bases, stabilizers and
    constraint rows among the certificates and oracles built."""
    out = {}

    def record(key, value):
        out[key] = max(out.get(key, 0), value)

    for obj in built:
        if isinstance(obj, StableBasisCertificate):
            record("stabilizer_bits", matrix_size(obj.stabilizer)[0])
        elif isinstance(obj, orders.SubringOracle):
            rows = [row for _, group in obj.constraints for row in group]
            record("constraint_bits", matrix_size(rows)[0])
            if obj.lattice_basis is not None:
                bits, tdeg = matrix_size(obj.lattice_basis)
                record("lattice_bits", bits)
                record("lattice_tdeg", tdeg)
    return out
