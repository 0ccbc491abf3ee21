"""Seeded deterministic sampling.

All randomness in this package flows through :class:`SplitMix64`, a
splitmix-style generator chosen so that ports in other languages can
reproduce the exact streams.  State and outputs are 64-bit; the recurrence
is

    state = (state + 0x9E3779B97F4A7C15) mod 2^64
    z = state
    z = ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
    z = ((z XOR (z >> 27)) * 0x94D049BB133111EB) mod 2^64
    output = z XOR (z >> 31)

Bounded draws use plain modulo reduction (``output mod n``); the tiny bias
is irrelevant here and keeps the stream spec trivial to port.

A :class:`SampleSpec` bundles the seed and shape parameters of a fuzzing
run so that every audit report can state exactly how its samples were
drawn.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """The documented splitmix-style 64-bit generator."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def randrange(self, n: int) -> int:
        """Uniform-ish draw from [0, n)."""
        if n <= 0:
            raise ValueError("randrange needs n >= 1")
        return self.next_u64() % n

    def randint(self, lo: int, hi: int) -> int:
        """Draw from the inclusive range [lo, hi]."""
        return lo + self.randrange(hi - lo + 1)

    def choice(self, seq):
        return seq[self.randrange(len(seq))]


@dataclass(frozen=True)
class SampleSpec:
    """Shape of a fuzzing run; embedded verbatim in reports."""

    seed: int
    count: int
    coef_bound: int = 9
    max_p_exp: int = 3
    poly_degree: int = 2

    def describe(self) -> str:
        return (
            f"count={self.count} seed={self.seed} coef_bound={self.coef_bound} "
            f"max_p_exp={self.max_p_exp} poly_degree={self.poly_degree}"
        )

    def rng(self) -> SplitMix64:
        return SplitMix64(self.seed)


def check_sample_count(spec: SampleSpec) -> None:
    """An audit draws spec.count samples; with none every sampled check
    would pass vacuously, so that is refused."""
    if spec.count < 1:
        raise DomainError(f"an audit needs at least one sample, got count={spec.count}; "
                          "with none it would pass vacuously")


def sample_int(rng: SplitMix64, bound: int) -> int:
    return rng.randint(-bound, bound)


def sample_rational(rng: SplitMix64, spec: SampleSpec, p: int) -> Fraction:
    """A rational with denominators mixing powers of p and p-free parts."""
    num = sample_int(rng, spec.coef_bound)
    shape = rng.randrange(4)
    if shape == 0:
        den = 1
    elif shape == 1:
        den = p ** rng.randint(1, spec.max_p_exp)
    else:
        den = _small_coprime(rng, p)
        if shape == 3:
            den *= p ** rng.randint(1, spec.max_p_exp)
    return Fraction(num, den)


def _small_coprime(rng: SplitMix64, p: int) -> int:
    while True:
        d = rng.randint(2, 9)
        if d % p != 0:
            return d
