"""Lexicographically ordered free abelian groups Z^k.

Group elements are plain tuples of Python ints (arbitrary precision), first
coordinate most significant.  Python's native tuple comparison on
equal-length integer tuples *is* the lexicographic order, which the helpers
below wrap behind explicit rank checks.
"""

from __future__ import annotations

from .errors import RankMismatchError, StructuralError

Vec = tuple[int, ...]


def check_rank(a: Vec, b: Vec) -> None:
    if len(a) != len(b):
        raise RankMismatchError(f"rank mismatch: {len(a)} vs {len(b)}")


def lex_compare(a: Vec, b: Vec) -> int:
    """-1, 0 or +1; first coordinate dominant."""
    check_rank(a, b)
    if a < b:
        return -1
    if a > b:
        return 1
    return 0


def group_add(a: Vec, b: Vec) -> Vec:
    check_rank(a, b)
    return tuple(x + y for x, y in zip(a, b))


def group_neg(a: Vec) -> Vec:
    return tuple(-x for x in a)


def zero(rank: int) -> Vec:
    if rank < 1:
        raise StructuralError("rank must be >= 1")
    return (0,) * rank


def format_group_element(a: Vec) -> str:
    return "(" + ",".join(str(x) for x in a) + ")"


def parse_group_element(text: str) -> Vec:
    s = text.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise StructuralError(f"not a group element: {text!r}")
    parts = s[1:-1].split(",")
    try:
        coords = tuple(int(p.strip()) for p in parts)
    except ValueError as exc:
        raise StructuralError(f"not a group element: {text!r}") from exc
    if not coords:
        raise StructuralError("empty group element")
    return coords
