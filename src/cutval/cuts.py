"""The cut monoid of Z^k-lex, in a finite canonical form.

A cut of a totally ordered set partitions it into an initial (downward
closed) left set and its complement, every left element below every right
element; cuts are ordered by inclusion of left sets and added by summing
left sets elementwise.

Canonical form.  For Z^k with the lexicographic order every cut is one of

* ``Bottom``  -- left set empty,
* ``Top``     -- left set all of Z^k,
* ``AtMost(j, beta)`` with 0 <= j < k and beta in Z^(k-j) -- left set
  ``{ g : pi_j(g) <=_lex beta }`` where pi_j drops the j least-significant
  coordinates.

Derivation (induction on k).  Let U be a proper nonempty initial subset of
Z^k-lex and let U1 be its projection to the most significant coordinate.
U1 is initial in Z; if U1 = Z then U = Z^k (any point is lex-below some
member with a larger first coordinate), so U1 has a maximum m.  The fiber
V = { g' : (m, g') in U } is a nonempty initial subset of Z^(k-1)-lex:
nonempty because m is attained, initial by lex comparison at equal first
coordinate.  If V = Z^(k-1) then U = AtMost(k-1, (m)); otherwise by
induction V = AtMost(j, beta') in Z^(k-1) and U = AtMost(j, (m,) + beta')
in Z^k.  For k = 1 a proper nonempty initial subset of Z is {<= m}.
Distinct descriptors give distinct cuts (a level-j left set has, at fixed
projection, unbounded lower coordinates; a level-j' < j one does not).
The window enumerations in the test suite check this exhaustively for
k in {1, 2}.

No "strictly below beta" variant exists: in the discrete quotient Z^(k-j),
``{ g < beta }`` equals ``{ g <= beta - (0,...,0,1) }``.

One projection rule.  Two AtMost cuts are summed and ordered at the
coarser level j = max(levels), their bounds projected there by dropping
low coordinates (`_dropped_bound`): projecting {<= beta} to a coarser lex
level gives {<= projected beta}, and {<= x} + {<= y} = {<= x + y} in any
ordered abelian group.  `cut_add` adds the projected bounds; `cut_compare`
orders Bottom < AtMost < Top and two AtMost cuts as (projected bound,
level), since at equal projections the finer left set lies strictly
inside the coarser one; `cut_translate(a, alpha)` is
`cut_add(a, embed_phi(-alpha))`.  These closed forms are
implementation-derived; the ground truth in tests is the brute-force
window oracle (:mod:`cutval.oracle`).

A :class:`Value` is a cut or the adjoined ``INF``, which is strictly
greater than every cut (including ``Top`` -- the two are distinct values)
and absorbing for addition.

The value group itself needs no module: an element of Z^k is a ``Vec``, a
plain tuple of Python ints with the first coordinate most significant, so
tuple comparison at equal length is the lexicographic order and group sums
are componentwise tuple sums.  Its text form is ``(a1,...,ak)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key

from .errors import DomainError, RankMismatchError, StructuralError

Vec = tuple[int, ...]

BOTTOM = "bot"
TOP = "top"
ATMOST = "atmost"
_KIND_ORDER = {BOTTOM: 0, ATMOST: 1, TOP: 2}


@dataclass(frozen=True)
class Cut:
    """Canonical descriptor of a cut of Z^rank with lex order."""

    rank: int
    kind: str
    level: int = 0
    bound: Vec = ()

    def __post_init__(self):
        if self.rank < 1:
            raise StructuralError("rank must be >= 1")
        if self.kind in (BOTTOM, TOP):
            if self.level != 0 or self.bound != ():
                raise StructuralError("extreme cuts carry no bound")
        elif self.kind == ATMOST:
            if not 0 <= self.level < self.rank:
                raise StructuralError(f"level {self.level} out of range for rank {self.rank}")
            if len(self.bound) != self.rank - self.level:
                raise StructuralError("bound length must be rank - level")
            if not all(isinstance(c, int) for c in self.bound):
                raise StructuralError("bound coordinates must be ints")
        else:
            raise StructuralError(f"unknown cut kind {self.kind!r}")

    def __repr__(self):
        return format_value(self)


class _Infinity:
    """The adjoined infinity, greater than every cut."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INF"


INF = _Infinity()

Value = Cut | _Infinity


def bottom(rank: int) -> Cut:
    return Cut(rank, BOTTOM)


def top(rank: int) -> Cut:
    return Cut(rank, TOP)


def at_most(rank: int, level: int, bound: Vec) -> Cut:
    return Cut(rank, ATMOST, level, tuple(bound))


def embed_phi(alpha: Vec) -> Cut:
    """The monoid embedding alpha -> cut with left set {g <= alpha}."""
    return at_most(len(alpha), 0, alpha)


def zero_cut(rank: int) -> Cut:
    return embed_phi((0,) * rank)


def _check_ranks(a: Cut, b: Cut) -> None:
    if a.rank != b.rank:
        raise RankMismatchError(f"cut ranks differ: {a.rank} vs {b.rank}")


def _dropped_bound(c: Cut, level: int) -> Vec:
    """Bound of c re-expressed at a coarser level (drop low coordinates)."""
    return c.bound[: c.rank - level]


def cut_add(a: Cut, b: Cut) -> Cut:
    """Left-set sum.  Bottom absorbs, then Top; AtMost bounds add at the
    coarser level (module docstring)."""
    _check_ranks(a, b)
    if a.kind == BOTTOM or b.kind == BOTTOM:
        return bottom(a.rank)
    if a.kind == TOP or b.kind == TOP:
        return top(a.rank)
    j = max(a.level, b.level)
    pa, pb = _dropped_bound(a, j), _dropped_bound(b, j)
    return at_most(a.rank, j, tuple(x + y for x, y in zip(pa, pb)))


def cut_scale(n: int, a: Cut) -> Cut:
    """n-fold left-set sum; AtMost bounds scale componentwise."""
    if n < 1:
        raise DomainError(f"scale factor must be >= 1, got {n}")
    if a.kind != ATMOST:
        return a
    return at_most(a.rank, a.level, tuple(n * x for x in a.bound))


def cut_translate(a: Cut, alpha: Vec) -> Cut:
    """Left set shifted by -alpha: cut_add(a, embed_phi(-alpha))."""
    if len(alpha) != a.rank:
        raise RankMismatchError("translation rank differs from cut rank")
    return cut_add(a, embed_phi(tuple(-x for x in alpha)))


def cut_compare(a: Cut, b: Cut) -> int:
    """Total order by left-set inclusion: -1, 0 or +1.  Bottom < AtMost <
    Top; two AtMost cuts compare as (bound projected to the coarser level,
    level), so at equal projections the finer cut is below."""
    _check_ranks(a, b)
    if a.kind != ATMOST or b.kind != ATMOST:
        ka, kb = _KIND_ORDER[a.kind], _KIND_ORDER[b.kind]
    else:
        j = max(a.level, b.level)
        ka, kb = (_dropped_bound(a, j), a.level), (_dropped_bound(b, j), b.level)
    return (ka > kb) - (ka < kb)


def value_add(x: Value, y: Value) -> Value:
    if x is INF or y is INF:
        return INF
    return cut_add(x, y)


def value_translate(x: Value, alpha: Vec) -> Value:
    if x is INF:
        return INF
    return cut_translate(x, alpha)


def value_scale(n: int, x: Value) -> Value:
    if n < 1:
        raise DomainError(f"scale factor must be >= 1, got {n}")
    if x is INF:
        return INF
    return cut_scale(n, x)


def value_compare(x: Value, y: Value) -> int:
    if x is INF or y is INF:
        return (x is INF) - (y is INF)
    return cut_compare(x, y)


_VALUE_KEY = cmp_to_key(value_compare)


def value_min(values) -> Value:
    """Greatest lower bound of a nonempty finite family (its first minimum)."""
    if (best := min(values, key=_VALUE_KEY, default=None)) is None:
        raise DomainError("value_min of empty list")
    return best


# --- text notation: "BOT", "TOP", "INF", "AM(j;b1,...,bm)", "(a,b)" -----


def parse_group_element(text: str) -> Vec:
    """A group element "(a1,...,ak)" of Z^k."""
    s = text.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise StructuralError(f"not a group element: {text!r}")
    try:
        return tuple(int(c) for c in s[1:-1].split(","))
    except ValueError as exc:
        raise StructuralError(f"not a group element: {text!r}") from exc


def format_value(x: Value) -> str:
    if x is INF:
        return "INF"
    if x.kind == BOTTOM:
        return "BOT"
    if x.kind == TOP:
        return "TOP"
    return f"AM({x.level};{','.join(str(c) for c in x.bound)})"


def parse_value(text: str, rank: int | None = None) -> Value:
    """Inverse of format_value.  BOT/TOP need the ambient rank supplied;
    AM(j;...) is self-describing."""
    s = text.strip()
    if s == "INF":
        return INF
    if s in ("BOT", "TOP"):
        if rank is None:
            raise StructuralError(f"{s} needs an explicit rank")
        return bottom(rank) if s == "BOT" else top(rank)
    if s.startswith("AM(") and s.endswith(")"):
        body = s[3:-1]
        head, sep, tail = body.partition(";")
        if not sep:
            raise StructuralError(f"malformed cut notation: {text!r}")
        try:
            level = int(head.strip())
            bound = tuple(int(c.strip()) for c in tail.split(","))
        except ValueError as exc:
            raise StructuralError(f"malformed cut notation: {text!r}") from exc
        c = at_most(level + len(bound), level, bound)
        if rank is not None and c.rank != rank:
            raise RankMismatchError(f"notation rank {c.rank} differs from expected {rank}")
        return c
    if s.startswith("("):
        g = parse_group_element(s)
        if rank is not None and len(g) != rank:
            raise RankMismatchError(f"element rank {len(g)} differs from expected {rank}")
        return embed_phi(g)
    raise StructuralError(f"unrecognized value notation: {text!r}")


__all__ = [
    "Cut", "Value", "INF", "bottom", "top", "at_most", "embed_phi",
    "zero_cut", "cut_add", "cut_scale", "cut_translate",
    "cut_compare", "value_add", "value_translate", "value_scale",
    "value_compare", "value_min", "format_value", "parse_value",
]
