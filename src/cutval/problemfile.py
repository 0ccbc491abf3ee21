"""The JSON problem-file format consumed by the CLI.

Schema (format 1):

    {
      "format": 1,
      "field":  {"kind": "Q" | "Qt", "p": 2},
      "domain": {"kind": "Z"} | {"kind": "Zp", "p": 2} | {"kind": "Ov"},
      "algebra": {
        "names": ["e11", ...],
        "unit":  ["1", "0", ...],
        "table": [[[...], ...], ...]      # table[i][j] = coords of e_i*e_j
      },
      "bases":  {"name": [[coords], ...], ...},     # optional
      "ideals": {"name": [[coords], ...], ...}      # optional
    }

All scalars are exact strings "a/b" (Q) or {"num": [...], "den": [...]}
coefficient lists, lowest degree first (Q(t)); floats never appear.  The
algebra table is validated (associative, unital) at load time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .algebra import StructureAlgebra, check_associative_unital
from .basedomain import BaseDomain, domain_from_descriptor
from .errors import StructuralError
from .numfield import ValuedField
from .orders import IdealSpec


@dataclass(frozen=True)
class Problem:
    field: ValuedField
    domain: BaseDomain
    algebra: StructureAlgebra
    bases: dict
    ideals: dict

    def basis(self, name: str):
        if name not in self.bases:
            raise StructuralError(f"no basis named {name!r} in the problem file")
        return self.bases[name]

    def ideal(self, name: str) -> IdealSpec:
        if name not in self.ideals:
            raise StructuralError(f"no ideal named {name!r} in the problem file")
        return self.ideals[name]


def load_problem(source) -> Problem:
    """Parse and validate a problem file (path, file object or dict).

    A file that cannot be read, is not JSON (or nests or spells a number
    beyond the decoder's limits), lacks a required key, gives a
    section of the wrong JSON type, a `p` that is not an integer or a
    malformed scalar (such as a zero denominator) raises StructuralError
    naming the file or the key.
    """
    if isinstance(source, dict):
        where, data = "problem", source
    else:
        where = f"problem file {getattr(source, 'name', source)}"
        try:
            if hasattr(source, "read"):
                data = json.load(source)
            else:
                with open(source, "r", encoding="utf-8") as fh:
                    data = json.load(fh)
        except OSError as exc:
            raise StructuralError(f"cannot read {where}: {exc.strerror}") from exc
        except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, too many digits, too deep
            raise StructuralError(f"{where} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise StructuralError(f"{where} is not a JSON object")
    try:
        return _parse(data, where)
    except KeyError as exc:
        raise StructuralError(f"{where} lacks the required key {exc.args[0]!r}") from exc


def _integer_p(desc: dict, section: str, where: str) -> int:
    """desc["p"] given as an int or a decimal string."""
    raw = desc["p"]
    try:
        if type(raw) in (int, str):
            return int(raw)
    except ValueError:
        pass
    raise StructuralError(f"{where}: key 'p' of {section!r} must be an integer, got {raw!r}")


def _typed(raw, kind: type, key: str, where: str):
    """raw, checked to be a JSON object (kind dict) or array (kind list)."""
    if not isinstance(raw, kind):
        name = "object" if kind is dict else "array"
        raise StructuralError(f"{where}: key {key!r} must be a JSON {name}, got {raw!r}")
    return raw


def _parse(data: dict, where: str) -> Problem:
    fmt = data.get("format")
    if type(fmt) is not int or fmt != 1:  # not true, not 1.0
        raise StructuralError(f"{where}: unsupported format {fmt!r} (need the integer 1)")
    fdesc = _typed(data["field"], dict, "field", where)
    field = ValuedField(fdesc["kind"], _integer_p(fdesc, "field", where))
    ddesc = _typed(data["domain"], dict, "domain", where)
    if "p" in ddesc:
        ddesc = {**ddesc, "p": _integer_p(ddesc, "domain", where)}
    domain = domain_from_descriptor(ddesc, field)
    adesc = _typed(data["algebra"], dict, "algebra", where)
    names = tuple(_typed(adesc["names"], list, "algebra.names", where))
    n = len(names)

    def vec(raw, key):
        if len(_typed(raw, list, key, where)) != n:
            raise StructuralError(f"coordinate vector of length {len(raw)}, expected {n}")
        try:
            return tuple(field.scalar(c) for c in raw)
        except StructuralError as exc:
            raise StructuralError(f"{where}: key {key!r}: {exc}") from exc

    def vecs(raw, key):
        return tuple(vec(v, key) for v in _typed(raw, list, key, where))

    table = tuple(vecs(row, "algebra.table")
                  for row in _typed(adesc["table"], list, "algebra.table", where))
    alg = StructureAlgebra(field, names, table, vec(adesc["unit"], "algebra.unit"))
    report = check_associative_unital(alg)
    if not report.ok:
        raise StructuralError(str(report))
    bases = {name: vecs(vs, f"bases.{name}")
             for name, vs in _typed(data.get("bases", {}), dict, "bases", where).items()}
    ideals = {name: IdealSpec(alg, vecs(vs, f"ideals.{name}"))
              for name, vs in _typed(data.get("ideals", {}), dict, "ideals", where).items()}
    return Problem(field, domain, alg, bases, ideals)
