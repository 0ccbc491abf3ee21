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

    A file that cannot be read, is not JSON or lacks a required key raises
    StructuralError naming the file or the key.
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
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise StructuralError(f"{where} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise StructuralError(f"{where} is not a JSON object")
    try:
        return _parse(data)
    except KeyError as exc:
        raise StructuralError(f"{where} lacks the required key {exc.args[0]!r}") from exc


def _parse(data: dict) -> Problem:
    if data.get("format") != 1:
        raise StructuralError(f"unsupported format {data.get('format')!r} (need 1)")
    fdesc = data["field"]
    field = ValuedField(fdesc["kind"], int(fdesc["p"]))
    domain = domain_from_descriptor(data["domain"], field)
    adesc = data["algebra"]
    names = tuple(adesc["names"])
    n = len(names)

    def vec(raw):
        if len(raw) != n:
            raise StructuralError(f"coordinate vector of length {len(raw)}, expected {n}")
        return tuple(field.scalar(c) for c in raw)

    table = tuple(tuple(vec(cell) for cell in row) for row in adesc["table"])
    alg = StructureAlgebra(field, names, table, vec(adesc["unit"]))
    report = check_associative_unital(alg)
    if not report.ok:
        raise StructuralError(str(report))
    bases = {name: tuple(vec(v) for v in vs) for name, vs in data.get("bases", {}).items()}
    ideals = {name: IdealSpec(alg, tuple(vec(v) for v in vs))
              for name, vs in data.get("ideals", {}).items()}
    return Problem(field, domain, alg, bases, ideals)
