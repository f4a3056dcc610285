"""JSON forms for every value the CLI reads or writes.

Serialization is canonical: polynomial terms are emitted in graded
lexicographic order, rationals as "p/q" strings (plain integers without the
denominator), matrices row by row.  Identical inputs therefore always give
byte-identical output.  A reader given a missing or malformed field raises
a ValueError that names it.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Optional

from .algebra import Basis, LatticeVector, PolyMatrix, TruncatedPoly
from .braid import EquivalenceCertificate
from .quiver import Quiver
from .stokes import Chamber, DTModel, StokesData


def frac_str(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _field(data, name: str):
    if not isinstance(data, dict) or name not in data:
        raise ValueError(f"missing field {name!r}")
    return data[name]


def _whole(value) -> Optional[int]:
    """``value`` as an int when it is a whole number (an int, an integral
    float or an integer string), else None; int() would truncate 1.5."""
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        return int(value) if value.is_integer() else None
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            return None
    return None


def _int_field(data, name: str) -> int:
    value = _field(data, name)
    n = _whole(value)
    if n is None:
        raise ValueError(f"field {name!r} must be an integer, got {value!r}")
    return n


def _ints(values, name: str) -> tuple:
    """``values`` as a tuple of ints; a ValueError naming the field when one
    of them is not a whole number."""
    out = tuple(map(_whole, values))
    if None in out:
        raise ValueError(f"field {name!r} must hold integers, "
                         f"got {values[out.index(None)]!r}")
    return out


def parse_frac(value, name: str) -> Fraction:
    """``value`` as a Fraction; a ValueError naming the field when it is not
    a finite rational (a zero denominator or an infinity, say)."""
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ValueError(f"field {name!r} must hold finite rationals, "
                         f"got {value!r}") from None


def _rows(rows, name: str, width: Optional[int] = None) -> list:
    """``rows`` checked to be a list of lists of finite numbers or number
    strings, each of length ``width`` when given."""
    if not (isinstance(rows, list) and all(
            isinstance(r, list) and (width is None or len(r) == width)
            and all(isinstance(x, (int, str))
                    or isinstance(x, float) and math.isfinite(x) for x in r)
            for r in rows)):
        kind = "lists" if width is None else "pairs"
        raise ValueError(f"field {name!r} must be a list of {kind} of numbers")
    return rows


def poly_to_json(p: TruncatedPoly) -> dict:
    return {",".join(str(e) for e in exps): frac_str(coeff)
            for exps, coeff in p.key()}


def poly_from_json(data: dict, nvars: int) -> TruncatedPoly:
    terms = {}
    for key, val in data.items():
        exps = tuple(int(e) for e in key.split(",")) if key else ()
        terms[exps] = Fraction(val)
    return TruncatedPoly(nvars, terms)


def pm_to_json(m: PolyMatrix) -> dict:
    return {"n": m.n,
            "entries": [[poly_to_json(e) for e in row] for row in m.entries]}


def pm_from_json(data: dict, nvars: int) -> PolyMatrix:
    return PolyMatrix(int(data["n"]), [[poly_from_json(cell, nvars) for cell in row]
                                       for row in data["entries"]])


def rational_matrix_to_json(m) -> list:
    return [[frac_str(x) for x in row] for row in m]


def rational_matrix_from_json(rows) -> tuple:
    return tuple(tuple(parse_frac(x, "matrix") for x in row)
                 for row in _rows(rows, "matrix"))


def quiver_to_json(q: Quiver) -> dict:
    return {"n": q.n, "arrows": [list(r) for r in q.arrows]}


def quiver_from_json(data: dict) -> Quiver:
    n = _int_field(data, "n")
    return Quiver(n, tuple(_ints(r, "arrows")
                           for r in _rows(_field(data, "arrows"), "arrows")))


def basis_to_json(b: Basis) -> dict:
    return {"rows": [list(r.coords) for r in b.rows]}


def basis_from_json(data: dict) -> Basis:
    return Basis([_ints(r, "rows") for r in _rows(_field(data, "rows"), "rows")])


def chamber_from_json(data: dict) -> Chamber:
    Z = tuple((parse_frac(x, "Z"), parse_frac(y, "Z"))
              for x, y in _rows(_field(data, "Z"), "Z", 2))
    active = tuple(LatticeVector(_ints(v, "active"))
                   for v in _rows(_field(data, "active"), "active"))
    return Chamber(Z, active)


def dt_model_from_chamber_json(data: dict) -> DTModel:
    """Table model from a chamber file's "dt" map; signed simples default
    to count 1 unless overridden."""
    dt = data.get("dt", {})
    if not (isinstance(dt, dict)
            and all(isinstance(v, (int, float, str)) for v in dt.values())):
        raise ValueError("field 'dt' must map classes to counts")
    table = {}
    for key, val in dt.items():
        coords = _ints(key.split(","), "dt")
        table[coords] = parse_frac(val, "dt")
    return DTModel.table(table)


def stokes_data_to_json(sd: StokesData) -> dict:
    return {
        "order": list(sd.order),
        "factors": [{"i": i, "j": j, "coefficient": poly_to_json(c)}
                    for (i, j, c) in sd.factors],
        "product": pm_to_json(sd.product),
    }


def move_to_json(mv) -> dict:
    if mv[0] == "braid":
        return {"braid": mv[1], "dir": "+" if mv[2] > 0 else "-"}
    if mv[0] == "perm":
        return {"perm": list(mv[1])}
    if mv[0] == "sign":
        return {"sign": list(mv[1])}
    raise ValueError(f"unknown move {mv!r}")


def move_from_json(data: dict):
    if "braid" in data:
        return ("braid", int(data["braid"]), 1 if data.get("dir", "+") == "+" else -1)
    if "perm" in data:
        return ("perm", tuple(int(x) for x in data["perm"]))
    if "sign" in data:
        return ("sign", tuple(int(x) for x in data["sign"]))
    raise ValueError(f"unknown move {data!r}")


def certificate_to_json(cert: EquivalenceCertificate) -> dict:
    return {
        "source": rational_matrix_to_json(cert.source),
        "target": rational_matrix_to_json(cert.target),
        "word": [move_to_json(mv) for mv in cert.word.moves],
        "verified": cert.verified,
    }


def dumps(data) -> str:
    return json.dumps(data, indent=2, sort_keys=False) + "\n"
