"""JSON forms for every value the CLI reads or writes.

Serialization is canonical: polynomial terms are emitted in graded
lexicographic order, rationals as "p/q" strings (plain integers without the
denominator), matrices row by row.  Identical inputs therefore always give
byte-identical output.  A reader given a missing or malformed field raises
a ValueError that names it.

Readers decide nothing about numbers: an integer, a rational, a 1-based
index, a size (a count is a size of at least 0) and a sign are each read by
the one rule in ``algebra`` (``_as_int``, ``_as_fraction``, ``_index``,
``_size``, ``_unit``); a reader checks shapes and names the field.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Optional

import numpy as np

from .algebra import (Basis, LatticeVector, PolyMatrix, TruncatedPoly, _as_fraction,
                      _as_int, _size, _unit)
from .braid import EquivalenceCertificate, _move_kind
from .goodness import GoodQuiverSolution
from .quiver import Quiver
from .stokes import Chamber, DTModel, StokesData


def frac_str(x: Fraction) -> str:
    x = _as_fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _field(data, name: str):
    if not isinstance(data, dict) or name not in data:
        raise ValueError(f"missing field {name!r}")
    return data[name]


def _whole(value, what: str) -> int:
    """``value`` as an int by the one integer rule, ``algebra._as_int``; a
    ValueError that starts with ``what`` when it is not a whole number."""
    try:
        return _as_int(value)
    except ValueError:
        raise ValueError(f"{what}, got {value!r}") from None


def _int_field(data, name: str) -> int:
    return _whole(_field(data, name), f"field {name!r} must be an integer")


def _ints(values, name: str) -> tuple:
    """The list ``values`` as a tuple of ints; a ValueError naming the field
    when it is not a list or one of its items is not a whole number."""
    if not isinstance(values, list):
        raise ValueError(f"field {name!r} must be a list of integers, "
                         f"got {values!r}")
    return tuple(_whole(v, f"field {name!r} must hold integers") for v in values)


def parse_frac(value, name: str) -> Fraction:
    """``value`` as a Fraction by the one rational rule,
    ``algebra._as_fraction``; a ValueError naming the field when it is not
    an exact rational (a zero denominator, an infinity, 0.5 or a boolean,
    say)."""
    try:
        return _as_fraction(value)
    except (TypeError, ValueError):
        raise ValueError(f"field {name!r} must hold finite rationals, "
                         f"got {value!r}") from None


def _rows(rows, name: str, width: Optional[int] = None) -> list:
    """``rows`` checked to be a list of lists, each of length ``width`` when
    given; the caller reads the items, by ``parse_frac`` or ``_ints``."""
    if not (isinstance(rows, list) and all(
            isinstance(r, list) and (width is None or len(r) == width)
            for r in rows)):
        kind = "lists" if width is None else "pairs"
        raise ValueError(f"field {name!r} must be a list of {kind} of numbers")
    return rows


def poly_to_json(p: TruncatedPoly) -> dict:
    return {",".join(str(e) for e in exps): frac_str(coeff)
            for exps, coeff in p.key()}


def poly_from_json(data: dict, nvars: int) -> TruncatedPoly:
    if not (isinstance(data, dict) and all(isinstance(k, str) for k in data)):
        raise ValueError(f"a polynomial must map exponent text to coefficients, "
                         f"got {data!r}")
    terms = {}
    for key, val in data.items():
        exps = tuple(_size(e, 0, "exponent") for e in key.split(",")) if key else ()
        if exps in terms:
            raise ValueError(f"a polynomial names exponent {exps} twice")
        terms[exps] = parse_frac(val, "coefficient")
    return TruncatedPoly(nvars, terms)


def pm_to_json(m: PolyMatrix) -> dict:
    return {"n": m.n,
            "entries": [[poly_to_json(e) for e in row] for row in m.entries]}


def pm_from_json(data: dict, nvars: int) -> PolyMatrix:
    n, rows = _int_field(data, "n"), _field(data, "entries")
    if not (isinstance(rows, list) and all(isinstance(r, list) for r in rows)):
        raise ValueError("field 'entries' must be a list of lists of polynomials")
    entries = [[poly_from_json(c, nvars) for c in row] for row in rows]
    if len(entries) != _size(n, 1, "matrix size"):
        raise ValueError("entries must be an n x n array")
    return PolyMatrix(entries)


def rational_matrix_to_json(m) -> list:
    return [[frac_str(x) for x in row] for row in m]


def rational_matrix_from_json(rows) -> tuple:
    return tuple(tuple(parse_frac(x, "matrix") for x in row)
                 for row in _rows(rows, "matrix"))


def quiver_to_json(q: Quiver) -> dict:
    return {"n": q.n, "arrows": [list(r) for r in q.arrows]}


def quiver_from_json(data: dict) -> Quiver:
    n = _int_field(data, "n")
    if n < 1:
        raise ValueError(f"field 'n' must be a positive integer, got {n}")
    arrows = tuple(_ints(r, "arrows") for r in _rows(_field(data, "arrows"), "arrows"))
    if len(arrows) != n:
        raise ValueError("arrow matrix must be n x n")
    return Quiver(arrows)


def basis_to_json(b: Basis) -> dict:
    return {"rows": [list(r.coords) for r in b.rows]}


def basis_from_json(data: dict) -> Basis:
    return Basis([_ints(r, "rows") for r in _rows(_field(data, "rows"), "rows")])


def chamber_from_json(data: dict) -> tuple[Chamber, DTModel]:
    """A chamber file's chamber, then the table model of its "dt" map, whose
    classes have the chamber's rank; signed simples default to count 1."""
    Z = tuple((parse_frac(x, "Z"), parse_frac(y, "Z"))
              for x, y in _rows(_field(data, "Z"), "Z", 2))
    active = tuple(LatticeVector(_ints(v, "active"))
                   for v in _rows(_field(data, "active"), "active"))
    chamber = Chamber(Z, active)
    dt = data.get("dt", {})
    if not (isinstance(dt, dict) and all(isinstance(k, str) for k in dt)):
        raise ValueError("field 'dt' must map classes to counts")
    table = {}
    for key, val in dt.items():
        coords = _ints(key.split(","), "dt")
        if len(coords) != len(Z):
            raise ValueError(f"field 'dt' class {key!r} has rank {len(coords)}, "
                             f"the chamber has rank {len(Z)}")
        table[coords] = parse_frac(val, "dt")
    return chamber, DTModel.table(table)


def stokes_data_to_json(sd: StokesData) -> dict:
    return {
        "order": list(sd.order),
        "factors": [{"i": i, "j": j, "coefficient": poly_to_json(c)}
                    for (i, j, c) in sd.factors],
        "product": pm_to_json(sd.product),
    }


def solution_to_json(sol: GoodQuiverSolution) -> dict:
    """A good quiver with its parameters and signs, as ``goodness --find-quivers``."""
    return {"params": list(sol.params),
            "arrows": {f"{u}->{v}": poly_to_json(p)
                       for (u, v), p in sol.quiver.arrows},
            "eps": {f"{i},{j}": s for (i, j), s in sol.eps.signs}}


def move_to_json(mv) -> dict:
    """A braid, permutation or sign move as JSON; a braid direction is +1
    or -1 by ``algebra._unit``, and a sign move keeps its form, a 1-based
    index or a vector of signs.  A tuple of another shape is refused by
    ``braid._move_kind``, as a move would refuse it."""
    kind = _move_kind(mv)
    if kind == "braid":
        direction = "+" if _unit(mv[2], "braid direction") > 0 else "-"
        return {"braid": _as_int(mv[1]), "dir": direction}
    if kind == "perm":
        return {"perm": [_as_int(s) for s in mv[1]]}
    return {"sign": _as_int(mv[1]) if np.ndim(mv[1]) == 0
            else [_as_int(s) for s in mv[1]]}


def move_from_json(data: dict):
    """The move written by ``move_to_json``; a braid move without "dir" is
    forward."""
    if not isinstance(data, dict):
        raise ValueError(f"a move must be an object with a 'braid', 'perm' or "
                         f"'sign' field, got {data!r}")
    if "braid" in data:
        direction = data.get("dir", "+")
        if direction not in ("+", "-"):
            raise ValueError(f"field 'dir' must be '+' or '-', got {direction!r}")
        return ("braid", _int_field(data, "braid"), 1 if direction == "+" else -1)
    if "perm" in data:
        return ("perm", _ints(data["perm"], "perm"))
    if "sign" in data:
        sign = data["sign"]
        return ("sign", _ints(sign, "sign") if isinstance(sign, list)
                else _int_field(data, "sign"))
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
