"""JSON forms for every value the CLI reads or writes.

Serialization is canonical: polynomial terms are emitted in graded
lexicographic order, rationals as "p/q" strings (plain integers without the
denominator), matrices row by row.  Identical inputs therefore always give
byte-identical output.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .algebra import Basis, LatticeVector, PolyMatrix, TruncatedPoly
from .braid import EquivalenceCertificate
from .quiver import Quiver
from .stokes import Chamber, DTModel, StokesData


def frac_str(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def poly_to_json(p: TruncatedPoly) -> dict:
    out = {}
    for exps, coeff in sorted(p.terms.items(), key=lambda t: (sum(t[0]), t[0])):
        out[",".join(str(e) for e in exps)] = frac_str(coeff)
    return out


def poly_from_json(data: dict, nvars: int, trunc=None) -> TruncatedPoly:
    terms = {}
    for key, val in data.items():
        exps = tuple(int(e) for e in key.split(",")) if key else ()
        terms[exps] = Fraction(val)
    return TruncatedPoly(nvars, terms, trunc)


def pm_to_json(m: PolyMatrix) -> dict:
    return {"n": m.n,
            "entries": [[poly_to_json(e) for e in row] for row in m.entries]}


def pm_from_json(data: dict, nvars=None, trunc=None) -> PolyMatrix:
    n = int(data["n"])
    nv = n if nvars is None else nvars
    return PolyMatrix(n, [[poly_from_json(cell, nv, trunc) for cell in row]
                          for row in data["entries"]])


def rational_matrix_to_json(m) -> list:
    return [[frac_str(x) for x in row] for row in m]


def rational_matrix_from_json(rows) -> tuple:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def quiver_to_json(q: Quiver) -> dict:
    return {"n": q.n, "arrows": [list(r) for r in q.arrows]}


def quiver_from_json(data: dict) -> Quiver:
    return Quiver(int(data["n"]), tuple(tuple(r) for r in data["arrows"]))


def basis_to_json(b: Basis) -> dict:
    return {"rows": [list(r.coords) for r in b.rows]}


def basis_from_json(data: dict) -> Basis:
    return Basis([tuple(r) for r in data["rows"]])


def chamber_from_json(data: dict) -> Chamber:
    Z = tuple((Fraction(x), Fraction(y)) for x, y in data["Z"])
    active = tuple(LatticeVector(tuple(v)) for v in data["active"])
    return Chamber(Z, active)


def dt_model_from_chamber_json(data: dict) -> DTModel:
    """Table model from a chamber file's "dt" map; signed simples default
    to count 1 unless overridden."""
    table = {}
    for key, val in data.get("dt", {}).items():
        coords = tuple(int(c) for c in key.split(","))
        table[coords] = Fraction(val)
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
