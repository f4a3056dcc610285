"""Command line interface.

Commands:
  mutate        apply a mutation word to a quiver
  goodness      run the quadratic and vanishing checks for a basis
  stokes        ordered factor product for (quiver, basis, chamber)
  equiv         bounded braid-orbit search from one matrix to others
  verify-paper  replay the bundled reference dataset

All configuration is by flags; identical inputs give byte-identical output.
Input the library rejects ends in one line on stderr and exit code 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .algebra import _as_int, _grid_text, joyce_point
from .braid import orbit_search
from .goodness import (check_quadratic, check_vanishing_p3, find_good_quivers,
                       mutation_basis)
from .quiver import apply_word, euler_form
from .serialize import (_ints, basis_from_json, certificate_to_json, chamber_from_json,
                        dumps, frac_str, parse_frac, quiver_from_json, quiver_to_json,
                        rational_matrix_from_json, rational_matrix_to_json,
                        solution_to_json, stokes_data_to_json)
from .stokes import auto_stokes, stokes_product
from . import verify as verify_mod


def _read_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror or exc}") from None


def _parse_word(text: str) -> tuple:
    """Comma-separated vertices, optionally in brackets; each item must be
    one integer, so spaces never join two vertices."""
    text = text.strip().strip("[]").strip()
    if not text:
        return ()
    return _ints([t.strip() for t in text.split(",")], "--word")


def integer(text: str) -> int:
    """A flag's value by the one integer rule, ``algebra._as_int``; argparse
    names the function in its usage error, "invalid integer value"."""
    return _as_int(text)


def _parse_point(text: str, n: int):
    if text == "sJ":
        return joyce_point(n)
    if text == "0":
        return [Fraction(0)] * n
    parts = text.split(",")
    if n > 1 and len(parts) == 1:
        raise ValueError(f"field '--eval' must be sJ, 0 or {n} comma-separated "
                         f"rationals, got {text!r}")
    if len(parts) != n:
        raise ValueError(f"evaluation point needs {n} coordinates")
    return [parse_frac(p, "--eval") for p in parts]


def cmd_mutate(args) -> int:
    q = quiver_from_json(_read_json(args.quiver))
    out = quiver_to_json(apply_word(q, _parse_word(args.word)))
    _emit(args, out, lambda: dumps(out))
    return 0


def cmd_goodness(args) -> int:
    q = quiver_from_json(_read_json(args.quiver))
    basis = basis_from_json(_read_json(args.basis))
    vanishing = check_vanishing_p3(basis)
    quadratic = check_quadratic(basis, euler_form(q), args.p)
    out = {
        "p": args.p,
        "quadratic_ok": not quadratic,
        "vanishing_ok": not vanishing,
        "violations": [{"kind": kind, "indices": list(idx), "detail": detail}
                       for (kind, idx, detail) in vanishing + quadratic],
    }
    if args.find_quivers:
        out["good_quivers"] = [solution_to_json(sol) for sol in
                               find_good_quivers(basis, args.lam, args.p)]
    _emit(args, out, lambda: dumps(out))
    return 0


def cmd_stokes(args) -> int:
    q = quiver_from_json(_read_json(args.quiver))
    if args.basis == "auto":
        basis = mutation_basis(q)
    else:
        basis = basis_from_json(_read_json(args.basis))
    if args.chamber == "auto":
        data = auto_stokes(q, basis, args.p)
    else:
        chamber, dt = chamber_from_json(_read_json(args.chamber))
        data = stokes_product(basis, euler_form(q), dt, chamber, args.p)
    out = stokes_data_to_json(data)
    if args.eval is not None:
        point = _parse_point(args.eval, q.n)
        ev = data.product.evaluate(point)
        out["evaluated_at"] = [frac_str(x) for x in point]
        out["evaluation"] = rational_matrix_to_json(ev)

    def text():
        bits = ["order: " + " ".join(str(i) for i in data.order),
                data.product.text()]
        if args.eval is not None:
            bits.append(f"at ({', '.join(out['evaluated_at'])}):")
            bits.append(_grid_text(out["evaluation"]))
        return "\n".join(bits) + "\n"

    _emit(args, out, text)
    return 0


def cmd_equiv(args) -> int:
    s1 = rational_matrix_from_json(_read_json(args.matrix1))
    targets = [rational_matrix_from_json(_read_json(path)) for path in args.matrix2]
    outs, texts = [], []
    for s2 in targets:
        res = orbit_search(s1, s2, depth=args.depth, entry_bound=args.entry_bound)
        if res.certificate is not None:
            out = certificate_to_json(res.certificate)
            out["status"] = res.status
            moves = " ".join(json.dumps(m) for m in out["word"])
            texts.append(f"found ({len(out['word'])} moves): {moves}\n"
                         f"verified: {out['verified']}\n")
        else:
            out = {"status": res.status, "depth_reached": res.depth_reached,
                   "states": res.states, "pruned": res.pruned}
            texts.append(f"{res.status}: no certificate within depth "
                         f"{args.depth} and entry bound {args.entry_bound} "
                         f"({res.states} states seen)\n")
        outs.append(out)

    if len(targets) == 1:
        _emit(args, outs[0], lambda: texts[0])
    else:
        _emit(args, outs, lambda: "".join(
            f"{path}: {text}" for path, text in zip(args.matrix2, texts)))
    return 0


def cmd_verify_paper(args) -> int:
    lines = verify_mod.run_scope(args.scope)
    ok = all(l.ok for l in lines)
    out = {
        "scope": args.scope,
        "ok": ok,
        "checks": [{"id": l.id, "ok": l.ok,
                    **({"detail": l.detail} if not l.ok else {}),
                    **({"note": l.note} if l.note else {})}
                   for l in lines],
    }

    def text():
        body = "\n".join(l.render() for l in lines)
        summary = f"\n{sum(l.ok for l in lines)}/{len(lines)} checks passed\n"
        return body + summary

    _emit(args, out, text)
    return 0 if ok else 1


def _emit(args, payload, text_fn) -> None:
    if args.format == "json":
        sys.stdout.write(dumps(payload))
    else:
        sys.stdout.write(text_fn())


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="quiverstokes", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("mutate", help="apply a mutation word to a quiver")
    p.add_argument("quiver", help="quiver JSON file")
    p.add_argument("--word", default="", help="comma-separated vertices, applied left to right")
    common(p)
    p.set_defaults(fn=cmd_mutate)

    p = sub.add_parser("goodness", help="quadratic and vanishing checks")
    p.add_argument("quiver")
    p.add_argument("basis")
    p.add_argument("--p", type=integer, default=3)
    p.add_argument("--lambda", dest="lam", type=integer, default=1,
                   help="scale for the good-quiver search")
    p.add_argument("--find-quivers", action="store_true",
                   help="also list the quivers making the basis good")
    common(p)
    p.set_defaults(fn=cmd_goodness)

    p = sub.add_parser("stokes", help="ordered Stokes factor product")
    p.add_argument("quiver")
    p.add_argument("--basis", default="auto", help="basis JSON file or 'auto'")
    p.add_argument("--chamber", default="auto", help="chamber JSON file or 'auto'")
    p.add_argument("--p", type=integer, default=None,
                   help="truncation order p >= 1: drop the factors of classes of "
                        "length >= p and reduce the product mod (s)^p once "
                        "(omit for the exact product)")
    p.add_argument("--eval", default=None, metavar="sJ|0|x1,...,xn",
                   help="also evaluate the product at a rational point")
    common(p)
    p.set_defaults(fn=cmd_stokes)

    p = sub.add_parser("equiv", help="braid-orbit search from one matrix to others")
    p.add_argument("matrix1", help="rational matrix JSON file: the source")
    p.add_argument("matrix2", nargs="+",
                   help="one or more target matrix JSON files, searched in order")
    p.add_argument("--depth", type=integer, default=12)
    p.add_argument("--entry-bound", type=integer, default=64)
    common(p)
    p.set_defaults(fn=cmd_equiv)

    p = sub.add_parser("verify-paper", help="replay the bundled reference dataset")
    p.add_argument("scope", nargs="?", default="all",
                   choices=tuple(verify_mod.SCOPES))
    common(p)
    p.set_defaults(fn=cmd_verify_paper)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        # malformed input: one line on stderr, the exit code of a usage error
        sys.stderr.write(f"quiverstokes: error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
