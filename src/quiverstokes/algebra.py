"""Exact lattice, polynomial and matrix arithmetic.

Everything here is exact: lattice vectors have integer coordinates,
polynomial coefficients are rationals of arbitrary precision, and matrix
entries are polynomials.  No floating point is used anywhere.

A ``TruncatedPoly`` is an exact sparse multivariate polynomial in the
variables ``s1, ..., sn``.  Reduction modulo the ideal (s1, ..., sn)^p is a
ring map, so a jet of order p is the exact value reduced once, by
``truncate(p)``; arithmetic never truncates.

A polynomial's terms are checked once, where they enter from outside:
``TruncatedPoly(nvars, terms)`` and the public constructors built on it
check exponent lengths and signs and turn coefficients into Fractions.
Arithmetic trusts operands that are already valid: sums, differences,
negations, products, truncations and scalar coercions wrap the terms they
compute without checking them again.

Every number that enters the package is read by one of five rules, and
every other module calls them rather than ``int()``, ``Fraction()``, a type
test or a comparison of its own:

* ``_as_int``: an integer is an int or numpy integer (not a bool), an
  integral float, or text of plain ASCII digits with an optional sign.
* ``_as_fraction``: a rational is a Fraction, a whole number under
  ``_as_int``, or text ``p`` or ``p/q`` whose parts are integer text and
  q != 0.
* ``_index``: a 1-based index is an integer under ``_as_int`` in 1..n.
* ``_size``: a size, count or bound is an integer under ``_as_int`` of at
  least a given value, and a count is a size of at least 0.
* ``_unit``: a sign or direction is an integer under ``_as_int``, +1 or -1.
"""

from __future__ import annotations

import itertools
import numbers
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable


def _as_int(x) -> int:
    """``x`` as an int when it is a whole number: an int or numpy integer
    (not a bool), an integral float, or a string of plain ASCII digits with
    an optional sign.  Anything else raises ValueError, where int() would
    truncate 1.5 and read True, '1_0', ' 7 ' or a non-ASCII digit."""
    if type(x) is int:
        return x
    if isinstance(x, numbers.Integral) and not isinstance(x, bool):
        return int(x)
    if isinstance(x, float) and x.is_integer():
        return int(x)
    if isinstance(x, str) and re.fullmatch(r"[+-]?[0-9]+", x):
        return int(x)
    raise ValueError(f"not an integer: {x!r}")


def _as_fraction(x) -> Fraction:
    """``x`` as a Fraction when it is an exact rational: a Fraction, a whole
    number under ``_as_int``, or text ``p`` or ``p/q`` whose parts are
    integer text under ``_as_int`` and q != 0.  Other text raises
    ValueError; any other value, a non-integral float or a bool say, raises
    TypeError.  A Fraction and an int, the values the package builds
    itself, are answered before the abstract-base-class tests."""
    if type(x) is Fraction:
        return x
    if type(x) is int:
        return Fraction(x)
    if isinstance(x, Fraction):
        return x
    if not isinstance(x, str):
        try:
            return Fraction(_as_int(x))
        except ValueError:
            raise TypeError(f"not an exact rational: {x!r}") from None
    p, slash, q = x.partition("/")
    try:
        p, q = _as_int(p), (_as_int(q) if slash else 1)
    except ValueError:
        raise ValueError(f"not a rational: {x!r}") from None
    if q == 0:
        raise ValueError(f"zero denominator: {x!r}")
    return Fraction(p, q)


def _index(k, n: int, what: str) -> int:
    """``k`` as a 1-based index into 1..n: an integer under ``_as_int``; a
    ValueError naming ``what`` when it lies outside 1..n."""
    k = _as_int(k)
    if not 1 <= k <= n:
        raise ValueError(f"{what} {k} out of range 1..{n}")
    return k


def _size(k, least: int, what: str) -> int:
    """``k`` as an integer under ``_as_int`` that is at least ``least``; a
    one-line ValueError naming ``what`` otherwise."""
    try:
        k = _as_int(k)
    except ValueError:
        raise ValueError(f"{what} is not an integer: {k!r}") from None
    if k < least:
        raise ValueError(f"{what} must be at least {least}, got {k}")
    return k


def _unit(x, what: str) -> int:
    """``x`` as +1 or -1: an integer under ``_as_int``; a one-line
    ValueError naming ``what`` otherwise."""
    try:
        x = _as_int(x)
    except ValueError:
        raise ValueError(f"{what} must be +1 or -1, got {x!r}") from None
    if x not in (1, -1):
        raise ValueError(f"{what} must be +1 or -1, got {x}")
    return x


# ---------------------------------------------------------------------------
# Lattice vectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatticeVector:
    """An integer class in the rank-n lattice spanned by the simple classes."""

    coords: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(_as_int(c) for c in self.coords))

    @property
    def rank(self) -> int:
        return len(self.coords)

    def __add__(self, other: "LatticeVector") -> "LatticeVector":
        self._check(other)
        return LatticeVector(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "LatticeVector") -> "LatticeVector":
        self._check(other)
        return LatticeVector(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "LatticeVector":
        return LatticeVector(tuple(-a for a in self.coords))

    def _check(self, other: "LatticeVector") -> None:
        if len(self.coords) != len(other.coords):
            raise ValueError("lattice vectors of different rank")

    def is_zero(self) -> bool:
        return not any(self.coords)


def lv(*coords: int) -> LatticeVector:
    return LatticeVector(tuple(coords))


def lv_len(v: LatticeVector) -> int:
    """Sum of absolute values of the coordinates."""
    return sum(abs(a) for a in v.coords)


def lv_monomial(v: LatticeVector) -> "TruncatedPoly":
    """The monomial with exponent vector (|a1|, ..., |an|) and coefficient 1."""
    exps = tuple(abs(a) for a in v.coords)
    return TruncatedPoly.monomial(len(v.coords), exps, Fraction(1))


# ---------------------------------------------------------------------------
# Sparse polynomials
# ---------------------------------------------------------------------------

def _add_product(terms: dict, left: dict, right: dict) -> dict:
    """Add the product of the terms ``left`` and ``right`` into ``terms``,
    dropping coefficients that cancel; returns ``terms``."""
    for e1, c1 in left.items():
        for e2, c2 in right.items():
            e = tuple(map(operator.add, e1, e2))
            c = c1 * c2
            v = terms.get(e)
            if v is None:
                terms[e] = c
                continue
            v += c
            if v:
                terms[e] = v
            else:
                del terms[e]
    return terms


class TruncatedPoly:
    """Exact sparse polynomial over Q.

    ``terms`` maps exponent tuples to nonzero Fraction coefficients.  The
    instance is treated as immutable; do not mutate ``terms`` in place.
    ``truncate(p)`` keeps the terms of total degree < p, and its result is
    again an exact polynomial: arithmetic and braid moves on a jet treat it
    as the polynomial it prints as, not as a class mod (s1, ..., sn)^p.

    The constructor is the one place that validates terms: exponent tuples
    of length ``nvars`` with nonnegative ``int`` entries, coefficients
    converted to Fractions, zero coefficients dropped.  Arithmetic results
    are built from valid operands by ``_from_valid`` and not checked again.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict):
        self.nvars = _size(nvars, 0, "variable count")
        clean: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in terms.items():
            exps = tuple(_size(e, 0, "exponent") for e in exps)
            if len(exps) != self.nvars:
                raise ValueError("exponent vector has wrong length")
            coeff = _as_fraction(coeff)
            if coeff == 0:
                continue
            clean[exps] = coeff
        self.terms = clean

    @classmethod
    def _from_valid(cls, nvars: int, terms: dict) -> "TruncatedPoly":
        """Wrap ``terms`` without a check or a copy.

        ``terms`` must already be valid: exponent tuples of length ``nvars``
        with nonnegative ``int`` entries and nonzero Fraction coefficients,
        as every result of arithmetic on valid polynomials is.
        """
        poly = object.__new__(cls)
        poly.nvars = nvars
        poly.terms = terms
        return poly

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "TruncatedPoly":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, c) -> "TruncatedPoly":
        return cls(nvars, {(0,) * nvars: _as_fraction(c)})

    @classmethod
    def one(cls, nvars: int) -> "TruncatedPoly":
        return cls.constant(nvars, 1)

    @classmethod
    def variable(cls, nvars: int, i: int) -> "TruncatedPoly":
        """The variable s_i (1-based)."""
        i = _index(i, nvars, "variable")
        exps = tuple(1 if j == i - 1 else 0 for j in range(nvars))
        return cls(nvars, {exps: Fraction(1)})

    @classmethod
    def monomial(cls, nvars: int, exps: Iterable[int], coeff=1) -> "TruncatedPoly":
        return cls(nvars, {tuple(exps): _as_fraction(coeff)})

    # -- ring operations ----------------------------------------------------

    def _coerce(self, other) -> "TruncatedPoly":
        if isinstance(other, TruncatedPoly):
            if other.nvars != self.nvars:
                raise ValueError("variable-count mismatch")
            return other
        c = _as_fraction(other)
        return TruncatedPoly._from_valid(self.nvars,
                                         {(0,) * self.nvars: c} if c else {})

    def _merge(self, other, subtract: bool) -> "TruncatedPoly":
        """self + other, or self - other, in one pass over other's terms."""
        terms = dict(self.terms)
        for e, c in self._coerce(other).terms.items():
            v = terms.get(e)
            if v is None:
                terms[e] = -c if subtract else c
                continue
            v = v - c if subtract else v + c
            if v:
                terms[e] = v
            else:
                del terms[e]
        return TruncatedPoly._from_valid(self.nvars, terms)

    def __add__(self, other) -> "TruncatedPoly":
        return self._merge(other, False)

    __radd__ = __add__

    def __neg__(self) -> "TruncatedPoly":
        return TruncatedPoly._from_valid(self.nvars,
                                         {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "TruncatedPoly":
        return self._merge(other, True)

    def __rsub__(self, other) -> "TruncatedPoly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "TruncatedPoly":
        if not isinstance(other, TruncatedPoly):
            c = _as_fraction(other)
            return TruncatedPoly._from_valid(
                self.nvars, {e: v * c for e, v in self.terms.items()} if c else {})
        other = self._coerce(other)
        return TruncatedPoly._from_valid(self.nvars,
                                         _add_product({}, self.terms, other.terms))

    __rmul__ = __mul__

    def _plus_product(self, a: "TruncatedPoly", b: "TruncatedPoly") -> "TruncatedPoly":
        """self + a * b in one pass, for valid operands of one variable
        count: no intermediate product is built."""
        return TruncatedPoly._from_valid(
            self.nvars, _add_product(dict(self.terms), a.terms, b.terms))

    # -- queries ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        # a polynomial first: it never reaches the abstract-base-class test
        if isinstance(other, TruncatedPoly):
            return self.nvars == other.nvars and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == ({(0,) * self.nvars: other} if other else {})
        return NotImplemented

    def __hash__(self):
        # a constant equals its scalar (see __eq__), so it hashes as one
        if self.degree() <= 0:
            return hash(self.constant_term())
        return hash((self.nvars, self.key()))

    def key(self):
        """Canonical graded-lexicographic term tuple; stable sort key."""
        return tuple(sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0])))

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.nvars, Fraction(0))

    def truncate(self, p: int) -> "TruncatedPoly":
        """The terms of total degree < p: the image mod (s1, ..., sn)^p."""
        kept = {e: c for e, c in self.terms.items() if sum(e) < p}
        return (self if len(kept) == len(self.terms)
                else TruncatedPoly._from_valid(self.nvars, kept))

    def evaluate(self, point) -> Fraction:
        pt = [_as_fraction(x) for x in point]
        if len(pt) != self.nvars:
            raise ValueError("point has wrong length")
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            v = coeff
            for x, e in zip(pt, exps):
                if e:
                    v *= x ** e
            total += v
        return total

    # -- display ------------------------------------------------------------

    def text(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for exps, coeff in self.key():
            mono = "*".join(f"s{i + 1}" if e == 1 else f"s{i + 1}^{e}"
                            for i, e in enumerate(exps) if e)
            if not mono:
                bits.append(str(coeff))
            elif coeff == 1:
                bits.append(mono)
            elif coeff == -1:
                bits.append(f"-{mono}")
            else:
                bits.append(f"{coeff}*{mono}")
        out = bits[0]
        for b in bits[1:]:
            out += f" - {b[1:]}" if b.startswith("-") else f" + {b}"
        return out

    def __repr__(self):
        return f"TruncatedPoly({self.text()!r})"


# ---------------------------------------------------------------------------
# Square matrices of polynomials
# ---------------------------------------------------------------------------

class PolyMatrix:
    """n x n matrix with TruncatedPoly entries sharing one variable count."""

    __slots__ = ("n", "nvars", "entries")

    def __init__(self, entries):
        n = _size(len(entries), 1, "matrix size")
        if any(len(row) != n for row in entries):
            raise ValueError("entries must be an n x n array")
        self.n = n
        self.nvars = entries[0][0].nvars
        for row in entries:
            for e in row:
                if e.nvars != self.nvars:
                    raise ValueError("variable-count mismatch inside matrix")
        self.entries = [list(row) for row in entries]

    @classmethod
    def identity(cls, n: int, nvars: int) -> "PolyMatrix":
        nvars, n = _size(nvars, 0, "variable count"), _size(n, 1, "matrix size")
        one = TruncatedPoly._from_valid(nvars, {(0,) * nvars: Fraction(1)})
        zero = TruncatedPoly._from_valid(nvars, {})
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def elementary(cls, n: int, i: int, j: int, coeff: TruncatedPoly) -> "PolyMatrix":
        """I + coeff * E_ij with 1-based positions, i != j."""
        m = cls.identity(n, coeff.nvars)
        i, j = _index(i, m.n, "row"), _index(j, m.n, "column")
        if i == j:
            raise ValueError("elementary position must be off-diagonal")
        m.entries[i - 1][j - 1] = m.entries[i - 1][j - 1] + coeff
        return m

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.n == other.n and self.entries == other.entries

    def __hash__(self):
        return hash(self.key())

    def key(self):
        return tuple(self.entries[i][j].key()
                     for i in range(self.n) for j in range(self.n))

    def __mul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        n = self.n
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = None
                for k in range(n):
                    a = self.entries[i][k]
                    b = other.entries[k][j]
                    if a.is_zero() or b.is_zero():
                        continue
                    term = a * b
                    acc = term if acc is None else acc + term
                if acc is None:
                    acc = TruncatedPoly._from_valid(self.nvars, {})
                row.append(acc)
            rows.append(row)
        return PolyMatrix(rows)

    def truncate(self, p: int) -> "PolyMatrix":
        """Every entry reduced mod (s1, ..., sn)^p."""
        return PolyMatrix([[e.truncate(p) for e in row] for row in self.entries])

    def evaluate(self, point) -> tuple:
        """Evaluate every entry; returns a tuple-of-tuples of Fractions."""
        return tuple(tuple(e.evaluate(point) for e in row) for row in self.entries)

    def is_unipotent_wrt(self, order) -> bool:
        """Unit diagonal, and entry (i, j) = 0 whenever i comes after j in order.

        ``order`` lists 1-based indices from leftmost (first factor) position
        to rightmost; entry (order[a], order[b]) with a > b must vanish.
        """
        pos = {v - 1: k for k, v in enumerate(order)}
        for i in range(self.n):
            if self.entries[i][i] != 1:
                return False
            for j in range(self.n):
                if i != j and pos[i] > pos[j] and not self.entries[i][j].is_zero():
                    return False
        return True

    def text(self) -> str:
        return _grid_text([[e.text() for e in row] for row in self.entries])

    def __repr__(self):
        return f"PolyMatrix(n={self.n})\n{self.text()}"


def _grid_text(cells) -> str:
    """Rows of text cells as a bracketed grid, right-aligned to the widest."""
    width = max(len(c) for row in cells for c in row)
    return "\n".join("[ " + "  ".join(c.rjust(width) for c in row) + " ]"
                     for row in cells)


def joyce_point(nvars: int) -> list[Fraction]:
    """The distinguished evaluation point s1 = ... = sn = 1."""
    return [Fraction(1)] * _size(nvars, 1, "variable count")


def _linear_extensions(n: int, positions: Iterable[tuple[int, int]]):
    """Every order of 1..n putting i before j for each position (i, j), in
    lexicographic order: a depth-first walk placing a ready index (no
    unplaced predecessor) at each step, smallest first.  With a cycle or a
    self-loop every walk stops short, and the first one ends the search."""
    positions = set(positions)
    pred = {j: {i for (i, k) in positions if k == j} for j in range(1, n + 1)}

    def walk(order, left):
        ready = [v for v in sorted(left) if pred[v].isdisjoint(left)]
        if not ready:
            yield order
        for v in ready:
            yield from walk(order + (v,), left - {v})

    yield from itertools.takewhile(lambda o: len(o) == n, walk((), set(pred)))


def _index_order(n: int, positions: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """The lexicographically least order of 1..n putting i before j for each
    position (i, j), so a function of the set of positions alone."""
    order = next(_linear_extensions(n, positions), None)
    if order is None:
        raise ValueError("factor positions contain a cycle; no unipotent order")
    return order


# ---------------------------------------------------------------------------
# Bases of the lattice
# ---------------------------------------------------------------------------

class Basis:
    """An ordered tuple of n rank-n lattice vectors, independent over Q."""

    __slots__ = ("rows", "_det", "_inv")

    def __init__(self, rows):
        rows = tuple(r if isinstance(r, LatticeVector) else LatticeVector(tuple(r))
                     for r in rows)
        n = _size(len(rows), 1, "rank n")
        if any(r.rank != n for r in rows):
            raise ValueError("basis rows must be square")
        self.rows = rows
        self._det, self._inv = _gauss_jordan(self.matrix())
        if self._det == 0:
            raise ValueError("basis rows are linearly dependent")

    @property
    def n(self) -> int:
        return len(self.rows)

    def __getitem__(self, i: int) -> LatticeVector:
        """1-based access to the i-th basis vector."""
        return self.rows[_index(i, len(self.rows), "basis index") - 1]

    def __eq__(self, other):
        return isinstance(other, Basis) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def diff(self, i: int, j: int) -> LatticeVector:
        """alpha_i - alpha_j (1-based)."""
        n = len(self.rows)
        return (self.rows[_index(i, n, "basis index") - 1]
                - self.rows[_index(j, n, "basis index") - 1])

    def matrix(self) -> list[list[Fraction]]:
        return [[Fraction(c) for c in r.coords] for r in self.rows]

    def det(self) -> Fraction:
        """The determinant found by the elimination at construction."""
        return self._det

    def inverse(self) -> list[list[Fraction]]:
        """A copy of the inverse found by the elimination at construction."""
        return [row[:] for row in self._inv]

    @classmethod
    def triangular(cls, n: int) -> "Basis":
        """alpha_i = sum of the simple classes with index >= i."""
        n = _size(n, 1, "rank n")
        return cls([tuple(1 if j >= i else 0 for j in range(n)) for i in range(n)])

    @classmethod
    def alternating(cls, n: int) -> "Basis":
        """alpha_i = (-1)^(i-1) [S_i] + [S_n] for i < n, alpha_n = [S_n]."""
        n = _size(n, 1, "rank n")
        rows = []
        for i in range(1, n):
            row = [0] * n
            row[i - 1] = 1 if i % 2 == 1 else -1
            row[n - 1] += 1
            rows.append(tuple(row))
        rows.append(tuple(1 if j == n - 1 else 0 for j in range(n)))
        return cls(rows)

    def __repr__(self):
        return f"Basis({[r.coords for r in self.rows]})"


def _gauss_jordan(m: list[list[Fraction]]):
    """(det m, m^-1) from one Gauss-Jordan elimination; the inverse is None
    when m is singular."""
    n = len(m)
    a = [row[:] + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
         for i, row in enumerate(m)]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0), None
        if piv != col:
            a[piv], a[col] = a[col], a[piv]
            det = -det
        pivot = a[col][col]
        det *= pivot
        if pivot != 1:
            a[col] = [x / pivot for x in a[col]]
        row = a[col]
        for r in range(n):
            g = a[r][col]
            if r != col and g:
                a[r] = [x - g * y if y else x for x, y in zip(a[r], row)]
    return det, [row[n:] for row in a]
