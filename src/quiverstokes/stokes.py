"""Chambers, elementary factors, and ordered Stokes products.

A chamber is a rational central charge Z together with the list of active
classes (those carrying a nonzero count for that Z).  Each active class that
occurs as a difference alpha_i - alpha_j of basis vectors contributes an
elementary unipotent factor

    S_ij = I - (-1)^<a_i, a_j> <a_i, a_j> * dt(a_i - a_j) * s^(a_i - a_j) E_ij,

attached to the ray of Z(alpha_i - alpha_j).  The Stokes matrix is the
product of these factors over rays in the semi-closed upper half plane,
ordered clockwise: strictly decreasing argument in (0, pi], leftmost factor
first.  All ray comparisons are exact sign tests: every charge is scaled
once by the least common multiple of its denominators, which keeps every
argument, and rays are compared by integer dot and cross products.  A
chamber holds its active classes once, sorted clockwise when it is built
(``ray_order`` is that sort), and every product over it reads that order.
Within one call, each factor coefficient is built once; a set of chambers
shares one product table, which multiplies out each distinct ordered
factor sequence once.

The linear-quiver chambers come from one exact integer array pass over all
sampled charges: prefix sums give every interval ray, and one tensor of
cross products gives every stability test, collision and clockwise rank.
The pass runs on int64 when a bound proves that no cross product wraps, and
on Python ints (``dtype=object``) otherwise, through the same code.  Each
distinct chamber is built once, from values the pass has checked, and is
not checked a second time.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Optional

import numpy as np

from .algebra import (Basis, LatticeVector, PolyMatrix, TruncatedPoly,
                      _as_fraction, _as_int, _index, _index_order, _size,
                      lv_len, lv_monomial)
from .quiver import EulerForm, Quiver, euler_form, linear_quiver


class RayCollision(ValueError):
    pass


class ChamberError(ValueError):
    pass


class LiftDisagreement(ValueError):
    """Chamber products that should agree below an order do not."""


# ---------------------------------------------------------------------------
# Counting models
# ---------------------------------------------------------------------------

def _canon_class(v: LatticeVector) -> LatticeVector:
    for c in v.coords:
        if c > 0:
            return v
        if c < 0:
            return -v
    return v


def _is_interval(v: LatticeVector) -> bool:
    """Whether the canonical class v is a run of consecutive ones."""
    idx = [k for k, c in enumerate(v.coords) if c]
    return (bool(idx) and all(v.coords[k] == 1 for k in idx)
            and idx == list(range(idx[0], idx[-1] + 1)))


class DTModel:
    """Rational counts attached to lattice classes, symmetric under negation.

    ``dt`` hands its function the canonical class of +-v, the one whose
    first nonzero coordinate is positive.  Kinds: ``an-intervals`` (1 on
    signed consecutive-run classes), ``table`` (explicit values; signed
    simple classes default to 1 unless overridden), and
    ``quiver-extensions`` (1 on simples, (-1)^(lam-1) * lam on signed sums
    of two simples joined by lam arrows).
    """

    def __init__(self, kind: str, fn: Callable[[LatticeVector], Fraction]):
        self.kind = kind
        self._fn = fn

    def dt(self, v: LatticeVector) -> Fraction:
        if v.is_zero():
            raise ValueError("the zero class carries no count")
        return self._fn(_canon_class(v))

    @classmethod
    def an_intervals(cls) -> "DTModel":
        return cls("an-intervals",
                   lambda v: Fraction(1) if _is_interval(v) else Fraction(0))

    @classmethod
    def table(cls, mapping: dict) -> "DTModel":
        tab = {}
        for key, val in mapping.items():
            vec = key if isinstance(key, LatticeVector) else LatticeVector(tuple(key))
            tab[_canon_class(vec).coords] = _as_fraction(val)

        def fn(v: LatticeVector) -> Fraction:
            if v.coords in tab:
                return tab[v.coords]
            if lv_len(v) == 1:
                return Fraction(1)
            return Fraction(0)

        return cls("table", fn)

    @classmethod
    def from_quiver_extensions(cls, q: Quiver) -> "DTModel":
        """1 on simples; (-1)^(lam-1) * lam on signed two-simple sums with
        lam arrows between the supports; 0 elsewhere."""

        def fn(v: LatticeVector) -> Fraction:
            if lv_len(v) == 1:
                return Fraction(1)
            idx = [k for k, c in enumerate(v.coords) if c]
            if len(idx) == 2 and all(v.coords[k] == 1 for k in idx):
                lam = q.arrows_between(idx[0] + 1, idx[1] + 1)
                return Fraction((-1) ** (lam - 1) * lam) if lam else Fraction(0)
            return Fraction(0)

        return cls("quiver-extensions", fn)


# ---------------------------------------------------------------------------
# Exact ray geometry
# ---------------------------------------------------------------------------

def _in_upper(x, y):
    """Membership in the semi-closed upper half plane {y > 0} u {y = 0, x < 0},
    of one integer point or elementwise over integer arrays."""
    return (y > 0) | ((y == 0) & (x < 0))


def _cross(a: tuple, b: tuple) -> int:
    """a x b for integer rays: negative when arg(a) > arg(b), 0 on one ray."""
    return a[0] * b[1] - a[1] * b[0]


def _read_charge(Z) -> tuple:
    """(Z, zint): the charge read as exact rationals by ``_as_fraction``,
    and D * Z as ints, with D the lcm of its denominators: scaling by D > 0
    keeps every argument, so every ray test uses the integers."""
    Z = tuple((_as_fraction(x), _as_fraction(y)) for x, y in Z)
    scale = math.lcm(*(c.denominator for z in Z for c in z))
    return Z, tuple((x.numerator * (scale // x.denominator),
                     y.numerator * (scale // y.denominator)) for x, y in Z)


def _clockwise(rays: list) -> list:
    """The classes of (LatticeVector, integer ray) pairs by strictly
    decreasing argument in (0, pi].

    A comparison sort compares every two entries that end up adjacent, so
    two classes on one ray always meet, and raise RayCollision.  One cross
    product decides a comparison: zero collides, negative puts a first.
    """
    def cmp(a, b):
        cross = _cross(a[1], b[1])
        if cross == 0:
            raise RayCollision(
                f"classes {a[0].coords} and {b[0].coords} lie on the same ray")
        return -1 if cross < 0 else 1

    return [v for v, _ in sorted(rays, key=functools.cmp_to_key(cmp))]


@dataclass(frozen=True)
class Chamber:
    """A central charge plus the list of active classes for it.

    Z is a tuple of (x, y) Gaussian rationals, one per simple class; every
    Z_i must lie in the semi-closed upper half plane.  Active classes are
    recorded with their ray in the upper half plane and must have pairwise
    distinct rays.  Rays are compared on the charge scaled to integers by
    the lcm of its denominators; ``Z`` keeps the exact rationals.
    ``active`` is held clockwise, sorted once at construction; the given
    order is not kept.
    """

    Z: tuple
    active: tuple
    _zint: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        Z, zint = _read_charge(self.Z)
        _size(len(Z), 1, "rank n")
        object.__setattr__(self, "Z", Z)
        object.__setattr__(self, "_zint", zint)
        act = tuple(v if isinstance(v, LatticeVector) else LatticeVector(tuple(v))
                    for v in self.active)
        for x, y in zint:
            if not _in_upper(x, y):
                raise ChamberError("central charge leaves the upper half plane")
        rays = []
        for v in act:
            if v.is_zero():
                raise ChamberError("zero class marked active")
            x, y = self._ray(v)
            if (x, y) == (0, 0):
                raise ChamberError(f"active class {v.coords} has Z = 0")
            if not _in_upper(x, y):
                raise ChamberError(
                    f"active class {v.coords} has its ray outside the upper half plane")
            rays.append((v, (x, y)))
        object.__setattr__(self, "active", tuple(_clockwise(rays)))

    @classmethod
    def _from_valid(cls, Z: tuple, active: tuple, zint: tuple) -> "Chamber":
        """Wrap values already checked, without a check or a copy.

        ``Z`` and ``zint`` must be as ``_read_charge`` gives them, with Z in
        the semi-closed upper half plane; ``active`` LatticeVectors whose
        rays lie in the upper half plane, pairwise on distinct rays, in
        clockwise order.
        """
        chamber = object.__new__(cls)
        object.__setattr__(chamber, "Z", Z)
        object.__setattr__(chamber, "active", active)
        object.__setattr__(chamber, "_zint", zint)
        return chamber

    @property
    def n(self) -> int:
        return len(self.Z)

    def _ray(self, v: LatticeVector) -> tuple[int, int]:
        """Z(v) scaled by the charge's common denominator, as integers."""
        if len(v.coords) != len(self._zint):
            raise ChamberError(f"class {v.coords} has rank {len(v.coords)}, "
                               f"the chamber has rank {len(self._zint)}")
        x = y = 0
        for c, (zx, zy) in zip(v.coords, self._zint):
            if c:
                x += c * zx
                y += c * zy
        return x, y


def ray_order(chamber: Chamber, classes: Iterable[LatticeVector]) -> list[LatticeVector]:
    """Sort classes by strictly decreasing argument of their ray in (0, pi].

    The classes are sorted as a chamber's actives, each negated first when
    its ray lies in the lower half plane.  Raises RayCollision when two
    inputs share a ray and ChamberError when a class has Z = 0 or the wrong
    rank.
    """
    fixed = []
    for v in classes:
        v = v if isinstance(v, LatticeVector) else LatticeVector(tuple(v))
        x, y = chamber._ray(v)
        if (x, y) == (0, 0):
            raise ChamberError(f"class {v.coords} has Z = 0")
        fixed.append(v if _in_upper(x, y) else -v)
    return list(Chamber(chamber.Z, tuple(fixed)).active)


# ---------------------------------------------------------------------------
# Elementary factors and their ordered products
# ---------------------------------------------------------------------------

def factor_coefficient(i: int, j: int, basis: Basis, e: EulerForm,
                       dt) -> TruncatedPoly:
    """-(-1)^<a_i,a_j> <a_i,a_j> dt s^(a_i - a_j), the E_ij coefficient of
    the factor S_ij (1-based i != j)."""
    dt = _as_fraction(dt)
    x = e.pairing(basis[i], basis[j])
    sign = 1 if x % 2 == 0 else -1
    c = Fraction(-sign * x) * dt
    return lv_monomial(basis.diff(i, j)) * c


@dataclass
class StokesData:
    """An ordered factorization and its product.

    ``order`` is a permutation of 1..n (leftmost rows first) with respect to
    which the product is unipotent upper triangular; ``factors`` lists
    (i, j, coefficient) from the leftmost factor to the rightmost.
    """

    order: tuple[int, ...]
    factors: list
    product: PolyMatrix

    def factor_positions(self) -> list[tuple[int, int]]:
        return [(i, j) for (i, j, _) in self.factors]


class _Factors:
    """The elementary factors of one basis, Euler form, count model and
    truncation order, shared by the chambers of one call: each difference
    alpha_i - alpha_j is looked up by its coordinates, and the factor of a
    difference some chamber holds is built once.  The differences are
    distinct, because the rows of a basis are independent.  The order p
    only selects factors: a class of length >= p has a coefficient of
    degree >= p, which vanishes mod (s)^p."""

    def __init__(self, basis: Basis, e: EulerForm, model: DTModel,
                 p: Optional[int]):
        p = None if p is None else _size(p, 1, "truncation order")
        self.basis, self.e, self.model, self.p = basis, e, model, p
        rows = [r.coords for r in basis.rows]
        self.diffs = {tuple(a - b for a, b in zip(rows[i - 1], rows[j - 1])): (i, j)
                      for i, j in itertools.permutations(range(1, basis.n + 1), 2)}
        # (i, j) -> coefficient, or None for a factor dropped at order p
        self.coeffs = {}

    def _coefficient(self, i: int, j: int) -> Optional[TruncatedPoly]:
        d = self.basis.diff(i, j)
        if self.p is not None and lv_len(d) >= self.p:
            return None
        dt = self.model.dt(d)
        if dt == 0:
            raise ChamberError(
                f"active class {d.coords} has zero count under the model")
        return factor_coefficient(i, j, self.basis, self.e, dt)

    def ordered(self, chamber: Chamber) -> list:
        """The chamber's factors (i, j, coefficient) in its clockwise order,
        leftmost first: one for each active class that is a difference;
        with p given, classes of length >= p are dropped.  A chamber's
        actives all have their ray in the upper half plane."""
        if chamber.n != self.basis.n:
            raise ValueError("chamber and basis rank mismatch")
        # Z(a_i - a_j) = Z(a_i) - Z(a_j): a difference has Z = 0 exactly
        # when two basis rows share their integer ray
        rays = [chamber._ray(row) for row in self.basis.rows]
        if len(set(rays)) < len(rays):
            i, j = next((i, j) for i, j in itertools.combinations(
                range(1, len(rays) + 1), 2) if rays[i - 1] == rays[j - 1])
            raise ChamberError(f"difference {self.basis.diff(i, j).coords} has Z = 0")
        out = []
        for v in chamber.active:
            ij = self.diffs.get(v.coords)
            if ij is None:
                continue
            if ij not in self.coeffs:
                self.coeffs[ij] = self._coefficient(*ij)
            if self.coeffs[ij] is not None:
                out.append((*ij, self.coeffs[ij]))
        return out

    def products(self, chambers: Iterable[Chamber]) -> list:
        """(exact product, chamber count) for each distinct ordered factor
        sequence of the chambers, in first-seen order.  Equal positions carry
        equal coefficients, so the positions key a sequence, and each
        product is built once."""
        table = {}
        for chamber in chambers:
            seq = self.ordered(chamber)
            table.setdefault(tuple((i, j) for i, j, _ in seq), [seq, 0])[1] += 1
        n = self.basis.n
        return [(_elementary_product(n, n, seq), count)
                for seq, count in table.values()]


def _elementary_product(n: int, nvars: int, factors) -> PolyMatrix:
    """prod_k (I + c_k E_{i_k j_k}) over (i, j, c) in factors, leftmost first.

    Right-multiplying by I + c E_ij adds c times column i to column j, so
    each factor costs one column update instead of a matrix product, each
    entry updated in one pass (``_plus_product``).  Zero coefficients are
    skipped.
    """
    m = PolyMatrix.identity(n, nvars)
    rows = m.entries
    for i, j, c in factors:
        if c.is_zero():
            continue
        for row in rows:
            if not row[i - 1].is_zero():
                row[j - 1] = row[j - 1]._plus_product(row[i - 1], c)
    return m


def stokes_product(basis: Basis, e: EulerForm, model: DTModel, chamber: Chamber,
                   p: Optional[int] = None) -> StokesData:
    """Clockwise ordered product of the chamber's elementary factors,
    checked unipotent for the order they induce.

    With p given, factors of classes of length >= p are dropped and the
    exact product is reduced once mod (s)^p; with p absent it is exact.
    """
    table = _Factors(basis, e, model, p)
    factors = table.ordered(chamber)
    product = _elementary_product(basis.n, basis.n, factors)
    if table.p is not None:
        product = product.truncate(table.p)
    order = _index_order(basis.n, [(i, j) for (i, j, _) in factors])
    if not product.is_unipotent_wrt(order):
        raise ChamberError("product is not unipotent for the induced order")
    return StokesData(order, factors, product)


def natural_lifts(basis: Basis, e: EulerForm, model: DTModel,
                  chambers: Iterable[Chamber], p: int) -> list[PolyMatrix]:
    """Distinct exact products of the chambers' mod-(s)^p factors, sorted by
    key.

    The factors kept at order p are exact, so each is its own lift.  One
    product is built per distinct ordered factor sequence, not per chamber.
    All returned matrices agree mod (s)^p (checked, LiftDisagreement
    otherwise).
    """
    table = _Factors(basis, e, model, _size(p, 1, "truncation order"))
    values = {prod for prod, _ in table.products(chambers)}
    if len({m.truncate(table.p) for m in values}) > 1:
        raise LiftDisagreement("chamber products disagree below the stated order")
    return sorted(values, key=PolyMatrix.key)


def an_stokes(n: int) -> PolyMatrix:
    """I - sum_i s_i E_{i,i+1}, the bidiagonal unipotent matrix."""
    n = _size(n, 2, "rank n")
    m = PolyMatrix.identity(n, n)
    for i in range(1, n):
        m.entries[i - 1][i] = -TruncatedPoly.variable(n, i)
    return m


def factor_product(T: PolyMatrix, positions: list[tuple[int, int]]) -> list[TruncatedPoly]:
    """Coefficients c_k with prod_k (I + c_k E_{positions[k]}) = T.

    Solved level by level: adjusting a coefficient at order-distance l never
    changes entries at distance < l, so one sweep per level converges; the
    result is verified by re-multiplication.  The factorization is exact:
    a jet T is factored as the polynomial matrix it prints as, not mod (s)^p.
    """
    n = T.n
    positions = [(_index(i, n, "row"), _index(j, n, "column"))
                 for i, j in positions]
    for i, j in positions:
        if i == j:
            raise ValueError(f"factor position ({i}, {j}) is on the diagonal")
    if len(set(positions)) != len(positions):
        raise ValueError("positions must be distinct")
    order = _index_order(n, positions)
    pos_of = {v: k for k, v in enumerate(order)}
    if not T.is_unipotent_wrt(order):
        raise ValueError("matrix is not unipotent for the order induced by positions")
    level = {(i, j): pos_of[j] - pos_of[i] for (i, j) in positions}
    coeffs = {pos: TruncatedPoly.zero(T.nvars) for pos in positions}

    def rebuild() -> PolyMatrix:
        return _elementary_product(n, T.nvars,
                                   [(i, j, coeffs[(i, j)]) for (i, j) in positions])

    for lev in range(1, n):
        current = rebuild()
        for pos in positions:
            if level[pos] == lev:
                i, j = pos
                coeffs[pos] = coeffs[pos] + (T.entries[i - 1][j - 1]
                                             - current.entries[i - 1][j - 1])
    if rebuild() != T:
        raise ValueError("no factorization over the given positions")
    return [coeffs[pos] for pos in positions]


# ---------------------------------------------------------------------------
# Chambers for concrete quivers
# ---------------------------------------------------------------------------

def convex_charge(n: int) -> tuple:
    """A central charge with strictly decreasing phases, Z_k = (k^2 - n - 2, 1).

    Sums of distinct index sets can still align: at rank 7, 2 * 5^2 = 1^2 + 7^2
    puts Z(e1 + e7) on the ray of Z(e5), so the level-2 chamber of the
    linear quiver plus an arrow 1 -> 7 raises RayCollision.
    """
    n = _size(n, 1, "rank n")
    return tuple((Fraction((k + 1) ** 2 - (n + 2)), Fraction(1))
                 for k in range(n))


def extension_actives(q: Quiver, Z) -> list[LatticeVector]:
    """Simple classes plus the stable two-simple extension classes.

    For lam >= 1 arrows u -> v the extension of class [S_u] + [S_v] has the
    destabilizing sub S_v, so it is active exactly when
    arg Z_u > arg Z_v.
    """
    n, zint = q.n, _read_charge(Z)[1]
    if len(zint) != n:
        raise ChamberError(f"a rank-{n} charge needs {n} entries, got {len(zint)}")
    act = [LatticeVector(tuple(1 if t == k else 0 for t in range(n)))
           for k in range(n)]
    for u in range(1, n + 1):
        for v in range(1, n + 1):
            if u == v or q.arrows[u - 1][v - 1] == 0:
                continue
            if _cross(zint[u - 1], zint[v - 1]) < 0:
                vec = [0] * n
                vec[u - 1] = 1
                vec[v - 1] = 1
                act.append(LatticeVector(tuple(vec)))
    return act


def level2_chamber(q: Quiver, Z) -> Chamber:
    """Chamber for Z whose actives are simples and stable two-simple sums."""
    Z = tuple(Z)
    return Chamber(Z, tuple(extension_actives(q, Z)))


def level2_stokes(q: Quiver, basis: Basis, Z,
                  p: Optional[int] = None) -> StokesData:
    """The ordered product of (quiver, basis) over the level-2 chamber of Z,
    with the counts of the quiver's extensions."""
    return stokes_product(basis, euler_form(q), DTModel.from_quiver_extensions(q),
                          level2_chamber(q, Z), p)


def auto_stokes(q: Quiver, basis: Basis, p: Optional[int]) -> StokesData:
    """The product of (quiver, basis) on the level-2 chamber of ``convex_charge(q.n)``,
    mod (s)^p or exact when p is None; RayCollision when two actives share a ray.

    Chamber independent below order p, so any valid chamber gives the same
    jet.  No other charge is tried: every Z(v) is linear in Z, and a
    shear x -> x + s * y has determinant 1, so it keeps every cross product,
    hence every collision and every clockwise order; it keeps y, hence
    upper-half-plane membership.
    """
    return level2_stokes(q, basis, convex_charge(q.n), p)


# ---------------------------------------------------------------------------
# Linear-quiver chambers and the order-(n+1) jet check
# ---------------------------------------------------------------------------

def _interval_class(n: int, i: int, j: int) -> LatticeVector:
    return LatticeVector(tuple(1 if i - 1 <= t <= j - 1 else 0 for t in range(n)))


def _intervals(n: int) -> list:
    """The intervals (i, j), 1 <= i <= j <= n, in (i, j) order."""
    return [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]


def _exact_stack(n: int, blocks) -> np.ndarray:
    """Blocks of rank-n integer charges as one (S, n, 2) array: int64 when
    a bound proves that no product wraps (a coordinate is at most M, an
    interval ray at most n M, a cross product of two rays at most
    2 (n M)^2), and Python ints on ``dtype=object`` otherwise."""
    bound = max(operator.index(np.abs(b).max(initial=0)) for b in blocks)
    dtype = np.int64 if 2 * (n * bound) ** 2 < 2 ** 63 else object
    return np.concatenate([b.astype(dtype) for b in blocks])


def _an_stable_rays(zint: np.ndarray) -> tuple:
    """(cross, stable) for the linear quiver on an (S, n, 2) stack of
    integer charges, over the intervals of ``_intervals(n)``.

    ``cross`` (S, m, m) holds ``_cross`` of the rays Z([i, j]) of every two
    intervals, the rays being differences of prefix sums.  ``stable``
    (S, m) tells whether [i, j] is stable: the indecomposable on [i, j] has
    exactly the right-closed subobjects [k, j], so it is stable iff
    arg Z([k + 1, j]) < arg Z([i, j]), a positive cross product, for every
    i <= k < j.  The stack's dtype is the arithmetic, int64 or Python ints.
    """
    count, n, _ = zint.shape
    ij = _intervals(n)
    at = {iv: t for t, iv in enumerate(ij)}
    prefix = np.zeros((count, n + 1, 2), dtype=zint.dtype)
    prefix[:, 1:] = np.cumsum(zint, axis=1)
    lo, hi = np.array(ij, dtype=np.intp).reshape(-1, 2).T
    rays = prefix[:, hi] - prefix[:, lo - 1]
    # a x b = a . (b_y, -b_x), one batched product
    cross = rays @ np.stack([rays[..., 1], -rays[..., 0]], axis=1)
    # tests[[k + 1, j], [i, j]] for the triples i <= k < j
    tests = np.zeros((len(ij), len(ij)), dtype=bool)
    for i, j in ij:
        tests[[at[k + 1, j] for k in range(i, j)], at[i, j]] = True
    return cross, ~((cross <= 0) & tests).any(axis=1)


def an_stable_intervals(Z) -> list[LatticeVector]:
    """Stable interval classes of the linear quiver 1 -> 2 -> ... -> n, by
    ``_an_stable_rays`` on the charge scaled to integers; the rank is the
    length of Z."""
    zint = _read_charge(Z)[1]
    n = len(zint)
    _, stable = _an_stable_rays(
        _exact_stack(n, [np.array(zint, dtype=object).reshape(1, n, 2)]))
    return [_interval_class(n, i, j)
            for (i, j), ok in zip(_intervals(n), stable[0]) if ok]


def an_chamber(Z) -> Chamber:
    Z = tuple(Z)
    return Chamber(Z, tuple(an_stable_intervals(Z)))


def _charge_samples(n: int, count: int) -> np.ndarray:
    """Deterministic pseudo-random integer charges in the upper half plane,
    as a (count, n, 2) int64 array.

    Each simple class draws x in -12..12, then y in 1..9, from the 64-bit
    LCG s -> a s + c mod 2^64 seeded at 20240915, a draw in lo..hi being
    lo + (s >> 33) mod (hi - lo + 1).  All 2 n count states come in one
    pass, by jump-ahead in wrapping uint64:
    s_t = a^t s_0 + c (1 + a + ... + a^(t - 1)).
    """
    power = np.multiply.accumulate(
        np.full(2 * n * count, 6364136223846793005, dtype=np.uint64))
    geometric = np.cumsum(power) - power + np.uint64(1)
    state = (power * np.uint64(20240915)
             + np.uint64(1442695040888963407) * geometric)
    draw = (state >> np.uint64(33)).reshape(count, n, 2) \
        % np.array([25, 9], dtype=np.uint64)
    return draw.astype(np.int64) + np.array([-12, 1])


def _charge_block(n: int, charges) -> tuple:
    """(values, scaled) for a block of rank-n charges, as (S, n, 2) arrays:
    the charges as given, and scaled to integers.  An integer array is its
    own scaled charge; other charges, of int or Fraction entries, are read
    by ``_read_charge`` one by one, on ``dtype=object``."""
    if isinstance(charges, np.ndarray) and charges.dtype.kind == "i":
        return charges, charges
    rows = list(charges)
    return (np.array(rows, dtype=object).reshape(len(rows), n, 2),
            np.array([_read_charge(Z)[1] for Z in rows],
                     dtype=object).reshape(len(rows), n, 2))


def _an_chamber_keys(zint: np.ndarray) -> tuple:
    """(ok, key) for an (S, n, 2) stack of integer charges.

    ``ok`` (S,) tells whether a chamber accepts the charge: every Z_k in
    the semi-closed upper half plane and no two stable intervals on one ray.
    ``key`` (S, m) holds the clockwise rank of each stable interval and -1
    for the others, so it fixes the stable set and its clockwise order.
    """
    cross, stable = _an_stable_rays(zint)
    upper = _in_upper(zint[..., 0], zint[..., 1]).all(axis=1)
    pair = stable[:, :, None] & stable[:, None, :]
    # the diagonal of cross is zero, so a shared ray is one zero more
    collide = (pair & (cross == 0)).sum(axis=(1, 2)) > stable.sum(axis=1)
    # rays in the upper half plane: cross[b, a] < 0 puts b before a
    rank = (pair & (cross < 0)).sum(axis=1)
    return upper & ~collide, np.where(stable, rank, -1)


# entries of one (S, m, m) cross tensor in the key pass; charges beyond it
# are keyed in chunks
_KEY_PASS_ENTRIES = 1 << 17


def enumerate_an_chambers(n: int, samples: int) -> list[Chamber]:
    """Distinct linear-quiver chambers found by deterministic sampling.

    Structured monotone charges, then ``samples`` charges from
    ``_charge_samples``, are stacked into one (S, n, 2) integer array, each
    scaled once by the lcm of its denominators, and keyed in one exact
    array pass (``_an_chamber_keys``): int64 when a bound proves that no
    cross product wraps, Python ints on ``dtype=object`` otherwise.  A
    charge that a chamber would reject (one outside the upper half plane,
    or two stable intervals on one ray) is skipped.  Keys are compared as
    bytes, and each distinct chamber is built once, from the first charge
    that gives it and the values the pass found, and not checked again.
    """
    n = _size(n, 1, "rank n")
    samples = _size(samples, 0, "sample count")
    # integral charges, held as ints like the samples
    structured = [_read_charge(Z)[1] for Z in (
        convex_charge(n),
        tuple(reversed(convex_charge(n))),
        tuple((Fraction(-10 * 3 ** k), Fraction(1 + k)) for k in range(n)),
        tuple((Fraction(10 * 3 ** (n - k)), Fraction(1 + k)) for k in range(n)))]
    blocks = [_charge_block(n, structured),
              _charge_block(n, _charge_samples(n, samples))]
    values = np.concatenate([v for v, _ in blocks])
    zint = _exact_stack(n, [scaled for _, scaled in blocks])
    ij = _intervals(n)
    step = max(1, _KEY_PASS_ENTRIES // len(ij) ** 2)
    parts = [_an_chamber_keys(zint[s:s + step]) for s in range(0, len(zint), step)]
    key = np.concatenate([k for _, k in parts])
    rows = np.flatnonzero(np.concatenate([ok for ok, _ in parts]))
    # keys compared as bytes; the first row of each key, in first-seen order
    packed, width = key[rows].tobytes(), key.itemsize * key.shape[1]
    first = {}
    for s, t in zip(rows.tolist(), range(0, len(packed), width)):
        first.setdefault(packed[t:t + width], s)
    chosen = list(first.values())
    picked = values[chosen]
    # each distinct value of the chosen charges is read once
    read = {v: _as_fraction(v) for v in set(picked.ravel().tolist())}
    intervals = [_interval_class(n, i, j) for i, j in ij]
    chambers = []
    for Z, zi, rank in zip(picked.tolist(), zint[chosen].tolist(),
                           key[chosen].tolist()):
        active = sorted((t for t, r in enumerate(rank) if r >= 0),
                        key=rank.__getitem__)
        chambers.append(Chamber._from_valid(
            tuple((read[x], read[y]) for x, y in Z),
            tuple(map(intervals.__getitem__, active)), tuple(map(tuple, zi))))
    return chambers


def verify_an_jet(n: int, samples: int = 400) -> dict:
    """Check that every sampled linear-quiver chamber yields the bidiagonal
    Stokes matrix exactly, and that the mod-(s)^(n+1) lifted products agree.

    Each distinct chamber is built once, and the chambers share one product
    table, so each distinct ordered factor sequence is multiplied out once;
    every product is compared with an_stokes(n), so none is checked for
    unipotency, and only the mismatched ones are reduced mod (s)^(n+1), as
    the matched ones are one lift value.  Returns a report dict; ``ok`` is
    True when every chamber product equals an_stokes(n) and the natural
    lifts at order n+1 take a single value; ``mismatched_chambers`` counts
    chambers, ``distinct_products`` products and ``lift_values_mod_n_plus_1``
    the distinct products mod (s)^(n+1), so chambers that disagree give a
    failing report rather than an error.
    """
    n, samples = _as_int(n), _size(samples, 0, "sample count")
    if not 2 <= n <= 5:
        raise ValueError("desk-scale check supports 2 <= n <= 5")
    chambers = enumerate_an_chambers(n, samples)
    # an interval has length <= n, so no factor is dropped at order n + 1
    # and the natural lift of a chamber is its exact product; each distinct
    # active class, keyed by its coordinates, is checked once
    classes = {v.coords: v for ch in chambers for v in ch.active}
    if any(lv_len(v) > n for v in classes.values()):
        raise ChamberError(f"chamber with an active class longer than {n}")
    products = _Factors(Basis.triangular(n), euler_form(linear_quiver(n)),
                        DTModel.an_intervals(), None).products(chambers)
    expected = an_stokes(n)
    matched = [prod == expected for prod, _ in products]
    mismatches = sum(count for (_, count), ok in zip(products, matched) if not ok)
    lifts = {prod.truncate(n + 1)
             for (prod, _), ok in zip(products, matched) if not ok}
    if any(matched):
        lifts.add(expected.truncate(n + 1))
    ok = not mismatches and len(lifts) == 1
    return {
        "n": n,
        "chambers": len(chambers),
        "distinct_products": len(products),
        "mismatched_chambers": mismatches,
        "lift_values_mod_n_plus_1": len(lifts),
        "ok": ok,
    }
