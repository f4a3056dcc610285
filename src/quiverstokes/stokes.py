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
chamber sorts its active classes clockwise once, when it is built, and the
factors of every product over it are read off that order.  Within one
call, each factor coefficient is built once; a set of chambers shares one
product table, which multiplies out each distinct ordered factor sequence
once, and the linear-quiver jet check builds each distinct chamber once.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Optional

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

def _in_upper(x, y) -> bool:
    """Membership in the semi-closed upper half plane {y > 0} u {y = 0, x < 0}."""
    return y > 0 or (y == 0 and x < 0)


def _cross(a: tuple, b: tuple) -> int:
    """a x b for integer rays: negative when arg(a) > arg(b), 0 on one ray."""
    return a[0] * b[1] - a[1] * b[0]


def _scaled_charge(Z) -> tuple:
    """D * Z as ints, with D the lcm of the denominators of Z's int or
    Fraction coordinates: scaling by D > 0 keeps every argument, so every
    ray test uses the integers."""
    scale = math.lcm(*(c.denominator for z in Z for c in z))
    return tuple((x.numerator * (scale // x.denominator),
                  y.numerator * (scale // y.denominator)) for x, y in Z)


def _clockwise(rays: list) -> list:
    """The labels of (label, integer ray) pairs by strictly decreasing
    argument in (0, pi].

    A comparison sort compares every two entries that end up adjacent, so
    two labels on one ray always meet, and raise RayCollision.  One cross
    product decides a comparison: zero collides, negative puts a first.
    """
    def cmp(a, b):
        cross = _cross(a[1], b[1])
        if cross == 0:
            raise RayCollision(f"classes {a[0]} and {b[0]} lie on the same ray")
        return -1 if cross < 0 else 1

    return [v for v, _ in sorted(rays, key=functools.cmp_to_key(cmp))]


def _integer_charge(Z) -> tuple:
    """The charge Z read as exact rationals and scaled to integers by
    ``_scaled_charge``."""
    return _scaled_charge(tuple((_as_fraction(x), _as_fraction(y)) for x, y in Z))


@dataclass(frozen=True)
class Chamber:
    """A central charge plus the list of active classes for it.

    Z is a tuple of (x, y) Gaussian rationals, one per simple class; every
    Z_i must lie in the semi-closed upper half plane.  Active classes are
    recorded with their ray in the upper half plane and must have pairwise
    distinct rays.  Rays are compared on the charge scaled to integers by
    the lcm of its denominators; ``Z`` keeps the exact rationals.
    ``active`` keeps the given order; the chamber also keeps the coordinates
    of its actives in clockwise order, sorted once at construction.
    """

    Z: tuple
    active: tuple
    _zint: tuple = field(init=False, repr=False, compare=False)
    _order: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        Z = tuple((_as_fraction(x), _as_fraction(y)) for x, y in self.Z)
        _size(len(Z), 1, "rank n")
        zint = _scaled_charge(Z)
        object.__setattr__(self, "Z", Z)
        object.__setattr__(self, "_zint", zint)
        act = tuple(v if isinstance(v, LatticeVector) else LatticeVector(tuple(v))
                    for v in self.active)
        object.__setattr__(self, "active", act)
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
            rays.append((v.coords, (x, y)))
        object.__setattr__(self, "_order", tuple(_clockwise(rays)))

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

    Classes whose ray lies in the lower half plane are replaced by their
    negatives first.  Raises RayCollision when two inputs share a ray and
    ChamberError when a class evaluates to zero or has the wrong rank.
    """
    fixed = []
    for v in classes:
        x, y = chamber._ray(v)
        if (x, y) == (0, 0):
            raise ChamberError(f"class {v.coords} has Z = 0")
        if not _in_upper(x, y):
            v, x, y = -v, -x, -y
        fixed.append((v.coords, (x, y)))
    return [LatticeVector(c) for c in _clockwise(fixed)]


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
    alpha_i - alpha_j is formed once and each exact coefficient built once.
    The differences are distinct, because the rows of a basis are
    independent.  The order p only selects factors: a class of length >= p
    has a coefficient of degree >= p, which vanishes mod (s)^p."""

    def __init__(self, basis: Basis, e: EulerForm, model: DTModel,
                 p: Optional[int]):
        p = None if p is None else _size(p, 1, "truncation order")
        self.basis, self.e, self.model, self.p = basis, e, model, p
        self.diffs = {}
        for i, j in itertools.permutations(range(1, basis.n + 1), 2):
            d = basis.diff(i, j)
            self.diffs[d.coords] = (i, j, d)
        self.coeffs = {}

    def ordered(self, chamber: Chamber) -> list:
        """The chamber's factors (i, j, coefficient) in its clockwise order,
        leftmost first: one for each active class that is a difference;
        with p given, classes of length >= p are dropped.  A chamber's
        actives all have their ray in the upper half plane."""
        if chamber.n != self.basis.n:
            raise ValueError("chamber and basis rank mismatch")
        # Z(a_j - a_i) = -Z(a_i - a_j), so the pairs i < j find every zero
        for i, j, d in self.diffs.values():
            if i < j and chamber._ray(d) == (0, 0):
                raise ChamberError(f"difference {d.coords} has Z = 0")
        out = []
        for c in chamber._order:
            if c not in self.diffs:
                continue
            i, j, d = self.diffs[c]
            if self.p is not None and lv_len(d) >= self.p:
                continue
            if (i, j) not in self.coeffs:
                dt = self.model.dt(d)
                if dt == 0:
                    raise ChamberError(
                        f"active class {d.coords} has zero count under the model")
                self.coeffs[i, j] = factor_coefficient(i, j, self.basis, self.e,
                                                       dt)
            out.append((i, j, self.coeffs[i, j]))
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
    each factor costs one column update instead of a matrix product.  Zero
    coefficients are skipped.
    """
    m = PolyMatrix.identity(n, nvars)
    rows = m.entries
    for i, j, c in factors:
        if c.is_zero():
            continue
        for row in rows:
            if not row[i - 1].is_zero():
                row[j - 1] = row[j - 1] + row[i - 1] * c
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
    table = _Factors(basis, e, model, p)
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
    n, zint = q.n, _integer_charge(Z)
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


def _an_stable_rays(n: int, zint) -> list:
    """((i, j), integer ray of Z([i, j])) for the stable intervals of the
    linear quiver, by (i, j), from the rank-n charge scaled to integers."""
    px, py = [0], [0]
    for x, y in zint:
        px.append(px[-1] + x)
        py.append(py[-1] + y)
    out = []
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            wx, wy = px[j] - px[i - 1], py[j] - py[i - 1]
            for k in range(i, j):
                # arg Z([k + 1, j]) < arg Z([i, j]), by a cross product
                if (px[j] - px[k]) * wy <= (py[j] - py[k]) * wx:
                    break
            else:
                out.append(((i, j), (wx, wy)))
    return out


def an_stable_intervals(Z) -> list[LatticeVector]:
    """Stable interval classes of the linear quiver 1 -> 2 -> ... -> n.

    The indecomposable on [i, j] has exactly the right-closed subobjects
    [k, j], so it is stable iff arg Z([k, j]) < arg Z([i, j]) for all
    i < k <= j.  Z([i, j]) is a difference of prefix sums of the charge
    scaled to integers; the rank is the length of Z.
    """
    zint = _integer_charge(Z)
    return [_interval_class(len(zint), i, j)
            for (i, j), _ in _an_stable_rays(len(zint), zint)]


def an_chamber(Z) -> Chamber:
    Z = tuple(Z)
    return Chamber(Z, tuple(an_stable_intervals(Z)))


def _charge_samples(n: int, count: int):
    """Deterministic pseudo-random integer charges in the upper half plane."""
    state = 20240915

    def rnd(lo, hi):
        nonlocal state
        state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        return lo + (state >> 33) % (hi - lo + 1)

    for _ in range(count):
        yield tuple((rnd(-12, 12), rnd(1, 9)) for _ in range(n))


def enumerate_an_chambers(n: int, samples: int) -> list[Chamber]:
    """Distinct linear-quiver chambers found by deterministic sampling.

    Chambers are keyed by the clockwise order of their stable intervals,
    found in integers before anything is built; a charge that a chamber
    would reject (one outside the upper half plane, or two stable intervals
    on one ray) is skipped, and each distinct chamber is built once, from
    the first charge that gives it.  Structured monotone charges are always
    included.
    """
    structured = [
        convex_charge(n),
        tuple(reversed(convex_charge(n))),
        tuple((Fraction(-10 * 3 ** k), Fraction(1 + k)) for k in range(n)),
        tuple((Fraction(10 * 3 ** (n - k)), Fraction(1 + k)) for k in range(n)),
    ]
    intervals = {(i, j): _interval_class(n, i, j)
                 for i in range(1, n + 1) for j in range(i, n + 1)}
    seen = {}
    for Z in itertools.chain(structured, _charge_samples(n, samples)):
        zint = _scaled_charge(Z)
        if not all(_in_upper(x, y) for x, y in zint):
            continue
        rays = _an_stable_rays(n, zint)
        try:
            key = tuple(_clockwise(rays))
        except RayCollision:
            continue
        if key not in seen:
            # an_chamber(Z), from the stable intervals already found
            seen[key] = Chamber(tuple(Z), tuple(intervals[ij] for ij, _ in rays))
    return list(seen.values())


def verify_an_jet(n: int, samples: int = 400) -> dict:
    """Check that every sampled linear-quiver chamber yields the bidiagonal
    Stokes matrix exactly, and that the mod-(s)^(n+1) lifted products agree.

    Each distinct chamber is built once, and the chambers share one product
    table, so each distinct ordered factor sequence is multiplied out once;
    every product is compared with an_stokes(n), so none is checked for
    unipotency.  Returns a report dict; ``ok`` is True when every chamber
    product equals an_stokes(n) and the natural lifts at order n+1 take a
    single value; ``mismatched_chambers`` counts chambers,
    ``distinct_products`` products and ``lift_values_mod_n_plus_1`` the
    distinct products mod (s)^(n+1), so chambers that disagree give a
    failing report rather than an error.
    """
    n, samples = _as_int(n), _size(samples, 0, "sample count")
    if not 2 <= n <= 5:
        raise ValueError("desk-scale check supports 2 <= n <= 5")
    chambers = enumerate_an_chambers(n, samples)
    # an interval has length <= n, so no factor is dropped at order n + 1
    # and the natural lift of a chamber is its exact product
    if any(lv_len(v) > n for ch in chambers for v in ch.active):
        raise ChamberError(f"chamber with an active class longer than {n}")
    products = _Factors(Basis.triangular(n), euler_form(linear_quiver(n)),
                        DTModel.an_intervals(), None).products(chambers)
    expected = an_stokes(n)
    mismatches = sum(count for prod, count in products if prod != expected)
    lifts = {prod.truncate(n + 1) for prod, _ in products}
    ok = not mismatches and len(lifts) == 1
    return {
        "n": n,
        "chambers": len(chambers),
        "distinct_products": len(products),
        "mismatched_chambers": mismatches,
        "lift_values_mod_n_plus_1": len(lifts),
        "ok": ok,
    }
