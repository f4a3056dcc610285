"""Good-basis conditions and the search for compatible quivers.

A basis alpha_1..alpha_n of the lattice is *good* at order p when two kinds
of conditions hold:

* quadratic conditions: for pairwise distinct i, j, k with
  len(alpha_j - alpha_i) < p,

      <a_j, a_i> <a_j - a_k, a_k - a_i>  =  <a_j, a_k> <a_k, a_i>.

  Equivalently all in-range pairings equal eps_ij * lambda for a sign tensor
  eps satisfying  1 + eps_ij eps_jk + eps_ji eps_ik + eps_ik eps_kj = 0.
  For i < j < k, with a = eps_ij, b = eps_jk and c = eps_ik, the left side
  is (1 - ac)(1 - bc), so the identity says c is a or b: the tensor has no
  directed 3-cycle.

* vanishing conditions (p = 3 form): every difference alpha_j - alpha_i is
  a signed simple class, a sum of two signed simple classes that splits
  through some alpha_k, or not a sum of two signed simple classes at all.

`check_quadratic` and `check_vanishing_p3` return the list of violated
conditions, as (kind, indices, detail) triples; an empty list means the
conditions hold.  The two checks, `basis_domain` and `find_good_quivers`
read every len(alpha_a - alpha_b) from one table, `_lengths(basis)`.

Given a basis and a scale lambda, `find_good_quivers` solves
<a_i, a_j> = eps_ij * lambda for the skew form, transports it to the simple
classes, and realizes each resulting form as a quiver.  Pairs whose length
is >= p are unconstrained; they enter the form as named free parameters and
are printed symbolically on the quiver arrows.  The transport is linear in
eps, so the forms of all sign tensors come from one integer matrix product.
A solution holds the quiver, its sign tensor and the parameter names: at
integer parameter values the quiver's Euler form pairs the basis as eps_ij *
lambda in range and as the parameter out of range.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algebra import Basis, LatticeVector, TruncatedPoly, _as_int
from .quiver import EulerForm, Quiver, euler_form


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def _lengths(basis: Basis) -> list:
    """The symmetric table length[a][b] = len(alpha_a - alpha_b), 0-based."""
    coords = [r.coords for r in basis.rows]
    return [[sum(abs(x - y) for x, y in zip(ra, rb)) for rb in coords]
            for ra in coords]


def check_quadratic(basis: Basis, e: EulerForm, p: int) -> list:
    """Violations of the quadratic conditions at order p (p >= 3), as
    ("quadratic", (min(i, j), max(i, j), k), detail) in first-found order;
    an empty list means the conditions hold.  A basis whose rank differs
    from the form's, the empty basis included, raises ValueError.

    Every pairing comes from one table g[a][b] = <a_a, a_b>: the form is
    skew, so <a_j - a_k, a_k - a_i> = g[j][k] - g[j][i] + g[k][i].
    """
    p = _as_int(p)
    if p < 3:
        raise ValueError("quadratic conditions are defined for p >= 3")
    if basis.n != e.n:
        raise ValueError("rank mismatch")
    rows = basis.rows
    g = [[e.pairing(a, b) for b in rows] for a in rows]
    length = _lengths(basis)
    found = {}
    for i, j in itertools.permutations(range(len(rows)), 2):
        if length[j][i] >= p:
            continue
        for k in range(len(rows)):
            if k == i or k == j:
                continue
            lhs = g[j][i] * (g[j][k] - g[j][i] + g[k][i])
            rhs = g[j][k] * g[k][i]
            if lhs != rhs:
                key = (min(i, j) + 1, max(i, j) + 1, k + 1)
                found[("quadratic", key, f"lhs={lhs} rhs={rhs}")] = None
    return list(found)


def check_vanishing_p3(basis: Basis) -> list:
    """Violations of the order-3 vanishing conditions, as
    ("vanishing", (i, j), detail) for i < j in order; an empty list means
    the conditions hold.

    The only way a pair can fail is a difference of length exactly 2 that
    does not split as (alpha_j - alpha_k) + (alpha_k - alpha_i) with both
    parts of length 1; the table is symmetric, so row i gives the second
    part, and k = i or j gives a part of length 0.
    """
    length = _lengths(basis)
    return [("vanishing", (i + 1, j + 1),
             "length-2 difference with no admissible split")
            for i, j in itertools.combinations(range(basis.n), 2)
            if length[j][i] == 2 and not any(
                a == 1 and b == 1 for a, b in zip(length[j], length[i]))]


# ---------------------------------------------------------------------------
# Sign tensors
# ---------------------------------------------------------------------------

def full_domain(n: int) -> frozenset:
    return frozenset((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))


def basis_domain(basis: Basis, p: int) -> frozenset:
    """Pairs (i, j), i < j, with len(alpha_j - alpha_i) < p."""
    length = _lengths(basis)
    return frozenset((i + 1, j + 1)
                     for i, j in itertools.combinations(range(basis.n), 2)
                     if length[j][i] < p)


@dataclass(frozen=True)
class EpsilonTensor:
    """Skew sign tensor on a set of index pairs."""

    n: int
    domain: frozenset
    signs: tuple  # tuple of ((i, j), +-1) sorted by pair, for hashing

    @classmethod
    def from_dict(cls, n: int, domain, eps: dict) -> "EpsilonTensor":
        dom = frozenset(tuple(p) for p in domain)
        signs = tuple(sorted(((i, j), _as_int(eps[(i, j)])) for (i, j) in dom))
        for pair, s in signs:
            if s not in (1, -1):
                raise ValueError(f"sign of pair {pair} must be +1 or -1, got {s}")
        t = cls(n, dom, signs)
        bad = t.triple_violations()
        if bad:
            raise ValueError(f"sign tensor violates triple conditions at {bad}")
        return t

    def as_dict(self) -> dict:
        return dict(self.signs)

    def __getitem__(self, ij) -> int:
        i, j = ij
        if i == j:
            raise KeyError("diagonal is unused")
        d = self.as_dict()
        if (i, j) in d:
            return d[(i, j)]
        if (j, i) in d:
            return -d[(j, i)]
        raise KeyError(f"pair {ij} outside domain")

    def triple_violations(self) -> list:
        d = self.as_dict()

        def get(i, j):
            return d[(i, j)] if (i, j) in d else -d[(j, i)]

        bad = []
        for i, j, k in itertools.combinations(range(1, self.n + 1), 3):
            pairs = {(i, j), (i, k), (j, k)}
            if not pairs <= self.domain:
                continue
            val = (1 + get(i, j) * get(j, k) + get(j, i) * get(i, k)
                   + get(i, k) * get(k, j))
            if val != 0:
                bad.append((i, j, k))
        return bad

    def flipped(self) -> "EpsilonTensor":
        return EpsilonTensor(self.n, self.domain,
                             tuple((p, -s) for p, s in self.signs))


def epsilon_solutions(n: int, domain=None) -> list[EpsilonTensor]:
    """All sign tensors over the domain satisfying the triple conditions.

    The triple (i, j, k), i < j < k, holds when eps_ik is eps_ij or eps_jk
    (the identity factors as (1 - ac)(1 - bc)), so the solutions are the
    tensors with no directed 3-cycle.  A depth-first search sets the sorted
    pairs in turn, +1 before -1, checks each triple inside the domain when
    its last pair (j, k) is set and abandons a branch at its first broken
    triple.  The order is lexicographic over the sorted pair list, +1
    before -1, as for a filter over all 2^|domain| assignments.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    dom = full_domain(n) if domain is None else frozenset(tuple(p) for p in domain)
    pairs = sorted(dom)
    pos = {pair: t for t, pair in enumerate(pairs)}
    # per pair (j, k): the positions of (i, j) and (i, k) of each triple it closes
    closes = [[(pos[(i, j)], pos[(i, k)]) for i in range(1, j)
               if (i, j) in pos and (i, k) in pos] for (j, k) in pairs]
    signs = [0] * len(pairs)
    out = []

    def extend(t: int) -> None:
        if t == len(pairs):
            out.append(EpsilonTensor(n, dom, tuple(zip(pairs, signs))))
            return
        for b in (1, -1):
            if all(signs[ik] in (signs[ij], b) for ij, ik in closes[t]):
                signs[t] = b
                extend(t + 1)

    extend(0)
    return out


# ---------------------------------------------------------------------------
# Good-quiver search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymbolicQuiver:
    """Quiver whose arrow multiplicities may be polynomials in free parameters.

    ``arrows`` maps (source, target) to a TruncatedPoly in the parameter
    variables; constant entries are ordinary multiplicities.
    """

    n: int
    params: tuple[str, ...]
    arrows: tuple  # tuple of ((u, v), TruncatedPoly) sorted by (u, v)

    def substitute(self, values) -> Quiver:
        """Concrete quiver at given parameter values; a negative evaluated
        multiplicity flips the arrow direction."""
        m = [[0] * self.n for _ in range(self.n)]
        for (u, v), poly in self.arrows:
            c = poly.evaluate(values)
            if c.denominator != 1:
                raise ValueError("non-integer multiplicity after substitution")
            c = int(c)
            if c >= 0:
                m[u - 1][v - 1] += c
            else:
                m[v - 1][u - 1] += -c
        return Quiver(self.n, tuple(tuple(r) for r in m))


@dataclass(frozen=True)
class GoodQuiverSolution:
    """A quiver whose skew form makes the basis good, the sign tensor it
    realizes and the names of its free parameters."""

    quiver: SymbolicQuiver
    eps: EpsilonTensor
    params: tuple[str, ...]


def find_good_quivers(basis: Basis, lam: int = 1,
                      p: int = 3) -> list[GoodQuiverSolution]:
    """Quivers whose skew form makes the basis good at order p.

    For every sign tensor over the in-range pairs, the form on the basis is
    eps_ij * lam in range and a named free parameter out of range.  The free
    parameter attached to an out-of-range pair (i, j) is <alpha_j, alpha_i>
    (this orientation matches the published arrow labels).  A solution is
    emitted only when the transported form on the simple classes has integer
    entries, so that every concrete entry e[u][v] is realized by |e[u][v]|
    arrows (u -> v when the entry is negative).  Solutions are sorted by
    their arrows.

    The transport F -> B^-1 F B^-T is linear in eps.  With D the lcm of the
    denominators of B^-1, the pair (i, j) contributes the integer slice
    M_ij = D^2 B^-1 (E_ij - E_ji) B^-T.  A parameter's coefficients are the
    slice of its pair over -D^2, checked for integrality once per call.  The
    constant parts of all tensors come from one product of their signs with
    the in-range slices, times lam, and a tensor survives when every entry
    of its row is divisible by D^2.  The product and the divisibility test
    run in int64 when a bound on the sums and D^2 prove that nothing wraps,
    and on Python integers otherwise.  Only survivors get quivers, read off
    the entries above the diagonal of their transported forms.
    """
    lam, p = _as_int(lam), _as_int(p)
    if check_vanishing_p3(basis):
        raise ValueError("basis fails the order-3 vanishing conditions")
    n = basis.n
    length = _lengths(basis)
    pairs, free_pairs = [], []
    for i, j in itertools.combinations(range(1, n + 1), 2):
        (pairs if length[j - 1][i - 1] < p else free_pairs).append((i, j))
    params = tuple("k" if len(free_pairs) == 1 else f"k{t+1}"
                   for t in range(len(free_pairs)))
    nparams = len(free_pairs)

    binv = basis.inverse()
    den = math.lcm(*(x.denominator for row in binv for x in row))
    d2 = den * den
    scaled = np.array([[int(x * den) for x in row] for row in binv], dtype=object)

    def slices(pair_list) -> np.ndarray:
        out = np.zeros((len(pair_list), n * n), dtype=object)
        for t, (i, j) in enumerate(pair_list):
            a, b = scaled[:, i - 1], scaled[:, j - 1]
            out[t] = (np.outer(a, b) - np.outer(b, a)).ravel()
        return out

    free = slices(free_pairs)
    if (free % d2 != 0).any():
        return []
    tensors = epsilon_solutions(n, pairs)
    signs = np.array([[s for _, s in t.signs] for t in tensors],
                     dtype=np.int64).reshape(len(tensors), len(pairs))
    stack = slices(pairs) * lam
    reach = len(pairs) * max((abs(x) for x in stack.flat), default=0)
    if max(reach, d2) < 2 ** 63:
        stack = stack.astype(np.int64)
    else:
        signs = signs.astype(object)
    consts = signs @ stack
    keep = np.flatnonzero((consts % d2 == 0).all(axis=1))

    # per-call tables: the parameter part of each simple-form entry, and the
    # arrows and sort keys shared by (u, v, constant)
    units = [tuple(int(t == s) for t in range(nparams)) for s in range(nparams)]
    param_terms = [dict(zip(units, col)) for col in (-free.T // d2).tolist()]
    origin = (0,) * nparams

    @functools.cache
    def arrow(u: int, v: int, c: int):
        """The arrow and its sort key realizing the simple-form entry
        e[u][v], u < v, with constant c, or None when the entry is zero:
        c < 0 gives -c arrows u -> v, c > 0 gives c arrows v -> u, a
        symbolic entry an arrow u -> v of multiplicity -e[u][v]."""
        poly = TruncatedPoly(nparams, {origin: c, **param_terms[u * n + v]})
        if not poly:
            return None
        if poly.degree() > 0:
            uv, mult = (u + 1, v + 1), -poly
        else:
            uv, m = ((u + 1, v + 1), -c) if c < 0 else ((v + 1, u + 1), c)
            mult = TruncatedPoly.constant(nparams, m)
        return (uv, mult), (uv, mult.key())

    keyed = []
    for r, row in zip(keep.tolist(), (consts[keep] // d2).tolist()):
        arrows = sorted(filter(None, (arrow(u, v, row[u * n + v])
                                      for u in range(n) for v in range(u + 1, n))))
        quiver = SymbolicQuiver(n, params, tuple(item for item, _ in arrows))
        keyed.append((tuple(sort_key for _, sort_key in arrows),
                      GoodQuiverSolution(quiver, tensors[r], params)))
    keyed.sort(key=lambda ks: ks[0])
    return [sol for _, sol in keyed]


# ---------------------------------------------------------------------------
# Distinguished bases for mutated linear quivers
# ---------------------------------------------------------------------------

class UnrecognizedPattern(ValueError):
    """Quiver not covered by the recognized local configurations."""


def _clockwise_triangle_tops(q: Quiver) -> set[int]:
    """Vertices k such that (k-1, k, k+1) carries the oriented triangle
    (k-1) -> (k+1) -> k -> (k-1), all with multiplicity one."""
    tops = set()
    for k in range(2, q.n):
        if (q.arrows[k - 2][k] == 1 and q.arrows[k][k - 1] == 1
                and q.arrows[k - 1][k - 2] == 1):
            tops.add(k)
    return tops


def mutation_basis(n: int, target: Quiver) -> Basis:
    """Distinguished good basis for a quiver obtained by mutating the
    linear quiver, assembled from its local configurations.

    Recognized patterns: the linear graph in label order (any orientation);
    chains of clockwise oriented triangles on consecutive labels, possibly
    overlapping, with linear tails; and the two rank-3 cycle quivers coming
    from the annulus.  Raises UnrecognizedPattern otherwise.
    """
    if target.n != n:
        raise ValueError("rank mismatch")

    special = _rank3_cycle_basis(target)
    if special is not None:
        return special

    tops = _clockwise_triangle_tops(target)
    for k in tops:
        if k + 1 in tops:
            raise UnrecognizedPattern("adjacent triangle tops")

    # every arrow must lie inside a recognized triangle or join consecutive
    # labels with multiplicity one
    tri_pairs = set()
    for k in tops:
        tri_pairs |= {(k - 1, k), (k, k + 1), (k - 1, k + 1)}
    for (u, v), mult in target.arrow_pairs().items():
        a, b = min(u, v), max(u, v)
        if (a, b) in tri_pairs:
            continue
        if b - a != 1 or mult != 1:
            raise UnrecognizedPattern(
                f"arrow {u}->{v} (x{mult}) not part of a recognized pattern")

    zero = LatticeVector((0,) * n)
    alphas: dict[int, LatticeVector] = {n + 1: zero, n + 2: zero}

    def simple(i):
        return LatticeVector(tuple(1 if t == i - 1 else 0 for t in range(n)))

    for i in range(n, 0, -1):
        if i in tops:
            alphas[i] = -simple(i) + alphas[i + 1]
        elif i + 1 in tops:
            alphas[i] = simple(i) + alphas[i + 2]
        else:
            alphas[i] = simple(i) + alphas[i + 1]

    basis = Basis([alphas[i] for i in range(1, n + 1)])
    _validate_mutation_basis(basis, target)
    return basis


def _rank3_cycle_basis(q: Quiver) -> Optional[Basis]:
    """Special rank-3 cycle quivers: the two annulus triangulation quivers
    and the anticlockwise oriented triangle (whose clockwise twin is covered
    by the general triangle recursion)."""
    if q.n != 3:
        return None
    acyclic_cycle = Quiver.from_arrows(3, {(1, 2): 1, (1, 3): 1, (2, 3): 1})
    double_cycle = Quiver.from_arrows(3, {(2, 1): 1, (1, 3): 2, (3, 2): 1})
    anticlockwise = Quiver.from_arrows(3, {(1, 2): 1, (2, 3): 1, (3, 1): 1})
    if q in (acyclic_cycle, anticlockwise):
        return Basis.alternating(3)
    if q == double_cycle:
        return Basis.triangular(3)
    return None


def _validate_mutation_basis(basis: Basis, target: Quiver) -> None:
    d = basis.det()
    if d not in (1, -1):
        raise UnrecognizedPattern(f"assembled basis has determinant {d}")
    violations = (check_vanishing_p3(basis)
                  + check_quadratic(basis, euler_form(target), 3))
    if violations:
        raise UnrecognizedPattern(f"assembled basis is not good: {violations}")
