"""Braiding, permutation and sign actions on unipotent matrices, and the
bounded orbit search certifying that two Stokes matrices are related.

The braiding move at (i, i+1) perturbs the identity by the block

    [[0, 1], [1, -m]]      (inverse: [[-m, 1], [1, 0]])

and acts by A -> X(A) A X(A), where m is read off the (i, i+1)/(i+1, i)
entry pair of A (for an upper-triangular matrix this is just A[i][i+1];
allowing the transposed position lets the same move act on matrices that
are unipotent with respect to a permuted order).  Together with permutation
conjugation and sign conjugation these generate the equivalence used by the
orbit search: two matrices are certified equivalent when a word in these
moves carries one to the other exactly.

X(A) A X(A) is the definition; no matrix product computes it.  Since X(A)
differs from the identity only in rows and columns i, i+1, the move is one
update of those two rows followed by the same update of those two columns.
It is made twice, by code that shares nothing: ``_kernels.braid_apply`` on
the int64 stacks of the orbit search, and ``_braid_rows`` here on exact
entries held as Python row lists.  ``_braid_rows`` changes only rows and
columns i, i+1, writes the 2 x 2 block with no arithmetic (it is the block
of A negated off its diagonal) and forms no product with a zero factor.

``_move`` is the one function that checks and applies a move to exact
entries; every move, alone or in a ``BraidWord``, goes through it, and a
move never writes to the rows it is given.  ``_entries`` and ``_like`` are
the only boundary between a matrix and its rows, and a word crosses it
once, not once per move.  A rational matrix whose entries are all integral
crosses as Python ints, which are exact and never wrap, and moves as ints;
any other holds ``Fraction`` or ``TruncatedPoly`` values.  Either way a
rational result comes back as ``Fraction``s.  ``_move_kind`` is the one
shape rule for a move tuple, which ``BraidWord.inverse`` and
``serialize.move_to_json`` read too.
"""

from __future__ import annotations

import threading
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Optional, Union

import numpy as np

from . import _kernels
from .algebra import (PolyMatrix, _as_fraction, _as_int, _index, _index_order,
                      _linear_extensions, _size, _unit)

RationalMatrix = tuple  # tuple of tuples of Fractions
MatrixLike = Union[PolyMatrix, tuple, list]
Move = tuple  # ("braid", i, +1/-1) | ("perm", sigma) | ("sign", k or vec)


# ---------------------------------------------------------------------------
# Exact matrix plumbing
# ---------------------------------------------------------------------------

def as_rational_matrix(m) -> RationalMatrix:
    rows = tuple(tuple(map(_as_fraction, row)) for row in m)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    return rows


def _entries(A: MatrixLike) -> list:
    """The exact entries of a rational or polynomial matrix as its rows:
    Python ints when every entry of a rational matrix is integral (exact,
    and they never wrap), else ``Fraction`` or ``TruncatedPoly`` values.
    The rows may be A's own; no move writes to the rows it is given."""
    if isinstance(A, PolyMatrix):
        return A.entries
    rows = as_rational_matrix(A)
    if all(x.denominator == 1 for row in rows for x in row):
        return [[x.numerator for x in row] for row in rows]
    return rows


def _like(A: MatrixLike, rows: list):
    """``rows`` in the form of ``A``: a PolyMatrix, or a tuple of tuples of
    ``Fraction``s."""
    if isinstance(A, PolyMatrix):
        return PolyMatrix(rows)
    return tuple(tuple(map(_as_fraction, row)) for row in rows)


def _move_kind(mv: Move) -> str:
    """The kind of the move tuple ``mv``, "braid", "perm" or "sign", when it
    has that kind's length (3 for a braid move, else 2); anything else is
    an unknown move."""
    kind = mv[0] if mv else None
    if not (kind == "braid" and len(mv) == 3
            or kind in ("perm", "sign") and len(mv) == 2):
        raise ValueError(f"unknown move {mv!r}")
    return kind


def _braid_rows(a: list, i: int, forward: bool) -> list:
    """The rows of X A X for the rows ``a`` of a unit-diagonal matrix A,
    with X the identity but for the block [[0, 1], [1, -m]] (forward) or
    [[-m, 1], [1, 0]] (backward) at rows and columns i, i+1 (0-based),
    where m = p + q for p = A[i][i+1] and q = A[i+1][i].

    X A mixes only rows i, i+1 and (X A) X only columns i, i+1, each by
    one map on a pair (u, v) of entries, u in row (column) i and v in row
    (column) i+1: (u, v) -> (v, u - m v) forward and (v - m u, u)
    backward.  An entry off both pairs is left alone, and one in exactly
    one of them meets one map.  The block [[1, p], [q, 1]] meets both.
    Forward, the rows give [[q, 1], [1 - m q, p - m]] and then the columns

        [[1, q - m], [p - m, 1 - m q - m (p - m)]];

    backward, the rows give [[q - m, 1 - m p], [1, p]] and then the columns

        [[1 - m p - m (q - m), q - m], [p - m, 1]].

    Both are [[1, -p], [-q, 1]], since m = p + q makes q - m = -p,
    p - m = -q and 1 - m (p + q) + m^2 = 1.  So the block is negated off
    its diagonal with no arithmetic, and a pair whose multiplied entry (v
    forward, u backward), or m, is zero is swapped with no product formed.
    ``a`` is read, never written.
    """
    n, j = len(a), i + 1
    p, q = a[i][j], a[j][i]
    m = p + q
    out = [list(row) for row in a]
    top, bottom = out[i], out[j]

    def pair(u, v):
        if forward:
            return v, (u - m * v if m and v else u)
        return (v - m * u if m and u else v), u

    for k in range(n):
        if k != i and k != j:
            top[k], bottom[k] = pair(top[k], bottom[k])
            row = out[k]
            row[i], row[j] = pair(row[i], row[j])
    top[j], bottom[i] = -p, -q
    return out


def _move(mv: Move, a: list) -> list:
    """The move ``mv`` checked against and applied to the rows ``a`` of
    exact entries, giving new rows; a braid move is forward when mv[2] is
    +1 and backward when it is -1."""
    kind, n = _move_kind(mv), len(a)
    if kind == "braid":
        if any(a[k][k] != 1 for k in range(n)):
            raise ValueError("matrix must have unit diagonal")
        i, direction = _index(mv[1], n - 1, "braid index"), _unit(mv[2], "braid direction")
        if a[i - 1][i] != 0 and a[i][i - 1] != 0:
            raise ValueError("matrix is not unipotent for any order at the braid position")
        return _braid_rows(a, i - 1, direction > 0)
    if kind == "perm":
        sigma = tuple(_as_int(s) for s in mv[1])
        if sorted(sigma) != list(range(1, len(sigma) + 1)):
            raise ValueError("not a permutation of 1..n")
        if len(sigma) != n:
            raise ValueError(f"permutation of length {len(sigma)} for a "
                             f"{n} x {n} matrix")
        # entry (r, c) moves to (sigma(r), sigma(c))
        inv = [k - 1 for k in _inverse_permutation(sigma)]
        return [[row[c] for c in inv] for row in (a[r] for r in inv)]
    if np.ndim(mv[1]) == 0:
        k = _index(mv[1], n, "sign index")
        d = tuple(-1 if t == k - 1 else 1 for t in range(n))
    else:
        d = tuple(_unit(x, "sign") for x in mv[1])
        if len(d) != n:
            raise ValueError("sign vector must consist of +-1 of length n")
    # d_r d_c a_rc: a negation where d_r != d_c
    return [[-x if dr != dc else x for dc, x in zip(d, row)]
            for dr, row in zip(d, a)]


def apply_move(mv: Move, A: MatrixLike):
    return _like(A, _move(mv, _entries(A)))


def beta(i: int, A: MatrixLike):
    """Forward braiding action at (i, i+1); accepts rational or polynomial
    matrices with unit diagonal."""
    return _like(A, _move(("braid", i, 1), _entries(A)))


def beta_inv(i: int, A: MatrixLike):
    """Inverse braiding action at (i, i+1)."""
    return _like(A, _move(("braid", i, -1), _entries(A)))


def _inverse_permutation(sigma) -> tuple:
    """The inverse of a permutation of 1..n given as its list of images."""
    inv = [0] * len(sigma)
    for k, s in enumerate(sigma, 1):
        inv[s - 1] = k
    return tuple(inv)


def _conj_np(sigma, a: np.ndarray) -> np.ndarray:
    """Permutation conjugation of an (n, n) array of any dtype: entry (i, j)
    moves to (sigma(i), sigma(j)).  ``sigma`` is one permutation, giving an
    (n, n) array, or a (k, n) stack of them, giving the (k, n, n) stack of
    conjugates."""
    inv = np.argsort(sigma, axis=-1)
    return a[inv[..., :, None], inv[..., None, :]]


def perm_conj(sigma, A: MatrixLike):
    """Conjugation by the permutation sending index k to sigma[k-1].

    (P A P^-1)[sigma(i), sigma(j)] = A[i, j]; output triangularity is not
    guaranteed and is re-checked by callers that need it.
    """
    return _like(A, _move(("perm", sigma), _entries(A)))


def sign_conj(k_or_vec, A: MatrixLike):
    """Conjugation by a diagonal sign matrix.

    Accepts a single 1-based index (flip that one sign) or a full vector
    of +-1.  Involutive.
    """
    return _like(A, _move(("sign", k_or_vec), _entries(A)))


# ---------------------------------------------------------------------------
# Words of moves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BraidWord:
    moves: tuple

    def apply(self, A: MatrixLike):
        """The moves, left to right, on A's rows: A is read once, into
        Python ints when it is integral, and the result is written once."""
        a = _entries(A)
        for mv in self.moves:
            a = _move(mv, a)
        return _like(A, a)

    def inverse(self) -> "BraidWord":
        out = []
        for mv in reversed(self.moves):
            kind = _move_kind(mv)
            if kind == "braid":
                out.append(("braid", mv[1], -mv[2]))
            elif kind == "perm":
                out.append(("perm", _inverse_permutation(mv[1])))
            else:
                out.append(mv)
        return BraidWord(tuple(out))

    def __len__(self):
        return len(self.moves)


@dataclass
class EquivalenceCertificate:
    source: RationalMatrix
    target: RationalMatrix
    word: BraidWord
    verified: bool

    def replay(self) -> bool:
        return self.word.apply(self.source) == self.target


# ---------------------------------------------------------------------------
# Orbit search
# ---------------------------------------------------------------------------

@dataclass
class OrbitSearchResult:
    """Outcome of a bounded orbit search.

    status "found" carries a certificate.  "exhausted" means the frontier
    drained within the entry bound: every state reachable through states
    whose entries stay within the bound was explored without a hit.  When
    ``pruned > 0`` that is still no proof that the matrices are inequivalent,
    since a path through a pruned state may reach the target.
    "inconclusive" means the depth limit stopped the search while states
    were still left to expand.

    Every field is what a fresh breadth-first search returns, also when
    the search shared its exploration with earlier ones from the same source
    and entry bound: ``states`` and ``pruned`` count the classes discovered
    and the children pruned up to the hit, or up to the end of level
    ``depth_reached``, never what an earlier, deeper search explored.
    """

    status: str  # "found" | "exhausted" | "inconclusive"
    certificate: Optional[EquivalenceCertificate]
    depth_reached: int
    states: int
    pruned: int


_INT64 = np.iinfo(np.int64)


def _support(a: np.ndarray) -> list[tuple[int, int]]:
    """The 1-based positions (i, j), i != j, of the nonzero entries of a."""
    return [(int(i) + 1, int(j) + 1) for i, j in zip(*np.nonzero(a)) if i != j]


def _search_input(m) -> tuple[RationalMatrix, np.ndarray, tuple]:
    """``m`` checked in full as an orbit-search input: its exact rows, the
    same entries in int64, and tau with perm_conj(tau, m) upper triangular."""
    if isinstance(m, PolyMatrix):
        raise ValueError("orbit search works on evaluated matrices; "
                         "evaluate at a rational point first")
    rows = as_rational_matrix(m)
    if not rows:
        raise ValueError("orbit search needs matrices of size at least 1")
    for x in (x for row in rows for x in row):
        if x.denominator != 1:
            raise ValueError("orbit search expects integer matrices")
        if not _INT64.min <= x.numerator <= _INT64.max:
            raise ValueError("orbit search entries must fit in int64")
    a = np.array([[x.numerator for x in row] for row in rows], dtype=np.int64)
    if (np.diagonal(a) != 1).any():
        raise ValueError("matrices must have unit diagonal")
    try:
        order = _index_order(len(rows), _support(a))
    except ValueError:
        raise ValueError("input is not unipotent with respect to any order") from None
    return rows, a, _inverse_permutation(order)


def _target_set(up: np.ndarray, source: np.ndarray) -> tuple:
    """(targets, canon, signs): the sign class -> (sigma, signs) map over
    the upper-triangular conjugates of ``up``, each class with its least
    sigma, as sigma runs in order; and ``sign_canonical`` of ``source``,
    which rides in the first kernel call."""
    targets: dict[bytes, tuple] = {}
    sigmas = sorted(map(_inverse_permutation,
                        _linear_extensions(len(up), _support(up))))
    for lo in range(0, len(sigmas), _kernels.CHUNK):
        block = sigmas[lo:lo + _kernels.CHUNK]
        stack = _conj_np(block, up)
        if lo == 0:
            stack = np.concatenate((source[None], stack))
        canons, signs = _kernels.sign_canonical(stack)
        if lo == 0:
            source_form = canons[0], signs[0]
            canons, signs = canons[1:], signs[1:]
        for sigma, canon, sign in zip(block, canons, signs):
            targets.setdefault(canon.tobytes(), (sigma, sign))
    return targets, *source_form


# Largest B with B + B^2 <= 2^63 - 1: one braid move maps entries of
# absolute value <= B to at most B + B^2, so it cannot wrap in int64.
_MOVE_ENTRY_LIMIT = 3_037_000_499


def _sign_bits(signs: np.ndarray) -> np.ndarray:
    """The -1 entries of +-1 sign vectors, packed along the last axis
    little-endian: ``int.from_bytes(row, "little")`` is the bitmask with
    bit t set where sign t is -1."""
    return np.packbits(signs < 0, axis=-1, bitorder="little")


class _Ball:
    """The sign classes reachable from one canonical source through states
    whose entries stay within one bound, in the order a breadth-first search
    discovers them, explored only as far as some query has needed.

    Class k >= 1 is child ``child[k]`` = parent * 2(n-1) + move of class
    ``parent``, moves numbered as in ``expand_frontier``, found with
    ``pruned_at[k]`` children pruned before it; ``signs[k]`` is the bitmask
    of the signs ``sign_canonical`` returned for it, so a certificate needs
    no canonicalization.  ``ends[L]`` is (states, pruned) at the end of
    level L, which gives a class's level by bisection; ``drained`` is set
    when a level discovers no class.

    ``_step`` is the one exploration: it expands the next ``_kernels.CHUNK``
    frontier classes, read back from ``keys``, records the chunk's new
    classes whole and closes the level after its last chunk.  A query stops
    between two steps, so a stopped exploration holds its records, the
    frontier cursor and the pruned count, and no children.
    """

    def __init__(self, canon0: np.ndarray, entry_bound: int):
        self.n = canon0.shape[0]
        self.key0, self.entry_bound = canon0.tobytes(), entry_bound
        self.keys, self.index = [self.key0], {self.key0: 0}
        self.child, self.pruned_at = array("q", [-1]), array("q", [0])
        self.signs = [0]  # the source's signs depend on the query's form
        self.ends, self.drained = [(1, 0)], False
        self.cursor, self.pruned = 0, 0

    def _step(self) -> None:
        """Expand one chunk of the frontier, the classes ``cursor`` up to
        the current level's start, and record its new classes."""
        n, lo, stop = self.n, self.cursor, self.ends[-1][0]
        hi, size = min(lo + _kernels.CHUNK, stop), 8 * n * n  # int64 entries
        frontier = np.frombuffer(b"".join(self.keys[lo:hi]),
                                 dtype=np.int64).reshape(-1, n, n)
        children, ok = _kernels.expand_frontier(frontier, self.entry_bound)
        canons, signs = _kernels.sign_canonical(children)
        keys, bits, first = canons.tobytes(), _sign_bits(signs), lo * 2 * (n - 1)
        for j, good in enumerate(ok.tolist()):
            if not good:
                self.pruned += 1
                continue
            key = keys[j * size:(j + 1) * size]
            if key not in self.index:
                self.index[key] = len(self.keys)
                self.keys.append(key)
                self.child.append(first + j)
                self.pruned_at.append(self.pruned)
                self.signs.append(int.from_bytes(bits[j], "little"))
        self.cursor = hi
        if hi == stop:
            self.ends.append((len(self.keys), self.pruned))
            self.drained = len(self.keys) == stop

    def search(self, targets: dict, depth: int) -> tuple:
        """(status, depth_reached, states, pruned, key of the hit or None)
        as a fresh search to ``depth`` for the first class in ``targets``
        would report them."""
        while True:
            k = min((self.index[key] for key in targets if key in self.index),
                    default=None)
            if k is not None or len(self.ends) > depth or self.drained:
                break
            self._step()
        if k is not None:
            level = bisect_right(self.ends, k, key=itemgetter(0))
            if level <= depth:
                return "found", level, k + 1, self.pruned_at[k], self.keys[k]
        last = len(self.ends) - 1
        if self.drained and last <= depth:
            return ("exhausted", last, *self.ends[last], None)
        return ("inconclusive", depth, *self.ends[depth], None)

    def path(self, k: int) -> list:
        """(class, move) from the source, excluded, to class k, each class
        with the move that found it, numbered as ``expand_frontier``
        numbers them."""
        out = []
        while k:
            parent, move = divmod(self.child[k], 2 * (self.n - 1))
            out.append((k, move))
            k = parent
        return out[::-1]


# The ball of the last search; a search from the same canonical source with
# the same entry bound answers from it, any other search replaces it.
_LAST: Optional[_Ball] = None
_LAST_LOCK = threading.Lock()


def _ball_search(canon0: np.ndarray, entry_bound: int, targets: dict,
                 depth: int) -> tuple:
    """The ball of ``canon0`` and ``entry_bound``, and its answer to the
    query (``_Ball.search``).  One lock covers the lookup and the
    exploration, so one ball is never explored by two threads.  A ball an
    exception interrupted may be half-written, so it is dropped."""
    global _LAST
    with _LAST_LOCK:
        ball = _LAST
        if (ball is None or ball.key0 != canon0.tobytes()
                or ball.entry_bound != entry_bound):
            ball = _LAST = _Ball(canon0, entry_bound)
        try:
            return ball, ball.search(targets, depth)
        except BaseException:
            _LAST = None
            raise


def orbit_search(S1: MatrixLike, S2: MatrixLike, depth: int = 12,
                 entry_bound: int = 64) -> OrbitSearchResult:
    """Bounded BFS over braid moves certifying S1 ~ S2.

    States are explored up to sign conjugation (lexicographically minimal
    representative).  The target set holds the sign classes of S2's
    upper-triangular permutation conjugates, by the inverses sigma of the
    linear extensions of its support, each class with its least sigma; it
    costs one conjugate per extension, n! only for a target with no
    off-diagonal entries.  Absence of a certificate within the bounds is
    reported as exhausted or inconclusive, never as inequivalence.

    Searches from the same source sign class with the same entry bound share
    one exploration: the classes found so far, kept in ``_LAST``, answer a
    query the exploration has already passed, and a query beyond it resumes
    the exploration where the last one stopped.  Every field of the result
    is what a fresh search returns.  The last exploration stays in memory
    until a search with another source or bound replaces it.  It keeps the
    canonical form and three integers of each class found, and no children,
    as a search stops only between two chunks of a level: 17.5 MB after the
    full A7 orbit (32 768 classes), 16.4 MB after an A7 search stopped at
    depth 10.  Calls from several threads run one at a time.

    A ValueError is raised before any work when ``depth`` or
    ``entry_bound`` is not an integer of at least 0 or 1, by
    ``algebra._size`` (every unit-diagonal child has an entry 1, so a
    smaller bound would prune every move).  Then each input is checked in
    full, S1 first: a nonempty integer matrix (no quiver of rank 0 exists)
    with unit diagonal, unipotent with respect to some order; then the
    dimension check.  Moves run in int64, so before the first level a
    ValueError is raised when ``entry_bound`` or an entry of S1 exceeds
    3 037 000 499 in absolute value, the largest B with B + B^2 < 2^63.
    """
    depth = _size(depth, 0, "orbit search depth")
    entry_bound = _size(entry_bound, 1, "orbit search entry bound")
    (src, a1, tau1), (tgt, a2, tau2) = _search_input(S1), _search_input(S2)
    if a1.shape != a2.shape:
        raise ValueError("dimension mismatch")
    if np.array_equal(a1, a2):
        cert = EquivalenceCertificate(src, tgt, BraidWord(()), True)
        return OrbitSearchResult("found", cert, 0, 1, 0)

    n, up1, up2 = len(a1), _conj_np(tau1, a1), _conj_np(tau2, a2)
    targets, canon0, signs0 = _target_set(up2, up1)
    # a source in the target set is found without a move, whatever its size
    limit = _MOVE_ENTRY_LIMIT
    if canon0.tobytes() not in targets and (
            entry_bound > limit or a1.max() > limit or a1.min() < -limit):
        raise ValueError(f"orbit search entries and entry bound must be at most "
                         f"{limit} so that a move stays within int64")
    ball, (status, level, states, pruned, hit) = _ball_search(
        canon0, entry_bound, targets, depth)
    if hit is None:
        return OrbitSearchResult(status, None, level, states, pruned)

    moves: list[Move] = []
    ident = tuple(range(1, n + 1))

    def emit_sign(mask: int):
        if mask:
            moves.append(("sign", tuple(-1 if mask >> t & 1 else 1
                                        for t in range(n))))

    def emit_perm(sigma):
        if sigma != ident:
            moves.append(("perm", sigma))

    emit_perm(tau1)
    emit_sign(int.from_bytes(_sign_bits(signs0), "little"))
    for k, code in ball.path(ball.index[hit]):
        moves.append(("braid", code % (n - 1) + 1, 1 if code < n - 1 else -1))
        emit_sign(ball.signs[k])
    sigma, tsigns = targets[hit]
    emit_sign(int.from_bytes(_sign_bits(tsigns), "little"))
    emit_perm(_inverse_permutation(sigma))
    emit_perm(_inverse_permutation(tau2))

    cert = EquivalenceCertificate(src, tgt, BraidWord(tuple(moves)), False)
    cert.verified = cert.replay()
    return OrbitSearchResult(status, cert, level, states, pruned)


# ---------------------------------------------------------------------------
# Relations of the action
# ---------------------------------------------------------------------------

def random_unipotent(n: int, rng, bound: int = 5) -> RationalMatrix:
    return tuple(tuple(Fraction(1) if i == j
                       else (Fraction(rng.randint(-bound, bound)) if j > i
                             else Fraction(0))
                       for j in range(n)) for i in range(n))


def verify_braid_group_relations(n: int, samples: int = 100,
                                 seed: int = 7) -> dict:
    """Check the braid, commutation and inverse relations as actions on
    random unipotent upper-triangular integer matrices, each side of a
    relation replayed as one ``BraidWord``."""
    import random as _random
    n, samples = _size(n, 3, "rank n"), _size(samples, 0, "sample count")
    rng = _random.Random(seed)
    failures = []

    def word(a, *moves):
        """a after the forward (k > 0) or backward braid moves at |k|, in
        order, replayed as one word."""
        return BraidWord(tuple(("braid", abs(k), 1 if k > 0 else -1)
                               for k in moves)).apply(a)

    for t in range(samples):
        a = random_unipotent(n, rng)
        for i in range(1, n - 1):
            if word(a, i, i + 1, i) != word(a, i + 1, i, i + 1):
                failures.append(("braid", t, i))
        for i in range(1, n):
            for j in range(i + 2, n):
                if word(a, j, i) != word(a, i, j):
                    failures.append(("commute", t, (i, j)))
        for i in range(1, n):
            if word(a, i, -i) != a or word(a, -i, i) != a:
                failures.append(("inverse", t, i))
    return {"n": n, "samples": samples, "failures": failures,
            "ok": not failures}
