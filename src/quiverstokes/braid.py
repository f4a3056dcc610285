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
update of those two rows followed by the same update of those two columns:
``_kernels.braid_apply``, the same code for the int64 stacks of the orbit
search and for the exact ``Fraction`` and ``TruncatedPoly`` entries handled
here as numpy object arrays.

``_move`` is the one function that checks and applies a move to exact
entries; every move, alone or in a ``BraidWord``, goes through it.
``_entries`` and ``_like`` are the only boundary between a matrix and its
object array, and a word crosses it once, not once per move.
"""

from __future__ import annotations

import threading
from array import array
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from . import _kernels
from .algebra import PolyMatrix, _as_fraction, _as_int, _index, _linear_extensions

RationalMatrix = tuple  # tuple of tuples of Fractions
MatrixLike = Union[PolyMatrix, tuple, list]
Move = tuple  # ("braid", i, +1/-1) | ("perm", sigma) | ("sign", k or vec)


# ---------------------------------------------------------------------------
# Exact matrix plumbing
# ---------------------------------------------------------------------------

def as_rational_matrix(m) -> RationalMatrix:
    rows = tuple(tuple(_as_fraction(x) for x in row) for row in m)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    return rows


def _entries(A: MatrixLike) -> np.ndarray:
    """The exact entries of a rational or polynomial matrix as an (n, n)
    object array of ``Fraction`` or ``TruncatedPoly`` values."""
    rows = A.entries if isinstance(A, PolyMatrix) else as_rational_matrix(A)
    arr = np.empty((len(rows), len(rows)), dtype=object)
    arr[...] = rows
    return arr


def _like(A: MatrixLike, arr: np.ndarray):
    """``arr`` in the form of ``A``: a PolyMatrix, or a tuple of tuples."""
    if isinstance(A, PolyMatrix):
        return PolyMatrix(A.n, arr.tolist())
    return tuple(map(tuple, arr.tolist()))


def _move(mv: Move, a: np.ndarray) -> np.ndarray:
    """The move ``mv`` checked against and applied to the (n, n) object
    array ``a`` of exact entries; a braid move is forward when mv[2] > 0."""
    kind, n = mv[0], len(a)
    if kind == "braid":
        if any(a[k, k] != 1 for k in range(n)):
            raise ValueError("matrix must have unit diagonal")
        i = _index(mv[1], n - 1, "braid index")
        if a[i - 1, i] != 0 and a[i, i - 1] != 0:
            raise ValueError("matrix is not unipotent for any order at the braid position")
        return _kernels.braid_apply(a[None], i - 1, mv[2] > 0)[0]
    if kind == "perm":
        sigma = tuple(_as_int(s) for s in mv[1])
        if sorted(sigma) != list(range(1, len(sigma) + 1)):
            raise ValueError("not a permutation of 1..n")
        if len(sigma) != n:
            raise ValueError(f"permutation of length {len(sigma)} for a "
                             f"{n} x {n} matrix")
        return _conj_np(sigma, a)
    if kind == "sign":
        if np.ndim(mv[1]) == 0:
            k = _index(mv[1], n, "sign index")
            d = tuple(-1 if t == k - 1 else 1 for t in range(n))
        else:
            d = tuple(_as_int(x) for x in mv[1])
            if len(d) != n or any(x not in (1, -1) for x in d):
                raise ValueError("sign vector must consist of +-1 of length n")
        return a * np.outer(d, d)
    raise ValueError(f"unknown move {mv!r}")


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
        """The moves, left to right, on one array of A's entries."""
        a = _entries(A)
        for mv in self.moves:
            a = _move(mv, a)
        return _like(A, a)

    def inverse(self) -> "BraidWord":
        out = []
        for mv in reversed(self.moves):
            if mv[0] == "braid":
                out.append(("braid", mv[1], -mv[2]))
            elif mv[0] == "perm":
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


def _to_int_matrix(m) -> tuple[RationalMatrix, np.ndarray]:
    """The exact rows of ``m`` and the same entries as an int64 array."""
    if isinstance(m, PolyMatrix):
        raise ValueError("orbit search works on evaluated matrices; "
                         "evaluate at a rational point first")
    rows = as_rational_matrix(m)
    n = len(rows)
    out = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            x = rows[i][j]
            if x.denominator != 1:
                raise ValueError("orbit search expects integer matrices")
            if not _INT64.min <= x <= _INT64.max:
                raise ValueError("orbit search entries must fit in int64")
            out[i, j] = int(x)
    return rows, out


def _support(a: np.ndarray) -> list[tuple[int, int]]:
    """The 1-based positions (i, j), i != j, of the nonzero entries of a."""
    return [(int(i) + 1, int(j) + 1) for i, j in zip(*np.nonzero(a)) if i != j]


def _sorting_permutation(a: np.ndarray) -> Optional[tuple]:
    """Permutation sigma with perm_conj(sigma, a) upper triangular, or None."""
    order = next(_linear_extensions(a.shape[0], _support(a)), None)
    return None if order is None else _inverse_permutation(order)


def _target_set(up: np.ndarray) -> dict[bytes, tuple]:
    """Sign class -> (sigma, signs) over the upper-triangular conjugates of
    ``up``, each class with its least sigma, as sigma runs in order."""
    targets: dict[bytes, tuple] = {}
    sigmas = sorted(map(_inverse_permutation,
                        _linear_extensions(len(up), _support(up))))
    for lo in range(0, len(sigmas), _kernels.CHUNK):
        block = sigmas[lo:lo + _kernels.CHUNK]
        canons, signs = _kernels.sign_canonical(_conj_np(block, up))
        for sigma, canon, sign in zip(block, canons, signs):
            targets.setdefault(canon.tobytes(), (sigma, sign))
    return targets


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

    Class k was discovered from class ``parent[k]`` (class 0, the source,
    has none) by the braid move numbered ``move[k]`` as ``expand_frontier``
    numbers children, on level ``level[k]``, with ``pruned_at[k]`` children
    pruned before it.  ``signs[k]`` is the bitmask of the signs
    ``sign_canonical`` returned for that child, so a certificate needs no
    canonicalization.  ``ends[L]`` is (states, pruned) at the end of level
    L, and ``drained`` is set when a level discovers no class.

    ``_walk`` is the one exploration, chunk by chunk as in
    ``_kernels.CHUNK``.  It yields each new class's key and None at each
    level's end but the last, and a query stops it where its answer is
    known, in the middle of a chunk if need be; the next query resumes it
    there.  A level's frontier is read back from ``keys``, so a stopped
    exploration holds no states but those of one chunk's children.
    """

    def __init__(self, canon0: np.ndarray, entry_bound: int):
        self.key0, self.entry_bound = canon0.tobytes(), entry_bound
        self.keys, self.index = [self.key0], {self.key0: 0}
        self.parent, self.move = array("q", [-1]), array("q", [-1])
        self.level, self.pruned_at = array("q", [0]), array("q", [0])
        self.signs = [0]  # the source's signs depend on the query's form
        self.ends, self.drained = [(1, 0)], False
        self._walk = self._explore(canon0.shape[0])

    def _children(self, lo: int, hi: int, n: int) -> tuple:
        """The children of classes lo .. hi - 1, in the order of
        ``expand_frontier``: their canonical forms as one bytes string,
        whether each is within the entry bound, and their packed signs."""
        frontier = np.frombuffer(b"".join(self.keys[lo:hi]),
                                 dtype=np.int64).reshape(-1, n, n)
        children, ok = _kernels.expand_frontier(frontier, self.entry_bound)
        canons, signs = _kernels.sign_canonical(children)
        return canons.tobytes(), ok.tolist(), _sign_bits(signs)

    def _explore(self, n: int):
        moves_per, size = 2 * (n - 1), 8 * n * n  # int64 entries
        first, pruned = 0, 0
        while True:
            level, stop = len(self.ends), len(self.keys)
            for lo in range(first, stop, _kernels.CHUNK):
                keys, ok, bits = self._children(
                    lo, min(lo + _kernels.CHUNK, stop), n)
                for j, good in enumerate(ok):
                    if not good:
                        pruned += 1
                        continue
                    key = keys[j * size:(j + 1) * size]
                    if key in self.index:
                        continue
                    self.index[key] = len(self.keys)
                    self.keys.append(key)
                    self.parent.append(lo + j // moves_per)
                    self.move.append(j % moves_per)
                    self.signs.append(int.from_bytes(bits[j], "little"))
                    self.level.append(level)
                    self.pruned_at.append(pruned)
                    yield key
            self.ends.append((len(self.keys), pruned))
            if len(self.keys) == stop:
                self.drained = True
                return
            first = stop
            yield None

    def search(self, targets: dict, depth: int) -> tuple:
        """(status, depth_reached, states, pruned, key of the hit or None)
        as a fresh search to ``depth`` for the first class in ``targets``
        would report them."""
        hit = min((key for key in targets if key in self.index),
                  key=self.index.__getitem__, default=None)
        while hit is None and len(self.ends) <= depth and not self.drained:
            key = next(self._walk, None)
            if key in targets:
                hit = key
        k = None if hit is None else self.index[hit]
        if k is not None and self.level[k] <= depth:
            return "found", self.level[k], k + 1, self.pruned_at[k], hit
        last = len(self.ends) - 1
        if self.drained and last <= depth:
            return ("exhausted", last, *self.ends[last], None)
        return ("inconclusive", depth, *self.ends[depth], None)

    def path(self, k: int) -> list:
        """The classes from the source, excluded, to class k."""
        out = []
        while k:
            out.append(k)
            k = self.parent[k]
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

    Both inputs must be unit-diagonal integer matrices that are unipotent
    with respect to some order.  States are explored up to sign conjugation
    (lexicographically minimal representative).  The target set holds the
    sign classes of S2's upper-triangular permutation conjugates, by the
    inverses sigma of the linear extensions of its support, each class with
    its least sigma; it costs one conjugate per extension, n! only for a
    target with no off-diagonal entries.  Absence of a certificate within
    the bounds is reported as exhausted or inconclusive, never as
    inequivalence.

    Searches from the same source sign class with the same entry bound share
    one exploration: the classes found so far, kept in ``_LAST``, answer a
    query the exploration has already passed, and a query beyond it resumes
    the exploration where the last one stopped.  Every field of the result
    is what a fresh search returns.  The last exploration stays in memory
    until a search with another source or bound replaces it.  It keeps the
    canonical form and a few integers of each class found, and of its work
    in progress only one chunk's children: about 18 MB after the full A7
    orbit (32 768 classes), and as much after an A7 search stopped at depth
    10.  Calls from several threads run one at a time.

    A ValueError is raised before any work when ``depth`` or
    ``entry_bound`` is not an integer under ``algebra._as_int``, when
    ``depth`` is negative or ``entry_bound`` is below 1 (every
    unit-diagonal child has an entry 1, so a smaller bound would prune every
    move), and when the matrices are 0 x 0, as no quiver of rank 0 exists.
    Moves run in int64, so before the first level a ValueError is raised
    when ``entry_bound`` or an entry of S1 exceeds 3 037 000 499 in
    absolute value, the largest B with B + B^2 < 2^63.
    """
    depth, entry_bound = _as_int(depth), _as_int(entry_bound)
    if depth < 0:
        raise ValueError(f"orbit search depth must be at least 0, got {depth}")
    if entry_bound < 1:
        raise ValueError(f"orbit search entry bound must be at least 1, "
                         f"got {entry_bound}")
    (src, a1), (tgt, a2) = _to_int_matrix(S1), _to_int_matrix(S2)
    if a1.shape != a2.shape:
        raise ValueError("dimension mismatch")
    n = a1.shape[0]
    if n == 0:
        raise ValueError("orbit search needs matrices of size at least 1")
    if any(a1[i, i] != 1 for i in range(n)) or any(a2[i, i] != 1 for i in range(n)):
        raise ValueError("matrices must have unit diagonal")

    if np.array_equal(a1, a2):
        cert = EquivalenceCertificate(src, tgt, BraidWord(()), True)
        return OrbitSearchResult("found", cert, 0, 1, 0)

    tau1, tau2 = _sorting_permutation(a1), _sorting_permutation(a2)
    if tau1 is None or tau2 is None:
        raise ValueError("input is not unipotent with respect to any order")
    up1, up2 = _conj_np(tau1, a1), _conj_np(tau2, a2)
    targets = _target_set(up2)

    (canon0,), (signs0,) = _kernels.sign_canonical(up1[None])
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
    for k in ball.path(ball.index[hit]):
        code = ball.move[k]
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
    """Check the braid and commutation relations as actions on random
    unipotent upper-triangular integer matrices."""
    import random as _random
    if n < 3:
        raise ValueError("need n >= 3 for a braid relation")
    rng = _random.Random(seed)
    failures = []
    for t in range(samples):
        a = random_unipotent(n, rng)
        for i in range(1, n - 1):
            lhs = beta(i, beta(i + 1, beta(i, a)))
            rhs = beta(i + 1, beta(i, beta(i + 1, a)))
            if lhs != rhs:
                failures.append(("braid", t, i))
        for i in range(1, n):
            for j in range(i + 2, n):
                if beta(i, beta(j, a)) != beta(j, beta(i, a)):
                    failures.append(("commute", t, (i, j)))
        for i in range(1, n):
            if beta_inv(i, beta(i, a)) != a or beta(i, beta_inv(i, a)) != a:
                failures.append(("inverse", t, i))
    return {"n": n, "samples": samples, "failures": failures,
            "ok": not failures}
