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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from . import _kernels
from .algebra import PolyMatrix, _as_fraction, _index_order

RationalMatrix = tuple  # tuple of tuples of Fractions
MatrixLike = Union[PolyMatrix, tuple, list]


# ---------------------------------------------------------------------------
# Exact matrix plumbing
# ---------------------------------------------------------------------------

def as_rational_matrix(m) -> RationalMatrix:
    if isinstance(m, PolyMatrix):
        raise TypeError("pass PolyMatrix entries through beta directly")
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


def _braid(i: int, A: MatrixLike, forward: bool):
    a = _entries(A)
    n = len(a)
    if any(a[k, k] != 1 for k in range(n)):
        raise ValueError("matrix must have unit diagonal")
    if not 1 <= i <= n - 1:
        raise ValueError(f"braid index {i} out of range 1..{n - 1}")
    if a[i - 1, i] != 0 and a[i, i - 1] != 0:
        raise ValueError("matrix is not unipotent for any order at the braid position")
    return _like(A, _kernels.braid_apply(a[None], i - 1, forward)[0])


def beta(i: int, A: MatrixLike):
    """Forward braiding action at (i, i+1); accepts rational or polynomial
    matrices with unit diagonal."""
    return _braid(i, A, True)


def beta_inv(i: int, A: MatrixLike):
    """Inverse braiding action at (i, i+1)."""
    return _braid(i, A, False)


def _conj_np(sigma: tuple, a: np.ndarray) -> np.ndarray:
    """Permutation conjugation of an (n, n) array of any dtype: entry (i, j)
    moves to (sigma(i), sigma(j))."""
    inv = np.argsort(sigma)
    return a[np.ix_(inv, inv)]


def perm_conj(sigma, A: MatrixLike):
    """Conjugation by the permutation sending index k to sigma[k-1].

    (P A P^-1)[sigma(i), sigma(j)] = A[i, j]; output triangularity is not
    guaranteed and is re-checked by callers that need it.
    """
    sigma = tuple(int(s) for s in sigma)
    if sorted(sigma) != list(range(1, len(sigma) + 1)):
        raise ValueError("not a permutation of 1..n")
    a = _entries(A)
    if len(sigma) != len(a):
        raise ValueError(f"permutation of length {len(sigma)} for a "
                         f"{len(a)} x {len(a)} matrix")
    return _like(A, _conj_np(sigma, a))


def sign_conj(k_or_vec, A: MatrixLike):
    """Conjugation by a diagonal sign matrix.

    Accepts a single 1-based index (flip that one sign) or a full vector
    of +-1.  Involutive.
    """
    a = _entries(A)
    d = _sign_vector(k_or_vec, len(a))
    return _like(A, a * np.outer(d, d))


def _sign_vector(k_or_vec, n) -> tuple:
    if isinstance(k_or_vec, int):
        if not 1 <= k_or_vec <= n:
            raise ValueError(f"sign index {k_or_vec} out of range 1..{n}")
        return tuple(-1 if t == k_or_vec - 1 else 1 for t in range(n))
    d = tuple(int(x) for x in k_or_vec)
    if len(d) != n or any(x not in (1, -1) for x in d):
        raise ValueError("sign vector must consist of +-1 of length n")
    return d


# ---------------------------------------------------------------------------
# Words of moves
# ---------------------------------------------------------------------------

Move = tuple  # ("braid", i, +1/-1) | ("perm", sigma) | ("sign", vec)


@dataclass(frozen=True)
class BraidWord:
    moves: tuple

    def apply(self, A: MatrixLike):
        m = A
        for mv in self.moves:
            m = apply_move(mv, m)
        return m

    def inverse(self) -> "BraidWord":
        out = []
        for mv in reversed(self.moves):
            if mv[0] == "braid":
                out.append(("braid", mv[1], -mv[2]))
            elif mv[0] == "perm":
                sigma = mv[1]
                inv = [0] * len(sigma)
                for k, s in enumerate(sigma):
                    inv[s - 1] = k + 1
                out.append(("perm", tuple(inv)))
            else:
                out.append(mv)
        return BraidWord(tuple(out))

    def __len__(self):
        return len(self.moves)


def apply_move(mv: Move, A: MatrixLike):
    kind = mv[0]
    if kind == "braid":
        return beta(mv[1], A) if mv[2] > 0 else beta_inv(mv[1], A)
    if kind == "perm":
        return perm_conj(mv[1], A)
    if kind == "sign":
        return sign_conj(mv[1], A)
    raise ValueError(f"unknown move {mv!r}")


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
    """

    status: str  # "found" | "exhausted" | "inconclusive"
    certificate: Optional[EquivalenceCertificate]
    depth_reached: int
    states: int
    pruned: int


_INT64 = np.iinfo(np.int64)


def _to_int_matrix(m) -> np.ndarray:
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
    return out


def _np_to_rational(a: np.ndarray) -> RationalMatrix:
    return tuple(tuple(Fraction(int(x)) for x in row) for row in a)


def _sorting_permutation(a: np.ndarray) -> Optional[tuple]:
    """Permutation sigma with perm_conj(sigma, a) upper triangular, or None."""
    n = a.shape[0]
    try:
        order = _index_order(n, [(int(i) + 1, int(j) + 1)
                                 for i, j in zip(*np.nonzero(a)) if i != j])
    except ValueError:
        return None
    sigma = [0] * n
    for pos, v in enumerate(order):
        sigma[v - 1] = pos + 1
    return tuple(sigma)


# Permutations conjugated per numpy call when building the target set (6!).
_PERM_BLOCK = 720

# Largest B with B + B^2 <= 2^63 - 1: one braid move maps entries of
# absolute value <= B to at most B + B^2, so it cannot wrap in int64.
_MOVE_ENTRY_LIMIT = 3_037_000_499


def orbit_search(S1: MatrixLike, S2: MatrixLike, depth: int = 12,
                 entry_bound: int = 64) -> OrbitSearchResult:
    """Bounded BFS over braid moves certifying S1 ~ S2.

    Both inputs must be unit-diagonal integer matrices that are unipotent
    with respect to some order.  States are explored up to sign conjugation
    (lexicographically minimal representative); the target set is closed
    under triangularity-preserving permutation conjugations and all sign
    conjugations.  Absence of a certificate within the bounds is reported as
    exhausted or inconclusive, never as inequivalence.

    Moves run in int64, so before the first level a ValueError is raised
    when ``entry_bound`` or an entry of S1 exceeds 3 037 000 499 in absolute
    value, the largest B with B + B^2 < 2^63.
    """
    a1 = _to_int_matrix(S1)
    a2 = _to_int_matrix(S2)
    if a1.shape != a2.shape:
        raise ValueError("dimension mismatch")
    n = a1.shape[0]
    if any(a1[i, i] != 1 for i in range(n)) or any(a2[i, i] != 1 for i in range(n)):
        raise ValueError("matrices must have unit diagonal")

    src = _np_to_rational(a1)
    tgt = _np_to_rational(a2)
    if np.array_equal(a1, a2):
        cert = EquivalenceCertificate(src, tgt, BraidWord(()), True)
        return OrbitSearchResult("found", cert, 0, 1, 0)

    tau1 = _sorting_permutation(a1)
    tau2 = _sorting_permutation(a2)
    if tau1 is None or tau2 is None:
        raise ValueError("input is not unipotent with respect to any order")
    up1 = _conj_np(tau1, a1)
    up2 = _conj_np(tau2, a2)

    # Target set: sign-canonical forms of the upper-triangular permutation
    # conjugates of up2, remembering how to get back.  Permutations go
    # through numpy in blocks, in lexicographic order.
    targets: dict[bytes, tuple] = {}
    perms = itertools.permutations(range(1, n + 1))
    while block := list(itertools.islice(perms, _PERM_BLOCK)):
        inv = np.argsort(np.array(block), axis=1)
        cands = up2[inv[:, :, None], inv[:, None, :]]
        upper = ~np.tril(cands, -1).any(axis=(1, 2))
        canons, signs = _kernels.sign_canonical(cands[upper])
        for sigma, canon, sign in zip(itertools.compress(block, upper),
                                      canons, signs):
            targets.setdefault(canon.tobytes(),
                               (sigma, tuple(int(s) for s in sign)))

    (canon0,), _ = _kernels.sign_canonical(up1[None])
    key0 = canon0.tobytes()
    parents: dict[bytes, Optional[tuple]] = {key0: None}
    pruned = 0

    def reconstruct(final_key: bytes) -> EquivalenceCertificate:
        chain = []
        key = final_key
        while parents[key] is not None:
            pkey, move = parents[key]
            chain.append(move)
            key = pkey
        chain.reverse()

        moves: list[Move] = []
        ident = tuple(range(1, n + 1))

        def emit_sign(vec):
            if any(s != 1 for s in vec):
                moves.append(("sign", tuple(int(s) for s in vec)))

        def emit_perm(sigma):
            if tuple(sigma) != ident:
                moves.append(("perm", tuple(sigma)))

        emit_perm(tau1)
        cur = up1[None]
        for (i, direction) in chain:
            cur, signs = _kernels.sign_canonical(cur)
            emit_sign(signs[0])
            moves.append(("braid", i, direction))
            cur = _kernels.braid_apply(cur, i - 1, direction > 0)
        cur, signs = _kernels.sign_canonical(cur)
        emit_sign(signs[0])
        sigma, tsigns = targets[cur[0].tobytes()]
        emit_sign(tsigns)
        inv = [0] * n
        for k, s in enumerate(sigma):
            inv[s - 1] = k + 1
        emit_perm(inv)
        inv2 = [0] * n
        for k, s in enumerate(tau2):
            inv2[s - 1] = k + 1
        emit_perm(inv2)

        word = BraidWord(tuple(moves))
        verified = word.apply(src) == tgt
        return EquivalenceCertificate(src, tgt, word, verified)

    if key0 in targets:
        return OrbitSearchResult("found", reconstruct(key0), 0, 1, pruned)

    limit = _MOVE_ENTRY_LIMIT
    if entry_bound > limit or a1.max() > limit or a1.min() < -limit:
        raise ValueError(f"orbit search entries and entry bound must be at most "
                         f"{limit} so that a move stays within int64")
    moves_per = 2 * (n - 1)
    step = _kernels.CHUNK * moves_per
    frontier = canon0[None]
    frontier_keys = [key0]
    for level in range(1, depth + 1):
        children, ok = _kernels.expand_frontier(frontier, entry_bound)
        new_frontier = []
        new_keys = []
        for lo in range(0, len(children), step):
            canons, _ = _kernels.sign_canonical(children[lo:lo + step])
            fresh = []
            for j, canon in enumerate(canons):
                idx = lo + j
                if not ok[idx]:
                    pruned += 1
                    continue
                key = canon.tobytes()
                if key in parents:
                    continue
                s, k = divmod(idx, moves_per)
                direction = 1 if k < n - 1 else -1
                i = (k if k < n - 1 else k - (n - 1)) + 1
                parents[key] = (frontier_keys[s], (i, direction))
                if key in targets:
                    return OrbitSearchResult("found", reconstruct(key), level,
                                             len(parents), pruned)
                fresh.append(j)
                new_keys.append(key)
            new_frontier.append(canons[fresh])
        frontier = np.concatenate(new_frontier)
        frontier_keys = new_keys
        if not new_keys:
            return OrbitSearchResult("exhausted", None, level, len(parents),
                                     pruned)
    return OrbitSearchResult("inconclusive", None, depth, len(parents), pruned)


def equivalent(S1: MatrixLike, S2: MatrixLike, depth: int = 12,
               entry_bound: int = 64) -> Optional[EquivalenceCertificate]:
    """Shortest-word certificate that S1 and S2 are related, or None when the
    bounded search ends exhausted or inconclusive.  Like ``orbit_search`` it
    raises ValueError when ``entry_bound`` or an entry of S1 exceeds
    3 037 000 499 in absolute value, the int64 limit of one move."""
    return orbit_search(S1, S2, depth, entry_bound).certificate


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
