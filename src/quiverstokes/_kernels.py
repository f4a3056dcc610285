"""Numpy kernels for the braid action and the braid-orbit search.

The orbit search walks unit-diagonal int64 matrices under the braiding moves,
which is the only runtime-dominant loop in the package.  There is one numpy
implementation of each kernel, and each works on a stack ``(B, n, n)`` of
matrices at once; its Python-level loops run over matrix positions, never
over the stack:

* ``braid_apply`` makes one braiding move on every matrix of a stack: an
  update of rows i, i+1 followed by the same update of columns i, i+1.  It
  is the one braid move of the package: it runs on the int64 stacks of the
  search and, unchanged, on object arrays of ``Fraction`` or
  ``TruncatedPoly`` entries, which is how ``braid.beta`` and
  ``braid.beta_inv`` move exact rational and polynomial matrices.
* ``expand_frontier`` applies each of the 2(n-1) moves to a whole frontier.
* ``sign_canonical`` picks, for every matrix of a stack, the lexicographically
  least sign conjugate ``d_r d_c a_rc``.  This is a switching-class problem on
  the signed support graph (Zaslavsky, "Signed graphs", 1982), solved by one
  row-major scan with a union-find that tracks relative signs: n(n-1) steps,
  each vectorized over the stack.

The orbit search canonicalizes the children of ``CHUNK`` frontier states per
``sign_canonical`` call.  One call per child spends the search's time in the
interpreter; one call per level holds the temporaries of every child of the
level at once and raises the peak memory of a search.
"""

from __future__ import annotations

import numpy as np

# Frontier states whose children the orbit search canonicalizes in one call.
CHUNK = 256


def _block(u: np.ndarray, v: np.ndarray, m: np.ndarray, forward: bool):
    """Rows (or columns) i, i+1 after the 2x2 braid block acts on them."""
    return (v, u - m * v) if forward else (-m * u + v, u)


def braid_apply(stack: np.ndarray, i: int, forward: bool) -> np.ndarray:
    """Braiding move at rows/cols (i, i+1), 0-based, on a stack of matrices.

    Each matrix A becomes X A X, where X is the identity with the block
    [[0, 1], [1, -m]] (forward) or [[-m, 1], [1, 0]] (backward) at (i, i+1)
    and m = A[i, i+1] + A[i+1, i].
    """
    m = (stack[:, i, i + 1] + stack[:, i + 1, i])[:, None]
    out = stack.copy()
    out[:, i], out[:, i + 1] = _block(stack[:, i], stack[:, i + 1], m, forward)
    ci, cj = out[:, :, i].copy(), out[:, :, i + 1].copy()
    out[:, :, i], out[:, :, i + 1] = _block(ci, cj, m, forward)
    return out


def expand_frontier(batch: np.ndarray, entry_bound: int):
    """All braid neighbours of a stack of states.

    The children of state s are at s * 2(n-1) + k: forward braids i = 0..n-2
    for k < n-1, then backward braids.  ``ok[c]`` is False when some entry of
    child c exceeds the bound in absolute value.
    """
    m, n, _ = batch.shape
    children = np.empty((m, 2 * (n - 1), n, n), dtype=np.int64)
    for k in range(2 * (n - 1)):
        forward = k < n - 1
        children[:, k] = braid_apply(batch, k if forward else k - (n - 1), forward)
    children = children.reshape(-1, n, n)
    ok = ((children.max(axis=(1, 2)) <= entry_bound)
          & (children.min(axis=(1, 2)) >= -entry_bound))
    return children, ok


def sign_canonical(stack: np.ndarray):
    """Lexicographically least sign conjugate of every matrix of a stack.

    Returns ``(canon, signs)`` with ``canon[b] = signs[b] signs[b]^T * stack[b]``
    entrywise.  Scanning the off-diagonal entries in row-major order, each
    nonzero entry that first joins two components of the support graph is
    made negative; later entries are then forced.  Among the sign vectors
    giving the least conjugate, ``signs`` is the one a search over all
    2^(n-1) vectors in increasing bitmask order meets first: vertex 0 keeps
    +1 and every other component has +1 at its highest-index vertex.
    """
    b, n, _ = stack.shape
    signs = np.ones((b, n), dtype=np.int64)
    # component label of each vertex: the highest vertex of its component
    comp = np.tile(np.arange(n), (b, 1))
    for r in range(n):
        for c in range(n):
            entry = np.sign(stack[:, r, c])
            lr, lc = comp[:, r], comp[:, c]
            join = (entry != 0) & (lr != lc)
            if not join.any():
                continue
            # flip c's component where the entry would otherwise come out positive
            flip = join & (entry * signs[:, r] * signs[:, c] > 0)
            in_c = comp == lc[:, None]
            signs = np.where(flip[:, None] & in_c, -signs, signs)
            merged = join[:, None] & (in_c | (comp == lr[:, None]))
            comp = np.where(merged, np.maximum(lr, lc)[:, None], comp)
    ref = np.where(comp == comp[:, :1], 0, comp)
    signs = signs * np.take_along_axis(signs, ref, axis=1)
    canon = signs[:, :, None] * signs[:, None, :]
    canon *= stack
    return canon, signs
