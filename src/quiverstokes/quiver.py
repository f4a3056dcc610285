"""Quivers, mutation, and the induced skew-symmetric form.

A quiver here is a finite directed multigraph without loops and without
2-cycles, encoded by its matrix of arrow multiplicities.  Vertices are
labelled 1..n and the labelling is part of the data: two quivers are equal
exactly when their arrow matrices coincide.

The skew form on the lattice of vertex classes is fixed by the convention

    e[i][j] = arrows[j][i] - arrows[i][j],

so a single arrow i -> j contributes -1 to e[i][j].
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import LatticeVector, _as_int, _index


@dataclass(frozen=True)
class Quiver:
    n: int
    arrows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        arrows = tuple(tuple(_as_int(a) for a in row) for row in self.arrows)
        object.__setattr__(self, "arrows", arrows)
        if len(arrows) != self.n or any(len(r) != self.n for r in arrows):
            raise ValueError("arrow matrix must be n x n")
        if any(a < 0 for row in arrows for a in row):
            raise ValueError("arrow multiplicities must be nonnegative")
        for i in range(self.n):
            if arrows[i][i]:
                raise ValueError(f"loop at vertex {i + 1}")
            for j in range(self.n):
                if arrows[i][j] and arrows[j][i]:
                    raise ValueError(f"2-cycle between {i + 1} and {j + 1}")

    @classmethod
    def from_arrows(cls, n: int, pairs) -> "Quiver":
        """Build from {(source, target): multiplicity} with 1-based vertices."""
        m = [[0] * n for _ in range(n)]
        for (u, v), k in pairs.items():
            m[_index(u, n, "vertex") - 1][_index(v, n, "vertex") - 1] += _as_int(k)
        return cls(n, tuple(tuple(r) for r in m))

    def arrow_pairs(self) -> dict[tuple[int, int], int]:
        return {(i + 1, j + 1): self.arrows[i][j]
                for i in range(self.n) for j in range(self.n)
                if self.arrows[i][j]}

    def arrows_between(self, u: int, v: int) -> int:
        """Total multiplicity between u and v, either direction (1-based)."""
        u, v = _index(u, self.n, "vertex") - 1, _index(v, self.n, "vertex") - 1
        return self.arrows[u][v] + self.arrows[v][u]


class EulerForm:
    """Skew-symmetric integer form on the rank-n lattice."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        m = tuple(tuple(_as_int(x) for x in row) for row in matrix)
        n = len(m)
        if any(len(r) != n for r in m):
            raise ValueError("form matrix must be square")
        for i in range(n):
            if m[i][i]:
                raise ValueError("nonzero diagonal in skew form")
            for j in range(n):
                if m[i][j] != -m[j][i]:
                    raise ValueError("form is not skew-symmetric")
        self.matrix = m

    @property
    def n(self) -> int:
        return len(self.matrix)

    def pairing(self, v: LatticeVector, w: LatticeVector) -> int:
        if v.rank != self.n or w.rank != self.n:
            raise ValueError("rank mismatch")
        total = 0
        for i, a in enumerate(v.coords):
            if not a:
                continue
            row = self.matrix[i]
            for j, b in enumerate(w.coords):
                if b:
                    total += a * row[j] * b
        return total

    def __eq__(self, other):
        return isinstance(other, EulerForm) and self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        return f"EulerForm({self.matrix})"


def euler_form(q: Quiver) -> EulerForm:
    """Skew form with e[i][j] = arrows[j][i] - arrows[i][j]."""
    n = q.n
    return EulerForm(tuple(tuple(q.arrows[j][i] - q.arrows[i][j]
                                 for j in range(n)) for i in range(n)))


def mutate(q: Quiver, k: int) -> Quiver:
    """Mutation at vertex k (1-based).

    With a the arrow counts, for i, j != k there are

        max(a_ij - a_ji + a_ik a_kj - a_jk a_ki, 0)

    arrows i -> j, and row and column k are the transposes of the old ones.
    This is the exchange-matrix rule b'_ij = b_ij + (|b_ik| b_kj +
    b_ik |b_kj|) / 2 for b_ij = a_ij - a_ji (Fomin-Zelevinsky), read on
    arrow counts: reverse the arrows at k, add an arrow i -> j for every
    path i -> k -> j, cancel opposite pairs.
    """
    n, a, k = q.n, q.arrows, _index(k, q.n, "vertex") - 1
    return Quiver(n, tuple(
        tuple(a[j][i] if k == i or k == j else
              max(a[i][j] - a[j][i] + a[i][k] * a[k][j] - a[j][k] * a[k][i], 0)
              for j in range(n))
        for i in range(n)))


def apply_word(q: Quiver, word) -> Quiver:
    """Apply a mutation word (list of 1-based vertices) left to right."""
    for k in word:
        q = mutate(q, k)
    return q


class MutationClassTooLarge(RuntimeError):
    pass


def mutation_class(q: Quiver, max_size: int) -> dict[Quiver, tuple[int, ...]]:
    """BFS closure of q under mutation at every vertex.

    Returns a map quiver -> shortest mutation word reaching it (words apply
    left to right).  Quivers are compared by their labelled arrow matrices.
    Raises MutationClassTooLarge if more than max_size quivers appear.
    """
    if max_size <= 0:
        raise ValueError("max_size must be positive")
    seen: dict[Quiver, tuple[int, ...]] = {q: ()}
    frontier = [q]
    while frontier:
        nxt = []
        for cur in frontier:
            for k in range(1, q.n + 1):
                m = mutate(cur, k)
                if m not in seen:
                    seen[m] = seen[cur] + (k,)
                    if len(seen) > max_size:
                        raise MutationClassTooLarge(
                            f"mutation class exceeds budget of {max_size}")
                    nxt.append(m)
        frontier = nxt
    return seen


def linear_quiver(n: int) -> Quiver:
    """The linear orientation 1 -> 2 -> ... -> n."""
    m = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        m[i][i + 1] = 1
    return Quiver(n, tuple(tuple(r) for r in m))
