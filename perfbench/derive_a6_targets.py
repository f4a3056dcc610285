"""Derive the orbit_a6 targets: the A6 sign classes farthest from the source.

The source is an_stokes(6) at the unit point.  A breadth-first walk over its
braid orbit (forward and backward braid moves, states taken up to sign
conjugation, entries bounded by 64) finds every class and its move distance.
The orbit search closes its target set under the permutation conjugations
that keep a matrix upper triangular, so it hits a class at the least distance
of any class in that closure.  The targets are the classes whose search
distance is largest; each is confirmed with the public orbit_search, which
must report it found at exactly that level.

The walk is written here from the definitions, with no package internals, so
the data does not depend on how the kernels are implemented.  It takes about
half a minute, which is why the result is stored in data/a6_targets.json and
never recomputed during a benchmark run.

    PYTHONPATH=src python3 perfbench/derive_a6_targets.py [--check]

With --check the stored file is compared against a fresh derivation instead
of being written.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

N = 6
ENTRY_BOUND = 64
DEPTH = 12
DATA = Path(__file__).resolve().parent / "data" / "a6_targets.json"

_SIGNS = np.array([[1] + [(-1 if (mask >> t) & 1 else 1) for t in range(N - 1)]
                   for mask in range(1 << (N - 1))], dtype=np.int64)
_OUTER = np.einsum("ki,kj->kij", _SIGNS, _SIGNS).reshape(len(_SIGNS), N * N)


def sign_class(a: np.ndarray) -> tuple:
    """Lexicographically least sign conjugate d a d, as a flat tuple."""
    cands = (_OUTER * a.reshape(1, N * N)).tolist()
    return tuple(min(map(tuple, cands)))


def braid_move(a: np.ndarray, i: int, forward: bool) -> np.ndarray:
    """A -> X A X with X = [[0, 1], [1, -m]] (inverse [[-m, 1], [1, 0]])
    at rows and columns (i, i + 1), 0-based."""
    m = int(a[i, i + 1] + a[i + 1, i])
    x = np.eye(N, dtype=np.int64)
    if forward:
        x[i:i + 2, i:i + 2] = [[0, 1], [1, -m]]
    else:
        x[i:i + 2, i:i + 2] = [[-m, 1], [1, 0]]
    return x @ a @ x


def source_matrix() -> np.ndarray:
    a = np.eye(N, dtype=np.int64)
    for i in range(N - 1):
        a[i, i + 1] = -1
    return a


def orbit_levels() -> dict:
    """Sign class -> braid distance from the source, within the bounds."""
    start = sign_class(source_matrix())
    level = {start: 0}
    frontier = [start]
    for d in range(1, DEPTH + 1):
        nxt = []
        for key in frontier:
            a = np.array(key, dtype=np.int64).reshape(N, N)
            for i in range(N - 1):
                for forward in (True, False):
                    child = braid_move(a, i, forward)
                    if np.abs(child).max() > ENTRY_BOUND:
                        continue
                    ck = sign_class(child)
                    if ck not in level:
                        level[ck] = d
                        nxt.append(ck)
        if not nxt:
            break
        frontier = nxt
    return level


def linear_extensions(a: np.ndarray):
    """Every order of 0..N-1 in which a is upper triangular."""
    preds = [{r for r in range(N) if r != c and a[r, c]} for c in range(N)]

    def extend(order, placed):
        if len(order) == N:
            yield tuple(order)
            return
        for v in range(N):
            if v not in placed and preds[v] <= placed:
                yield from extend(order + [v], placed | {v})

    yield from extend([], frozenset())


def search_distance(key: tuple, level: dict) -> int:
    """Level at which the orbit search first meets the closure of a class."""
    a = np.array(key, dtype=np.int64).reshape(N, N)
    best = level[key]
    for order in linear_extensions(a):
        idx = np.array(order)
        best = min(best, level.get(sign_class(a[np.ix_(idx, idx)]), best))
    return best


def derive() -> dict:
    import quiverstokes as qs

    level = orbit_levels()
    dist = {key: search_distance(key, level) for key in level}
    far = max(dist.values())
    source = qs.an_stokes(N).evaluate(qs.joyce_point(N))
    targets = []
    for key in sorted(k for k, d in dist.items() if d == far):
        rows = [list(key[r * N:(r + 1) * N]) for r in range(N)]
        res = qs.orbit_search(source, rows, DEPTH, ENTRY_BOUND)
        if res.status == "found" and res.depth_reached == far:
            targets.append({"matrix": rows, "states": res.states,
                            "moves": len(res.certificate.word)})
    return {
        "source": "an_stokes(6) at s = 1",
        "depth": DEPTH,
        "entry_bound": ENTRY_BOUND,
        "orbit_classes": len(level),
        "level": far,
        "classes_at_level": sum(1 for d in dist.values() if d == far),
        "targets": targets,
    }


def main(argv) -> int:
    fresh = derive()
    head = {k: v for k, v in fresh.items() if k != "targets"}
    text = (json.dumps(head, indent=1)[:-2] + ',\n "targets": [\n'
            + ",\n".join("  " + json.dumps(t) for t in fresh["targets"])
            + "\n ]\n}\n")
    if "--check" in argv:
        same = DATA.read_text() == text
        print("stored targets match" if same else "stored targets differ")
        return 0 if same else 1
    DATA.write_text(text)
    print(f"{len(fresh['targets'])} targets at level {fresh['level']} "
          f"of {fresh['orbit_classes']} classes -> {DATA}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
