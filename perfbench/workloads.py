"""The four benchmark workloads.

Each workload turns a seed into a fixed list of queries.  One pass runs every
query once, in list order; a run repeats passes.  A query is a callable that
returns its output, plus a check that turns that output into a failure
message (or None).  Queries call the package only through its public names
and its command line entry point, looked up on the module at call time, so
that the traced run sees every call it wraps.

Workloads:

* ``paper_replay``    ``verify-paper all --format json`` through the CLI.
* ``orbit_a6``        orbit searches from the A6 source to the farthest
                      classes of its orbit, disguised, plus certificate replay.
* ``braid_relations`` braid, commutation and inverse relations of ``beta``
                      on seeded exact and polynomial unipotent matrices.
* ``good_quivers``    ``find_good_quivers`` on rank-5 and rank-6 bases.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

DATA = Path(__file__).resolve().parent / "data"

ORBIT_N = 6
ORBIT_DEPTH = 12          # CLI default of `equiv --depth`
ORBIT_ENTRY_BOUND = 64    # CLI default of `equiv --entry-bound`
PAPER_CHECKS = 93
GOOD_CASES = [(kind, n, p) for kind in ("triangular", "alternating")
              for n in (5, 6) for p in (3, 4, 5)]
GOOD_LAMBDAS = (1, 2, 3)


@dataclass
class Query:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    # count metrics observed on the output; only the traced run reads them
    counts: Callable[[object], dict] = field(default=lambda out: {})


def load_data() -> dict:
    return {
        "a6_targets": json.loads((DATA / "a6_targets.json").read_text()),
        "expected": json.loads((DATA / "expected.json").read_text()),
    }


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# paper_replay
# ---------------------------------------------------------------------------

def run_cli(qs, argv) -> tuple:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = qs.cli.main(argv)
    return code, buf.getvalue()


def build_paper_replay(qs, rng: random.Random, data: dict) -> list:
    expected = data["expected"]["paper_replay"]

    def check(out) -> Optional[str]:
        code, text = out
        if code != 0:
            return f"exit code {code}"
        checks = json.loads(text)["checks"]
        passed = sum(1 for c in checks if c["ok"])
        if (passed, len(checks)) != (PAPER_CHECKS, PAPER_CHECKS):
            return f"{passed}/{len(checks)} checks passed"
        if sha256(text) != expected["sha256"]:
            return "JSON output differs from the recorded bytes"
        return None

    return [Query("verify-paper all",
                  lambda: run_cli(qs, ["verify-paper", "all", "--format", "json"]),
                  check,
                  lambda out: {"cli.stdout_bytes": len(out[1].encode())})]


# ---------------------------------------------------------------------------
# orbit_a6
# ---------------------------------------------------------------------------

def build_orbit_a6(qs, rng: random.Random, data: dict) -> list:
    source = qs.an_stokes(ORBIT_N).evaluate(qs.joyce_point(ORBIT_N))
    targets = [t["matrix"] for t in data["a6_targets"]["targets"]]
    queries = []
    for idx in rng.sample(range(len(targets)), len(targets)):
        sigma = rng.sample(range(1, ORBIT_N + 1), ORBIT_N)
        signs = [rng.choice((1, -1)) for _ in range(ORBIT_N)]
        target = qs.sign_conj(signs, qs.perm_conj(sigma, targets[idx]))

        def run(target=target):
            res = qs.orbit_search(source, target, ORBIT_DEPTH, ORBIT_ENTRY_BOUND)
            replayed = (res.certificate.word.apply(source)
                        if res.certificate is not None else None)
            return res, replayed

        def check(out, target=target) -> Optional[str]:
            res, replayed = out
            if res.status != "found":
                return f"status {res.status}"
            if not res.certificate.verified:
                return "certificate not verified"
            if replayed != target:
                return "certificate word does not carry source to target"
            return None

        queries.append(Query(f"target {idx} perm {sigma} signs {signs}",
                             run, check))
    return queries


# ---------------------------------------------------------------------------
# braid_relations
# ---------------------------------------------------------------------------

def _fraction_unipotent(n: int, rng: random.Random) -> tuple:
    return tuple(tuple(Fraction(1) if i == j else
                       Fraction(rng.randint(-5, 5), rng.choice((1, 1, 2, 3)))
                       if j > i else Fraction(0)
                       for j in range(n)) for i in range(n))


def _sparse_poly_unipotent(qs, n: int, rng: random.Random):
    """Half of the entries above the diagonal (seeded positions) hold one
    linear and one quadratic seeded monomial; the rest are zero.  The
    shape is fixed so that every seed costs about the same."""
    m = qs.PolyMatrix.identity(n, n)
    upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for i, j in rng.sample(upper, len(upper) // 2):
        terms = {}
        for degree in (1, 2):
            exps = [0] * n
            for _ in range(degree):
                exps[rng.randrange(n)] += 1
            terms[tuple(exps)] = Fraction(rng.choice((-2, -1, 1, 2)))
        m.entries[i][j] = qs.TruncatedPoly(n, terms)
    return m


def relation_failures(qs, a) -> list:
    """Every braid, commutation and inverse relation that fails on a."""
    beta, beta_inv = qs.beta, qs.beta_inv
    n = len(a) if isinstance(a, tuple) else a.n
    failures = []
    for i in range(1, n - 1):
        if beta(i, beta(i + 1, beta(i, a))) != beta(i + 1, beta(i, beta(i + 1, a))):
            failures.append(("braid", i))
    for i in range(1, n):
        for j in range(i + 2, n):
            if beta(i, beta(j, a)) != beta(j, beta(i, a)):
                failures.append(("commute", i, j))
    for i in range(1, n):
        if beta_inv(i, beta(i, a)) != a or beta(i, beta_inv(i, a)) != a:
            failures.append(("inverse", i))
    return failures


def build_braid_relations(qs, rng: random.Random, data: dict) -> list:
    mats = []
    for n in range(3, 7):
        mats += [(f"fraction n={n}", _fraction_unipotent(n, rng)) for _ in range(4)]
        mats.append((f"an_stokes({n})", qs.an_stokes(n)))
        mats.append((f"sparse poly n={n}", _sparse_poly_unipotent(qs, n, rng)))
    rng.shuffle(mats)

    def check(failures) -> Optional[str]:
        return f"failing relations {failures}" if failures else None

    return [Query(label, lambda a=a: relation_failures(qs, a), check)
            for label, a in mats]


# ---------------------------------------------------------------------------
# good_quivers
# ---------------------------------------------------------------------------

def good_case_key(kind: str, n: int, p: int, lam: int) -> str:
    return f"{kind}-{n}-p{p}-lambda{lam}"


def solutions_digest(qs, sols) -> dict:
    """Solution count and SHA-256 of the solutions' canonical JSON, in the
    layout of `goodness --find-quivers`."""
    poly_to_json = qs.serialize.poly_to_json
    body = [{"params": list(sol.params),
             "arrows": {f"{u}->{v}": poly_to_json(p)
                        for (u, v), p in sol.quiver.arrows},
             "eps": {f"{i},{j}": s for (i, j), s in sol.eps.signs}}
            for sol in sols]
    return {"solutions": len(sols), "sha256": sha256(json.dumps(body))}


def build_good_quivers(qs, rng: random.Random, data: dict) -> list:
    expected = data["expected"]["good_quivers"]
    cases = rng.sample(GOOD_CASES, len(GOOD_CASES))
    queries = []
    for kind, n, p in cases:
        lam = rng.choice(GOOD_LAMBDAS)
        key = good_case_key(kind, n, p, lam)
        basis = getattr(qs.Basis, kind)(n)

        def check(sols, key=key) -> Optional[str]:
            got = solutions_digest(qs, sols)
            if got != expected[key]:
                return f"{got['solutions']} solutions, digest differs from the record"
            return None

        queries.append(Query(key, lambda b=basis, lam=lam, p=p:
                             qs.find_good_quivers(b, lam, p), check))
    return queries


WORKLOADS = {
    "paper_replay": build_paper_replay,
    "orbit_a6": build_orbit_a6,
    "braid_relations": build_braid_relations,
    "good_quivers": build_good_quivers,
}

# Seconds of --seconds budgeted for one pass.  A run makes --seconds /
# PASS_BUDGET_S passes (at least one), a count that does not depend on how
# fast the code under test is, so every commit is measured on the same
# number of queries and the tail percentile, which depends on the sample
# count, stays comparable.  With the seed code on a 2.1 GHz Xeon a pass takes
# about 3.5, 15, 1.5 and 16 s; good_quivers is budgeted 10 s so that a 20-s
# run makes two of its passes, since one pass is too short a window against
# the drift of a shared host's speed.
PASS_BUDGET_S = {
    "paper_replay": 3.5,
    "orbit_a6": 15.0,
    "braid_relations": 1.5,
    "good_quivers": 10.0,
}
