"""Acceptance suite.

One test per acceptance criterion; each prints a pass/fail line with its
runtime against the stated budget.  Everything is exact: comparisons are
equalities of rational/polynomial matrices, never approximate.
"""

import random
import time
from fractions import Fraction

from quiverstokes.algebra import (Basis, PolyMatrix, TruncatedPoly,
                                  joyce_point)
from quiverstokes.braid import orbit_search, random_unipotent, \
    verify_braid_group_relations, beta, beta_inv
from quiverstokes.goodness import epsilon_solutions
from quiverstokes.quiver import (Quiver, euler_form, linear_quiver, mutate)
from quiverstokes.stokes import (DTModel, an_chamber, an_stokes, convex_charge,
                                 factor_product, natural_lifts, stokes_product)
from quiverstokes import verify


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[acceptance] {self.name}: {status} in {elapsed:.2f}s "
              f"(budget {self.seconds}s)")
        if exc_type is None:
            assert elapsed < self.seconds, \
                f"{self.name} exceeded its {self.seconds}s budget ({elapsed:.2f}s)"


def test_criterion_1_table_reproduction():
    """The 2 + 6 + 9 + 6 tabulated quivers and matrices are reproduced
    exactly from the good-quiver search (with the free parameter symbolic
    in rank 4)."""
    with Budget("1 table reproduction", 10):
        lines = verify.check_tables()
        bad = [l for l in lines if not l.ok]
        assert not bad, [l.render() for l in bad]
        per_table = {"tau2": 2, "tau3": 6, "tau4": 9, "delta3": 6}
        for tid, count in per_table.items():
            hits = [l for l in lines if l.id.startswith(f"{tid}/")]
            assert len(hits) == count


def test_criterion_2_an_stokes_matrices():
    """The pipeline on the linear quiver with the triangular basis and the
    interval counting model yields the bidiagonal matrix for n = 2..5, and
    the rank-2/3 unit-point values are the expected integer matrices."""
    with Budget("2 linear-quiver Stokes matrices", 5):
        for n in range(2, 6):
            q = linear_quiver(n)
            basis = Basis.triangular(n)
            # increasing phases: only the simple classes are stable
            chamber = an_chamber(tuple(reversed(convex_charge(n))))
            assert len(chamber.active) == n
            data = stokes_product(basis, euler_form(q),
                                  DTModel.an_intervals(), chamber, None)
            assert data.product == an_stokes(n)
        a2 = an_stokes(2).evaluate(joyce_point(2))
        assert a2 == ((1, -1), (0, 1))
        a3 = an_stokes(3).evaluate(joyce_point(3))
        assert a3 == ((1, -1, 0), (0, 1, -1), (0, 0, 1))


def test_criterion_3_a4_chamber_ambiguity():
    """Order-3 lifts over the two rank-4 chambers take exactly two values;
    with the position-(1,4) factor included at order 5 the lift is unique."""
    with Budget("3 rank-4 lift ambiguity", 5):
        basis = Basis.triangular(4)
        e = euler_form(linear_quiver(4))
        model = DTModel.an_intervals()
        ch1 = an_chamber([(3, 1), (1, 1), (-1, 1), (-3, 1)])
        ch2 = an_chamber([(-10, 1), (-1, 2), (1, 2), (1, 3)])
        lifts3 = natural_lifts(basis, e, model, [ch1, ch2], 3)
        assert len(lifts3) == 2
        assert an_stokes(4) in lifts3
        other = next(m for m in lifts3 if m != an_stokes(4))
        assert other.entries[0][3] == TruncatedPoly.monomial((1, 1, 1, 0))
        assert all(other.entries[i][j] == an_stokes(4).entries[i][j]
                   for i in range(4) for j in range(4) if (i, j) != (0, 3))
        lifts5 = natural_lifts(basis, e, model, [ch1, ch2], 5)
        assert lifts5 == [an_stokes(4)]


def test_criterion_4_mutation_class_matrices():
    """Every tabulated rank-4 and rank-5 mutation Stokes matrix is
    reproduced from mutation_basis + stokes_product over its chamber."""
    with Budget("4 mutation-class Stokes matrices", 30):
        lines = verify.check_mutation_tables(verify._pipeline_fixtures())
        bad = [l for l in lines if not l.ok]
        assert not bad, [l.render() for l in bad]
        a4 = [l for l in lines if l.id.startswith("a4/")]
        a5 = [l for l in lines if l.id.startswith("a5/")]
        assert len(a4) == 11
        assert len(a5) == 12  # 9 tabulated + 3 auxiliary determinations


def test_criterion_5_braid_identities():
    """Every braiding identity replays at the unit point with its recorded
    outcome; the three misprinted identities fail as printed and their
    corrected twins pass."""
    with Budget("5 braiding identities", 10):
        lines = verify.check_relations(verify._pipeline_fixtures())
        bad = [l for l in lines if not l.ok]
        assert not bad, [l.render() for l in bad]
        printed_misprints = [l for l in lines if "(as printed)" in l.id]
        assert len(printed_misprints) == 3
        corrected = [l for l in lines if "(corrected)" in l.id]
        assert len(corrected) == 3
        assert any(l.id.startswith("annulus") for l in lines)


def test_criterion_6_orbit_certification():
    """The bounded orbit search certifies every tabulated mutation of the
    rank 2..5 linear quivers against the linear-quiver matrix, within
    depth 12 and entry bound 64, and every certificate replays exactly."""
    with Budget("6 orbit-search certification", 300):
        mats = verify.fixture_matrices_sj(verify._pipeline_fixtures())
        listed = [(n, e["id"]) for n, e in verify._family_entries()
                  if e.get("listed", True)]
        assert len(listed) == 26
        for n, fid in listed:
            source = an_stokes(n).evaluate(joyce_point(n))
            res = orbit_search(source, mats[fid], depth=12, entry_bound=64)
            assert res.status == "found", fid
            assert res.certificate.verified, fid
            replay = res.certificate.word.apply(source)
            assert replay == mats[fid], fid


def test_criterion_7_property_suites():
    """(a) braid and commutation relations, (b) braiding round-trips,
    (c) mutation involutivity and invariant preservation, (d) the sign
    tensor triple identity, (e) factorization round-trips, (f) truncation
    as a ring map; each on at least 100 random instances."""
    with Budget("7 property suites", 60):
        # (a) braid relations, dimensions 2..6 (vacuous below rank 3)
        for n in range(3, 7):
            assert verify_braid_group_relations(n, 100, seed=100 + n)["ok"]
        # (b) round-trips, dimensions 2..6
        rng = random.Random(71)
        for _ in range(100):
            n = rng.randint(2, 6)
            a = random_unipotent(n, rng)
            i = rng.randint(1, n - 1)
            assert beta_inv(i, beta(i, a)) == a
            assert beta(i, beta_inv(i, a)) == a
        # (c) mutation involutivity and invariants
        for t in range(100):
            n = rng.randint(2, 6)
            m = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    mult = rng.randint(0, 2)
                    if mult:
                        if rng.random() < 0.5:
                            m[i][j] = mult
                        else:
                            m[j][i] = mult
            q = Quiver(tuple(tuple(r) for r in m))
            k = rng.randint(1, n)
            mutated = mutate(q, k)  # constructor checks the invariants
            assert mutate(mutated, k) == q
        # (d) triple identity on every returned sign tensor, n <= 5
        import itertools
        for n in range(2, 6):
            tensors = epsilon_solutions(n)
            assert tensors
            for tensor in tensors:
                d = tensor.as_dict()

                def get(i, j):
                    return d[(i, j)] if (i, j) in d else -d[(j, i)]

                for i, j, k in itertools.combinations(range(1, n + 1), 3):
                    assert (1 + get(i, j) * get(j, k) + get(j, i) * get(i, k)
                            + get(i, k) * get(k, j)) == 0
        # (e) factorization round-trip on random unipotent products
        done = 0
        while done < 100:
            n = rng.randint(2, 4)
            order = list(range(1, n + 1))
            rng.shuffle(order)
            pool = [(order[a], order[b]) for a in range(n)
                    for b in range(a + 1, n)]
            rng.shuffle(pool)
            positions = pool[:rng.randint(1, len(pool))]
            matrix = PolyMatrix.identity(n, n)
            for (i, j) in positions:
                terms = {tuple(rng.randint(0, 2) for _ in range(n)):
                         Fraction(rng.randint(-3, 3)) for _ in range(2)}
                coeff = TruncatedPoly(n, terms)
                if not coeff.is_zero():
                    matrix = matrix * PolyMatrix.elementary(n, i, j, coeff)
            coeffs = factor_product(matrix, positions)
            rebuilt = PolyMatrix.identity(n, n)
            for (i, j), c in zip(positions, coeffs):
                if not c.is_zero():
                    rebuilt = rebuilt * PolyMatrix.elementary(n, i, j, c)
            assert rebuilt == matrix
            done += 1
        # (f) truncation is a ring map
        from test_algebra import rand_poly
        for _ in range(100):
            a = rand_poly(rng, 3)
            b = rand_poly(rng, 3)
            p = rng.randint(1, 5)
            assert (a * b).truncate(p) == \
                (a.truncate(p) * b.truncate(p)).truncate(p)
