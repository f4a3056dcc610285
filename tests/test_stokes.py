import functools
import hashlib
import itertools
import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quiverstokes.algebra import (Basis, LatticeVector, PolyMatrix,
                                  TruncatedPoly, joyce_point)
from quiverstokes.goodness import mutation_basis
from quiverstokes.quiver import Quiver, apply_word, euler_form, linear_quiver
from quiverstokes import stokes as stokes_mod
from quiverstokes import verify
from quiverstokes.stokes import (Chamber, ChamberError, DTModel,
                                 LiftDisagreement, RayCollision, an_chamber,
                                 an_stable_intervals, an_stokes,
                                 enumerate_an_chambers, factor_coefficient,
                                 factor_product, level2_chamber, natural_lifts,
                                 ray_order, stokes_product, verify_an_jet,
                                 convex_charge)


def lv(*coords):
    return LatticeVector(tuple(coords))


def s(nvars, i):
    return TruncatedPoly.variable(nvars, i)


def kronecker_chain(n, lam):
    """lam arrows from each vertex to the next."""
    return Quiver.from_arrows(n, {(i, i + 1): lam for i in range(1, n)})


class TestDTModel:
    def test_symmetry(self):
        for model in (DTModel.an_intervals(),
                      DTModel.from_quiver_extensions(kronecker_chain(3, 3)),
                      DTModel.table({(1, 1, 0): Fraction(2)})):
            for v in (lv(1, 0, 0), lv(1, 1, 0), lv(0, 1, 1), lv(1, -1, 0)):
                assert model.dt(v) == model.dt(-v)

    def test_kronecker_values(self):
        m = DTModel.from_quiver_extensions(kronecker_chain(3, 3))
        assert m.dt(lv(1, 0, 0)) == m.dt(lv(0, -1, 0)) == 1
        assert m.dt(lv(1, 1, 0)) == 3
        assert m.dt(lv(0, 1, 1)) == 3
        assert m.dt(lv(1, 0, 1)) == 0
        assert DTModel.from_quiver_extensions(kronecker_chain(2, 2)).dt(lv(1, 1)) == -2

    def test_intervals(self):
        m = DTModel.an_intervals()
        assert m.dt(lv(0, 1, 1, 0)) == 1
        assert m.dt(lv(1, 0, 1, 0)) == 0


class TestRayOrder:
    def chamber(self):
        return Chamber(((-1, 1), (1, 1)), (lv(1, 0), lv(0, 1), lv(1, 1)))

    def test_sorting_example(self):
        ch = self.chamber()
        out = ray_order(ch, [lv(0, 1), lv(1, 1), lv(1, 0)])
        assert [v.coords for v in out] == [(1, 0), (1, 1), (0, 1)]

    def test_singleton(self):
        assert ray_order(self.chamber(), [lv(1, 0)]) == [lv(1, 0)]

    def test_negative_ray_is_flipped(self):
        out = ray_order(self.chamber(), [lv(-1, 0), lv(0, 1)])
        assert [v.coords for v in out] == [(1, 0), (0, 1)]

    def test_collision_raises(self):
        ch = Chamber(((0, 1), (0, 2)), (lv(1, 0),))
        with pytest.raises(RayCollision):
            ray_order(ch, [lv(1, 0), lv(0, 1)])

    def test_zero_class_raises(self):
        ch = Chamber(((-1, 1), (-1, 1)), (lv(1, 0),))
        with pytest.raises(ChamberError):
            ray_order(ch, [lv(1, -1)])

    def test_boundary_ray_is_leftmost(self):
        ch = Chamber(((-1, 0), (1, 1)), (lv(1, 0), lv(0, 1)))
        out = ray_order(ch, [lv(0, 1), lv(1, 0)])
        assert [v.coords for v in out] == [(1, 0), (0, 1)]


class TestChamberValidation:
    def test_charge_must_stay_in_half_plane(self):
        with pytest.raises(ChamberError):
            Chamber(((1, 0), (0, 1)), ())

    def test_active_ray_collision(self):
        with pytest.raises(RayCollision):
            Chamber(((-1, 1), (-2, 2)), (lv(1, 0), lv(0, 1)))

    def test_collision_between_actives_far_apart_in_the_input(self):
        # Z(1,1,0) = Z(0,0,1) = (0, 2); the other four rays are distinct
        Z = ((-1, 1), (1, 1), (0, 2))
        active = (lv(1, 1, 0), lv(1, 0, 0), lv(0, 1, 0), lv(0, 1, 1),
                  lv(1, 0, 1), lv(0, 0, 1))
        with pytest.raises(RayCollision):
            Chamber(Z, active)
        Chamber(Z, active[:-1])


class TestStokesFactor:
    def test_a2(self):
        b = Basis.triangular(2)
        e = euler_form(linear_quiver(2))
        assert factor_coefficient(1, 2, b, e, 1) == -s(2, 1)

    def test_kronecker(self):
        for lam in (1, 2, 3, 4):
            b = Basis.triangular(2)
            e = euler_form(Quiver.from_arrows(2, {(1, 2): lam}))
            coeff = TruncatedPoly.monomial(2, (1, 0), (-1) ** lam * lam)
            assert factor_coefficient(1, 2, b, e, 1) == coeff

    def test_zero_dt_gives_identity(self):
        b = Basis.triangular(2)
        e = euler_form(linear_quiver(2))
        coeff = factor_coefficient(1, 2, b, e, 0)
        assert coeff.is_zero()
        assert PolyMatrix.elementary(2, 1, 2, coeff) == PolyMatrix.identity(2, 2)


class TestStokesProduct:
    def test_a3_simples_chamber(self):
        q = linear_quiver(3)
        b = Basis.triangular(3)
        ch = level2_chamber(q, convex_charge(3))
        sd = stokes_product(b, euler_form(q), DTModel.an_intervals(), ch, None)
        assert sd.product == an_stokes(3)
        assert sd.order == (1, 2, 3)
        assert sd.product.is_unipotent_wrt(sd.order)

    def test_cyclic_triangle(self):
        q = apply_word(linear_quiver(3), [2])
        b = mutation_basis(q)
        ch = level2_chamber(q, convex_charge(3))
        sd = stokes_product(b, euler_form(q), DTModel.from_quiver_extensions(q),
                            ch, None)
        rows = [[c.text() for c in row] for row in sd.product.entries]
        assert rows == [["1", "-s1*s2", "-s1"], ["0", "1", "0"], ["0", "s2", "1"]]
        assert sd.order == (1, 3, 2)

    def test_a4_jet_mod_s3(self):
        q = linear_quiver(4)
        b = Basis.triangular(4)
        ch = an_chamber([(-10, 1), (-1, 2), (1, 2), (1, 3)])
        sd = stokes_product(b, euler_form(q), DTModel.an_intervals(), ch, 3)
        expect = an_stokes(4).truncate(3)
        assert sd.product == expect

    def test_empty_active_set_gives_identity(self):
        b = Basis.triangular(2)
        ch = Chamber(((-1, 1), (1, 1)), ())
        sd = stokes_product(b, euler_form(linear_quiver(2)),
                            DTModel.an_intervals(), ch, None)
        assert sd.product == PolyMatrix.identity(2, 2)

    def test_inconsistent_active_class(self):
        b = Basis.triangular(2)
        ch = Chamber(((-1, 1), (1, 1)), (lv(1, 0),))
        model = DTModel.table({(1, 0): 0})
        with pytest.raises(ChamberError):
            stokes_product(b, euler_form(linear_quiver(2)), model, ch, None)


class TestNaturalLifts:
    def setup_method(self):
        self.basis = Basis.triangular(4)
        self.e = euler_form(linear_quiver(4))
        self.model = DTModel.an_intervals()
        self.ch1 = an_chamber([(3, 1), (1, 1), (-1, 1), (-3, 1)])
        self.ch2 = an_chamber([(-10, 1), (-1, 2), (1, 2), (1, 3)])

    def test_a4_two_values_mod_s3(self):
        lifts = natural_lifts(self.basis, self.e, self.model,
                              [self.ch1, self.ch2], 3)
        assert len(lifts) == 2
        assert an_stokes(4) in lifts
        extra = next(m for m in lifts if m != an_stokes(4))
        assert extra.entries[0][3] == TruncatedPoly.monomial(4, (1, 1, 1, 0))

    def test_a4_unique_mod_s5(self):
        lifts = natural_lifts(self.basis, self.e, self.model,
                              [self.ch1, self.ch2], 5)
        assert lifts == [an_stokes(4)]

    def test_a2_single_value(self):
        b = Basis.triangular(2)
        e = euler_form(linear_quiver(2))
        chambers = [an_chamber([(-3, 1), (1, 1)]), an_chamber([(1, 2), (-5, 1)])]
        lifts = natural_lifts(b, e, DTModel.an_intervals(), chambers, 3)
        assert lifts == [an_stokes(2)]


class TestAnStokes:
    def test_small(self):
        m2 = an_stokes(2)
        assert m2.entries[0][1] == -s(2, 1)
        m3 = an_stokes(3)
        assert m3.entries[0][1] == -s(3, 1)
        assert m3.entries[1][2] == -s(3, 2)
        assert m3.entries[0][2].is_zero()

    def test_joyce_point_is_bidiagonal_integer_matrix(self):
        for n in range(2, 6):
            m = an_stokes(n).evaluate(joyce_point(n))
            for i in range(n):
                for j in range(n):
                    expect = 1 if i == j else (-1 if j == i + 1 else 0)
                    assert m[i][j] == expect


class TestFactorProduct:
    def test_spec_examples(self):
        t = an_stokes(3)
        cs = factor_product(t, [(2, 3), (1, 3), (1, 2)])
        assert [c.text() for c in cs] == ["-s2", "0", "-s1"]
        cs = factor_product(t, [(1, 2), (1, 3), (2, 3)])
        assert [c.text() for c in cs] == ["-s1", "-s1*s2", "-s2"]

    def test_a4_chain_order_recovers_interval_factor(self):
        t = an_stokes(4)
        pos = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
        cs = factor_product(t, pos)
        by_pos = dict(zip(pos, cs))
        assert by_pos[(1, 4)] == -TruncatedPoly.monomial(4, (1, 1, 1, 0))

    def test_no_solution(self):
        t = an_stokes(3)
        with pytest.raises(ValueError):
            factor_product(t, [(1, 2), (2, 3)])  # cannot produce the 0 at (1,3)

    def test_random_roundtrip(self):
        rng = random.Random(41)
        done = 0
        while done < 110:
            n = rng.randint(2, 4)
            order = list(range(1, n + 1))
            rng.shuffle(order)
            pos_pool = [(order[a], order[b])
                        for a in range(n) for b in range(a + 1, n)]
            rng.shuffle(pos_pool)
            positions = pos_pool[:rng.randint(1, len(pos_pool))]
            m = PolyMatrix.identity(n, n)
            coeffs = []
            for (i, j) in positions:
                terms = {tuple(rng.randint(0, 2) for _ in range(n)):
                         Fraction(rng.randint(-3, 3)) for _ in range(2)}
                c = TruncatedPoly(n, terms)
                coeffs.append(c)
                m = m * PolyMatrix.elementary(n, i, j, c) if not c.is_zero() else m
            got = factor_product(m, positions)
            rebuilt = PolyMatrix.identity(n, n)
            for (i, j), c in zip(positions, got):
                if not c.is_zero():
                    rebuilt = rebuilt * PolyMatrix.elementary(n, i, j, c)
            assert rebuilt == m
            done += 1


class TestVerifyAnJet:
    def test_n2_and_n3(self):
        assert verify_an_jet(2, 80)["ok"]
        rep = verify_an_jet(3, 150)
        assert rep["ok"] and rep["chambers"] >= 2

    def test_range(self):
        with pytest.raises(ValueError):
            verify_an_jet(6)


class TestChamberIndependence:
    def test_mutated_quiver_jets_agree_mod_s3(self):
        # order-3 jets of a good pair are the same in every valid chamber
        q = apply_word(linear_quiver(4), [2])
        basis = mutation_basis(q)
        e = euler_form(q)
        model = DTModel.from_quiver_extensions(q)
        jets = set()
        pts = [(Fraction(3 * (k + 1) ** 2 - 12), Fraction(2)) for k in range(4)]
        for perm in itertools.permutations(range(4)):
            Z = tuple(pts[p] for p in perm)
            try:
                ch = level2_chamber(q, Z)
                jets.add(stokes_product(basis, e, model, ch, 3).product)
            except (RayCollision, ChamberError):
                continue
        assert len(jets) == 1

    def test_natural_lift_values_at_unit_point_are_small(self):
        # regression property: unit-point entries of the linear-quiver lifts
        # stay in {-1, 0, 1} for the triangular basis
        for n in (2, 3, 4):
            basis = Basis.triangular(n)
            e = euler_form(linear_quiver(n))
            model = DTModel.an_intervals()
            chambers = enumerate_an_chambers(n, 120)
            for p in (3, n + 1):
                for lift in natural_lifts(basis, e, model, chambers, p):
                    vals = lift.evaluate(joyce_point(n))
                    assert all(x in (-1, 0, 1) for row in vals for x in row)


class TestPipelineEvaluations:
    def test_mu1mu3_a4_at_unit_point(self):
        q = apply_word(linear_quiver(4), [3, 1])
        prod = stokes_mod.level2_stokes(q, mutation_basis(q),
                                        [(-9, 2), (0, 2), (15, 2), (36, 2)]).product
        assert prod.evaluate(joyce_point(4)) == (
            (1, 1, -1, -1), (0, 1, -1, -1), (0, 0, 1, 0), (0, 0, 1, 1))


def elementary_chain(n, nvars, factors, p):
    """Reference ordered product: the left-to-right PolyMatrix product of
    the factors I + c E_ij, as full matrix products, reduced once mod (s)^p
    when p is given."""
    m = PolyMatrix.identity(n, nvars)
    for i, j, c in factors:
        m = m * PolyMatrix.elementary(n, i, j, c)
    return m if p is None else m.truncate(p)


@st.composite
def an_chambers(draw):
    """(n, chamber, model): a random linear-quiver chamber of rank 2..4 with
    random nonzero counts on the interval classes."""
    n = draw(st.integers(2, 4))
    Z = [(draw(st.integers(-12, 12)), draw(st.integers(1, 9))) for _ in range(n)]
    try:
        chamber = an_chamber(Z)
    except (RayCollision, ChamberError):
        assume(False)
    counts = {v.coords: draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
              for v in chamber.active}
    return n, chamber, DTModel.table(counts)


class TestProductsMatchOracle:
    @settings(max_examples=60, deadline=None)
    @given(an_chambers(), st.sampled_from([None, 2, 3, 5]))
    def test_stokes_product_is_factor_chain(self, case, p):
        n, chamber, model = case
        basis = Basis.triangular(n)
        data = stokes_product(basis, euler_form(linear_quiver(n)), model,
                              chamber, p)
        assert data.product == elementary_chain(n, n, data.factors, p)

    @settings(max_examples=60, deadline=None)
    @given(an_chambers(), st.data())
    def test_jet_is_the_exact_product_truncated(self, case, data):
        # a dropped factor's coefficient has degree >= p, so it only adds
        # terms of degree >= p to the exact product
        n, chamber, model = case
        p = data.draw(st.integers(1, n + 1))
        basis = Basis.triangular(n)
        e = euler_form(linear_quiver(n))
        assert stokes_product(basis, e, model, chamber, p).product == \
            stokes_product(basis, e, model, chamber, None).product.truncate(p)

    @settings(max_examples=40, deadline=None)
    @given(an_chambers(), st.sampled_from([2, 3, 5]))
    def test_natural_lift_is_factor_chain(self, case, p):
        n, chamber, model = case
        basis = Basis.triangular(n)
        e = euler_form(linear_quiver(n))
        factors = stokes_product(basis, e, model, chamber, p).factors
        want = elementary_chain(n, n, factors, None)
        assert natural_lifts(basis, e, model, [chamber], p) == [want]

    @settings(max_examples=40, deadline=None)
    @given(an_chambers())
    def test_factor_product_is_factor_chain(self, case):
        n, chamber, model = case
        data = stokes_product(Basis.triangular(n), euler_form(linear_quiver(n)),
                              model, chamber, None)
        positions = data.factor_positions()
        coeffs = factor_product(data.product, positions)
        assert elementary_chain(n, n, [(i, j, c) for (i, j), c
                                       in zip(positions, coeffs)],
                                None) == data.product


class TestActiveOrderIsIrrelevant:
    @settings(max_examples=60, deadline=None)
    @given(an_chambers(), st.sampled_from([None, 2, 3]), st.data())
    def test_permuted_actives_give_the_same_product_and_key(self, case, p, data):
        n, chamber, model = case
        shuffled = Chamber(chamber.Z,
                           tuple(data.draw(st.permutations(chamber.active))))
        basis = Basis.triangular(n)
        e = euler_form(linear_quiver(n))
        want = stokes_product(basis, e, model, chamber, p)
        got = stokes_product(basis, e, model, shuffled, p)
        assert (got.order, got.factors, got.product) == \
            (want.order, want.factors, want.product)
        assert ray_order(shuffled, shuffled.active) == \
            ray_order(chamber, chamber.active)
        assert shuffled._order == chamber._order


class TestRankMismatch:
    def test_ray_order_rejects_a_longer_class(self):
        ch = an_chamber([(-1, 1), (1, 1)])
        with pytest.raises(ChamberError, match="rank 3"):
            ray_order(ch, [lv(1, 0, 5), lv(0, 1)])

    def test_ray_order_rejects_a_shorter_class(self):
        ch = Chamber(((-1, 1), (0, 1), (1, 1)), ())
        with pytest.raises(ChamberError, match="rank 2"):
            ray_order(ch, [lv(1, 1)])

    def test_active_class_of_the_wrong_rank(self):
        with pytest.raises(ChamberError, match="rank 3"):
            Chamber(((-1, 1), (1, 1)), (lv(1, 0, 0),))

    @pytest.mark.parametrize("Z", [convex_charge(2), convex_charge(4)],
                             ids=["short", "long"])
    def test_level2_chamber_with_a_charge_of_another_rank(self, Z):
        with pytest.raises(ChamberError, match=rf"^a rank-3 charge needs 3 "
                                               rf"entries, got {len(Z)}$"):
            level2_chamber(linear_quiver(3), Z)

    def test_level2_chamber_reads_a_one_pass_charge_once(self):
        q, Z = linear_quiver(2), ((-1, 1), (1, 1))
        assert level2_chamber(q, iter(Z)) == level2_chamber(q, Z)


# ---------------------------------------------------------------------------
# Reference ray geometry on Fractions: the sums the chambers evaluated
# before rays were compared on the charge scaled to integers.
# ---------------------------------------------------------------------------

def fraction_z_of(Z, v):
    x = sum((Fraction(c) * zx for c, (zx, _) in zip(v.coords, Z)), Fraction(0))
    y = sum((Fraction(c) * zy for c, (_, zy) in zip(v.coords, Z)), Fraction(0))
    return (x, y)


def in_upper(x, y):
    return y > 0 or (y == 0 and x < 0)


def fraction_ray_order(Z, classes):
    fixed = []
    for v in classes:
        x, y = fraction_z_of(Z, v)
        if (x, y) == (0, 0):
            raise ChamberError(f"class {v.coords} has Z = 0")
        if not in_upper(x, y):
            v, x, y = -v, -x, -y
        fixed.append((v, (x, y)))

    def cmp(a, b):
        cross = a[1][0] * b[1][1] - a[1][1] * b[1][0]
        if cross == 0:
            raise RayCollision("same ray")
        return -1 if cross < 0 else 1

    fixed.sort(key=functools.cmp_to_key(cmp))
    return [v for v, _ in fixed]


def fraction_stable_intervals(n, Z):
    def zval(i, j):
        x = sum((Z[t][0] for t in range(i - 1, j)), Fraction(0))
        y = sum((Z[t][1] for t in range(i - 1, j)), Fraction(0))
        return (x, y)

    def greater(a, b):
        return b[0] * a[1] - b[1] * a[0] > 0

    out = []
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            whole = zval(i, j)
            if all(greater(whole, zval(k, j)) for k in range(i + 1, j + 1)):
                out.append(tuple(1 if i - 1 <= t <= j - 1 else 0 for t in range(n)))
    return out


def interval_rule(Z):
    """The stable intervals (i, j) of the linear quiver, one charge at a
    time: prefix sums of the charge scaled to integers, and one cross
    product per subobject [k + 1, j] of [i, j]."""
    zint = stokes_mod._integer_charge(Z)
    px, py = [0], [0]
    for x, y in zint:
        px.append(px[-1] + x)
        py.append(py[-1] + y)
    out = []
    for i in range(1, len(zint) + 1):
        for j in range(i, len(zint) + 1):
            wx, wy = px[j] - px[i - 1], py[j] - py[i - 1]
            if all((px[j] - px[k]) * wy > (py[j] - py[k]) * wx for k in range(i, j)):
                out.append((i, j))
    return out


def fraction_chamber_error(Z, active):
    """The exception type a chamber on (Z, active) raises, or None."""
    if not all(in_upper(x, y) for x, y in Z):
        return ChamberError
    rays = []
    for v in active:
        x, y = fraction_z_of(Z, v)
        if (x, y) == (0, 0) or not in_upper(x, y):
            return ChamberError
        rays.append((x, y))
    if any(a[0] * b[1] - a[1] * b[0] == 0
           for a, b in itertools.combinations(rays, 2)):
        return RayCollision
    return None


def outcome(fn, *args):
    """fn's value, or the type of the ChamberError or RayCollision it raises."""
    try:
        return fn(*args)
    except (RayCollision, ChamberError) as exc:
        return type(exc)


# small numerators and mixed denominators make shared rays common
rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
# the same times 3^40, so that a charge scaled to integers passes the bound
# below which the key pass runs on int64
huge_rationals = rationals.map(lambda x: x * 3 ** 40)


@st.composite
def charges(draw, upper=True, values=rationals):
    n = draw(st.integers(2, 6))
    Z = []
    for _ in range(n):
        x, y = draw(values), draw(values)
        if upper and not in_upper(x, y):
            x, y = (-x, -y) if (x, y) != (0, 0) else (Fraction(-1), Fraction(0))
        Z.append((x, y))
    return tuple(Z)


@st.composite
def classes_for(draw, n):
    vecs = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * n), min_size=1,
                         max_size=6))
    return [lv(*v) for v in vecs]


class TestIntegerGeometryMatchesFractions:
    @settings(max_examples=300, deadline=None)
    @given(charges(upper=False))
    def test_stable_sets(self, Z):
        n = len(Z)
        assert [v.coords for v in an_stable_intervals(Z)] == \
            fraction_stable_intervals(n, Z)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(charges(upper=False), charges(upper=False, values=huge_rationals)))
    def test_stable_sets_follow_the_interval_rule(self, Z):
        n = len(Z)
        assert [v.coords for v in an_stable_intervals(Z)] == \
            [stokes_mod._interval_class(n, i, j).coords for i, j in interval_rule(Z)]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_ray_orders_and_errors(self, data):
        Z = data.draw(charges())
        classes = data.draw(classes_for(len(Z)))
        ch = Chamber(Z, ())
        assert outcome(ray_order, ch, classes) == \
            outcome(fraction_ray_order, Z, classes)
        for v in classes:
            # the integer ray is a positive multiple of Z(v)
            (x, y), (fx, fy) = ch._ray(v), fraction_z_of(Z, v)
            assert x * fy == y * fx and x * fx + y * fy >= 0
            assert ((x, y) == (0, 0)) == ((fx, fy) == (0, 0))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_chamber_errors(self, data):
        Z = data.draw(charges(upper=data.draw(st.booleans())))
        active = [v for v in data.draw(classes_for(len(Z))) if not v.is_zero()]
        if data.draw(st.booleans()):
            # rays in the upper half plane, so that collisions are common
            active = [v if in_upper(*fraction_z_of(Z, v)) else -v for v in active]

        def build():
            Chamber(Z, tuple(active))

        assert outcome(build) == fraction_chamber_error(Z, active)

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.integers(1, 10 ** 6))
    def test_positive_multiple_gives_the_same_chamber(self, data, k):
        Z = data.draw(charges())
        kZ = tuple((k * x, k * y) for x, y in Z)
        n = len(Z)
        assert an_stable_intervals(Z) == an_stable_intervals(kZ)
        classes = data.draw(classes_for(n))
        assert outcome(ray_order, Chamber(Z, ()), classes) == \
            outcome(ray_order, Chamber(kZ, ()), classes)
        a, b = outcome(an_chamber, Z), outcome(an_chamber, kZ)
        assert outcome(an_chamber, iter(Z)) == a  # a one-pass charge is read once
        if isinstance(a, Chamber):
            assert b.active == a.active
            assert ray_order(a, a.active) == ray_order(b, b.active)
        else:
            assert a is b


@st.composite
def quivers(draw):
    """A quiver of rank 2-8 with up to two arrows, either way, per pair."""
    n = draw(st.integers(2, 8))
    arrows = {}
    for u, v in itertools.combinations(range(1, n + 1), 2):
        k = draw(st.integers(-2, 2))
        if k:
            arrows[(u, v) if k > 0 else (v, u)] = abs(k)
    return Quiver.from_arrows(n, arrows)


def level2_order(q, Z):
    """The clockwise order of the level-2 chamber of Z, or RayCollision."""
    try:
        return level2_chamber(q, Z)._order
    except RayCollision:
        return RayCollision


class TestShearKeepsTheChamber:
    # x -> x + s * y has determinant 1 and keeps y, so it keeps every cross
    # product and upper-half-plane membership: no shifted charge can avoid
    # a collision the unshifted one meets

    @settings(max_examples=300, deadline=None)
    @given(quivers(), st.data(), st.integers(-30, 30))
    def test_level2_chamber(self, q, data, s):
        if data.draw(st.booleans()):
            Z = convex_charge(q.n)
        else:
            Z = []
            for _ in range(q.n):
                x, y = data.draw(rationals), data.draw(rationals)
                if not in_upper(x, y):
                    x, y = (-x, -y) if (x, y) != (0, 0) else (Fraction(-1), 0)
                Z.append((x, y))
        sheared = tuple((x + s * y, y) for x, y in Z)
        assert level2_order(q, Z) == level2_order(q, sheared)

    def test_rank7_convex_charge_collides(self):
        # 2 * 5^2 = 1^2 + 7^2 puts Z(e1 + e7) on the ray of Z(e5)
        q = Quiver.from_arrows(7, {**{(i, i + 1): 1 for i in range(1, 7)},
                                   (1, 7): 1})
        with pytest.raises(RayCollision, match=r"classes \(1, 0, 0, 0, 0, 0, 1\) "
                           r"and \(0, 0, 0, 0, 1, 0, 0\) lie on the same ray"):
            stokes_mod.auto_stokes(q, Basis.triangular(7), 3)


class TestEnumerateAnChambers:
    # SHA-256 of [sorted stable set, ray order, charge] per chamber, in
    # enumeration order, recorded while rays were compared on Fractions
    PINNED = {
        2: (2, "03a41f58092192a0a32cc746190fafed9ad7823dead07d4d63a69a753156769e"),
        3: (9, "bd701600e6561c1b6f0a802dec5fb92847c01835fedc5ac02723322879df65e1"),
        4: (85, "e89b0d342b3de1ea9bc11623cdb527170ebead654fc3cec92cfb3a24d1cd7f39"),
        5: (247, "8e6d2d8efcc910f70a0128c940f53d9563faa603f56629d68ce1d6db093ac5d4"),
    }

    @pytest.mark.parametrize("n", sorted(PINNED))
    def test_pinned_keys(self, n):
        chambers = enumerate_an_chambers(n, 400)
        keys = [[sorted(v.coords for v in ch.active),
                 [v.coords for v in ray_order(ch, list(ch.active))],
                 [[str(x), str(y)] for x, y in ch.Z]] for ch in chambers]
        digest = hashlib.sha256(json.dumps(keys).encode()).hexdigest()
        assert (len(chambers), digest) == self.PINNED[n]

    # SHA-256 of the charges as nested lists, recorded while each LCG state
    # was drawn one at a time
    SAMPLES = {
        2: "37bf1c4c0d150d4e65fb8e77a2dfcdb8b1c4aedd6a8cc1b311e0a794bd9d9fe5",
        3: "2862ec5a7e44ff3ea6fe1958976627a37ff356bb94f399ec1ca90336fa68b47e",
        4: "e0186e51f1f9393f140ba9232090d23288f4f65f7946d8f351b4652c90e40326",
        5: "eb9b15da59230439e56a63bf48b0c69e266083d8aefe2f9cedf6b51b579a6cd0",
    }

    @pytest.mark.parametrize("n", sorted(SAMPLES))
    def test_pinned_charge_samples(self, n):
        charges = [np.asarray(Z).tolist() for Z in stokes_mod._charge_samples(n, 400)]
        digest = hashlib.sha256(json.dumps(charges).encode()).hexdigest()
        assert digest == self.SAMPLES[n]
        # a prefix of the draws is the shorter sample
        assert stokes_mod._charge_samples(n, 7).tolist() == charges[:7]


# ---------------------------------------------------------------------------
# Reference jet check: a chamber built for every sample and keyed on its
# clockwise order, and one exact product per chamber.
# ---------------------------------------------------------------------------

def oracle_enumerate(n, samples):
    structured = [
        convex_charge(n),
        tuple(reversed(convex_charge(n))),
        tuple((Fraction(-10 * 3 ** k), Fraction(1 + k)) for k in range(n)),
        tuple((Fraction(10 * 3 ** (n - k)), Fraction(1 + k)) for k in range(n)),
    ]
    seen = {}
    for Z in itertools.chain(structured, stokes_mod._charge_samples(n, samples)):
        try:
            ch = an_chamber(Z)
        except (RayCollision, ChamberError):
            continue
        seen.setdefault(ch._order, ch)
    return list(seen.values())


def oracle_verify_an_jet(n, samples):
    basis = Basis.triangular(n)
    e = euler_form(linear_quiver(n))
    model = DTModel.an_intervals()
    chambers = oracle_enumerate(n, samples)
    expected = an_stokes(n)
    data = [stokes_product(basis, e, model, ch, None) for ch in chambers]
    lifts = {d.product.truncate(n + 1) for d in data}
    mismatches = sum(d.product != expected for d in data)
    return {
        "n": n,
        "chambers": len(chambers),
        "distinct_products": len({tuple(d.factor_positions()) for d in data}),
        "mismatched_chambers": mismatches,
        "lift_values_mod_n_plus_1": len(lifts),
        "ok": not mismatches and lifts == {expected},
    }


def chamber_records(chambers):
    return [(ch, ch.Z, ch._order) for ch in chambers]


@st.composite
def charge_lists(draw):
    """(n, charges): small charges of one rank, so that repeats, shared rays
    and charges outside the upper half plane are common."""
    n = draw(st.integers(2, 4))
    pool = draw(st.lists(st.tuples(*[st.tuples(rationals, rationals)] * n),
                         min_size=1, max_size=8))
    return n, draw(st.lists(st.sampled_from(pool), max_size=20))


class TestJetCheckMatchesOracle:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("samples", [0, 1, 37, 400])
    def test_sampled_chambers_and_reports(self, n, samples):
        assert chamber_records(enumerate_an_chambers(n, samples)) == \
            chamber_records(oracle_enumerate(n, samples))
        assert verify_an_jet(n, samples) == oracle_verify_an_jet(n, samples)

    def test_repeated_collinear_and_lower_charges(self, monkeypatch):
        half = Fraction(1, 2)
        samples = [
            ((-5, 1), (2, 3), (1, 1)),
            ((-5, 1), (2, 3), (1, 1)),             # repeated
            ((-5 * half, half), (1, 3 * half), (half, half)),  # a multiple
            ((1, 1), (1, 1), (-5, 1)),             # two simples on one ray
            ((1, 2), (-3, 1), (2, 4)),             # [1, 1] and [3, 3] on one ray
            ((-1, 1), (0, 1), (1, 1)),             # [2, 2] and [1, 3] on one ray
            ((-2, 0), (-1, 0), (0, 1)),            # two simples on the negative axis
            ((-1, 1), (1, -1), (0, 1)),            # below the real axis
            ((-1, 0), (1, 0), (0, 1)),             # on the positive real axis
            ((0, 0), (0, 1), (1, 1)),              # a zero charge
            ((2, 1), (-3, 2), (1, 4)),
        ]
        assert [outcome(an_chamber, Z) for Z in samples[3:10]] == \
            [RayCollision] * 4 + [ChamberError] * 3
        monkeypatch.setattr(stokes_mod, "_charge_samples",
                            lambda n, count: iter(samples))
        got = enumerate_an_chambers(3, 0)
        assert chamber_records(got) == chamber_records(oracle_enumerate(3, 0))
        # the two structured chambers, then the first and the last sample
        assert [ch.Z for ch in got[2:]] == [
            tuple((Fraction(x), Fraction(y)) for x, y in samples[k])
            for k in (0, 10)]
        assert verify_an_jet(3, 0) == oracle_verify_an_jet(3, 0)

    @settings(max_examples=150, deadline=None)
    @given(charge_lists())
    def test_random_sample_lists(self, case):
        n, samples = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stokes_mod, "_charge_samples",
                       lambda n, count: iter(samples))
            assert chamber_records(enumerate_an_chambers(n, 0)) == \
                chamber_records(oracle_enumerate(n, 0))

    @settings(max_examples=100, deadline=None)
    @given(charge_lists(), st.data())
    def test_charges_beyond_the_int64_bound(self, case, data):
        # positive multiples by 3^40 keep every chamber and push the scaled
        # charges past the int64-safe bound, so the pass runs on Python ints
        n, samples = case
        picks = data.draw(st.sets(st.integers(0, len(samples) - 1), min_size=1)
                          if samples else st.just(set()))
        samples = [tuple((x * 3 ** 40, y * 3 ** 40) for x, y in Z)
                   if k in picks else Z for k, Z in enumerate(samples)]
        if any(samples[k] != ((0, 0),) * n for k in picks):
            scaled = stokes_mod._charge_block(n, samples)[1]
            assert stokes_mod._exact_stack(n, [scaled]).dtype == object
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stokes_mod, "_charge_samples",
                       lambda n, count: iter(samples))
            assert chamber_records(enumerate_an_chambers(n, 0)) == \
                chamber_records(oracle_enumerate(n, 0))

    @pytest.mark.parametrize("n", [2, 5])
    def test_chunks_key_the_same_chambers(self, n, monkeypatch):
        whole = chamber_records(enumerate_an_chambers(n, 60))
        monkeypatch.setattr(stokes_mod, "_KEY_PASS_ENTRIES", 1)
        assert chamber_records(enumerate_an_chambers(n, 60)) == whole

    def test_each_chamber_is_built_unchecked(self, monkeypatch):
        # the public constructor's checks are not run again on values the
        # key pass has checked
        monkeypatch.setattr(Chamber, "__post_init__", None)
        assert len(enumerate_an_chambers(5, 400)) == 247


class TestVerifyAnJetBuildsEachProductOnce:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_exact_products_are_the_natural_lifts(self, n, monkeypatch):
        basis = Basis.triangular(n)
        e = euler_form(linear_quiver(n))
        model = DTModel.an_intervals()
        chambers = enumerate_an_chambers(n, 150)
        want = natural_lifts(basis, e, model, chambers, n + 1)
        sequences = {tuple(stokes_product(basis, e, model, ch).factor_positions())
                     for ch in chambers}
        built = []
        original = stokes_mod._elementary_product
        monkeypatch.setattr(stokes_mod, "_elementary_product",
                            lambda *a: built.append(a) or original(*a))
        monkeypatch.setattr(stokes_mod, "natural_lifts", None)
        rep = verify_an_jet(n, 150)
        assert rep["ok"] and rep["lift_values_mod_n_plus_1"] == len(want) == 1
        assert rep["chambers"] == len(chambers)
        assert len(built) == rep["distinct_products"] == len(sequences)
        assert len(sequences) < len(chambers)

    def test_two_calls_do_the_same_work(self, monkeypatch):
        built = []
        original = stokes_mod._elementary_product
        monkeypatch.setattr(stokes_mod, "_elementary_product",
                            lambda *a: built.append(a) or original(*a))
        reports = [verify_an_jet(4, 150) for _ in range(2)]
        assert reports[0] == reports[1]
        assert len(built) == 2 * reports[0]["distinct_products"]

    def test_a_class_too_long_for_the_lift_order_is_refused(self, monkeypatch):
        # a chamber whose lift at order n + 1 would drop a factor
        long = Chamber(((-1, 1), (1, 1)), (lv(1, 0), lv(0, 1), lv(1, 2)))
        monkeypatch.setattr(stokes_mod, "enumerate_an_chambers",
                            lambda n, samples: [long])
        with pytest.raises(ChamberError, match="longer than 2"):
            verify_an_jet(2)


@functools.lru_cache(maxsize=None)
def sampled_an_chambers(n):
    return tuple(enumerate_an_chambers(n, 150))


class TestProductTable:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_table_groups_the_chamber_products(self, data):
        # sampled chambers drawn with repeats and in random order, random
        # nonzero interval counts so that distinct sequences give distinct
        # products, and every truncation order that drops factors or none
        n = data.draw(st.integers(2, 5))
        pool = sampled_an_chambers(n)
        chambers = [pool[k] for k in data.draw(
            st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=12))]
        model = DTModel.table({
            stokes_mod._interval_class(n, i, j).coords:
                data.draw(st.sampled_from([-2, -1, 1, 2]))
            for i in range(1, n + 1) for j in range(i, n + 1)})
        p = data.draw(st.sampled_from([None, *range(1, n + 2)]))
        basis, e = Basis.triangular(n), euler_form(linear_quiver(n))
        oracle = stokes_mod._Factors(basis, e, model, p)
        groups = {}
        for ch in chambers:
            seq = oracle.ordered(ch)
            prod = stokes_mod._elementary_product(n, n, seq)
            group = groups.setdefault(tuple((i, j) for i, j, _ in seq), [prod, 0])
            assert group[0] == prod
            group[1] += 1
        table = stokes_mod._Factors(basis, e, model, p).products(chambers)
        assert table == [(prod, count) for prod, count in groups.values()]

    def test_natural_lifts_builds_one_product_per_sequence(self, monkeypatch):
        chambers = enumerate_an_chambers(5, 400)
        built = []
        original = stokes_mod._elementary_product
        monkeypatch.setattr(stokes_mod, "_elementary_product",
                            lambda *a: built.append(a) or original(*a))
        lifts = natural_lifts(Basis.triangular(5), euler_form(linear_quiver(5)),
                              DTModel.an_intervals(), chambers, 6)
        assert lifts == [an_stokes(5)]
        assert (len(chambers), len(built)) == (247, 82)


class TestJetCheckErrors:
    # two equal charges put the difference alpha_1 - alpha_2 = (1, -1) of
    # the unit basis on Z = 0
    unit = Basis([(1, 0), (0, 1)])
    flat = Chamber(((0, 1), (0, 1)), ())

    def test_difference_with_zero_charge(self, monkeypatch):
        e = euler_form(linear_quiver(2))
        with pytest.raises(ChamberError, match=r"difference \(1, -1\) has Z = 0"):
            stokes_product(self.unit, e, DTModel.an_intervals(), self.flat)
        monkeypatch.setattr(Basis, "triangular", lambda n: self.unit)
        monkeypatch.setattr(stokes_mod, "enumerate_an_chambers",
                            lambda n, samples: [self.flat])
        with pytest.raises(ChamberError, match=r"difference \(1, -1\) has Z = 0"):
            verify_an_jet(2)

    def test_active_class_with_zero_count(self, monkeypatch):
        model = DTModel.table({(1, 0, 0): 0})
        ch = an_chamber([(-5, 1), (2, 3), (1, 1)])
        with pytest.raises(ChamberError, match="zero count"):
            stokes_product(Basis.triangular(3), euler_form(linear_quiver(3)),
                           model, ch)
        monkeypatch.setattr(DTModel, "an_intervals", lambda: model)
        with pytest.raises(ChamberError, match="zero count"):
            verify_an_jet(3, 20)

    def test_rank_mismatch(self, monkeypatch):
        ch = Chamber(((-5, 1), (2, 3), (1, 1)), (lv(1, 0, 0),))
        with pytest.raises(ValueError, match="rank mismatch"):
            stokes_product(Basis.triangular(2), euler_form(linear_quiver(2)),
                           DTModel.an_intervals(), ch)
        monkeypatch.setattr(stokes_mod, "enumerate_an_chambers",
                            lambda n, samples: [ch])
        with pytest.raises(ValueError, match="rank mismatch"):
            verify_an_jet(2)

    def test_no_two_positions_share_a_class(self):
        # alpha_1 - alpha_2 = alpha_2 - alpha_3 only for dependent rows,
        # which a basis refuses; so a class has at most one factor
        with pytest.raises(ValueError, match="linearly dependent"):
            Basis([(2, 0, 1), (1, 0, 1), (0, 0, 1)])
        basis = Basis.alternating(4)
        diffs = [basis.diff(i, j).coords for i, j in
                 itertools.permutations(range(1, 5), 2)]
        assert len(set(diffs)) == len(diffs) == 12

    def test_chamber_dependence_is_reported_not_raised(self, monkeypatch):
        # count 2 on the length-2 intervals: chambers disagree below order
        # n + 1, which the check reports and natural_lifts refuses
        intervals = DTModel.an_intervals()
        doubled = DTModel("doubled", lambda v: intervals.dt(v)
                          * (2 if sum(v.coords) == 2 else 1))
        monkeypatch.setattr(DTModel, "an_intervals", lambda: doubled)
        assert verify_an_jet(3) == {
            "n": 3, "chambers": 9, "distinct_products": 2,
            "mismatched_chambers": 5, "lift_values_mod_n_plus_1": 2,
            "ok": False}
        rep = verify_an_jet(4)
        assert rep == oracle_verify_an_jet(4, 400)
        assert not rep["ok"] and rep["lift_values_mod_n_plus_1"] > 1
        with pytest.raises(LiftDisagreement):
            natural_lifts(Basis.triangular(4), euler_form(linear_quiver(4)),
                          doubled, enumerate_an_chambers(4, 400), 5)
        lines = verify.run_scope("an_jets")
        assert [l.ok for l in lines] == [True] + [False] * 5
        assert [l.detail for l in lines[1:]] == [
            "mismatches=5 lifts=2",
            f"mismatches={rep['mismatched_chambers']} "
            f"lifts={rep['lift_values_mod_n_plus_1']}",
            "mismatches=241 lifts=19",
            "products disagree mod (s)^3", "products disagree mod (s)^5"]

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("count", [2, -1])
    def test_some_chambers_match_and_some_do_not(self, n, count, monkeypatch):
        # a changed count on [1, 2] leaves the chambers without that factor
        # on the bidiagonal matrix: the matched products give one lift value
        # and every mismatched one is truncated, as the oracle does
        intervals = DTModel.an_intervals()
        changed = stokes_mod._interval_class(n, 1, 2)
        model = DTModel("changed", lambda v: intervals.dt(v)
                        * (count if v == changed else 1))
        monkeypatch.setattr(DTModel, "an_intervals", lambda: model)
        rep = verify_an_jet(n, 150)
        assert rep == oracle_verify_an_jet(n, 150)
        assert 0 < rep["mismatched_chambers"] < rep["chambers"]
        assert rep["lift_values_mod_n_plus_1"] > 1

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_mismatches_count_chambers_not_sequences(self, n, monkeypatch):
        # counts (-1)^len turn every product into the bidiagonal matrix at
        # s -> -s: the chambers still agree, and every one of them mismatches
        intervals = DTModel.an_intervals()
        signed = DTModel("signed",
                         lambda v: intervals.dt(v) * (-1) ** sum(v.coords))
        monkeypatch.setattr(DTModel, "an_intervals", lambda: signed)
        rep = verify_an_jet(n, 150)
        assert rep == oracle_verify_an_jet(n, 150)
        assert not rep["ok"] and rep["lift_values_mod_n_plus_1"] == 1
        assert rep["mismatched_chambers"] == rep["chambers"] > \
            rep["distinct_products"]


class TestVerifyBuildsEachFixtureOnce:
    def count_products(self, monkeypatch, fn):
        calls = []
        original = stokes_mod.stokes_product
        monkeypatch.setattr(stokes_mod, "stokes_product",
                            lambda *a: calls.append(a) or original(*a))
        lines = fn()
        assert all(line.ok for line in lines)
        return len(lines), len(calls)

    def test_mutation_theorem_builds_31_products(self, monkeypatch):
        assert self.count_products(
            monkeypatch, lambda: verify.run_scope("mutation_theorem")) == (56, 31)

    def test_annulus_builds_its_two_products(self, monkeypatch):
        assert self.count_products(monkeypatch, verify.check_annulus) == (4, 2)
