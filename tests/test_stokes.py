import functools
import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quiverstokes.algebra import (Basis, LatticeVector, PolyMatrix,
                                  TruncatedPoly, joyce_point)
from quiverstokes.goodness import mutation_basis
from quiverstokes.quiver import (apply_word, euler_form, kronecker_quiver,
                                 linear_quiver)
from quiverstokes import stokes as stokes_mod
from quiverstokes import verify
from quiverstokes.stokes import (Chamber, ChamberError, DTModel, RayCollision,
                                 an_chamber, an_stable_intervals, an_stokes,
                                 enumerate_an_chambers, factor_product,
                                 level2_chamber, natural_lifts, ray_order,
                                 stokes_factor, stokes_product, verify_an_jet,
                                 convex_charge)


def lv(*coords):
    return LatticeVector(tuple(coords))


def s(nvars, i):
    return TruncatedPoly.variable(nvars, i)


class TestDTModel:
    def test_symmetry(self):
        for model in (DTModel.simples_only(), DTModel.an_intervals(),
                      DTModel.kronecker_chain(3),
                      DTModel.table({(1, 1, 0): Fraction(2)})):
            for v in (lv(1, 0, 0), lv(1, 1, 0), lv(0, 1, 1), lv(1, -1, 0)):
                assert model.dt(v) == model.dt(-v)

    def test_simples_only_is_unit_kronecker_on_simples(self):
        a = DTModel.simples_only()
        b = DTModel.kronecker_chain(1)
        for v in (lv(1, 0), lv(0, -1)):
            assert a.dt(v) == b.dt(v) == 1

    def test_kronecker_values(self):
        m = DTModel.kronecker_chain(3)
        assert m.dt(lv(1, 1, 0)) == 3
        assert m.dt(lv(0, 1, 1)) == 3
        assert m.dt(lv(1, 0, 1)) == 0
        assert DTModel.kronecker_chain(2).dt(lv(1, 1)) == -2

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
        f = stokes_factor(1, 2, b, e, 1)
        assert f == PolyMatrix.elementary(2, 1, 2, -s(2, 1))

    def test_kronecker(self):
        for lam in (1, 2, 3, 4):
            b = Basis.triangular(2)
            e = euler_form(kronecker_quiver(lam))
            f = stokes_factor(1, 2, b, e, 1)
            coeff = TruncatedPoly.monomial(2, (1, 0), (-1) ** lam * lam)
            assert f == PolyMatrix.elementary(2, 1, 2, coeff)

    def test_zero_dt_gives_identity(self):
        b = Basis.triangular(2)
        e = euler_form(linear_quiver(2))
        assert stokes_factor(1, 2, b, e, 0) == PolyMatrix.identity(2, 2)

    def test_factor_inverse_is_sign_flip(self):
        b = Basis.triangular(3)
        e = euler_form(linear_quiver(3))
        f = stokes_factor(1, 3, b, e, 1)
        inv = f.inverse_unipotent()
        flipped = PolyMatrix.elementary(3, 1, 3, -f.entries[0][2])
        assert inv == flipped


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
        b = mutation_basis(3, q)
        ch = level2_chamber(q, convex_charge(3))
        sd = stokes_product(b, euler_form(q), DTModel.from_quiver_extensions(q),
                            ch, None)
        rows = [[c.text() for c in row] for row in sd.product.entries]
        assert rows == [["1", "-s1*s2", "-s1"], ["0", "1", "0"], ["0", "s2", "1"]]
        assert sd.order == (1, 3, 2)

    def test_a4_jet_mod_s3(self):
        q = linear_quiver(4)
        b = Basis.triangular(4)
        ch = an_chamber(4, [(-10, 1), (-1, 2), (1, 2), (1, 3)])
        sd = stokes_product(b, euler_form(q), DTModel.an_intervals(), ch, 3)
        expect = an_stokes(4).truncate(3)
        assert sd.product == expect

    def test_empty_active_set_gives_identity(self):
        b = Basis.triangular(2)
        ch = Chamber(((-1, 1), (1, 1)), ())
        sd = stokes_product(b, euler_form(linear_quiver(2)),
                            DTModel.simples_only(), ch, None)
        assert sd.product == PolyMatrix.identity(2, 2)

    def test_inconsistent_active_class(self):
        b = Basis.triangular(2)
        ch = Chamber(((-1, 1), (1, 1)), (lv(1, 0),))
        model = DTModel.table({}, simples_default=False)
        with pytest.raises(ChamberError):
            stokes_product(b, euler_form(linear_quiver(2)), model, ch, None)


class TestNaturalLifts:
    def setup_method(self):
        self.basis = Basis.triangular(4)
        self.e = euler_form(linear_quiver(4))
        self.model = DTModel.an_intervals()
        self.ch1 = an_chamber(4, [(3, 1), (1, 1), (-1, 1), (-3, 1)])
        self.ch2 = an_chamber(4, [(-10, 1), (-1, 2), (1, 2), (1, 3)])

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
        chambers = [an_chamber(2, [(-3, 1), (1, 1)]), an_chamber(2, [(1, 2), (-5, 1)])]
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
        basis = mutation_basis(4, q)
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
        from quiverstokes.verify import pipeline_product
        prod = pipeline_product(4, [3, 1],
                                [(-9, 2), (0, 2), (15, 2), (36, 2)])
        assert prod.evaluate(joyce_point(4)) == (
            (1, 1, -1, -1), (0, 1, -1, -1), (0, 0, 1, 0), (0, 0, 1, 1))


def elementary_chain(n, nvars, factors, p):
    """Reference ordered product: the left-to-right PolyMatrix product of
    the factors I + c E_ij, as full matrix products."""
    m = PolyMatrix.identity(n, nvars, p)
    for i, j, c in factors:
        m = m * PolyMatrix.elementary(n, i, j, c)
    return m


@st.composite
def an_chambers(draw):
    """(n, chamber, model): a random linear-quiver chamber of rank 2..4 with
    random nonzero counts on the interval classes."""
    n = draw(st.integers(2, 4))
    Z = [(draw(st.integers(-12, 12)), draw(st.integers(1, 9))) for _ in range(n)]
    try:
        chamber = an_chamber(n, Z)
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
        want = elementary_chain(n, n, data.factors, p)
        assert data.product == want
        assert [e.trunc for row in data.product.entries for e in row] == \
            [e.trunc for row in want.entries for e in row]

    @settings(max_examples=40, deadline=None)
    @given(an_chambers(), st.sampled_from([2, 3, 5]))
    def test_natural_lift_is_factor_chain(self, case, p):
        n, chamber, model = case
        basis = Basis.triangular(n)
        e = euler_form(linear_quiver(n))
        factors = stokes_product(basis, e, model, chamber, p).factors
        want = elementary_chain(
            n, n, [(i, j, c.drop_bound()) for (i, j, c) in factors], None)
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
        ch = an_chamber(2, [(-1, 1), (1, 1)])
        with pytest.raises(ChamberError, match="rank 3"):
            ray_order(ch, [lv(1, 0, 5), lv(0, 1)])

    def test_z_of_rejects_a_shorter_class(self):
        ch = Chamber(((-1, 1), (0, 1), (1, 1)), ())
        with pytest.raises(ChamberError, match="rank 2"):
            ch.z_of(lv(1, 1))

    def test_active_class_of_the_wrong_rank(self):
        with pytest.raises(ChamberError, match="rank 3"):
            Chamber(((-1, 1), (1, 1)), (lv(1, 0, 0),))

    def test_an_chamber_with_too_many_charges(self):
        with pytest.raises(ChamberError, match="needs 2 entries, got 3"):
            an_chamber(2, [(-1, 1), (1, 1), (0, 1)])

    def test_an_chamber_with_too_few_charges(self):
        with pytest.raises(ChamberError, match="needs 3 entries, got 2"):
            an_chamber(3, [(-1, 1), (1, 1)])


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


@st.composite
def charges(draw, upper=True):
    n = draw(st.integers(2, 6))
    Z = []
    for _ in range(n):
        x, y = draw(rationals), draw(rationals)
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
        assert [v.coords for v in an_stable_intervals(n, Z)] == \
            fraction_stable_intervals(n, Z)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_ray_orders_and_errors(self, data):
        Z = data.draw(charges())
        classes = data.draw(classes_for(len(Z)))
        ch = Chamber(Z, ())
        assert outcome(ray_order, ch, classes) == \
            outcome(fraction_ray_order, Z, classes)
        for v in classes:
            assert ch.z_of(v) == fraction_z_of(Z, v)

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
        assert an_stable_intervals(n, Z) == an_stable_intervals(n, kZ)
        classes = data.draw(classes_for(n))
        assert outcome(ray_order, Chamber(Z, ()), classes) == \
            outcome(ray_order, Chamber(kZ, ()), classes)
        a, b = outcome(an_chamber, n, Z), outcome(an_chamber, n, kZ)
        if isinstance(a, Chamber):
            assert b.active == a.active
            assert ray_order(a, a.active) == ray_order(b, b.active)
        else:
            assert a is b


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


# ---------------------------------------------------------------------------
# Reference jet check: a chamber built for every sample and keyed on its
# clockwise order, and one exact product per chamber.
# ---------------------------------------------------------------------------

def oracle_enumerate(n, samples):
    structured = [
        convex_charge(n, 0),
        tuple(reversed(convex_charge(n, 0))),
        tuple((Fraction(-10 * 3 ** k), Fraction(1 + k)) for k in range(n)),
        tuple((Fraction(10 * 3 ** (n - k)), Fraction(1 + k)) for k in range(n)),
    ]
    seen = {}
    for Z in itertools.chain(structured, stokes_mod._charge_samples(n, samples)):
        try:
            ch = an_chamber(n, Z)
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
    lifts = natural_lifts(basis, e, model, chambers, n + 1)
    mismatches = sum(d.product != expected for d in data)
    return {
        "n": n,
        "chambers": len(chambers),
        "distinct_products": len({tuple(d.factor_positions()) for d in data}),
        "mismatched_chambers": mismatches,
        "lift_values_mod_n_plus_1": len(lifts),
        "ok": not mismatches and lifts == [expected],
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
        assert [outcome(an_chamber, 3, Z) for Z in samples[3:10]] == \
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
        original = stokes_mod._stokes_data
        monkeypatch.setattr(stokes_mod, "_stokes_data",
                            lambda *a: built.append(a) or original(*a))
        monkeypatch.setattr(stokes_mod, "natural_lifts", None)
        rep = verify_an_jet(n, 150)
        assert rep["ok"] and rep["lift_values_mod_n_plus_1"] == len(want) == 1
        assert rep["chambers"] == len(chambers)
        assert len(built) == rep["distinct_products"] == len(sequences)
        assert len(sequences) < len(chambers)

    def test_two_calls_do_the_same_work(self, monkeypatch):
        built = []
        original = stokes_mod._stokes_data
        monkeypatch.setattr(stokes_mod, "_stokes_data",
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
        model = DTModel.table({}, simples_default=False)
        ch = an_chamber(3, [(-5, 1), (2, 3), (1, 1)])
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
