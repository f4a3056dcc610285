import itertools
import operator
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiverstokes import algebra as algebra_mod
from quiverstokes import stokes as stokes_mod
from quiverstokes.algebra import (Basis, LatticeVector, PolyMatrix,
                                  TruncatedPoly, joyce_point, lv_len,
                                  lv_monomial)
from quiverstokes.braid import beta, beta_inv
from quiverstokes.serialize import (basis_from_json, basis_to_json,
                                    pm_from_json, pm_to_json, poly_from_json,
                                    poly_to_json)


def rand_poly(rng, nvars, nterms=4, deg=3, coeff=6):
    terms = {}
    for _ in range(rng.randint(0, nterms)):
        exps = tuple(rng.randint(0, deg) for _ in range(nvars))
        terms[exps] = Fraction(rng.randint(-coeff, coeff), rng.randint(1, 4))
    return TruncatedPoly(nvars, terms)


def s(nvars, i):
    return TruncatedPoly.variable(nvars, i)


class TestLatticeVector:
    def test_len_examples(self):
        assert lv_len(LatticeVector((1, 1, 1))) == 3
        assert lv_len(LatticeVector((0, 0, 0, 0))) == 0
        # alpha_1 - alpha_4 for the rank-4 triangular basis
        b = Basis.triangular(4)
        assert lv_len(b.diff(1, 4)) == 3

    def test_monomial_examples(self):
        m = lv_monomial(LatticeVector((1, 1, 0)))
        assert m == TruncatedPoly.monomial((1, 1, 0))
        assert lv_monomial(LatticeVector((0, 0, 0))) == TruncatedPoly.one(3)
        assert lv_monomial(LatticeVector((-1, 1, 0))) == \
            TruncatedPoly.monomial((1, 1, 0))

    def test_negation_involution_and_len(self):
        rng = random.Random(11)
        for _ in range(100):
            v = LatticeVector(tuple(rng.randint(-5, 5) for _ in range(4)))
            w = LatticeVector(tuple(rng.randint(-5, 5) for _ in range(4)))
            assert -(-v) == v
            assert lv_len(v) == lv_len(-v)
            assert lv_len(v + w) <= lv_len(v) + lv_len(w)
            prod = lv_monomial(v) * lv_monomial(w)
            exps = tuple(abs(a) + abs(b) for a, b in zip(v.coords, w.coords))
            assert prod == TruncatedPoly.monomial(exps)


class TestTruncatedPoly:
    def test_mul_examples(self):
        one = TruncatedPoly.one(2)
        s1 = s(2, 1)
        assert ((one - s1) * (one + s1)).truncate(3) == \
            TruncatedPoly(2, {(0, 0): 1, (2, 0): -1})
        # s1*s2*s3 is exact, and vanishes mod (s)^3
        a = TruncatedPoly.monomial((1, 1, 0))
        assert a * s(3, 3) == TruncatedPoly.monomial((1, 1, 1))
        assert (a * s(3, 3)).truncate(3).is_zero()
        # exact binomial square
        t = s(2, 1) + s(2, 2)
        assert t * t == TruncatedPoly(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})

    def test_ring_laws_random(self):
        rng = random.Random(7)
        for _ in range(100):
            a = rand_poly(rng, 3)
            b = rand_poly(rng, 3)
            c = rand_poly(rng, 3)
            assert a + b == b + a
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_truncation_is_ring_hom(self):
        rng = random.Random(13)
        for _ in range(120):
            a = rand_poly(rng, 3)
            b = rand_poly(rng, 3)
            p = rng.randint(1, 5)
            assert (a * b).truncate(p) == (a.truncate(p) * b.truncate(p)).truncate(p)
            assert (a + b).truncate(p) == (a.truncate(p) + b.truncate(p)).truncate(p)

    def test_evaluate(self):
        a = TruncatedPoly(2, {(1, 0): Fraction(1, 2), (1, 1): 3})
        assert a.evaluate([2, 5]) == Fraction(1) + 30

    def test_serialization_roundtrip_canonical(self):
        rng = random.Random(3)
        for _ in range(25):
            a = rand_poly(rng, 3)
            j = poly_to_json(a)
            assert poly_from_json(j, 3) == a
            # graded-lex key order is canonical
            keys = [tuple(int(x) for x in k.split(",")) for k in j]
            assert keys == sorted(keys, key=lambda e: (sum(e), e))


class TestValidation:
    """TruncatedPoly(nvars, terms) is where terms are checked."""

    @pytest.mark.parametrize("terms,error,message", [
        ({(1,): 1}, ValueError, "exponent vector has wrong length"),
        ({(1, 0, 2): 1}, ValueError, "exponent vector has wrong length"),
        ({(1, -1): 1}, ValueError, "exponent must be at least 0, got -1"),
        ({(1, 0): 0.5}, TypeError, "not an exact rational"),
        ({(1, 0): None}, TypeError, "not an exact rational"),
        ({(1.7, 0): 1}, ValueError, "not an integer: 1.7"),
        ({(1, "1_0"): 1}, ValueError, "not an integer: '1_0'"),
        ({(1, 0): True}, TypeError, "not an exact rational"),
    ])
    def test_rejects_invalid_terms(self, terms, error, message):
        with pytest.raises(error, match=message):
            TruncatedPoly(2, terms)

    def test_converts_coefficients_and_drops_zeros(self):
        p = TruncatedPoly(2, {(0, 0): 0, (1, 0): "1/2", (0, 1): 3,
                              (1, 1): Fraction(0), (2, 0): "0"})
        assert p.terms == {(1, 0): Fraction(1, 2), (0, 1): Fraction(3)}
        assert all(type(c) is Fraction for c in p.terms.values())
        assert TruncatedPoly(3, {(0, 0, 0): 0}).is_zero()

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
    def test_variable_count_mismatch(self, op):
        with pytest.raises(ValueError, match="variable-count mismatch"):
            op(s(2, 1), s(3, 1))

    @pytest.mark.parametrize("poly,c", [
        (TruncatedPoly.zero(2), 0),
        (TruncatedPoly.one(2), 1),
        (TruncatedPoly.constant(3, Fraction(1, 2)), Fraction(1, 2)),
    ])
    def test_constant_hashes_as_its_scalar(self, poly, c):
        assert poly == c and hash(poly) == hash(c)
        assert len({poly, c}) == 1


coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=3)
scalars = st.one_of(st.integers(-3, 3), coeffs)


@st.composite
def poly_cases(draw):
    """(a, b, k, p): two polynomials in one to three variables, whose terms
    often cancel, a scalar and a truncation order."""
    nvars = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 2)] * nvars)
    a, b = (TruncatedPoly(nvars, draw(st.dictionaries(exps, coeffs, max_size=5)))
            for _ in range(2))
    if draw(st.booleans()):
        b = b - a  # a + b, a - b then cancel terms
    return a, b, draw(scalars), draw(st.integers(0, 4))


def reference(op, a, b):
    """a op b built term by term and checked by the constructor, as before
    arithmetic skipped the check."""
    if op is operator.mul:
        terms = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                v = terms.get(e, Fraction(0)) + c1 * c2
                if v:
                    terms[e] = v
                elif e in terms:
                    del terms[e]
        return TruncatedPoly(a.nvars, terms)
    if op is operator.sub:
        b = TruncatedPoly(b.nvars, {e: -c for e, c in b.terms.items()})
    terms = dict(a.terms)
    for e, c in b.terms.items():
        terms[e] = terms.get(e, Fraction(0)) + c
    return TruncatedPoly(a.nvars, terms)


class TestArithmeticKeepsTheInvariant:
    @settings(max_examples=300, deadline=None)
    @given(poly_cases())
    def test_results_are_valid_polynomials(self, case):
        a, b, k, p = case
        n = a.nvars
        results = [a + b, a - b, a * b, -a, a * k, k * a, a + k, k + a,
                   a - k, k - a, a.truncate(p)]
        for r in results:
            assert r.nvars == n
            assert r == TruncatedPoly(r.nvars, dict(r.terms))
            for e, c in r.terms.items():
                assert type(e) is tuple and len(e) == n
                assert all(type(x) is int and x >= 0 for x in e)
                assert type(c) is Fraction and c != 0
            for c in (0, 1, -1, k, r.constant_term(), Fraction(1, 2)):
                assert (r == c) == (r == TruncatedPoly.constant(n, c))
                assert (r != c) == (r != TruncatedPoly.constant(n, c))
        for op, r in zip((operator.add, operator.sub, operator.mul), results):
            assert list(r.terms.items()) == list(reference(op, a, b).terms.items())

    @settings(max_examples=300, deadline=None)
    @given(poly_cases(), st.integers(0, 3))
    def test_plus_product_is_the_sum_with_the_product(self, case, pick):
        # the fused update of the elementary products; terms that cancel
        # inside the product or against the summand are dropped
        a, b, _, _ = case
        c = [a, b, -(a * b), b * b][pick]
        before = [dict(x.terms) for x in (a, b, c)]
        r = c._plus_product(a, b)
        assert r == reference(operator.add, c, reference(operator.mul, a, b))
        assert all(type(v) is Fraction and v != 0 for v in r.terms.values())
        assert [x.terms for x in (a, b, c)] == before


class TestArithmeticSkipsTheCheck:
    """Values built from valid polynomials never pass through __init__."""

    @pytest.fixture
    def inits(self, monkeypatch):
        calls = []
        original = TruncatedPoly.__init__

        def counting(self, *args, **kwargs):
            calls.append(args)
            original(self, *args, **kwargs)

        monkeypatch.setattr(TruncatedPoly, "__init__", counting)
        return calls

    def test_polynomial_arithmetic(self, inits):
        rng = random.Random(19)
        pairs = [(rand_poly(rng, 3), rand_poly(rng, 3)) for _ in range(30)]
        inits.clear()
        for a, b in pairs:
            _ = (a + b, a - b, a * b, -a, a * 3, Fraction(1, 2) * a, a + 1,
                 1 - a, a == 1, a != 0, (a * b).truncate(3), hash(a))
        assert inits == []

    def test_braid_moves_on_a_polynomial_matrix(self, inits):
        m = stokes_mod.an_stokes(5)
        inits.clear()
        for i in range(1, 5):
            assert beta_inv(i, beta(i, m)) == m
            assert beta(i, beta_inv(i, m)) == m
        assert inits == []

    def test_elementary_product(self, inits):
        rng = random.Random(23)
        factors = [(i, j, rand_poly(rng, 4)) for i in range(1, 5)
                   for j in range(i + 1, 5)]
        inits.clear()
        m = stokes_mod._elementary_product(4, 4, factors).truncate(3)
        assert all(m.entries[k][k] == 1 for k in range(4))
        assert inits == []


class TestPolyMatrix:
    def test_elementary_products(self):
        # (I - s2 E23)(I - s1 E12) = I - s1 E12 - s2 E23
        e23 = PolyMatrix.elementary(3, 2, 3, -s(3, 2))
        e12 = PolyMatrix.elementary(3, 1, 2, -s(3, 1))
        prod = e23 * e12
        expect = PolyMatrix.identity(3, 3)
        expect.entries[0][1] = -s(3, 1)
        expect.entries[1][2] = -s(3, 2)
        assert prod == expect
        # (I - s1 E12)(I - s1 s2 E13)(I - s2 E23) = same matrix
        e13 = PolyMatrix.elementary(3, 1, 3, -TruncatedPoly.monomial((1, 1, 0)))
        alt = (PolyMatrix.elementary(3, 1, 2, -s(3, 1)) * e13
               * PolyMatrix.elementary(3, 2, 3, -s(3, 2)))
        assert alt == expect

    def test_identity_neutral(self):
        rng = random.Random(5)
        a = PolyMatrix([[rand_poly(rng, 2) + 1, rand_poly(rng, 2)],
                        [rand_poly(rng, 2), rand_poly(rng, 2) + 1]])
        i2 = PolyMatrix.identity(2, 2)
        assert i2 * a == a
        assert a * i2 == a

    def test_associativity_random(self):
        rng = random.Random(17)
        for _ in range(30):
            mats = [PolyMatrix([[rand_poly(rng, 2, 2, 2, 3) for _ in range(2)]
                                for _ in range(2)]) for _ in range(3)]
            a, b, c = mats
            assert (a * b) * c == a * (b * c)

    def test_evaluate_examples(self):
        from quiverstokes.stokes import an_stokes
        cartan = an_stokes(3).evaluate(joyce_point(3))
        assert cartan == ((1, -1, 0), (0, 1, -1), (0, 0, 1))
        # any unipotent matrix at the origin is the identity
        m = PolyMatrix.elementary(3, 1, 3, rand_poly(random.Random(2), 3) * s(3, 1))
        assert m.evaluate([0, 0, 0]) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_matrix_serialization_roundtrip(self):
        from quiverstokes.stokes import an_stokes
        m = an_stokes(4)
        assert pm_from_json(pm_to_json(m), 4) == m


class TestIntegerCoordinates:
    @pytest.mark.parametrize("build", [
        lambda: LatticeVector((1.5, 0)),
        lambda: LatticeVector((True, 0)),
        lambda: LatticeVector(("1_0", 0)),
        lambda: LatticeVector(("\u0663", 0)),
        lambda: Basis([(1.9, 0), (0, 1)]),
    ])
    def test_non_integral_coordinates_are_refused(self, build):
        with pytest.raises(ValueError, match="not an integer"):
            build()

    @pytest.mark.parametrize("coord", [3, 3.0, "3", "+3", np.int64(3)])
    def test_whole_coordinates_are_read_as_ints(self, coord):
        v = LatticeVector((coord, -1))
        assert v.coords == (3, -1) and type(v.coords[0]) is int
        assert Basis([(coord, 0), (0, 1)]).det() == 3


class TestBasis:
    def test_det_and_inverse(self):
        b = Basis.triangular(4)
        assert b.det() == 1
        inv = b.inverse()
        n = 4
        prod = [[sum(inv[i][k] * b.matrix()[k][j] for k in range(n))
                 for j in range(n)] for i in range(n)]
        assert prod == [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def test_dependent_rows_rejected(self):
        with pytest.raises(ValueError):
            Basis([(1, 1), (2, 2)])

    def test_det_reads_the_elimination_done_at_construction(self, monkeypatch):
        calls = []
        original = algebra_mod._gauss_jordan
        monkeypatch.setattr(algebra_mod, "_gauss_jordan",
                            lambda m: calls.append(m) or original(m))
        b = Basis([(1, 2, 0), (0, 1, 3), (1, 0, 1)])
        assert (b.det(), b.det(), len(calls)) == (7, 7, 1)
        assert Basis([(0, 1), (1, 0)]).det() == -1

    def test_serialization(self):
        b = Basis.alternating(3)
        assert basis_from_json(basis_to_json(b)) == b
        assert [r.coords for r in b.rows] == [(1, 0, 1), (0, -1, 1), (0, 0, 1)]


def kahn_index_order(n, positions):
    """Kahn's loop, smallest ready index first: how ``_index_order`` found
    its order before it read the first linear extension."""
    succ = {i: set() for i in range(1, n + 1)}
    deg = {i: 0 for i in range(1, n + 1)}
    for (i, j) in positions:
        if j not in succ[i]:
            succ[i].add(j)
            deg[j] += 1
    order = []
    ready = sorted(i for i in deg if deg[i] == 0)
    while ready:
        v = ready.pop(0)
        order.append(v)
        for w in sorted(succ[v]):
            deg[w] -= 1
            if deg[w] == 0:
                ready.append(w)
        ready.sort()
    if len(order) != n:
        raise ValueError("factor positions contain a cycle; no unipotent order")
    return tuple(order)


def brute_linear_extensions(n, positions):
    """Every permutation of 1..n, in lexicographic order, that puts i before
    j for each position (i, j); a self-loop allows none."""
    positions = set(positions)
    return [p for p in itertools.permutations(range(1, n + 1))
            if all(i != j and p.index(i) < p.index(j) for i, j in positions)]


@st.composite
def order_positions(draw):
    """(n, positions) with n <= 6: random pairs, so duplicates, self-loops
    and cycles occur, or half the time pairs i < j under a random
    relabelling, which are acyclic and often allow many orders."""
    n = draw(st.integers(0, 6))
    if n == 0:
        return 0, []
    index = st.integers(1, n)
    pairs = draw(st.lists(st.tuples(index, index), max_size=10))
    if draw(st.booleans()):
        relabel = draw(st.permutations(range(1, n + 1)))
        pairs = [(relabel[i - 1], relabel[j - 1]) for i, j in pairs if i < j]
    return n, pairs


class TestLinearExtensions:
    @settings(max_examples=300, deadline=None)
    @given(order_positions())
    def test_matches_the_permutation_filter(self, case):
        n, pairs = case
        assert list(algebra_mod._linear_extensions(n, iter(pairs))) == \
            brute_linear_extensions(n, pairs)

    @settings(max_examples=300, deadline=None)
    @given(order_positions())
    def test_index_order_matches_kahn(self, case):
        n, pairs = case
        try:
            expected = kahn_index_order(n, pairs)
        except ValueError as err:
            with pytest.raises(ValueError, match=f"^{re.escape(str(err))}$"):
                algebra_mod._index_order(n, pairs)
        else:
            assert algebra_mod._index_order(n, pairs) == expected

    def test_cycle_and_self_loop_give_nothing(self):
        # the cycle 1 -> 2 -> 1 leaves 3..8 free, and still ends at once
        assert list(algebra_mod._linear_extensions(8, [(1, 2), (2, 1)])) == []
        assert list(algebra_mod._linear_extensions(3, [(2, 2)])) == []
        assert list(algebra_mod._linear_extensions(0, [])) == [()]
