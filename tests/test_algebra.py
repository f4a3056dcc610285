import random
from fractions import Fraction

import pytest

from quiverstokes import algebra as algebra_mod
from quiverstokes.algebra import (Basis, LatticeVector, PolyMatrix,
                                  TruncatedPoly, joyce_point, lv_len,
                                  lv_monomial)
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
        assert m == TruncatedPoly.monomial(3, (1, 1, 0))
        assert lv_monomial(LatticeVector((0, 0, 0))) == TruncatedPoly.one(3)
        assert lv_monomial(LatticeVector((-1, 1, 0))) == \
            TruncatedPoly.monomial(3, (1, 1, 0))

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
            assert prod == TruncatedPoly.monomial(4, exps)


class TestTruncatedPoly:
    def test_mul_examples(self):
        one = TruncatedPoly.one(2)
        s1 = s(2, 1)
        assert ((one - s1) * (one + s1)).truncate(3) == \
            TruncatedPoly(2, {(0, 0): 1, (2, 0): -1})
        # s1*s2*s3 is exact, and vanishes mod (s)^3
        a = TruncatedPoly.monomial(3, (1, 1, 0))
        assert a * s(3, 3) == TruncatedPoly.monomial(3, (1, 1, 1))
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
        e13 = PolyMatrix.elementary(3, 1, 3, -TruncatedPoly.monomial(3, (1, 1, 0)))
        alt = (PolyMatrix.elementary(3, 1, 2, -s(3, 1)) * e13
               * PolyMatrix.elementary(3, 2, 3, -s(3, 2)))
        assert alt == expect

    def test_identity_neutral(self):
        rng = random.Random(5)
        a = PolyMatrix(2, [[rand_poly(rng, 2) + 1, rand_poly(rng, 2)],
                           [rand_poly(rng, 2), rand_poly(rng, 2) + 1]])
        i2 = PolyMatrix.identity(2, 2)
        assert i2 * a == a
        assert a * i2 == a

    def test_associativity_random(self):
        rng = random.Random(17)
        for _ in range(30):
            mats = [PolyMatrix(2, [[rand_poly(rng, 2, 2, 2, 3) for _ in range(2)]
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
