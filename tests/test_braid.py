import itertools
import json
import random
import re
import sys
import threading
from array import array
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from quiverstokes import _kernels, braid
from quiverstokes.algebra import PolyMatrix, TruncatedPoly, joyce_point
from quiverstokes.braid import (_MOVE_ENTRY_LIMIT, BraidWord, apply_move,
                                beta, beta_inv, orbit_search, perm_conj,
                                random_unipotent, sign_conj,
                                verify_braid_group_relations)
from quiverstokes.serialize import move_from_json, move_to_json
from quiverstokes.stokes import an_stokes


def F(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


class TestBeta:
    def test_rank2_sign_flip(self):
        assert beta(1, F([[1, 5], [0, 1]])) == F([[1, -5], [0, 1]])
        assert beta_inv(1, F([[1, 5], [0, 1]])) == F([[1, -5], [0, 1]])

    def test_a2_stokes(self):
        s2 = an_stokes(2).evaluate(joyce_point(2))
        assert beta(1, s2) == F([[1, 1], [0, 1]])

    def test_polynomial_matrix_path(self):
        m = an_stokes(2)
        out = beta(1, m)
        assert out.entries[0][1] == TruncatedPoly.variable(2, 1)

    def test_preserves_upper_unipotent(self):
        rng = random.Random(43)
        for _ in range(120):
            n = rng.randint(2, 6)
            a = random_unipotent(n, rng)
            for i in range(1, n):
                for out in (beta(i, a), beta_inv(i, a)):
                    for r in range(n):
                        assert out[r][r] == 1
                        for c in range(r):
                            assert out[r][c] == 0

    def test_roundtrips(self):
        rng = random.Random(47)
        for _ in range(120):
            n = rng.randint(2, 6)
            a = random_unipotent(n, rng)
            i = rng.randint(1, n - 1)
            assert beta_inv(i, beta(i, a)) == a
            assert beta(i, beta_inv(i, a)) == a

    def test_identity_fixed(self):
        ident = F([[1 if i == j else 0 for j in range(4)] for i in range(4)])
        for i in range(1, 4):
            assert beta(i, ident) == ident

    def test_rejects_bad_diagonal(self):
        with pytest.raises(ValueError):
            beta(1, F([[2, 0], [0, 1]]))


def rows_of(A):
    return [list(row) for row in (A.entries if isinstance(A, PolyMatrix) else A)]


def mat_mul(a, b):
    n = len(a)
    return [[sum((a[r][k] * b[k][c] for k in range(n)), start=a[0][0] * 0)
             for c in range(n)] for r in range(n)]


def constant(A, value):
    """``value`` as an entry of A's kind."""
    if isinstance(A, PolyMatrix):
        return TruncatedPoly.constant(A.nvars, value)
    return Fraction(value)


def xax(i, A, forward):
    """Reference braid move: the full product X A X, X the identity with the
    block [[0, 1], [1, -m]] (forward) or [[-m, 1], [1, 0]] at (i, i+1)."""
    a = rows_of(A)
    m = a[i - 1][i] + a[i][i - 1]
    one, zero = constant(A, 1), constant(A, 0)
    x = [[one if r == c else zero for c in range(len(a))] for r in range(len(a))]
    block = [[zero, one], [one, -m]] if forward else [[-m, one], [one, zero]]
    for r in range(2):
        for c in range(2):
            x[i - 1 + r][i - 1 + c] = block[r][c]
    return mat_mul(mat_mul(x, a), x)


@st.composite
def exact_matrices(draw, min_n=2, max_n=5):
    """Unit-diagonal Fraction matrices or PolyMatrix values, with zeros
    common and entries on both sides of the diagonal."""
    n = draw(st.integers(min_n, max_n))
    small = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    if draw(st.booleans()):
        return tuple(tuple(Fraction(1) if r == c else
                           draw(st.one_of(st.just(Fraction(0)), small))
                           for c in range(n)) for r in range(n))
    nvars = draw(st.integers(1, 3))
    poly = st.dictionaries(st.tuples(*[st.integers(0, 2)] * nvars), small,
                           max_size=3)
    return PolyMatrix([[TruncatedPoly.one(nvars) if r == c else
                        TruncatedPoly(nvars, draw(poly))
                        for c in range(n)] for r in range(n)])


def pap(sigma, A):
    """Reference permutation conjugation: the full product P A P^-1."""
    n = len(rows_of(A))
    one, zero = constant(A, 1), constant(A, 0)
    p = [[one if r == sigma[c] - 1 else zero for c in range(n)] for r in range(n)]
    p_inv = [list(col) for col in zip(*p)]
    return mat_mul(mat_mul(p, rows_of(A)), p_inv)


def dad(d, A):
    """Reference sign conjugation: the full product D A D, D = diag(d)."""
    n = len(rows_of(A))
    dm = [[constant(A, d[r]) if r == c else constant(A, 0) for c in range(n)]
          for r in range(n)]
    return mat_mul(mat_mul(dm, rows_of(A)), dm)


def blocked_at(A, i):
    """Both entries of the braid pair at (i, i+1) nonzero."""
    a = rows_of(A)
    return a[i - 1][i] != 0 and a[i][i - 1] != 0


@st.composite
def integral_matrices(draw, min_n=2, max_n=5):
    """Unit-diagonal rational matrices with integer entries, zeros common,
    some beyond int64 and entries on both sides of the diagonal, given as
    ints or as Fractions; or mixed: one off-diagonal entry not integral."""
    n = draw(st.integers(min_n, max_n))
    entry = st.one_of(st.just(0), st.integers(-6, 6),
                      st.integers(-2 ** 70, 2 ** 70))
    rows = [[1 if r == c else draw(entry) for c in range(n)] for r in range(n)]
    if draw(st.booleans()):
        r, c = draw(st.sampled_from([(r, c) for r in range(n) for c in range(n)
                                     if r != c]))
        rows[r][c] = draw(st.integers(-6, 6)) + Fraction(1, draw(st.integers(2, 5)))
    elif draw(st.booleans()):
        return tuple(map(tuple, rows))
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


@st.composite
def move_words(draw, n, max_size=8):
    """Words of every move form on n x n matrices."""
    braid_move = st.tuples(st.just("braid"), st.integers(1, n - 1),
                           st.sampled_from((1, -1)))
    perm = st.tuples(st.just("perm"), st.permutations(range(1, n + 1)).map(tuple))
    signs = st.tuples(st.just("sign"), st.one_of(
        st.integers(1, n),
        st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n).map(tuple)))
    return draw(st.lists(st.one_of(braid_move, perm, signs), max_size=max_size))


def oracle_move(mv, A):
    """The move on A by its defining product: X A X, P A P^-1 or D A D."""
    n = len(rows_of(A))
    if mv[0] == "braid":
        return xax(mv[1], A, mv[2] > 0)
    if mv[0] == "perm":
        return pap(mv[1], A)
    d = mv[1] if isinstance(mv[1], tuple) else \
        tuple(-1 if t == mv[1] else 1 for t in range(1, n + 1))
    return dad(d, A)


def all_fractions(out):
    return all(type(x) is Fraction for row in out for x in row)


class TestExactMovesMatchOracle:
    @settings(max_examples=200, deadline=None)
    @given(exact_matrices(), st.data())
    def test_beta_is_xax(self, A, data):
        i = data.draw(st.integers(1, len(rows_of(A)) - 1))
        for fn, forward in ((beta, True), (beta_inv, False)):
            if blocked_at(A, i):
                with pytest.raises(ValueError, match="braid position"):
                    fn(i, A)
                continue
            out = fn(i, A)
            assert type(out) is type(A)
            want = xax(i, A, forward)
            assert rows_of(out) == want

    @settings(max_examples=150, deadline=None)
    @given(exact_matrices(), st.data())
    def test_perm_conj_is_pap_inverse(self, A, data):
        n = len(rows_of(A))
        sigma = data.draw(st.permutations(range(1, n + 1)))
        assert rows_of(perm_conj(sigma, A)) == pap(sigma, A)

    @settings(max_examples=150, deadline=None)
    @given(exact_matrices(), st.data())
    def test_sign_conj_is_dad(self, A, data):
        n = len(rows_of(A))
        d = data.draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
        assert rows_of(sign_conj(d, A)) == dad(d, A)

    def test_perm_length_must_match(self):
        rational = F([[1, 2, 3], [0, 1, 4], [0, 0, 1]])
        for A in (rational, an_stokes(3)):
            with pytest.raises(ValueError, match="permutation of length 2"):
                perm_conj((2, 1), A)
            with pytest.raises(ValueError, match="permutation of length 4"):
                perm_conj((2, 1, 4, 3), A)

    # messages of the X A X implementation that preceded the row/column update
    BETA_ERRORS = [
        (1, F([[1, 0], [0, 1], [0, 0]]), "matrix must be square"),
        (1, F([[2, 0], [0, 1]]), "matrix must have unit diagonal"),
        (1, PolyMatrix([[TruncatedPoly.constant(2, 2), TruncatedPoly.zero(2)],
                        [TruncatedPoly.zero(2), TruncatedPoly.one(2)]]),
         "matrix must have unit diagonal"),
        (0, F([[1, 1, 0], [0, 1, 1], [0, 0, 1]]), "braid index 0 out of range 1..2"),
        (3, an_stokes(3), "braid index 3 out of range 1..2"),
        (1, F([[1, 1], [1, 1]]),
         "matrix is not unipotent for any order at the braid position"),
        (2, PolyMatrix([[TruncatedPoly.one(1), TruncatedPoly.zero(1),
                         TruncatedPoly.zero(1)],
                        [TruncatedPoly.zero(1), TruncatedPoly.one(1),
                         TruncatedPoly.variable(1, 1)],
                        [TruncatedPoly.zero(1), TruncatedPoly.constant(1, 3),
                         TruncatedPoly.one(1)]]),
         "matrix is not unipotent for any order at the braid position"),
    ]

    @pytest.mark.parametrize("case", range(len(BETA_ERRORS)))
    def test_beta_input_errors(self, case):
        i, A, message = self.BETA_ERRORS[case]
        for fn in (beta, beta_inv):
            with pytest.raises(ValueError, match=re.escape(message)):
                fn(i, A)

    def test_beta_rejects_inexact_entries(self):
        with pytest.raises(TypeError, match="not an exact rational"):
            beta(1, ((1, 0.5), (0, 1)))


def counted_products(monkeypatch, cls) -> list:
    """Every later ``cls.__mul__`` call, as its (left, right) factors."""
    calls, mul = [], cls.__mul__

    def counting(self, other):
        calls.append((self, other))
        return mul(self, other)

    monkeypatch.setattr(cls, "__mul__", counting)
    return calls


def sparse_poly_unipotent(n, rng):
    """A unit-diagonal upper-triangular polynomial matrix in two variables
    with about half of its entries above the diagonal zero."""
    return PolyMatrix([[TruncatedPoly.one(2) if r == c else
                        TruncatedPoly(2, {(rng.randint(0, 2), rng.randint(0, 2)):
                                          rng.choice((-2, -1, 1, 2))})
                        if c > r and rng.random() < 0.5 else TruncatedPoly.zero(2)
                        for c in range(n)] for r in range(n)])


class TestExactMoveSkipsZeros:
    """A braid move on exact entries multiplies by m only the nonzero
    entries of one row and one column off the 2 x 2 block: row and column
    i+1 forward, i backward (1-based i)."""

    @pytest.mark.parametrize("make", [
        lambda: an_stokes(6), lambda: sparse_poly_unipotent(6, random.Random(5))],
        ids=["an_stokes_6", "sparse_6"])
    def test_no_polynomial_product_has_a_zero_factor(self, monkeypatch, make):
        A = make()
        calls = counted_products(monkeypatch, TruncatedPoly)
        for i in range(1, 6):
            beta(i, A), beta_inv(i, A)
        assert calls and all(left and right for left, right in calls)

    def test_fraction_products_are_the_nonzero_multiplied_entries(self, monkeypatch):
        rng, n = random.Random(13), 6
        # nonzero superdiagonal, so m != 0 at every braid position, zeros
        # elsewhere above the diagonal, and entries that are not integral
        A = tuple(tuple(Fraction(1) if r == c else
                        Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((2, 3)))
                        if c == r + 1 or c > r and rng.random() < 0.5 else Fraction(0)
                        for c in range(n)) for r in range(n))
        calls = counted_products(monkeypatch, Fraction)
        for i in range(1, n):
            off = [t for t in range(n) if t not in (i - 1, i)]
            for fn, k in ((beta, i), (beta_inv, i - 1)):
                calls.clear()
                fn(i, A)
                nonzero = sum(1 for t in off if A[k][t]) + sum(1 for t in off if A[t][k])
                assert len(calls) == nonzero


class TestIntegralEntriesMatchOracle:
    """Integral matrices move as Python ints and come back as Fractions;
    a matrix with one non-integral entry moves as Fractions."""

    @settings(max_examples=200, deadline=None)
    @given(integral_matrices(), st.data())
    def test_each_move_is_its_product(self, A, data):
        n = len(A)
        i = data.draw(st.integers(1, n - 1))
        for fn, forward in ((beta, True), (beta_inv, False)):
            if blocked_at(A, i):
                with pytest.raises(ValueError, match="braid position"):
                    fn(i, A)
                continue
            out = fn(i, A)
            assert out == tuple(map(tuple, xax(i, A, forward)))
            assert all_fractions(out)
        sigma = data.draw(st.permutations(range(1, n + 1)))
        d = data.draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
        for out, want in ((perm_conj(sigma, A), pap(sigma, A)),
                          (sign_conj(d, A), dad(d, A))):
            assert list(map(list, out)) == want
            assert all_fractions(out)

    @settings(max_examples=200, deadline=None)
    @given(integral_matrices(), st.data())
    def test_words_are_their_moves_products(self, A, data):
        moves, current = [], A
        for mv in data.draw(move_words(len(A))):
            if mv[0] == "braid" and blocked_at(current, mv[1]):
                continue
            out = apply_move(mv, current)
            assert list(map(list, out)) == oracle_move(mv, current)
            assert all_fractions(out)
            moves.append(mv)
            current = out
        out = BraidWord(tuple(moves)).apply(A)
        assert out == current and all_fractions(out)


class TestBraidRelations:
    def test_relations_hold(self):
        for n in range(3, 7):
            assert verify_braid_group_relations(n, 100, seed=n)["ok"]


class TestPermAndSign:
    def test_sign_involutive(self):
        rng = random.Random(53)
        a = random_unipotent(4, rng)
        for k in range(1, 5):
            assert sign_conj(k, sign_conj(k, a)) == a

    def test_perm_composition(self):
        rng = random.Random(59)
        a = random_unipotent(4, rng)
        p1 = (2, 1, 4, 3)
        p2 = (3, 2, 1, 4)
        composed = tuple(p2[p1[i] - 1] for i in range(4))
        assert perm_conj(p2, perm_conj(p1, a)) == perm_conj(composed, a)

    def test_identity_perm(self):
        rng = random.Random(61)
        a = random_unipotent(3, rng)
        assert perm_conj((1, 2, 3), a) == a

    def test_sign_example(self):
        s2 = an_stokes(2).evaluate(joyce_point(2))
        assert sign_conj(2, s2) == F([[1, 1], [0, 1]])


class TestWord:
    def test_inverse_roundtrip(self):
        rng = random.Random(67)
        for _ in range(60):
            n = rng.randint(2, 5)
            a = random_unipotent(n, rng)
            moves = []
            current = a
            for _ in range(rng.randint(0, 6)):
                kind = rng.choice(("braid", "perm", "sign"))
                if kind == "braid":
                    mv = ("braid", rng.randint(1, n - 1), rng.choice((1, -1)))
                elif kind == "perm":
                    p = list(range(1, n + 1))
                    rng.shuffle(p)
                    mv = ("perm", tuple(p))
                else:
                    mv = ("sign", tuple(rng.choice((1, -1)) for _ in range(n)))
                try:
                    current = apply_move(mv, current)
                except ValueError:
                    continue  # braid position blocked after a permutation
                moves.append(mv)
            word = BraidWord(tuple(moves))
            assert word.apply(a) == current
            assert word.inverse().apply(current) == a

    def test_polynomial_words(self):
        # a word on a PolyMatrix is the moves one by one, and evaluating
        # afterwards is the word on the evaluated matrix
        rng = random.Random(71)
        for _ in range(30):
            n = rng.randint(2, 4)
            m = an_stokes(n)
            moves, current = [], m
            for _ in range(rng.randint(1, 5)):
                kind = rng.choice(("braid", "perm", "sign"))
                if kind == "braid":
                    mv = ("braid", rng.randint(1, n - 1), rng.choice((1, -1)))
                elif kind == "perm":
                    mv = ("perm", tuple(rng.sample(range(1, n + 1), n)))
                else:
                    mv = ("sign", rng.randint(1, n))
                try:
                    current = apply_move(mv, current)
                except ValueError:
                    continue
                moves.append(mv)
            word = BraidWord(tuple(moves))
            out = word.apply(m)
            assert isinstance(out, PolyMatrix) and out == current
            point = joyce_point(n)
            assert out.evaluate(point) == word.apply(m.evaluate(point))
            assert word.inverse().apply(out) == m

    @pytest.mark.parametrize("bad,message", [
        (("braid", 1, 1),
         "matrix is not unipotent for any order at the braid position"),
        (("perm", (1, 1, 2, 3)), "not a permutation of 1..n"),
        (("sign", (1, 0, 1, 1)), "sign must be +1 or -1, got 0"),
    ])
    def test_invalid_move_in_a_word(self, bad, message):
        # rows and columns 1, 2 are left alone by the prefix, so the braid
        # position (1, 2) stays blocked
        a = F([[1, 2, 0, 0], [3, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]])
        prefix = (("sign", 4), ("perm", (1, 2, 3, 4)), ("braid", 3, 1))
        current = a
        for mv in prefix:
            current = apply_move(mv, current)
        with pytest.raises(ValueError) as alone:
            apply_move(bad, current)
        with pytest.raises(ValueError) as in_word:
            BraidWord(prefix + (bad, ("sign", 1))).apply(a)
        assert str(in_word.value) == str(alone.value) == message

    @pytest.mark.parametrize("length", [0, 1, 7, 40])
    def test_word_converts_its_matrix_once(self, monkeypatch, length):
        calls, entries = [], braid._entries

        def counting(A):
            calls.append(A)
            return entries(A)

        monkeypatch.setattr(braid, "_entries", counting)
        a = random_unipotent(4, random.Random(length))
        word = BraidWord(tuple(("braid", 1 + k % 3, 1) if k % 2 else
                               ("sign", 1 + k % 4) for k in range(length)))
        out = word.apply(a)
        assert len(calls) == 1
        monkeypatch.undo()
        expected = a
        for mv in word.moves:
            expected = apply_move(mv, expected)
        assert out == expected


def scan_target_set(up: np.ndarray) -> dict:
    """The target set as ``orbit_search`` built it from all n! permutations:
    in lexicographic order, 720 per numpy call, keeping the conjugates with
    nothing below the diagonal and, per sign class, the first sigma."""
    n, targets = len(up), {}
    perms = itertools.permutations(range(1, n + 1))
    while block := list(itertools.islice(perms, 720)):
        cands = braid._conj_np(block, up)
        upper = ~np.tril(cands, -1).any(axis=(1, 2))
        canons, signs = _kernels.sign_canonical(cands[upper])
        for sigma, canon, sign in zip(itertools.compress(block, upper),
                                      canons, signs):
            targets.setdefault(canon.tobytes(), (sigma, sign))
    return targets


class TestOrbitSearch:
    def test_same_matrix_empty_word(self):
        s3 = an_stokes(3).evaluate(joyce_point(3))
        cert = orbit_search(s3, s3).certificate
        assert cert is not None and len(cert.word) == 0 and cert.verified

    def test_a3_vs_cyclic_triangle(self):
        s3 = an_stokes(3).evaluate(joyce_point(3))
        target = F([[1, -1, -1], [0, 1, 0], [0, 1, 1]])
        cert = orbit_search(s3, target).certificate
        assert cert is not None and cert.verified
        assert BraidWord(cert.word.moves).apply(s3) == target

    def test_annulus_pair(self):
        s_printed = F([[1, -1, 1], [0, 1, 0], [0, -1, 1]])
        s_prime = F([[1, -1, -1], [0, 1, 1], [0, 0, 1]])
        cert = orbit_search(s_prime, s_printed).certificate
        assert cert is not None and cert.verified
        # related by signs and permutations alone
        assert all(mv[0] != "braid" for mv in cert.word.moves)

    def test_depth_zero_inconclusive(self):
        s3 = an_stokes(3).evaluate(joyce_point(3))
        target = F([[1, 2, 0], [0, 1, 2], [0, 0, 1]])
        res = orbit_search(s3, target, depth=0)
        assert res.certificate is None
        assert res.status in ("inconclusive", "exhausted")

    def test_entry_bound_prunes(self):
        big = F([[1, 63, 0], [0, 1, 63], [0, 0, 1]])
        tgt = F([[1, 2, 0], [0, 1, 2], [0, 0, 1]])
        res = orbit_search(big, tgt, depth=3, entry_bound=64)
        assert res.pruned > 0 or res.status == "found"

    def test_drained_at_last_level_is_exhausted(self):
        s5 = an_stokes(5).evaluate(joyce_point(5))
        target = F([[1, 9, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0],
                    [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]])
        for depth in (7, 8):
            res = orbit_search(s5, target, depth=depth)
            assert (res.status, res.depth_reached, res.states, res.pruned) == \
                ("exhausted", 7, 216, 0)
        res = orbit_search(s5, target, depth=6)
        assert (res.status, res.depth_reached) == ("inconclusive", 6)

    # (source, target, depth, entry bound) ->
    # (status, depth_reached, states, pruned, word), recorded with a search
    # that canonicalized one child per call: chunking must not change them.
    PINNED = [
        (F([[1, 2, -1, 1], [0, 1, 1, -2], [0, 0, 1, -1], [0, 0, 0, 1]]),
         F([[1, 0, -1, -1], [0, 1, 2, -1], [0, 0, 1, 2], [0, 0, 0, 1]]), 7, 3,
         ("found", 2, 9, 12,
          (("sign", (1, -1, 1, -1)), ("braid", 3, -1), ("braid", 2, 1),
           ("sign", (1, -1, 1, 1)), ("sign", (1, -1, -1, 1)),
           ("perm", (2, 1, 3, 4))))),
        # pruned children follow the hit in its level and must not count
        (F([[1, -2, 0], [0, 1, -1], [0, 0, 1]]),
         F([[1, 1, 2], [0, 1, 2], [0, 0, 1]]), 7, 3,
         ("found", 3, 12, 3,
          (("braid", 1, 1), ("sign", (1, -1, 1)), ("braid", 2, 1),
           ("braid", 1, 1), ("sign", (1, -1, 1)), ("sign", (1, -1, -1))))),
        (an_stokes(5).evaluate(joyce_point(5)),
         F([[1, 0, 0, 0, 1], [0, 1, 1, 1, 0], [0, 0, 1, 1, -1],
            [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]), 12, 64,
         ("found", 2, 27, 0,
          (("braid", 4, 1), ("sign", (1, 1, 1, -1, 1)), ("braid", 2, -1),
           ("sign", (1, -1, -1, 1, -1)), ("perm", (2, 3, 4, 1, 5))))),
        # A6 levels hold up to 686 classes, more than one chunk
        (an_stokes(6).evaluate(joyce_point(6)),
         F([[1, -1, -1, -1, -1, -1], [0, 1, 1, 1, 1, 1], [0, 0, 1, 1, 1, 1],
            [0, 0, 0, 1, 1, 1], [0, 0, 0, 0, 1, 1], [0, 0, 0, 0, 0, 1]]), 12, 64,
         ("found", 6, 1122, 0,
          (("braid", 1, 1), ("sign", (1, -1, 1, 1, 1, 1)), ("braid", 2, 1),
           ("braid", 1, 1), ("sign", (1, -1, 1, 1, 1, 1)), ("braid", 4, -1),
           ("braid", 5, 1), ("braid", 4, -1)))),
        # the full A6 orbit: 2401 sign classes
        (an_stokes(6).evaluate(joyce_point(6)),
         F([[1 if i == j else 9 if (i, j) == (0, 1) else 0 for j in range(6)]
            for i in range(6)]), 12, 64,
         ("exhausted", 10, 2401, 0, None)),
    ]

    @pytest.mark.parametrize("case", range(len(PINNED)))
    def test_pinned_searches(self, case):
        source, target, depth, bound, expected = self.PINNED[case]
        res = orbit_search(source, target, depth=depth, entry_bound=bound)
        word = res.certificate.word.moves if res.certificate else None
        assert (res.status, res.depth_reached, res.states, res.pruned,
                word) == expected
        if res.certificate is not None:
            assert res.certificate.verified

    @pytest.mark.parametrize("n", range(3, 8))
    def test_full_an_orbit_has_n_plus_1_to_the_n_minus_2_classes(self, n):
        # the identity is not in the orbit, so the search drains it; the
        # counts fit (n+1)^(n-1) minimal factorizations of an (n+1)-cycle
        # modulo its cyclic centralizer of order n + 1
        source = an_stokes(n).evaluate(joyce_point(n))
        ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        res = orbit_search(source, ident, depth=100, entry_bound=64)
        assert (res.status, res.pruned, res.states) == \
            ("exhausted", 0, (n + 1) ** (n - 2))

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError):
            orbit_search(F([[1, Fraction(1, 2)], [0, 1]]), F([[1, 1], [0, 1]]))

    @pytest.mark.parametrize("bounds,message", [
        ({"depth": -1}, "depth must be at least 0, got -1"),
        ({"entry_bound": -5}, "entry bound must be at least 1, got -5"),
        ({"entry_bound": 0}, "entry bound must be at least 1, got 0"),
    ])
    def test_rejects_negative_depth_or_bound(self, bounds, message):
        # refused before any work, even where the inputs are equal and the
        # search would otherwise end at once
        for target in (((1, 1), (0, 1)), ((1, 2), (0, 1))):
            with pytest.raises(ValueError, match=message):
                orbit_search(((1, 2), (0, 1)), target, **bounds)

    def test_rejects_empty_matrices(self):
        with pytest.raises(ValueError, match="matrices of size at least 1"):
            orbit_search((), ())

    @pytest.mark.parametrize("S1,S2,message", [
        # equal inputs take the identity shortcut only after both are read
        (((1, 1), (1, 1)), ((1, 1), (1, 1)),
         "input is not unipotent with respect to any order"),
        # S1 is checked in full, then S2, then the pair
        (((2, 0), (0, 1)), ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
         "matrices must have unit diagonal"),
        (((1, 1), (1, 1)), ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
         "input is not unipotent with respect to any order"),
        ((), ((1, 0), (0, 1)), "orbit search needs matrices of size at least 1"),
        (((1, 0), (0, 1)), ((1, 1), (1, 1)),
         "input is not unipotent with respect to any order"),
        (((1, 2), (0, 1)), ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
         "dimension mismatch"),
    ])
    def test_each_input_is_checked_in_full_before_the_pair(self, S1, S2, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            orbit_search(S1, S2)

    def test_rejects_entries_beyond_int64(self):
        with pytest.raises(ValueError, match="int64"):
            orbit_search(((1, 2 ** 70), (0, 1)), ((1, 1), (0, 1)))

    @pytest.mark.parametrize("big", [2 ** 63, -2 ** 63 - 1])
    def test_first_failing_entry_names_the_fault(self, big):
        # entries are read row by row, and the first that fails decides
        half = Fraction(1, 2)
        with pytest.raises(ValueError, match="^orbit search entries must fit in int64$"):
            braid._search_input(((1, big), (half, 1)))
        with pytest.raises(ValueError, match="^orbit search expects integer matrices$"):
            braid._search_input(((1, half), (big, 1)))
        for edge in (2 ** 63 - 1, -2 ** 63):
            assert braid._search_input(((1, edge), (0, 1)))[1][0, 1] == edge

    def test_rejects_entries_a_move_could_wrap(self):
        # a forward move at i = 1 maps entry (2, 3) = 2^40 to -2^80, which
        # wraps in int64 to a value that passes the bound test
        src = ((1, 2 ** 40, 2 ** 40), (0, 1, 2 ** 40), (0, 0, 1))
        ident = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        with pytest.raises(ValueError, match="int64"):
            orbit_search(src, ident, depth=2, entry_bound=2 ** 62)
        with pytest.raises(ValueError, match="int64"):
            orbit_search(src, ident, depth=2)  # source beyond the limit
        small = ((1, 2, 1), (0, 1, 2), (0, 0, 1))
        with pytest.raises(ValueError, match="int64"):
            orbit_search(small, ident, depth=2, entry_bound=_MOVE_ENTRY_LIMIT + 1)

    def test_entries_at_the_move_limit_still_run(self):
        limit = _MOVE_ENTRY_LIMIT
        assert limit + limit ** 2 <= 2 ** 63 - 1 < (limit + 1) + (limit + 1) ** 2
        src = ((1, limit, -limit), (0, 1, limit), (0, 0, 1))
        ident = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        res = orbit_search(src, ident, depth=1, entry_bound=limit)
        # every child beyond the bound is pruned, as the exact move says
        exact = [move(i, F(src)) for move in (beta, beta_inv) for i in (1, 2)]
        assert res.pruned == sum(max(abs(x) for row in c for x in row) > limit
                                 for c in exact) > 0
        assert res.status == "exhausted"

    def test_a9_query_conjugates_only_the_linear_extensions(self, monkeypatch):
        # the target's support allows 5 orders of 1..9, so the target set
        # conjugates 5 rows, and the two sorting permutations one each;
        # a scan of all permutations would conjugate 9! = 362 880 rows
        rows = []
        conj = braid._conj_np
        monkeypatch.setattr(braid, "_conj_np", lambda sigma, a: (
            rows.append(1 if np.ndim(sigma) == 1 else len(sigma))
            or conj(sigma, a)))
        s9 = an_stokes(9).evaluate(joyce_point(9))
        res = orbit_search(s9, beta(5, s9), depth=1)
        assert (res.status, res.depth_reached) == ("found", 1)
        assert res.certificate.verified
        assert sum(rows) == 7


def answer(res):
    """Every field of an orbit search result."""
    cert = res.certificate
    return (res.status, res.depth_reached, res.states, res.pruned,
            None if cert is None else (cert.word.moves, cert.verified))


def fresh_answer(*query):
    """The answer of a search from a new ball; the current ball is kept."""
    kept, braid._LAST = braid._LAST, None
    try:
        return answer(orbit_search(*query))
    finally:
        braid._LAST = kept


def disguise(m, rng):
    n = len(m)
    return sign_conj([rng.choice((1, -1)) for _ in range(n)],
                     perm_conj(rng.sample(range(1, n + 1), n), m))


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


class TestBallReuse:
    """Searches from one source class with one entry bound share a ball
    (``braid._Ball``); every answer must be the fresh search's."""

    A5 = an_stokes(5).evaluate(joyce_point(5))
    A6 = an_stokes(6).evaluate(joyce_point(6))
    # found at level 6 from A6 (see TestOrbitSearch.PINNED)
    A6_LEVEL6 = TestOrbitSearch.PINNED[3][1]

    def scripted(self):
        rng = random.Random(5)
        a6_level1 = [move(i, self.A6) for move in (beta, beta_inv)
                     for i in (1, 5)]
        queries = [
            # the identity drains A3-A5, and A5's frontier drains at level 7
            *[(an_stokes(n).evaluate(joyce_point(n)), identity(n), 100, 64)
              for n in (3, 4, 5)],
            (self.A5, identity(5), 7, 64), (self.A5, identity(5), 6, 64),
            (self.A5, identity(5), 8, 2),
            (self.A5, identity(5), 7, 2), (self.A5, identity(5), 3, 2),
            # found at level 0
            (self.A5, disguise(self.A5, rng), 4, 2),
            # deeper, then shallower: a level-6 class is inconclusive at 5
            (self.A6, self.A6_LEVEL6, 12, 64), (self.A6, self.A6_LEVEL6, 5, 64),
            (disguise(self.A6, rng), disguise(self.A6_LEVEL6, rng), 6, 64),
            # shallower, then deeper: level 1 is one chunk, recorded whole
            # by the first query, so the next ones find their class in it
            *[(self.A6, t, 1, 5) for t in a6_level1],
            (self.A6, self.A6_LEVEL6, 6, 5), (self.A6, identity(6), 0, 5),
        ]
        for n in range(3, 7):  # pruned children
            big = random_unipotent(n, rng, bound=3)
            queries += [(big, identity(n), 2, 3), (big, identity(n), 4, 3),
                        (big, disguise(beta(1, big), rng), 3, 3)]
        return queries

    def randomized(self, count):
        rng = random.Random(11)
        sources = [an_stokes(n).evaluate(joyce_point(n)) for n in (3, 4, 5)]
        sources += [random_unipotent(n, rng, bound=2)
                    for n in (3, 4, 4, 5, 6)]
        for _ in range(count):
            src = rng.choice(sources)
            n = len(src)
            kind = rng.randrange(4)
            if kind == 0:
                tgt = identity(n)
            elif kind == 1:
                tgt = random_unipotent(n, rng, bound=2)
            else:
                moves = [("braid", rng.randint(1, n - 1), rng.choice((1, -1)))
                         for _ in range(rng.randint(0, 6))]
                tgt = disguise(BraidWord(tuple(moves)).apply(src), rng)
            depth = rng.randint(0, 12 if n < 6 else 4)
            yield src, tgt, depth, rng.choice((2, 3, 5, 64))

    def test_reused_ball_answers_as_a_fresh_search(self, monkeypatch):
        monkeypatch.setattr(braid, "_LAST", None)
        seen = set()
        for query in [*self.scripted(), *self.randomized(120)]:
            got = answer(orbit_search(*query))
            assert got == fresh_answer(*query), query
            status, level, _, pruned, _ = got
            depth = query[2]
            seen |= {("found", 0) if (status, level) == ("found", 0) else
                     "drained at depth" if (status, level) == ("exhausted", depth)
                     else status, "pruned" if pruned else "none pruned"}
        assert seen >= {("found", 0), "found", "exhausted", "inconclusive",
                        "drained at depth", "pruned", "none pruned"}

    def test_drained_ball_answers_by_level(self, monkeypatch):
        monkeypatch.setattr(braid, "_LAST", None)
        for depth, expected in [(8, ("exhausted", 7, 216, 0, None)),
                                (7, ("exhausted", 7, 216, 0, None)),
                                (6, ("inconclusive", 6, 216, 0, None)),
                                (2, ("inconclusive", 2, 38, 0, None))]:
            got = answer(orbit_search(self.A5, identity(5), depth))
            assert got == expected == fresh_answer(self.A5, identity(5), depth)

    def test_deeper_then_shallower_reports_the_shallower_level(self, monkeypatch):
        monkeypatch.setattr(braid, "_LAST", None)
        found = orbit_search(self.A6, self.A6_LEVEL6, 12)
        assert (found.status, found.depth_reached) == ("found", 6)
        shallow = orbit_search(self.A6, self.A6_LEVEL6, 5)
        assert answer(shallow) == fresh_answer(self.A6, self.A6_LEVEL6, 5)
        assert (shallow.status, shallow.depth_reached) == ("inconclusive", 5)
        assert shallow.states < found.states

    def test_a_stopped_ball_holds_no_numpy_array(self, monkeypatch):
        # a search stopped by its depth keeps the classes it found as bytes
        # and integers, and of its work in progress neither a frontier nor
        # children: no numpy array, no suspended generator
        monkeypatch.setattr(braid, "_LAST", None)
        res = orbit_search(self.A6, identity(6), 4)
        assert res.status == "inconclusive" and res.states > _kernels.CHUNK
        ball = braid._LAST
        held = [*vars(ball).values(), *ball.keys, *ball.index.values(),
                *ball.signs, *ball.ends]
        assert all(type(v) in (bytes, int, bool, tuple, list, dict, array)
                   for v in held)

    def test_threads_get_fresh_answers(self, monkeypatch):
        # more threads than cores, switching often, each replacing or
        # resuming the ball the others use
        queries = [(self.A5, identity(5), 8, 64), (self.A6, self.A6_LEVEL6, 12, 64),
                   (self.A5, identity(5), 3, 2), (self.A6, identity(6), 4, 5)]
        expected = [fresh_answer(*q) for q in queries]
        monkeypatch.setattr(braid, "_LAST", None)
        results, errors = [], []

        def work(k):
            try:
                for r in range(6):
                    i = (k + r) % len(queries)
                    results.append((i, answer(orbit_search(*queries[i]))))
            except Exception as err:
                errors.append(err)

        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == [] and len(results) == 24
        assert all(got == expected[i] for i, got in results)

    def test_int64_check_runs_on_every_call(self, monkeypatch):
        # a source in the target set needs no move and is found whatever its
        # entries; the ball that answered it does not let a search past the
        # limit check
        monkeypatch.setattr(braid, "_LAST", None)
        big = ((1, 2 ** 40), (0, 1))
        res = orbit_search(big, sign_conj(2, big))
        assert (res.status, res.depth_reached) == ("found", 0)
        assert res.certificate.verified
        for _ in range(2):
            with pytest.raises(ValueError, match="int64"):
                orbit_search(big, identity(2))

    def test_reuse_is_real_and_isolated(self, monkeypatch):
        monkeypatch.setattr(braid, "_LAST", None)
        calls = []
        expand = _kernels.expand_frontier
        monkeypatch.setattr(_kernels, "expand_frontier",
                            lambda *a: calls.append(1) or expand(*a))

        def search(*query):
            calls.clear()
            res = orbit_search(*query)
            expanded = len(calls)
            assert answer(res) == fresh_answer(*query)
            return res, expanded

        rng = random.Random(3)
        res, expanded = search(self.A6, self.A6_LEVEL6)
        ball = braid._LAST
        assert res.status == "found" and expanded > 0
        # a class the ball holds, from a disguised form of the same source
        near = disguise(beta(2, beta(1, self.A6)), rng)
        res, expanded = search(disguise(self.A6, rng), near)
        assert (res.status, res.depth_reached, expanded) == ("found", 2, 0)
        assert braid._LAST is ball
        # another entry bound, then another source: new balls
        res, expanded = search(self.A6, near, 12, 5)
        assert braid._LAST is not ball and expanded > 0
        ball = braid._LAST
        res, expanded = search(self.A5, identity(5))
        assert braid._LAST is not ball and expanded > 0
        # level 1 of A6 is one chunk of 10 children: a hit early in it
        # records the whole chunk, so a later child is found with no
        # further expansion
        first, expanded = search(self.A6, beta(1, self.A6), 1)
        assert (first.status, first.states, expanded) == ("found", 2, 1)
        later, expanded = search(self.A6, beta_inv(5, self.A6), 1)
        assert (later.status, expanded) == ("found", 0)
        assert later.states > first.states


def brute_sign_canonical(mat: np.ndarray):
    """Reference for ``_kernels.sign_canonical`` on one matrix: try all
    2^(n-1) sign vectors with d[0] = +1 in increasing bitmask order and keep
    the first lexicographically least conjugate."""
    n = mat.shape[0]
    best, best_signs = mat, np.ones(n, dtype=np.int64)
    for mask in range(1, 1 << (n - 1)):
        d = np.array([1] + [-1 if (mask >> t) & 1 else 1 for t in range(n - 1)],
                     dtype=np.int64)
        cand = mat * np.outer(d, d)
        if tuple(cand.ravel()) < tuple(best.ravel()):
            best, best_signs = cand, d
    return best, best_signs


@st.composite
def unit_diagonal_stacks(draw, min_n=1, max_n=7, upper=False):
    """Stacks of unit-diagonal int64 matrices; the mask zeroes entries so
    that support graphs with several components are common."""
    n = draw(st.integers(min_n, max_n))
    b = draw(st.integers(1, 6))
    vals = draw(arrays(np.int64, (b, n, n), elements=st.integers(-4, 4)))
    mask = draw(arrays(np.bool_, (b, n, n)))
    stack = vals * mask
    if upper:
        stack = np.triu(stack)
    stack[:, np.arange(n), np.arange(n)] = 1
    return stack


class TestKernels:
    @settings(max_examples=300, deadline=None)
    @given(unit_diagonal_stacks())
    def test_sign_canonical_matches_brute_force(self, stack):
        canon, signs = _kernels.sign_canonical(stack)
        for b in range(len(stack)):
            exp_c, exp_s = brute_sign_canonical(stack[b])
            assert np.array_equal(canon[b], exp_c)
            assert np.array_equal(signs[b], exp_s)

    @settings(max_examples=150, deadline=None)
    @given(unit_diagonal_stacks(min_n=2, max_n=6, upper=True),
           st.integers(0, 20))
    def test_expand_frontier_matches_exact_beta(self, stack, bound):
        n = stack.shape[1]
        children, ok = _kernels.expand_frontier(stack, bound)
        moves = 2 * (n - 1)
        assert children.shape == (len(stack) * moves, n, n)
        for s in range(len(stack)):
            exact = F(stack[s].tolist())
            for k in range(moves):
                child = children[s * moves + k]
                if k < n - 1:
                    want = beta(k + 1, exact)
                else:
                    want = beta_inv(k - (n - 1) + 1, exact)
                assert F(child.tolist()) == want
                assert ok[s * moves + k] == (np.abs(child).max() <= bound)

    def test_sign_canonical_is_minimal(self):
        rng = np.random.default_rng(9)
        m = np.eye(4, dtype=np.int64)
        for i in range(4):
            for j in range(i + 1, 4):
                m[i, j] = rng.integers(-4, 5)
        (canon,), (signs,) = _kernels.sign_canonical(m[None])
        assert np.array_equal(canon, m * np.outer(signs, signs))
        for mask in range(1 << 3):
            d = np.ones(4, dtype=np.int64)
            for t in range(3):
                if (mask >> t) & 1:
                    d[t + 1] = -1
            cand = m * np.outer(d, d)
            assert tuple(canon.ravel()) <= tuple(cand.ravel())


def assert_same_targets(got, want):
    assert set(got) == set(want)
    for key, (sigma, signs) in want.items():
        assert got[key][0] == sigma
        assert np.array_equal(got[key][1], signs)


def assert_target_set(up, source):
    """``_target_set`` gives the permutation scan's targets, and the
    source's sign-canonical form as ``sign_canonical`` alone gives it."""
    targets, canon, signs = braid._target_set(up, source)
    assert_same_targets(targets, scan_target_set(up))
    (want_canon,), (want_signs,) = _kernels.sign_canonical(source[None])
    assert np.array_equal(canon, want_canon)
    assert np.array_equal(signs, want_signs)


class TestTargetSet:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 7), st.data())
    def test_orbit_elements_match_the_permutation_scan(self, n, data):
        a = an_stokes(n).evaluate(joyce_point(n))
        # a random element of the A_n orbit, disguised by a permutation
        # and signs so that its support is not triangular
        for i, forward in data.draw(st.lists(
                st.tuples(st.integers(1, n - 1), st.booleans()), max_size=5)):
            a = (beta if forward else beta_inv)(i, a)
        source = np.array(a, dtype=np.int64)
        a = perm_conj(data.draw(st.permutations(range(1, n + 1))), a)
        a = np.array(sign_conj(data.draw(st.lists(
            st.sampled_from((1, -1)), min_size=n, max_size=n)), a), dtype=np.int64)
        up = braid._conj_np(braid._search_input(a)[2], a)
        assert_target_set(up, source)

    @settings(max_examples=150, deadline=None)
    @given(unit_diagonal_stacks(max_n=6, upper=True))
    def test_sparse_matrices_match_the_permutation_scan(self, stack):
        # sparse supports allow many orders, and a sign class often holds
        # several sigma, of which the least must be kept
        assert_target_set(stack[0], stack[-1])

    def test_the_source_rides_in_the_first_of_several_chunks(self, monkeypatch):
        # the identity of rank 6 allows all 720 orders, three kernel calls;
        # the source adds none
        calls, canonical = [], _kernels.sign_canonical
        monkeypatch.setattr(_kernels, "sign_canonical",
                            lambda stack: calls.append(len(stack)) or canonical(stack))
        source = np.array(an_stokes(6).evaluate(joyce_point(6)), dtype=np.int64)
        up = np.eye(6, dtype=np.int64)
        braid._target_set(up, source)
        assert calls == [_kernels.CHUNK + 1, _kernels.CHUNK, 720 - 2 * _kernels.CHUNK]
        monkeypatch.undo()
        assert_target_set(up, source)


class TestMoveJson:
    @pytest.mark.parametrize("mv", [("sign", 2), ("sign", (1, -1, 1)),
                                    ("perm", (2, 3, 1)), ("braid", 1, 1),
                                    ("braid", 2, -1)])
    def test_every_move_form_survives_json(self, mv):
        assert move_from_json(move_to_json(mv)) == mv
        A = F([[1, 2, 3], [0, 1, 5], [0, 0, 1]])
        assert BraidWord((move_from_json(move_to_json(mv)),)).apply(A) == \
            apply_move(mv, A)

    @pytest.mark.parametrize("data,message", [
        ({"braid": 1, "dir": "x"}, "field 'dir' must be '+' or '-', got 'x'"),
        ({"braid": "1_0"}, "field 'braid' must be an integer, got '1_0'"),
        ({"braid": 1.5, "dir": "+"}, "field 'braid' must be an integer, got 1.5"),
        ({"perm": [1, "2.5"]}, "field 'perm' must hold integers, got '2.5'"),
        ({"perm": "21"}, "field 'perm' must be a list of integers, got '21'"),
        ({"sign": [1, True]}, "field 'sign' must hold integers, got True"),
        ({"sign": "x"}, "field 'sign' must be an integer, got 'x'"),
        (5, "a move must be an object with a 'braid', 'perm' or 'sign' field, "
            "got 5"),
        ("braid", "a move must be an object with a 'braid', 'perm' or 'sign' "
                  "field, got 'braid'"),
    ])
    def test_malformed_move_is_refused(self, data, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            move_from_json(data)

    @pytest.mark.parametrize("mv", [("braid", 1), ("braid", 1, 1, 1), ("perm",),
                                    ("perm", (2, 1, 3), 1), ("sign",), (),
                                    ("flip", 1)])
    def test_move_of_the_wrong_shape_is_refused(self, mv):
        A = F([[1, 2, 3], [0, 1, 5], [0, 0, 1]])
        message = f"unknown move {mv!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            apply_move(mv, A)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            BraidWord((("sign", 1), mv)).apply(A)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            BraidWord((("sign", 1), mv)).inverse()
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            move_to_json(mv)

    @pytest.mark.parametrize("direction", [0, 2, True])
    def test_other_braid_directions_are_refused(self, direction):
        # written as "-" or "+" they would read back as a different move
        with pytest.raises(ValueError, match="braid direction|not an integer"):
            move_to_json(("braid", 1, direction))

    @pytest.mark.parametrize("direction", [1, -1, np.int64(-1), 1.0])
    def test_unit_braid_moves_round_trip(self, direction):
        for i in (1, 2, 3):
            data = move_to_json(("braid", i, direction))
            assert data == {"braid": i, "dir": "+" if direction > 0 else "-"}
            assert move_from_json(json.loads(json.dumps(data))) == \
                ("braid", i, direction)

    def test_numpy_sign_index_is_written_as_an_int(self):
        # sign_conj takes a numpy integer index; its JSON form is a plain int
        mv = ("sign", np.int64(2))
        data = move_to_json(mv)
        assert data == {"sign": 2} and type(data["sign"]) is int
        A = F([[1, 2, 3], [0, 1, 5], [0, 0, 1]])
        assert apply_move(move_from_json(data), A) == sign_conj(2, A)

    @pytest.mark.parametrize("mv,expected", [
        (("perm", np.array([2, 1, 3])), ("perm", (2, 1, 3))),
        (("sign", np.array([1, -1, 1])), ("sign", (1, -1, 1))),
        (("braid", np.int64(1), 1), ("braid", 1, 1)),
    ])
    def test_numpy_integer_items_are_written_as_ints(self, mv, expected):
        # braid._move takes these moves; their JSON holds plain ints
        text = json.dumps(move_to_json(mv))
        assert move_from_json(json.loads(text)) == expected
        A = F([[1, 2, 3], [0, 1, 5], [0, 0, 1]])
        assert apply_move(expected, A) == apply_move(mv, A)
