import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiverstokes.algebra import LatticeVector
from quiverstokes.quiver import (EulerForm, MutationClassTooLarge, Quiver,
                                 apply_word, euler_form, linear_quiver, mutate,
                                 mutation_class)


def random_quiver(rng, n, max_mult=2):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            mult = rng.randint(0, max_mult)
            if mult and rng.random() < 0.7:
                if rng.random() < 0.5:
                    m[i][j] = mult
                else:
                    m[j][i] = mult
    return Quiver(tuple(tuple(r) for r in m))


class TestQuiverInvariants:
    def test_loop_rejected(self):
        with pytest.raises(ValueError):
            Quiver(((1, 0), (0, 0)))

    def test_two_cycle_rejected(self):
        with pytest.raises(ValueError):
            Quiver(((0, 1), (1, 0)))


class TestMutation:
    def test_a3_at_middle_gives_cycle(self):
        q = mutate(linear_quiver(3), 2)
        assert q == Quiver.from_arrows(3, {(2, 1): 1, (1, 3): 1, (3, 2): 1})

    def test_triangle_gives_double_arrow(self):
        tri = Quiver.from_arrows(3, {(1, 2): 1, (1, 3): 1, (2, 3): 1})
        q = mutate(tri, 2)
        assert q == Quiver.from_arrows(3, {(2, 1): 1, (1, 3): 2, (3, 2): 1})

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            mutate(linear_quiver(3), 4)

    def test_involutive_and_preserves_invariants(self):
        rng = random.Random(29)
        for _ in range(120):
            n = rng.randint(2, 6)
            q = random_quiver(rng, n)
            k = rng.randint(1, n)
            m = mutate(q, k)  # constructor re-checks no loops / no 2-cycles
            assert mutate(m, k) == q


class TestEulerForm:
    def test_linear_quiver_form(self):
        e = euler_form(linear_quiver(4))
        for i in range(4):
            for j in range(4):
                expect = -1 if j == i + 1 else (1 if i == j + 1 else 0)
                assert e.matrix[i][j] == expect

    def test_arrowless_quiver(self):
        e = euler_form(Quiver(tuple(tuple(0 for _ in range(3)) for _ in range(3))))
        assert all(x == 0 for row in e.matrix for x in row)

    def test_kronecker(self):
        e = euler_form(Quiver.from_arrows(2, {(1, 2): 3}))
        assert e.matrix[0][1] == -3

    def test_skew_symmetry_random(self):
        rng = random.Random(31)
        for _ in range(100):
            n = rng.randint(2, 5)
            e = euler_form(random_quiver(rng, n))
            v = LatticeVector(tuple(rng.randint(-4, 4) for _ in range(n)))
            w = LatticeVector(tuple(rng.randint(-4, 4) for _ in range(n)))
            assert e.pairing(v, w) == -e.pairing(w, v)


class TestMutationClass:
    def test_a2(self):
        assert len(mutation_class(linear_quiver(2), 10)) == 2

    def test_single_vertex(self):
        assert len(mutation_class(Quiver(((0,),)), 5)) == 1

    def test_a3_closure_contains_the_six_tabulated_quivers(self):
        cls = mutation_class(linear_quiver(3), 100)
        # labelled closure: 12 labelled path quivers plus 2 oriented cycles
        assert len(cls) == 14
        a3 = linear_quiver(3)
        for word in ([], [3], [3, 1], [1], [2], [3, 1, 2]):
            assert apply_word(a3, word) in cls

    def test_budget(self):
        with pytest.raises(MutationClassTooLarge):
            mutation_class(linear_quiver(3), 5)

    def test_words_replay(self):
        cls = mutation_class(linear_quiver(4), 1000)
        a4 = linear_quiver(4)
        for q, word in cls.items():
            assert apply_word(a4, word) == q


def reverse_compose_cancel(q, k):
    """Mutation at k step by step: reverse the arrows at k, add an arrow
    i -> j for every path i -> k -> j, then cancel opposite pairs."""
    n, a, k = q.n, q.arrows, k - 1
    b = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != k and j != k:
                b[i][j] = a[i][j] + a[i][k] * a[k][j]
    for i in range(n):
        b[i][k], b[k][i] = a[k][i], a[i][k]
    for i in range(n):
        for j in range(i + 1, n):
            c = min(b[i][j], b[j][i])
            b[i][j] -= c
            b[j][i] -= c
    return Quiver(tuple(tuple(r) for r in b))


@st.composite
def quivers_and_vertices(draw):
    """A quiver of rank 1..7 with multiplicities up to 4 and a vertex."""
    n = draw(st.integers(1, 7))
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            mult = draw(st.integers(-4, 4))
            if mult > 0:
                m[i][j] = mult
            else:
                m[j][i] = -mult
    return Quiver(tuple(tuple(r) for r in m)), draw(st.integers(1, n))


class TestMutationFormula:
    @settings(max_examples=400, deadline=None)
    @given(quivers_and_vertices())
    def test_matches_reverse_compose_cancel(self, case):
        q, k = case
        assert mutate(q, k) == reverse_compose_cancel(q, k)

    @pytest.mark.parametrize("n,size", [(2, 2), (3, 14), (4, 144), (5, 1980)])
    def test_linear_class_sizes(self, n, size):
        assert len(mutation_class(linear_quiver(n), 10_000)) == size


class TestIntegerEntries:
    @pytest.mark.parametrize("build", [
        lambda: Quiver(((0, 1.5), (0, 0))),
        lambda: Quiver(((0, True), (0, 0))),
        lambda: Quiver(((0, "1_0"), (0, 0))),
        lambda: Quiver.from_arrows(2, {(1, 2): 1.5}),
        lambda: EulerForm(((0, 0.5), (-0.5, 0))),
        lambda: EulerForm(((0, " 1"), (-1, 0))),
    ])
    def test_non_integral_entries_are_refused(self, build):
        with pytest.raises(ValueError, match="not an integer"):
            build()

    @pytest.mark.parametrize("entry", [2, 2.0, "2", "+2", np.int64(2)])
    def test_whole_entries_are_read_as_ints(self, entry):
        q = Quiver(((0, entry), (0, 0)))
        assert q.arrows == ((0, 2), (0, 0)) and type(q.arrows[0][1]) is int
        assert EulerForm(((0, entry), (-2, 0))).matrix == ((0, 2), (-2, 0))
