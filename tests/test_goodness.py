import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quiverstokes.algebra import Basis, TruncatedPoly, lv_len
from quiverstokes.goodness import (EpsilonTensor, GoodQuiverSolution,
                                   SymbolicQuiver, UnrecognizedPattern,
                                   basis_domain, check_quadratic,
                                   check_vanishing_p3, epsilon_solutions,
                                   find_good_quivers, full_domain,
                                   mutation_basis)
from quiverstokes.quiver import (EulerForm, Quiver, apply_word, euler_form,
                                 linear_quiver, mutation_class)


# ---------------------------------------------------------------------------
# Brute-force oracles: every sign assignment, and the transport carried out
# on TruncatedPoly entries one tensor at a time
# ---------------------------------------------------------------------------

def brute_epsilon_solutions(n, domain=None):
    """All 2^|domain| sign assignments in lexicographic order over the sorted
    pairs, +1 before -1, kept when EpsilonTensor.from_dict accepts them."""
    dom = full_domain(n) if domain is None else frozenset(tuple(p) for p in domain)
    pairs = sorted(dom)
    out = []
    for assignment in itertools.product((1, -1), repeat=len(pairs)):
        try:
            out.append(EpsilonTensor.from_dict(n, dom, dict(zip(pairs, assignment))))
        except ValueError:
            continue
    return out


def param_poly(nparams, index, const=0):
    terms = {}
    if const:
        terms[(0,) * nparams] = Fraction(const)
    if index is not None:
        terms[tuple(1 if t == index else 0 for t in range(nparams))] = Fraction(1)
    return TruncatedPoly(nparams, terms)


def transport_form(binv, form, nparams):
    """Binv * F * Binv^T entry by entry; None if a coefficient is not an
    integer."""
    n = len(binv)
    zero = TruncatedPoly.zero(nparams)
    tmp = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = zero
            for k in range(n):
                if binv[i][k]:
                    acc = acc + form[k][j] * binv[i][k]
            tmp[i][j] = acc
    out = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = zero
            for k in range(n):
                if binv[j][k]:
                    acc = acc + tmp[i][k] * binv[j][k]
            out[i][j] = acc
    if any(c.denominator != 1 for row in out for e in row for c in e.terms.values()):
        return None
    return out


def realize_arrows(simple, nparams):
    n = len(simple)
    arrows = {}
    for u in range(n):
        for v in range(u + 1, n):
            entry = simple[u][v]
            if entry.is_zero():
                continue
            if entry.degree() <= 0:
                c = entry.constant_term()
                if c < 0:
                    arrows[(u + 1, v + 1)] = TruncatedPoly.constant(nparams, -c)
                else:
                    arrows[(v + 1, u + 1)] = TruncatedPoly.constant(nparams, c)
            else:
                arrows[(u + 1, v + 1)] = -entry
    return arrows


def brute_find_good_quivers(basis, lam=1, p=3):
    """find_good_quivers with the form of every brute-force tensor built and
    transported on TruncatedPoly entries."""
    n = basis.n
    dom = basis_domain(basis, p)
    free_pairs = sorted(set(full_domain(n)) - dom)
    params = tuple("k" if len(free_pairs) == 1 else f"k{t+1}"
                   for t in range(len(free_pairs)))
    nparams = len(free_pairs)
    zero = TruncatedPoly.zero(nparams)
    binv = basis.inverse()
    solutions = []
    for eps in brute_epsilon_solutions(n, dom):
        form = [[zero for _ in range(n)] for _ in range(n)]
        for (i, j) in sorted(dom):
            c = param_poly(nparams, None, eps[(i, j)] * lam)
            form[i - 1][j - 1] = c
            form[j - 1][i - 1] = -c
        for t, (i, j) in enumerate(free_pairs):
            c = param_poly(nparams, t)
            form[i - 1][j - 1] = -c
            form[j - 1][i - 1] = c
        simple = transport_form(binv, form, nparams)
        if simple is None:
            continue
        arrows = realize_arrows(simple, nparams)
        solutions.append(GoodQuiverSolution(
            quiver=SymbolicQuiver(n, params, tuple(sorted(arrows.items()))),
            eps=eps, params=params))
    solutions.sort(key=lambda s: tuple((uv, m.key()) for uv, m in s.quiver.arrows))
    return solutions


def poly_fields(poly):
    return (poly.nvars, tuple((e, type(c), c) for e, c in poly.key()))


def solution_fields(sol):
    """Every field of a solution; polynomials by variable count and terms,
    coefficient types included."""
    q = sol.quiver
    return (q.n, q.params, tuple((uv, poly_fields(m)) for uv, m in q.arrows),
            sol.eps, sol.params)


@st.composite
def good_bases(draw):
    """Independent bases of rank 2..5 with entries in [-2, 2] passing the
    order-3 vanishing conditions.  Half are drawn entry by entry, mostly not
    unimodular, so that most tensors fail integrality; half are unimodular,
    a triangular or alternating basis changed by a few row operations, so
    that every tensor survives."""
    n = draw(st.integers(2, 5))
    if draw(st.booleans()):
        rows = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                             min_size=n, max_size=n))
    else:
        start = draw(st.sampled_from((Basis.triangular, Basis.alternating)))(n)
        rows = [list(row.coords) for row in start.rows]
        ops = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                        st.sampled_from((1, -1)))
        for i, j, s in draw(st.lists(ops, max_size=2 * n)):
            if i != j:
                rows[i] = [a + s * b for a, b in zip(rows[i], rows[j])]
        assume(all(abs(a) <= 2 for row in rows for a in row))
    try:
        basis = Basis(rows)
    except ValueError:
        assume(False)
    assume(not check_vanishing_p3(basis))
    return basis


@st.composite
def sub_domains(draw):
    n = draw(st.integers(2, 6))
    pairs = sorted(full_domain(n))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    dom = [pair for pair, k in zip(pairs, keep) if k]
    assume(len(dom) <= 12)  # at most 4096 brute-force assignments
    return n, dom


def per_pairing_check_quadratic(basis, e, p):
    """check_quadratic with every pairing and difference formed per triple:
    the violations in first-found order."""
    n = basis.n
    violations = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j or lv_len(basis.diff(j, i)) >= p:
                continue
            for k in range(1, n + 1):
                if k == i or k == j:
                    continue
                lhs = (e.pairing(basis[j], basis[i]) *
                       e.pairing(basis.diff(j, k), basis.diff(k, i)))
                rhs = e.pairing(basis[j], basis[k]) * e.pairing(basis[k], basis[i])
                if lhs != rhs:
                    entry = ("quadratic", (min(i, j), max(i, j), k),
                             f"lhs={lhs} rhs={rhs}")
                    if entry not in violations:
                        violations.append(entry)
    return violations


@st.composite
def bases_and_forms(draw):
    """(basis, skew form): rank 2..6, entries in [-2, 2], form entries
    mostly 0 or +-1 so that some triples pass and some fail."""
    n = draw(st.integers(2, 6))
    rows = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                         min_size=n, max_size=n))
    try:
        basis = Basis(rows)
    except ValueError:
        assume(False)
    m = [[0] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        m[i][j] = draw(st.sampled_from((0, 0, 1, -1, 2)))
        m[j][i] = -m[i][j]
    return basis, EulerForm(m)


class TestCheckQuadratic:
    @settings(max_examples=300, deadline=None)
    @given(bases_and_forms(), st.integers(3, 8))
    def test_matches_per_pairing_oracle(self, case, p):
        basis, e = case
        assert check_quadratic(basis, e, p) == \
            per_pairing_check_quadratic(basis, e, p)

    def test_rank2_passes_vacuously(self):
        b = Basis.triangular(2)
        e = euler_form(Quiver.from_arrows(2, {(1, 2): 1}))
        assert check_quadratic(b, e, 3) == []

    def test_a3_triangular_passes(self):
        b = Basis.triangular(3)
        e = euler_form(linear_quiver(3))
        # pairings are -1 for all i < j here
        assert all(e.pairing(b[i], b[j]) == -1
                   for i in range(1, 4) for j in range(i + 1, 4))
        assert check_quadratic(b, e, 3) == []

    def test_mixed_signs_fail_at_triple(self):
        # pairings +1, +1, -1 violate the sign-tensor identity (sum is 4)
        b = Basis([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        e = euler_form(Quiver.from_arrows(3, {(2, 1): 1, (3, 2): 1, (1, 3): 1}))
        assert (e.pairing(b[1], b[2]), e.pairing(b[2], b[3]),
                e.pairing(b[1], b[3])) == (1, 1, -1)
        violations = check_quadratic(b, e, 3)
        assert violations
        assert all(kind == "quadratic" for kind, _, _ in violations)
        assert any(idx == (1, 2, 3) for _, idx, _ in violations)


def per_triple_check_vanishing_p3(basis):
    """check_vanishing_p3 with every difference formed per triple."""
    n = basis.n
    violations = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if lv_len(basis.diff(j, i)) == 2 and not any(
                    lv_len(basis.diff(j, k)) == 1 and lv_len(basis.diff(k, i)) == 1
                    for k in range(1, n + 1) if k != i and k != j):
                violations.append(("vanishing", (i, j),
                                   "length-2 difference with no admissible split"))
    return violations


class TestCheckVanishing:
    @settings(max_examples=300, deadline=None)
    @given(bases_and_forms())
    def test_matches_per_triple_oracle(self, case):
        # independent bases of rank 2..6, failing ones included
        basis, _ = case
        assert check_vanishing_p3(basis) == per_triple_check_vanishing_p3(basis)

    def test_triangular_any_rank(self):
        for n in range(2, 7):
            assert check_vanishing_p3(Basis.triangular(n)) == []

    def test_alternating_rank3(self):
        assert check_vanishing_p3(Basis.alternating(3)) == []

    def test_failing_basis(self):
        violations = check_vanishing_p3(Basis([(1, 0, 1), (0, 1, 0), (0, 0, 1)]))
        assert violations
        assert all(kind == "vanishing" for kind, _, _ in violations)
        assert any(idx == (2, 3) for _, idx, _ in violations)


class TestEpsilonSolutions:
    def test_rank2_both(self):
        assert len(epsilon_solutions(2)) == 2

    def test_rank3_six(self):
        sols = epsilon_solutions(3)
        assert len(sols) == 6
        signs = {s.signs for s in sols}
        flipped = {s.flipped().signs for s in sols}
        assert signs == flipped  # closed under the global sign flip
        all_minus = tuple(((i, j), -1) for i in range(1, 4)
                          for j in range(i + 1, 4))
        assert tuple(sorted(all_minus)) in signs

    def test_rank4_matches_bruteforce(self):
        # independent oracle: filter every assignment by the triple identity
        pairs = sorted(full_domain(4))
        count = 0
        for assignment in itertools.product((1, -1), repeat=len(pairs)):
            eps = dict(zip(pairs, assignment))

            def get(i, j):
                return eps[(i, j)] if (i, j) in eps else -eps[(j, i)]

            if all(1 + get(i, j) * get(j, k) + get(j, i) * get(i, k)
                   + get(i, k) * get(k, j) == 0
                   for i, j, k in itertools.combinations(range(1, 5), 3)):
                count += 1
        assert len(epsilon_solutions(4)) == count

    def test_triple_identity_all_tensors_up_to_rank5(self):
        for n in range(2, 6):
            for t in epsilon_solutions(n):
                d = t.as_dict()

                def get(i, j):
                    return d[(i, j)] if (i, j) in d else -d[(j, i)]

                for i, j, k in itertools.combinations(range(1, n + 1), 3):
                    assert (1 + get(i, j) * get(j, k) + get(j, i) * get(i, k)
                            + get(i, k) * get(k, j)) == 0

    def test_restricted_domain(self):
        b = Basis.triangular(4)
        dom = basis_domain(b, 3)
        assert (1, 4) not in dom and len(dom) == 5
        assert len(epsilon_solutions(4, dom)) == 18

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_full_domain_matches_oracle_in_order(self, n):
        assert epsilon_solutions(n) == brute_epsilon_solutions(n)

    @settings(max_examples=60, deadline=None)
    @given(sub_domains())
    def test_sub_domain_matches_oracle_in_order(self, case):
        n, dom = case
        assert epsilon_solutions(n, dom) == brute_epsilon_solutions(n, dom)

    def test_invalid_tensor_rejected(self):
        with pytest.raises(ValueError):
            EpsilonTensor.from_dict(3, full_domain(3),
                                    {(1, 2): 1, (2, 3): 1, (1, 3): -1})

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("sign", [2, 0, -2])
    def test_sign_other_than_plus_or_minus_one_rejected(self, n, sign):
        # at n = 2 there is no triple to refuse it, and at n = 3 the
        # triple check would name the wrong fault
        eps = {pair: sign for pair in full_domain(n)}
        message = f"sign of pair (1, 2) must be +1 or -1, got {sign}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            EpsilonTensor.from_dict(n, full_domain(n), eps)


class TestFindGoodQuivers:
    def test_counts(self):
        assert len(find_good_quivers(Basis.triangular(2))) == 2
        assert len(find_good_quivers(Basis.triangular(3))) == 6
        assert len(find_good_quivers(Basis.alternating(3))) == 6
        assert len(find_good_quivers(Basis.triangular(4))) == 18

    def test_every_solution_passes_quadratic(self):
        for basis in (Basis.triangular(3), Basis.alternating(3)):
            for sol in find_good_quivers(basis):
                assert all(m.degree() <= 0 for _, m in sol.quiver.arrows)
                q = sol.quiver.substitute([])
                assert check_quadratic(basis, euler_form(q), 3) == []

    def test_tau4_free_parameter(self):
        sols = find_good_quivers(Basis.triangular(4))
        assert all(sol.params == ("k",) for sol in sols)
        # diagonal entries of the induced form depend on the parameter
        assert any(m.degree() > 0 for sol in sols for _, m in sol.quiver.arrows)

    @settings(max_examples=150, deadline=None)
    @given(good_bases(), st.integers(3, 6), st.integers(-2, 3))
    def test_matches_oracle(self, basis, p, lam):
        got = find_good_quivers(basis, lam, p)
        want = brute_find_good_quivers(basis, lam, p)
        assert [solution_fields(s) for s in got] == \
            [solution_fields(s) for s in want]

    @settings(max_examples=150, deadline=None)
    @given(good_bases(), st.integers(3, 6), st.integers(-2, 3), st.data())
    def test_quiver_realizes_the_form(self, basis, p, lam, data):
        # at integer parameter values the quiver's Euler form pairs the
        # basis as eps_ij * lam in range and as the parameter out of range
        dom = basis_domain(basis, p)
        free_pairs = sorted(full_domain(basis.n) - dom)
        points = st.lists(st.integers(-3, 3), min_size=len(free_pairs),
                          max_size=len(free_pairs))
        for sol in find_good_quivers(basis, lam, p):
            for vals in (data.draw(points), data.draw(points)):
                e = euler_form(sol.quiver.substitute(vals))
                for i, j in dom:
                    assert e.pairing(basis[i], basis[j]) == sol.eps[(i, j)] * lam
                for t, (i, j) in enumerate(free_pairs):
                    assert e.pairing(basis[j], basis[i]) == vals[t]

    @pytest.mark.parametrize("rows,p,lam", [
        ([(1, 1, 0), (0, 1, -2), (-2, 0, -1)], 6, 1),    # det 3
        ([(2, 0, -2), (0, 1, 0), (2, 1, 2)], 6, 2),      # det 8
        ([(-1, -1, 0), (0, -1, -2), (-1, 1, -2)], 5, 2),  # det -6
    ])
    def test_non_unimodular_matches_oracle(self, rows, p, lam):
        # D > 1: some tensors fail the divisibility by D^2, others survive
        basis = Basis(rows)
        got = find_good_quivers(basis, lam, p)
        want = brute_find_good_quivers(basis, lam, p)
        assert 0 < len(got) < len(epsilon_solutions(3, basis_domain(basis, p)))
        assert [solution_fields(s) for s in got] == \
            [solution_fields(s) for s in want]

    @pytest.mark.parametrize("basis,p,lam", [
        (Basis.triangular(4), 3, 10 ** 30),
        (Basis([(1, 0, 0), (-1, 0, -2), (1, 1, 0)]), 6, -10 ** 30),
    ])
    def test_huge_scale_matches_oracle(self, basis, p, lam):
        # the integer product of signs and slices no longer fits in int64
        got = find_good_quivers(basis, lam, p)
        want = brute_find_good_quivers(basis, lam, p)
        assert got and [solution_fields(s) for s in got] == \
            [solution_fields(s) for s in want]

    def test_rejects_bad_basis(self):
        with pytest.raises(ValueError):
            find_good_quivers(Basis([(1, 0, 1), (0, 1, 0), (0, 0, 1)]))


class TestMutationBasis:
    def test_linear_gives_triangular(self):
        for n in range(2, 6):
            assert mutation_basis(n, linear_quiver(n)) == Basis.triangular(n)

    def test_cyclic_triangle_block(self):
        q = apply_word(linear_quiver(3), [2])
        b = mutation_basis(3, q)
        assert [r.coords for r in b.rows] == [(1, 0, 1), (0, -1, 1), (0, 0, 1)]

    def test_annulus_unoriented_cycle(self):
        q = Quiver.from_arrows(3, {(1, 2): 1, (1, 3): 1, (2, 3): 1})
        assert mutation_basis(3, q) == Basis.alternating(3)

    def test_overlapping_triangles(self):
        q = apply_word(linear_quiver(5), [4, 2])
        b = mutation_basis(5, q)
        assert [r.coords for r in b.rows] == [
            (1, 0, 1, 0, 1), (0, -1, 1, 0, 1), (0, 0, 1, 0, 1),
            (0, 0, 0, -1, 1), (0, 0, 0, 0, 1)]

    def test_unimodular_on_full_a4_class(self):
        for q in mutation_class(linear_quiver(4), 1000):
            try:
                b = mutation_basis(4, q)
            except UnrecognizedPattern:
                continue  # quivers with labels out of path order
            assert b.det() in (1, -1)

    def test_unrecognized_pattern(self):
        # path graph with labels out of order: 2 - 1 - 3
        q = Quiver.from_arrows(3, {(1, 2): 1, (3, 1): 1})
        with pytest.raises(UnrecognizedPattern):
            mutation_basis(3, q)
