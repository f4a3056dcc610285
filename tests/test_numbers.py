"""The five rules of `algebra` that read every incoming number: `_as_int`
for integers, `_as_fraction` for rationals, `_index` for 1-based indices,
`_size` for sizes, bounds and counts and `_unit` for signs and directions,
at every site that reads one, and the JSON readers built on them."""

import functools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiverstokes.algebra import (Basis, PolyMatrix, TruncatedPoly, _as_fraction,
                                  _index, _size, _unit, joyce_point)
from quiverstokes.braid import (BraidWord, apply_move, beta, beta_inv,
                                orbit_search, perm_conj, sign_conj,
                                verify_braid_group_relations)
from quiverstokes.goodness import (EpsilonTensor, check_quadratic, epsilon_solutions,
                                   find_good_quivers)
from quiverstokes.quiver import (EulerForm, Quiver, euler_form, linear_quiver, mutate,
                                 mutation_class)
from quiverstokes.serialize import (basis_from_json, chamber_from_json, frac_str,
                                    move_from_json, move_to_json, parse_frac,
                                    pm_from_json, poly_from_json, quiver_from_json,
                                    rational_matrix_from_json)
from quiverstokes.stokes import (Chamber, DTModel, an_chamber, an_stokes, auto_stokes,
                                 convex_charge, enumerate_an_chambers,
                                 factor_coefficient, factor_product, level2_stokes,
                                 natural_lifts, stokes_product, verify_an_jet)

A = ((1, 2, 3), (0, 1, 4), (0, 0, 1))
Q = linear_quiver(3)
ONE = TruncatedPoly.one(2)

numbers = st.one_of(
    st.integers(), st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.booleans(), st.integers(-10 ** 6, 10 ** 6).map(float), st.floats(),
    st.fractions(), st.text(alphabet="0123456789+-/._e ٣", max_size=8))


class TestRationalRule:
    @settings(max_examples=500, deadline=None)
    @given(numbers)
    def test_parse_frac_is_the_rule_with_a_field_name(self, value):
        try:
            expected = _as_fraction(value)
        except (TypeError, ValueError):
            with pytest.raises(ValueError) as info:
                parse_frac(value, "f")
            assert str(info.value).startswith("field 'f' must hold finite rationals")
        else:
            assert parse_frac(value, "f") == expected
            assert type(expected) is Fraction

    @given(st.fractions())
    def test_written_rationals_read_back(self, x):
        assert _as_fraction(frac_str(x)) == x

    @given(st.integers(), st.integers(1, 10 ** 20), st.booleans())
    def test_text_reads_as_fraction_read_it(self, p, q, whole):
        text = str(p) if whole else f"{p}/{q}"
        assert _as_fraction(text) == Fraction(text)

    @pytest.mark.parametrize("value,expected", [
        (Fraction(3, 4), Fraction(3, 4)), (3, 3), (-2.0, -2), (np.int64(3), 3),
        ("+7", 7), ("-3/6", Fraction(-1, 2)), ("1/-3", Fraction(-1, 3)),
    ])
    def test_exact_forms(self, value, expected):
        x = _as_fraction(value)
        assert (x, type(x)) == (expected, Fraction)

    @pytest.mark.parametrize("value", [0.5, float("inf"), float("nan"), True,
                                       None, [1]])
    def test_inexact_values_are_not_rationals(self, value):
        with pytest.raises(TypeError, match="not an exact rational"):
            _as_fraction(value)

    @pytest.mark.parametrize("text", ["1_0", " 3", "3 ", "٣", "0.5", "1e3",
                                      "1/0", "", "/", "1/", "/2", "1/2/3",
                                      "nan", "inf"])
    def test_text_outside_p_or_p_over_q(self, text):
        with pytest.raises(ValueError):
            _as_fraction(text)


class TestIntegerSites:
    @pytest.mark.parametrize("call", [
        lambda: TruncatedPoly(1.5, {(1,): 1}),
        lambda: PolyMatrix([]),
        lambda: PolyMatrix.identity(2, 1.5),
        lambda: pm_from_json({"n": 1.5, "entries": [[{}]]}, 1),
        lambda: poly_from_json({"1": "1_0"}, 1),
        lambda: perm_conj((1.5, 2, 3), A),
        lambda: sign_conj((1.5, -1, 1), A),
        lambda: sign_conj((True, -1, 1), A),
        lambda: orbit_search(A, A, depth=2.5),
        lambda: orbit_search(A, A, entry_bound=2.5),
        lambda: find_good_quivers(Basis.triangular(3), 1.5, 3),
        lambda: find_good_quivers(Basis.triangular(3), 1, 2.5),
        lambda: EpsilonTensor.from_dict(2, [(1, 2)], {(1, 2): 1.7}),
        lambda: check_quadratic(Basis.triangular(4), euler_form(linear_quiver(4)),
                                3.5),
    ], ids=["TruncatedPoly nvars", "PolyMatrix n", "identity nvars",
            "pm_from_json n", "poly_from_json coefficient", "perm item",
            "sign item", "sign item bool", "depth", "entry bound", "lambda",
            "p", "epsilon sign", "quadratic p"])
    def test_misread_raises(self, call):
        with pytest.raises((ValueError, TypeError)):
            call()

    def test_whole_numbers_still_read(self):
        assert TruncatedPoly(2.0, {(1, 0): 1}).nvars == 2
        assert PolyMatrix.identity(2, np.int64(3)).nvars == 3
        assert perm_conj((np.int64(2), 1.0, 3), A) == perm_conj((2, 1, 3), A)
        assert sign_conj(np.array([1, -1, 1]), A) == sign_conj((1, -1, 1), A)
        assert len(find_good_quivers(Basis.triangular(3), 1.0, np.int64(3))) == 6


INDEX_SITES = [
    ("vertex", 3, lambda k: mutate(Q, k)),
    ("braid index", 2, lambda k: beta(k, A)),
    ("sign index", 3, lambda k: sign_conj(k, A)),
    ("basis index", 3, lambda k: Basis.triangular(3)[k]),
    ("basis index", 3, lambda k: Basis.triangular(3).diff(k, 1)),
    ("basis index", 3, lambda k: Basis.triangular(3).diff(1, k)),
    ("basis index", 3, lambda k: factor_coefficient(
        k, 1 if k != 1 else 2, Basis.triangular(3), euler_form(Q), 1)),
    ("variable", 2, lambda k: TruncatedPoly.variable(2, k)),
    ("row", 2, lambda k: PolyMatrix.elementary(2, k, 1 if k != 1 else 2, ONE)),
    ("column", 2, lambda k: PolyMatrix.elementary(2, 1 if k != 1 else 2, k, ONE)),
    ("vertex", 3, lambda k: Quiver.from_arrows(3, {(k, 1 if k != 1 else 2): 1})),
    ("vertex", 3, lambda k: Quiver.from_arrows(3, {(1 if k != 1 else 2, k): 1})),
    ("vertex", 3, lambda k: Q.arrows_between(k, 1)),
]
SITE_IDS = ["mutate", "beta", "sign_conj", "Basis[]", "diff i", "diff j",
            "factor_coefficient", "variable", "elementary i", "elementary j",
            "from_arrows u", "from_arrows v", "arrows_between"]


class TestIndexSites:
    @pytest.mark.parametrize("what,n,call", INDEX_SITES, ids=SITE_IDS)
    def test_out_of_range(self, what, n, call):
        for k in (0, n + 1, -1):
            with pytest.raises(ValueError, match=rf"^{what} {k} out of range 1\.\.{n}$"):
                call(k)

    @pytest.mark.parametrize("what,n,call", INDEX_SITES, ids=SITE_IDS)
    @pytest.mark.parametrize("k", [1.5, True, "x"])
    def test_not_an_integer(self, what, n, call, k):
        with pytest.raises(ValueError, match="not an integer"):
            call(k)

    @pytest.mark.parametrize("what,n,call", INDEX_SITES, ids=SITE_IDS)
    def test_first_and_last_index(self, what, n, call):
        for k in (1, n):
            assert call(np.int64(k)) == call(k) == call(float(k))

    def test_rule(self):
        assert _index(np.int64(2), 3, "k") == 2
        assert type(_index(2.0, 3, "k")) is int
        with pytest.raises(ValueError, match=r"^k 4 out of range 1\.\.3$"):
            _index(4, 3, "k")

    def test_variable_and_elementary_place_their_entry(self):
        assert TruncatedPoly.variable(2, 2).terms == {(0, 1): 1}
        m = PolyMatrix.elementary(2, 2, 1, ONE)
        assert m.entries[1][0] == 1 and m.entries[0][1] == 0

    def test_numpy_sign_index(self):
        assert sign_conj(np.int64(2), A) == sign_conj(2, A)


A3 = (Basis.triangular(3), euler_form(Q), DTModel.an_intervals())

# (what, least, call): every size, count and bound read by `_size`
SIZE_SITES = {
    "PolyMatrix.identity n": ("matrix size", 1, lambda k: PolyMatrix.identity(k, 2)),
    "orbit_search depth": ("orbit search depth", 0,
                           lambda k: orbit_search(A, A, depth=k)),
    "orbit_search entry_bound": ("orbit search entry bound", 1,
                                 lambda k: orbit_search(A, A, entry_bound=k)),
    "_Factors": ("truncation order", 1, lambda k: stokes_product(
        *A3, an_chamber(convex_charge(3)), k)),
    "an_stokes": ("rank n", 2, an_stokes),
    "epsilon_solutions": ("rank n", 2, epsilon_solutions),
    "check_quadratic": ("order p", 3, lambda k: check_quadratic(
        Basis.triangular(3), euler_form(Q), k)),
    "verify_braid_group_relations n": ("rank n", 3, verify_braid_group_relations),
    "mutation_class": ("max_size", 1, lambda k: mutation_class(Q, k)),
    "Quiver.from_arrows": ("rank n", 1, lambda k: Quiver.from_arrows(k, {})),
    "linear_quiver": ("rank n", 1, linear_quiver),
    "convex_charge": ("rank n", 1, convex_charge),
    "Basis.triangular": ("rank n", 1, Basis.triangular),
    "Basis.alternating": ("rank n", 1, Basis.alternating),
    "joyce_point": ("variable count", 1, joyce_point),
    "EpsilonTensor.from_dict": ("rank n", 1,
                                lambda k: EpsilonTensor.from_dict(k, [], {})),
    "verify_braid_group_relations samples": (
        "sample count", 0, lambda k: verify_braid_group_relations(3, k)),
    "verify_an_jet samples": ("sample count", 0, lambda k: verify_an_jet(3, k)),
    "enumerate_an_chambers n": ("rank n", 1, lambda k: enumerate_an_chambers(k, 0)),
    "enumerate_an_chambers samples": ("sample count", 0,
                                      lambda k: enumerate_an_chambers(3, k)),
    "TruncatedPoly nvars": ("variable count", 0, lambda k: TruncatedPoly(k, {})),
    "PolyMatrix.identity nvars": ("variable count", 0,
                                  lambda k: PolyMatrix.identity(2, k)),
    "exponent": ("exponent", 0, lambda k: TruncatedPoly(1, {(k,): 1})),
    "arrow multiplicity": ("arrow multiplicity", 0,
                           lambda k: Quiver(((0, k), (0, 0)))),
    "find_good_quivers p": ("order p", 3,
                            lambda k: find_good_quivers(Basis.triangular(3), 1, k)),
}


class TestSizeSites:
    """Every size, count and bound is read by ``_size``: a bool, a fraction
    or a value below the least one raises a one-line ValueError that names
    it, never a TypeError and never a misread."""

    @pytest.mark.parametrize("what,least,call", SIZE_SITES.values(),
                             ids=SIZE_SITES.keys())
    def test_misread_or_too_small(self, what, least, call):
        for k, message in [(True, f"{what} is not an integer: True"),
                           (2.5, f"{what} is not an integer: 2.5"),
                           (least - 1, f"{what} must be at least {least}, "
                                       f"got {least - 1}")]:
            with pytest.raises(ValueError) as info:
                call(k)
            assert str(info.value) == message

    def test_rule(self):
        assert _size(np.int64(3), 3, "k") == 3 and type(_size(3.0, 0, "k")) is int
        with pytest.raises(ValueError, match=r"^k must be at least 1, got 0$"):
            _size("0", 1, "k")

    @pytest.mark.parametrize("what,empty", [
        ("rank n", lambda: Chamber((), ())), ("rank n", lambda: EulerForm(())),
        ("rank n", lambda: Basis([])), ("rank n", lambda: Quiver(())),
        ("matrix size", lambda: PolyMatrix([])), ("rank n", lambda: an_chamber(()))],
        ids=["Chamber", "EulerForm", "Basis", "Quiver", "PolyMatrix", "an_chamber"])
    def test_rank_zero_is_refused(self, what, empty):
        with pytest.raises(ValueError, match=rf"^{what} must be at least 1, got 0$"):
            empty()

    def test_sizes_read_as_integers(self):
        assert linear_quiver(np.int64(3)) == linear_quiver(3.0) == Q
        assert Basis.alternating(3.0) == Basis.alternating(3)
        assert joyce_point(np.int64(2)) == [1, 1]
        assert EpsilonTensor.from_dict(2.0, [(1, 2)], {(1, 2): 1}).n == 2
        report = verify_braid_group_relations(3, 2.0)
        assert report["samples"] == 2 and type(report["samples"]) is int
        assert verify_an_jet(3, np.int64(0))["ok"]

    @pytest.mark.parametrize("call", [lambda k: verify_an_jet(k, 0)],
                             ids=["verify_an_jet n"])
    def test_range_checked_sizes(self, call):
        # a range test follows, so the integer is read by `_as_int`
        for k in (True, 2.5):
            with pytest.raises(ValueError, match=rf"^not an integer: {k}$"):
                call(k)
        assert call(3.0) == call(np.int64(3)) == call(3)


ORDER_SITES = {
    "stokes_product": lambda p: stokes_product(
        *A3, an_chamber(convex_charge(3)), p).product,
    "natural_lifts": lambda p: natural_lifts(*A3, enumerate_an_chambers(3, 20), p),
    "level2_stokes": lambda p: level2_stokes(
        Q, Basis.triangular(3), convex_charge(3), p).product,
    "auto_stokes": lambda p: auto_stokes(Q, Basis.triangular(3), p).product,
}


class TestTruncationOrder:
    """The order p of the Stokes products is read once, by ``_as_int``, and
    the product is truncated with the value read."""

    @pytest.mark.parametrize("site", ORDER_SITES.values(), ids=ORDER_SITES.keys())
    @pytest.mark.parametrize("p", [True, 2.5, "x"])
    def test_misread_order_raises(self, site, p):
        with pytest.raises(ValueError, match="not an integer"):
            site(p)

    @pytest.mark.parametrize("site", ORDER_SITES.values(), ids=ORDER_SITES.keys())
    def test_whole_orders_read_as_integers(self, site):
        for p in (1, 2, 3, 4):
            assert site(np.int64(p)) == site(float(p)) == site(p)

    def test_integer_order_keeps_the_product(self):
        # the A3 chamber product is an_stokes(3), and its jets below order p
        for p in (1, 2, 3, 4):
            assert ORDER_SITES["stokes_product"](p) == an_stokes(3).truncate(p)

    def test_natural_lifts_needs_an_order(self):
        # None means "exact" to the other sites, so it is not one of their
        # misread orders; a lift is taken at some order
        with pytest.raises(ValueError, match=r"^truncation order is not an "
                                             r"integer: None$"):
            ORDER_SITES["natural_lifts"](None)


class TestPairSites:
    """Sign-tensor domains and factor positions read each index with
    ``_index``; a sign tensor's pairs have i < j, a factor's i != j."""

    @pytest.mark.parametrize("build", [
        lambda dom: epsilon_solutions(3, dom),
        lambda dom: EpsilonTensor.from_dict(3, dom, dict.fromkeys(dom, 1)),
    ], ids=["epsilon_solutions", "from_dict"])
    def test_domain_pairs(self, build):
        with pytest.raises(ValueError, match=r"^pair \(2, 1\) must have i < j$"):
            build([(2, 1)])
        with pytest.raises(ValueError, match=r"^pair \(2, 1\) must have i < j$"):
            build([(1, 2), (2, 1)])
        with pytest.raises(ValueError, match=r"^pair \(1, 1\) must have i < j$"):
            build([(1, 1)])
        with pytest.raises(ValueError, match=r"^pair index 7 out of range 1\.\.3$"):
            build([(1, 7)])
        with pytest.raises(ValueError, match="not an integer"):
            build([(1, 2.5)])
        dom = [(1, 2), (2, 3), (1, 3)]
        assert build([(np.int64(i), float(j)) for i, j in dom]) == build(dom)

    def test_factor_positions(self):
        t = an_stokes(3)
        with pytest.raises(ValueError, match=r"^column 5 out of range 1\.\.3$"):
            factor_product(t, [(1, 5)])
        with pytest.raises(ValueError, match=r"^row 0 out of range 1\.\.3$"):
            factor_product(t, [(0, 5)])
        with pytest.raises(ValueError, match=r"^factor position \(1, 1\) is on the diagonal$"):
            factor_product(t, [(1, 2), (1, 1)])
        with pytest.raises(ValueError, match="not an integer"):
            factor_product(t, [(True, 2)])
        pos = [(1, 2), (1, 3), (2, 3)]
        cs = factor_product(t, pos)
        assert factor_product(t, [(np.int64(i), float(j)) for i, j in pos]) == cs
        s1, s2 = TruncatedPoly.variable(3, 1), TruncatedPoly.variable(3, 2)
        assert cs == [-s1, -s1 * s2, -s2]


class TestBraidDirection:
    """A braid move's direction is an integer, +1 or -1, so that
    ``BraidWord.inverse`` inverts every word that applies."""

    A = an_stokes(3).evaluate((1, 1, 1))

    @pytest.mark.parametrize("direction", [0, 2, -2, True, 0.5])
    def test_other_directions_are_refused(self, direction):
        with pytest.raises(ValueError, match="^braid direction must be"):
            apply_move(("braid", 1, direction), self.A)
        with pytest.raises(ValueError, match="^braid direction must be"):
            BraidWord((("braid", 1, direction),)).apply(self.A)

    def test_unit_directions_are_unchanged(self):
        w = BraidWord((("braid", 1, 1), ("braid", 2, -1), ("braid", 1, np.int64(-1)),
                       ("braid", 2, 1.0)))
        assert w.apply(self.A) == beta(2, beta_inv(1, beta_inv(2, beta(1, self.A))))
        assert w.inverse().apply(w.apply(self.A)) == self.A


# (what, call): every sign and braid direction read by `_unit`
UNIT_SITES = {
    "braid direction": ("braid direction",
                        lambda d: apply_move(("braid", 1, d), A)),
    "sign vector entry": ("sign", lambda d: sign_conj((1, d, 1), A)),
    "epsilon sign": ("sign of pair (1, 2)",
                     lambda d: EpsilonTensor.from_dict(2, [(1, 2)], {(1, 2): d})),
    "move_to_json": ("braid direction", lambda d: move_to_json(("braid", 1, d))),
}


class TestUnitSites:
    """Every sign and braid direction is read by ``_unit``: a value other
    than the integer +1 or -1 raises a one-line ValueError that names it."""

    @pytest.mark.parametrize("what,call", UNIT_SITES.values(), ids=UNIT_SITES.keys())
    @pytest.mark.parametrize("value", [0, 2, True, 0.5])
    def test_other_values_are_refused(self, what, call, value):
        with pytest.raises(ValueError) as info:
            call(value)
        assert str(info.value) == f"{what} must be +1 or -1, got {value}"

    @pytest.mark.parametrize("what,call", UNIT_SITES.values(), ids=UNIT_SITES.keys())
    def test_units_read_as_integers(self, what, call):
        for d in (1, -1):
            assert call(np.int64(d)) == call(float(d)) == call(str(d)) == call(d)

    def test_rule(self):
        assert _unit("-1", "k") == -1 and type(_unit(np.int64(1), "k")) is int

    def test_sign_vector_of_wrong_length(self):
        with pytest.raises(ValueError, match=r"^sign vector must consist of \+-1 "
                                             r"of length n$"):
            sign_conj((1, -1), A)


json_atoms = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.sampled_from(["1_0", "٣", "0.5", "1/0", "1,0", "1,0,0", "1", "-1",
                     "1/2"]))
json_values = st.recursive(
    json_atoms,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.sampled_from(["n", "arrows", "rows", "Z", "active",
                                         "dt", "entries", "braid", "dir", "perm",
                                         "sign", "1,0", "1,0,0", "", "1_0"]),
                        inner, max_size=4)),
    max_leaves=16)
reader_inputs = st.one_of(
    json_values,
    st.fixed_dictionaries({}, optional={
        field: json_values for field in ("n", "arrows", "rows", "Z", "active",
                                         "dt", "entries", "braid", "dir", "perm",
                                         "sign")}))

READERS = [quiver_from_json, basis_from_json, chamber_from_json,
           rational_matrix_from_json, functools.partial(poly_from_json, nvars=2),
           functools.partial(pm_from_json, nvars=2), move_from_json]


class TestReaders:
    @settings(max_examples=100, deadline=None)
    @given(reader_inputs)
    @pytest.mark.parametrize("reader", READERS,
                             ids=lambda r: getattr(r, "func", r).__name__)
    def test_reader_returns_or_raises_value_error(self, reader, data):
        try:
            reader(data)
        except ValueError:
            pass

    @pytest.mark.parametrize("call,message", [
        (lambda: poly_from_json([], 1),
         "a polynomial must map exponent text to coefficients, got []"),
        (lambda: poly_from_json({1: "1"}, 1),
         "a polynomial must map exponent text to coefficients, got {1: '1'}"),
        (lambda: pm_from_json({"n": 2, "entries": 5}, 2),
         "field 'entries' must be a list of lists of polynomials"),
        (lambda: pm_from_json({"n": 1, "entries": [[5]]}, 1),
         "a polynomial must map exponent text to coefficients, got 5"),
        (lambda: poly_from_json({"x,0": "1"}, 2), "exponent is not an integer: 'x'"),
        (lambda: poly_from_json({"1,-1": "1"}, 2),
         "exponent must be at least 0, got -1"),
        (lambda: poly_from_json({"1": "1"}, 2), "exponent vector has wrong length"),
        (lambda: poly_from_json({"1,0": "1", "01,0": "2"}, 2),
         "a polynomial names exponent (1, 0) twice"),
        (lambda: poly_from_json({"1,0": "1", "+1,0": "2"}, 2),
         "a polynomial names exponent (1, 0) twice"),
        (lambda: pm_from_json({"n": 2, "entries": [[{}]]}, 1),
         "entries must be an n x n array"),
        (lambda: pm_from_json({"n": 1, "entries": [[{}, {}], [{}, {}]]}, 1),
         "entries must be an n x n array"),
        (lambda: chamber_from_json({"Z": [["-1", "1"], ["0", "1"], ["1", "1"]],
                                    "active": [], "dt": {(1, 0, 0): 1}}),
         "field 'dt' must map classes to counts"),
        (lambda: EpsilonTensor.from_dict(3, [(2, 3), (1, 3), (1, 2)], {(1, 2): 1}),
         "sign of pair (1, 3) is missing"),
        (lambda: EpsilonTensor.from_dict(2, [(1, 2)], [(1, 2)]),
         "eps must map pairs to signs, got [(1, 2)]"),
        (lambda: EpsilonTensor.from_dict(2, [(1, 2)], None),
         "eps must map pairs to signs, got None"),
    ], ids=["poly list", "poly int key", "pm entries", "pm cell", "poly exponent",
            "poly negative exponent", "poly exponent length", "poly padded twice",
            "poly signed twice", "pm n above rows", "pm n below rows",
            "dt tuple key", "epsilon pair", "epsilon list", "epsilon none"])
    def test_library_input_gives_one_line(self, call, message):
        # readers and inputs the CLI never reaches; verify reads bundled data
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message
