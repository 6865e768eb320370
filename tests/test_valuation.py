"""Monomial valuations, initial parts, and exact residue arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from valtwist.graded import in_v
from valtwist.mpoly import (
    Monomial,
    Polynomial,
    RationalFunction,
    _coeff,
    parse_polynomial,
    parse_rational_function,
)
from valtwist.ordgroup import GroupElement
from valtwist.valuation import MonomialValuation, ResidueElement


def P(text):
    return parse_polynomial(text)


def RF(text):
    return parse_rational_function(text)


def _is_initial(v, p):
    """Whether every term of p has the same value (the library no longer needs this)."""
    if p.is_zero():
        return False
    return len(set(map(v._lattice, p.terms))) == 1


@pytest.fixture
def v():
    # v(x) = 1, v(y) = 1/2 on Q(x, y)
    return MonomialValuation({"x": 1, "y": Fraction(1, 2)})


@pytest.fixture
def vlex():
    return MonomialValuation({"x": (1, 0), "y": (0, 1)})


class TestValues:
    def test_monomial_value(self, v):
        assert v.monomial_value(Monomial((("x", 2), ("y", 1)))) == GroupElement(
            Fraction(5, 2)
        )
        assert v.monomial_value(Monomial()) == GroupElement(0)

    def test_polynomial_value_is_min(self, v):
        assert v.polynomial_value(P("x + y")) == GroupElement(Fraction(1, 2))
        assert v.polynomial_value(P("3")) == GroupElement(0)
        with pytest.raises(ValueError):
            v.polynomial_value(Polynomial.zero())

    def test_fraction_value_is_difference(self, v):
        assert v.value(RF("x^2 + x*y / y")) == GroupElement(1)
        assert v.value(P("x")) == GroupElement(1)
        assert v.value(Fraction(7)) == GroupElement(0)
        with pytest.raises(ValueError):
            v.value(0)

    def test_lex_values(self, vlex):
        assert vlex.value(RF("x / y")) == GroupElement((1, -1))
        assert vlex.polynomial_value(P("x + y")) == GroupElement((0, 1))

    def test_unknown_variable_rejected(self, v):
        with pytest.raises(ValueError):
            v.value(P("z"))

    def test_weights_must_share_dimension(self):
        with pytest.raises(Exception):
            MonomialValuation({"x": (1, 0), "y": 1})


class TestInitialParts:
    def test_initial_part_keeps_minimal_terms(self, v):
        assert v.initial_part(P("x + y")) == P("y")
        assert v.initial_part(P("x^2 + x*y + y^2")) == P("y^2")
        # x and y^2 share the value 1, so both survive
        assert v.initial_part(P("x + y^2 + x^2")) == P("x + y^2")
        assert v.initial_part(P("x")) == P("x")

    def test_is_initial(self, v):
        assert _is_initial(v, P("x + y^2"))
        assert not _is_initial(v, P("x + y"))

    def test_initial_rf(self, v):
        f = v.initial_rf(RF("x + y / x^2 + x*y"))
        assert f == RF("y / x*y")
        assert v.initial_rf(RF("x / y")) == RF("x / y")

    def test_in_eq_oracles(self, v):
        assert v.in_eq(RF("x + y"), RF("y"))
        assert not v.in_eq(RF("x"), RF("y"))
        assert v.in_eq(RF("x"), RF("x"))
        # equal values but different initial parts
        assert not v.in_eq(RF("y"), RF("2*y"))

    def test_in_eq_is_an_equivalence(self, v):
        a, b, c = RF("y + x"), RF("y + x^2"), RF("y")
        assert v.in_eq(a, b) and v.in_eq(b, c) and v.in_eq(a, c)


class TestResidues:
    def test_residue_requires_value_zero(self, v):
        with pytest.raises(ValueError):
            v.residue(RF("x / y"))

    def test_residue_of_a_quotient_of_nonzero_value_names_it(self, v):
        # multi-term factors on both sides: v(x + y) = 1/2, v(x*y + x^2) = 3/2
        with pytest.raises(ValueError, match="value-zero element, got value -1$"):
            v.residue(RF("x + y / x*y + x^2"))
        with pytest.raises(ValueError, match="got value -1/2$"):
            v.residue(RF("3*x^2 - x*y / 2*x^2 + x^3"))
        with pytest.raises(ValueError):
            v.residue(0)

    def test_residue_of_factors_is_residue_of_their_quotient(self, v):
        a, b, c = RF("y + x / x"), RF("3*y^3 - x^2 / y + x^3"), RF("2*y^3 + x^2 / x")
        got = v.residue(a, b, over=(c,))
        want = v.residue(a * b / c)
        assert got == want and str(got.rep()) == str(want.rep())
        assert v.residue(1, over=(RF("y^2 / x"),)) == v.residue(RF("x / y^2"))
        with pytest.raises(ValueError, match="got value 1/2$"):
            v.residue(a, b)

    def test_residue_of_constant_quotient(self, v):
        r = v.residue(RF("2*x + x^2 / x"))
        assert r.const == 2
        assert r == 2

    def test_residue_equality_is_cross_product(self, v):
        a = v.residue(RF("y^2 / x"))
        assert a == v.residue(RF("2*y^4 / 2*x*y^2"))
        assert a != v.residue(RF("2*y^2 / x"))

    def test_residue_arithmetic(self, v):
        a = v.residue(RF("y^2 / x"))
        assert str((a * a).rep()) == "y^4 / x^2"
        assert a * a.inv() == 1
        assert (a - a).is_zero()
        assert a + a == v.residue(RF("2*y^2 / x"))
        assert a ** 2 == a * a
        assert a ** -1 == a.inv()
        assert (-a) + a == v.residue_zero()

    def test_residue_sum_can_drop_to_zero_class(self, v):
        a = v.residue(RF("y^2 / x"))
        b = v.residue(RF("-y^2 + y^3 / x"))
        # initial parts cancel exactly
        assert (a + b).is_zero()

    def test_zero_class_behavior(self, v):
        z = v.residue_zero()
        assert z.is_zero() and str(z) == "0"
        a = v.residue(RF("y^2 / x"))
        assert a + z == a and a * z == z
        with pytest.raises(ZeroDivisionError):
            z.inv()

    def test_residue_constants(self, v):
        assert v.residue_one() == 1
        assert v.residue_constant(Fraction(-3, 4)).const == Fraction(-3, 4)
        assert v.residue_constant(0).is_zero()

    def test_inexact_residue_constant_rejected(self, v):
        with pytest.raises(TypeError, match="0.1"):
            v.residue_constant(0.1)
        assert type(v.residue_constant(Fraction(6, 3)).const) is int

    def test_as_rational_none_for_non_constant(self, v):
        assert v.residue(RF("y^2 / x")).const is None

    def test_nth_root(self, v):
        sq = v.residue(RF("y^4 / x^2"))
        assert sq.nth_root(2) == RF("y^2 / x")
        assert v.residue(RF("y^2 / x")).nth_root(2) is None
        assert v.residue_zero().nth_root(2) is None

    def test_rational_class_behind_a_common_factor(self):
        # (x + y)(x - y) / (x^2 - y^2) is 1, though no monomial cancels it
        v = MonomialValuation({"x": 1, "y": 1})
        r = v.residue(RF("x + y"), RF("x - y"), over=(RF("x^2 - y^2"),))
        assert r.const == 1 and str(r) == "1"
        assert r == v.residue_one()
        assert r.nth_root(2) == 1

    def test_root_of_a_rational_class_is_decided_in_q(self):
        v = MonomialValuation({"x": 1, "y": 1})
        r = v.residue(RF("4*x + 4*y"), over=(RF("x + y"),))
        assert r.const == 4
        assert r.nth_root(2) == 2
        assert r.nth_root(3) is None and (-r).nth_root(2) is None

    def test_valuations_compare_by_weights(self, v):
        assert v == MonomialValuation({"x": 1, "y": Fraction(1, 2)})
        assert v != MonomialValuation({"x": 1, "y": 1})
        assert hash(v) == hash(MonomialValuation({"y": Fraction(1, 2), "x": 1}))


_names = st.sampled_from(["x", "y"])
_monos = st.dictionaries(_names, st.integers(1, 3), max_size=2).map(
    lambda d: Monomial(tuple(d.items()))
)
_coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool)
_polys = st.dictionaries(_monos, _coeffs, min_size=1, max_size=3).map(Polynomial._raw)


@given(_polys, _polys)
def test_value_is_multiplicative(p, q):
    v = MonomialValuation({"x": 1, "y": Fraction(1, 2)})
    assert v.polynomial_value(p * q) == v.polynomial_value(p) + v.polynomial_value(q)


@given(_polys, _polys)
def test_initial_part_is_multiplicative(p, q):
    v = MonomialValuation({"x": 1, "y": Fraction(1, 2)})
    assert v.initial_part(p * q) == v.initial_part(p) * v.initial_part(q)


@given(_polys, _polys)
def test_value_of_sum_at_least_min(p, q):
    v = MonomialValuation({"x": 1, "y": Fraction(1, 2)})
    s = p + q
    if not s.is_zero():
        assert v.polynomial_value(s) >= min(
            v.polynomial_value(p), v.polynomial_value(q)
        )


# v(x) = v(y) = 1 and v(z) = 2, so x/y and z/x^2 are value-zero monomials
# that do not cancel, next to the cancelling ones
_vxyz = MonomialValuation({"x": 1, "y": 1, "z": 2})
_xyz_monos = st.dictionaries(
    st.sampled_from(["x", "y", "z"]), st.integers(1, 2), max_size=2
).map(lambda d: Monomial(tuple(d.items())))
_rational_coeffs = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
).filter(bool)
_one_term = st.builds(
    lambda m, c, n, d: RationalFunction(Polynomial.term(m, c), Polynomial.term(n, d)),
    _xyz_monos, _rational_coeffs, _xyz_monos, _rational_coeffs,
)
# the part of h that f*g does not supply: 1 (the monomials cancel), a
# value-zero quotient that does not cancel, or one of nonzero value
_leftover = st.sampled_from(["1", "1", "1", "x / y", "z / x^2", "y^2 / z", "x", "1 / z"])


def _terms(p: Polynomial):
    return [(m, c, type(c)) for m, c in p.terms.items()]


@given(_one_term, _one_term, _rational_coeffs, _leftover)
def test_residue_constant_lane_matches_the_general_path(f, g, c, leftover):
    h = f * g * c * RF(leftover)
    # the general path: the products of the factors' initial parts, in the
    # order residue forms them (factors equal to 1 are skipped)
    num, _ = _vxyz._initial_product([f.num, g.num, h.den])
    den, _ = _vxyz._initial_product([f.den, g.den, h.num])
    want = ResidueElement._make(_vxyz, RationalFunction(num, den))
    if _vxyz.value(f * g / h) != _vxyz.group_zero:
        with pytest.raises(ValueError, match="value-zero element"):
            _vxyz.residue(f, g, over=(h,))
        return
    got = _vxyz.residue(f, g, over=(h,))
    assert _terms(got.rep().num) == _terms(want.rep().num)
    assert _terms(got.rep().den) == _terms(want.rep().den)
    assert got.const == want.const and type(got.const) is type(want.const)
    assert (got.const is not None) == (leftover == "1")
    assert str(got) == str(want) and got.const == want.const


# One factor over one factor, the shape of a ψ coefficient, is decided on
# monomial keys.  The x, y, z side of _vkeys has a kernel (v(x) = v(y) = 1,
# v(z) = 2); u and w sit on the other side, so the two sides never cancel.
_vkeys = MonomialValuation({"x": 1, "y": 1, "z": 2, "u": 1, "w": Fraction(1, 2)})
_uw_monos = st.dictionaries(
    st.sampled_from(["u", "w"]), st.integers(1, 2), max_size=2
).map(lambda d: Monomial(tuple(d.items())))
# a factor that both parts carry before normalization cancels
_shared_monos = st.dictionaries(
    st.sampled_from(["x", "y", "z", "u", "w"]), st.integers(1, 2), max_size=3
).map(lambda d: Monomial(tuple(d.items())))
# (p, q): equal monomials, distinct ones of equal value, or unequal values
_key_pairs = st.sampled_from([
    ("1", "1"), ("x", "x"), ("z", "z"), ("x", "y"), ("x^2", "z"), ("z", "y^2"),
    ("x*y", "z"), ("x^2", "y^2"), ("x", "z"), ("1", "y"),
])


def _mono(text):
    (m,) = P(text).terms
    return m


def _one_term_quotient(top, top_c, bottom, bottom_c, flip):
    top, bottom = Polynomial.term(top, top_c), Polynomial.term(bottom, bottom_c)
    return RationalFunction(bottom, top) if flip else RationalFunction(top, bottom)


@given(_uw_monos, _xyz_monos, _key_pairs, _shared_monos, _shared_monos,
       st.lists(_rational_coeffs, min_size=4, max_size=4), st.booleans())
def test_one_term_residue_by_monomial_keys_matches_the_general_path(m, base, pq, k, l, cs, flip):
    # f = m/(base·p) and g = m/(base·q), each before cancelling k or l; with
    # flip, the parts swap, so the numerator keys differ instead
    p, q = _mono(pq[0]), _mono(pq[1])
    f = _one_term_quotient(m.mul(k), cs[0], base.mul(p).mul(k), cs[1], flip)
    g = _one_term_quotient(m.mul(l), cs[2], base.mul(q).mul(l), cs[3], flip)
    if _vkeys.value(f) != _vkeys.value(g):
        diff = _vkeys.value(f / g)
        with pytest.raises(ValueError, match=f"^residue needs a value-zero element, got value {diff}$"):
            _vkeys.residue(f, over=(g,))
        return
    num, _ = _vkeys._initial_product([f.num, g.den])
    den, _ = _vkeys._initial_product([f.den, g.num])
    want = ResidueElement._make(_vkeys, RationalFunction(num, den))
    got = _vkeys.residue(f, over=(g,))
    assert (got.const is not None) == (p == q) == (want.const is not None)
    assert got.const == want.const and type(got.const) is type(want.const)
    assert got == want and str(got) == str(want)
    assert _terms(got.rep().num) == _terms(want.rep().num)
    assert _terms(got.rep().den) == _terms(want.rep().den)


_constant_classes = st.builds(
    lambda f, c: _vxyz.residue(f, over=(f * c,)),
    _one_term,
    st.one_of(st.integers(-3, 3), st.sampled_from([Fraction(1, 2), Fraction(-2, 3)])).filter(bool),
) | st.just(_vxyz.residue_zero())


@given(_constant_classes, _constant_classes)
def test_constant_class_arithmetic_matches_rational_functions(a, b):
    assert a.const is not None and b.const is not None
    for got, want in ((a * b, a.rep() * b.rep()), (a + b, a.rep() + b.rep()), (-a, -a.rep())):
        assert got.const is not None
        assert got.rep() == want and str(got) == str(want)
        assert type(got.const) is (int if got.const.denominator == 1 else Fraction)
    assert (a == b) == (a.rep() == b.rep())


# --- lazy constant classes ---------------------------------------------------
#
# A constant class leaves its quotient unbuilt until rep() is first read;
# what it then shows must be the eager form c / 1 (0 / 1 for zero),
# coefficient types included.

_class_constants = st.one_of(
    st.integers(-10**20, 10**20),
    st.fractions(min_value=-50, max_value=50, max_denominator=60),
)


@given(_class_constants, st.sampled_from(["eq", "str", "rep", "const"]))
def test_lazy_constant_classes_match_the_eager_form(c, first_read):
    c = _coeff(c)
    num, den = Polynomial({Monomial(): c} if c else {}), Polynomial.one()
    eager_rep = RationalFunction(0) if c == 0 else RationalFunction(num, den)
    classes = [
        _vxyz.residue_constant(c),
        _vxyz.residue_constant(Fraction(c)),
        _vxyz.residue_one() * c,
        -_vxyz.residue_constant(-c),
    ]
    if c == 0:
        u = _vxyz.residue(RF("3*x / 2*y"))
        classes += [_vxyz.residue_zero(), u - u]
    else:
        classes += [
            _vxyz.residue(RF(f"{c}*x / y"), over=(RF("x / y"),)),  # the residue lane
            _vxyz.residue(RF("x + z"), over=(RF(f"x / {c}"),)),  # the general path
        ]
    for r in classes:
        assert r._rep is None  # not built yet
        assert r.is_zero() == (c == 0) and r.const == c and type(r.const) is type(c)
        # the first read builds the quotient, whichever method reads it
        if first_read == "eq":
            assert r != _vxyz.residue(RF("x / y"))
        elif first_read == "str":
            assert str(r) == ("0" if c == 0 else str(eager_rep))
        elif first_read == "rep":
            assert _terms(r.rep().num) == _terms(eager_rep.num)
        elif first_read == "const":
            assert r.const == c and type(r.const) is type(c)
        assert _terms(r.rep().num) == _terms(num) and _terms(r.rep().den) == _terms(den)
        assert _terms(r.rep().num) == _terms(eager_rep.num)
        assert _terms(r.rep().den) == _terms(eager_rep.den)
        assert str(r) == ("0" if c == 0 else str(eager_rep))
        assert r.const == c and type(r.const) is type(c)


def test_unset_attributes_other_than_num_and_den_still_raise():
    r = _vxyz.residue_constant(3)
    with pytest.raises(AttributeError, match="no attribute 'numerator'"):
        r.numerator
    non_constant = _vxyz.residue(RF("x / y"))
    assert non_constant.const is None and str(non_constant) == "x / y"


@pytest.mark.parametrize("make", [
    lambda: _vxyz.residue_constant(Fraction(-3, 2)),
    lambda: _vxyz.residue(RF("x + y"), over=(RF("2*x"),)),
], ids=["rational", "not_rational"])
def test_rep_is_built_once(make):
    r = make()
    first = r.rep()
    assert r.rep() is first
    assert str(r) == str(first) and r.rep() is first


# --- the monomial value memo --------------------------------------------------

_memo_valuation_weights = {"x": (1, 0), "y": (Fraction(1, 2), -1), "z": (0, Fraction(2, 3))}
_memo_monos = st.dictionaries(
    st.sampled_from(["x", "y", "z"]), st.integers(1, 3), max_size=3
).map(lambda d: Monomial(tuple(d.items())))


@given(st.lists(_memo_monos, min_size=1, max_size=12))
def test_lattice_memo_agrees_with_a_fresh_computation(monos):
    v = MonomialValuation(_memo_valuation_weights)
    # a second round of rebuilt, equal monomials reads what the first stored
    for m in monos + [Monomial(m.exps) for m in monos]:
        fresh = sum((e * v.weights[var] for var, e in m.exps), v.group_zero)
        assert v.monomial_value(m) == fresh
        assert v._lattice(m) == MonomialValuation(_memo_valuation_weights)._lattice(m)
    # a variable without a weight raises on every call, memo or not
    for _ in range(2):
        with pytest.raises(ValueError, match="no weight configured for variable 'w'"):
            v.monomial_value(Monomial((("x", 1), ("w", 1))))


# --- in_eq on lattice values, and interned degrees ------------------------------

# weights with a kernel, so that distinct monomials share values: x/y and
# z/x^2 have value 0 in dimension 1, and z/(x*y) has value 0 under lex in Q^2
_kernel_valuations = st.sampled_from([
    MonomialValuation({"x": 1, "y": 1, "z": 2}),
    MonomialValuation({"x": (1, 0), "y": (0, 1), "z": (1, 1)}),
])
_kernel_polys = st.dictionaries(
    _xyz_monos, st.integers(-2, 2).filter(bool), min_size=1, max_size=3
).map(Polynomial._raw)
_quotients = st.builds(RationalFunction, _kernel_polys, _kernel_polys)


@st.composite
def _in_eq_pairs(draw):
    """A quotient x and a second one that often shares x's value or initial form."""
    x = draw(_quotients)
    how = draw(st.sampled_from(["other", "shifted", "scaled", "same"]))
    if how == "other":
        y = draw(_quotients)
    elif how == "shifted":  # x + d: d may cancel x's initial form, or sit above or below it
        y = x + draw(_quotients)
        assume(not y.is_zero())
    elif how == "scaled":
        y = x * draw(st.sampled_from([2, -1, Fraction(1, 3)]))
    else:
        y = RationalFunction(x.num.scale(3), x.den.scale(3))
    return x, y


@given(_kernel_valuations, _in_eq_pairs())
def test_in_eq_matches_its_definition(v, pair):
    x, y = pair
    want = v.value(x) == v.value(y) and ((x - y).is_zero() or v.value(x - y) > v.value(x))
    assert v.in_eq(x, y) == want
    assert v.in_eq(y, x) == want


def test_in_eq_of_zero_raises():
    v = MonomialValuation({"x": 1, "y": 1, "z": 2})
    for x, y in ((0, RF("x")), (RF("x"), 0), (RF("x - x"), RF("y"))):
        with pytest.raises(ValueError, match="^zero has no value$"):
            v.in_eq(x, y)


@given(_kernel_valuations, _quotients, _kernel_polys, _xyz_monos)
def test_degrees_are_interned(v, f, p, m):
    # the degree read off the initial parts equals the full scan of the representative
    h = in_v(v, f)
    assert h.degree == v.value(f) and h.degree is v.value(f)
    # equal degrees are one object, whichever entry point reads them
    t = Polynomial.term(m, 3)
    assert v.polynomial_value(p) is v.value(p) is v.value(RationalFunction(p * t, t))
    assert v.monomial_value(m) is v.polynomial_value(t)
    assert v.value(1) is v.group_zero is v.monomial_value(Monomial())
    assert v.value(RF("z / x*y") if v.dim == 2 else RF("x / y")) is v.group_zero
