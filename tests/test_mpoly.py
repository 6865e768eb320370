"""Multivariate polynomials, rational functions, exact roots, and the text grammar."""

import re
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from valtwist.mpoly import (
    Monomial,
    Polynomial,
    RationalFunction,
    _div,
    _rational_nth_root,
    nth_root,
    parse_polynomial,
    parse_rational_function,
    rf_nth_root,
)


def P(text):
    return parse_polynomial(text)


def RF(text):
    return parse_rational_function(text)


# helpers the library no longer needs; the tests and references below use them


def _monomial_pow(m, n):
    if n < 0:
        raise ValueError("monomial powers must be non-negative")
    if n == 0 or not m.exps:
        return Monomial()
    return Monomial._raw(tuple((var, e * n) for var, e in m.exps))


def _monomial_root(m, n):
    if any(e % n for _, e in m.exps):
        return None
    return Monomial._raw(tuple((var, e // n) for var, e in m.exps))


def _trailing(p):
    if not p.terms:
        raise ValueError("the zero polynomial has no trailing term")
    m = min(p.terms)
    return m, p.terms[m]


def _numeric_content(p):
    """Positive rational g with p/g integral, primitive; 0 for the zero polynomial."""
    if not p.terms:
        return 0
    num = gcd(*(c.numerator for c in p.terms.values()))
    den = lcm(*(c.denominator for c in p.terms.values()))
    return _div(num, den)


class TestMonomial:
    def test_sorted_natural_variable_order(self):
        m = Monomial((("x10", 1), ("y", 2), ("x2", 3), ("x", 1)))
        assert str(m) == "x*x2^3*x10*y^2"

    def test_duplicates_merge(self):
        assert Monomial((("x", 1), ("x", 2))) == Monomial((("x", 3),))

    def test_zero_exponents_drop(self):
        assert Monomial((("x", 1), ("y", 0))) == Monomial((("x", 1),))
        assert Monomial().is_one()

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            Monomial((("x", -1),))

    def test_non_integer_exponent_rejected(self):
        with pytest.raises(TypeError):
            Monomial((("x", Fraction(1, 2)),))

    def test_mul_pow_div(self):
        m1 = Monomial((("x", 2), ("y", 1)))
        m2 = Monomial((("y", 2), ("z", 3)))
        assert str(m1.mul(m2)) == "x^2*y^3*z^3"
        assert _monomial_pow(m1, 3) == Monomial((("x", 6), ("y", 3)))
        assert _monomial_pow(m1, 0).is_one()
        assert m1.div(Monomial((("x", 1),))) == Monomial((("x", 1), ("y", 1)))
        assert m1.div(m2) is None

    def test_gcd_root_degree(self):
        m1 = Monomial((("x", 2), ("y", 1)))
        m2 = Monomial((("y", 2), ("z", 3)))
        assert m1.gcd(m2) == Monomial((("y", 1),))
        assert _monomial_root(Monomial((("x", 4), ("y", 2))), 2) == m1
        assert _monomial_root(Monomial((("x", 3),)), 2) is None
        assert m1.degree() == 3

    def test_lex_order(self):
        x, y = Monomial((("x", 1),)), Monomial((("y", 1),))
        # a power of an earlier variable dominates
        assert x > y
        assert Monomial((("x", 2),)) > x
        assert Monomial() < y
        assert Monomial((("x", 1), ("y", 5))) < Monomial((("x", 2),))


class TestPolynomial:
    def test_parse_str_round_trip_oracles(self):
        for text in (
            "x^2 + 2*x*y + y^2",
            "-x + 3",
            "1/2*x - 3/4",
            "2*x2^3*y",
            "x - y",
            "0",
            "7",
        ):
            assert str(P(text)) == text

    def test_arithmetic_oracles(self):
        x = Polynomial.variable("x")
        assert str((x + 1) ** 3) == "x^3 + 3*x^2 + 3*x + 1"
        assert str(P("x + y") * P("x - y")) == "x^2 - y^2"
        assert (P("x + y") - P("y")) == x
        assert (P("x") * 0).is_zero()

    def test_coercion_with_scalars(self):
        assert P("x") + 1 == P("x + 1")
        assert 2 * P("x") == P("2*x")
        assert Fraction(1, 2) * P("x") == P("1/2*x")
        assert 1 - P("x") == P("-x + 1")

    def test_leading_trailing(self):
        p = P("x^2*y + x*y^3 + y^5")
        assert str(p.leading()[0]) == "x^2*y"
        assert str(_trailing(p)[0]) == "y^5"
        with pytest.raises(ValueError):
            Polynomial.zero().leading()

    def test_total_degree(self):
        assert P("x^2*y + y").total_degree() == 3
        with pytest.raises(ValueError):
            Polynomial.zero().total_degree()

    def test_contents(self):
        assert str(P("x^2*y + x*y^2").monomial_content()) == "x*y"
        assert P("x + y^2").monomial_content().is_one()
        assert _numeric_content(P("2*x + 4*y")) == 2
        assert _numeric_content(P("1/2*x + 3/4*y")) == Fraction(1, 4)
        assert _numeric_content(Polynomial.zero()) == 0

    def test_divide_monomial(self):
        q = P("x^2*y + x*y^2").divide_monomial(Monomial((("x", 1), ("y", 1))))
        assert q == P("x + y")
        with pytest.raises(ValueError):
            P("x + y").divide_monomial(Monomial((("x", 1),)))

    def test_constants(self):
        assert Polynomial.constant(0).is_zero()
        assert Polynomial.constant(Fraction(2, 3)).constant_value() == Fraction(2, 3)
        assert not P("x").is_constant()
        with pytest.raises(ValueError):
            P("x").constant_value()

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            P("x") ** -1

    def test_inexact_coefficients_rejected(self):
        m = Monomial((("x", 1),))
        for build in (
            lambda: Polynomial.constant(0.1),
            lambda: Polynomial.term(m, 0.1),
            lambda: P("x + 1").scale(0.1),
            lambda: Polynomial([(m, 0.1)]),
        ):
            with pytest.raises(TypeError, match="0.1"):
                build()

    def test_integral_coefficients_are_ints(self):
        m = Monomial((("x", 1),))
        for p in (
            Polynomial.constant(Fraction(4, 2)),
            Polynomial.term(m, Fraction(-3)),
            Polynomial([(m, Fraction(1, 2)), (m, Fraction(1, 2))]),
            P("4/2*x + 3"),
            P("1/2*x + 1").scale(2),
            Polynomial.one(),
            Polynomial.variable("x"),
        ):
            assert all(type(c) is int for c in p.terms.values()), repr(p)
        assert type(P("1/2*x").terms[m]) is Fraction
        f = RF("x / 2*y + 4")
        assert str(f) == "1/2*x / y + 2"
        assert type(f.den.leading()[1]) is int and type(_trailing(f.den)[1]) is int

    def test_exact_division_never_gives_a_float(self):
        assert type(RationalFunction(2).constant_value()) is int
        c = RationalFunction(Polynomial.constant(2), Polynomial.constant(4)).constant_value()
        assert c == Fraction(1, 2) and type(c) is Fraction
        assert type(_numeric_content(P("2*x + 4*y"))) is int
        assert nth_root(P("1/4*x^2 + x + 1"), 2) in (P("1/2*x + 1"), P("-1/2*x - 1"))


class TestGrammar:
    def test_slash_between_integers_is_a_coefficient(self):
        assert P("1/2*x + 3") == Polynomial.variable("x").scale(Fraction(1, 2)) + 3

    def test_any_other_slash_is_a_fraction_bar(self):
        f = RF("x / y")
        assert str(f.num) == "x" and str(f.den) == "y"
        # name-slash-digit is a bar too, not a coefficient
        assert RF("x / 2") == RationalFunction(P("1/2*x"))

    def test_polynomial_parser_rejects_bars(self):
        with pytest.raises(ValueError):
            parse_polynomial("x / y")

    def test_single_bar_only(self):
        with pytest.raises(ValueError):
            RF("x / y / z")

    def test_rational_exponent_rejected(self):
        for bad in ("x^2/3", "x^4/2", "x^6/3*y"):
            with pytest.raises(ValueError, match="exponents must be positive integers"):
                RF(bad)

    def test_zero_denominators_are_malformed(self):
        for bad in ("64/0*z^6", "z^6 / 0", "z^6 / z - z"):
            with pytest.raises(ValueError, match="zero denominator in '"):
                RF(bad)
        with pytest.raises(ValueError, match="zero denominator in '1/0'"):
            P("1/0")

    def test_malformed_inputs(self):
        for bad in ("", "x +", "(x)", "x^-1", "x^0", "2x", "x*", "^2"):
            with pytest.raises(ValueError):
                RF(bad)

    def test_rf_round_trip_oracles(self):
        for text in ("x*y / z", "1/2 / x", "1/2*x / y", "x^2 - y^2", "-3/4"):
            assert str(RF(text)) == text


class TestRationalFunction:
    def test_monomial_content_cancellation(self):
        assert str(RF("x^2*y / x*z")) == "x*y / z"

    def test_denominator_made_monic(self):
        f = RF("2*x / 4*y")
        assert str(f.den) == "y" and str(f.num) == "1/2*x"

    def test_zero_normalizes(self):
        f = RationalFunction(Polynomial.zero(), P("x + y"))
        assert f.is_zero() and str(f.den) == "1"

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RationalFunction(P("x"), Polynomial.zero())

    def test_cross_product_equality(self):
        assert RF("4*x^2 / 2*x") == RF("2*x")
        assert RF("x / y") != RF("y / x")
        assert RF("x^2 - y^2 / x - y") == RF("x + y")

    def test_arithmetic(self):
        assert RF("1 / x") + RF("1 / y") == RF("x + y / x*y")
        assert RF("x / y") * RF("y / x") == RationalFunction(1)
        assert RF("x / y").inv() == RF("y / x")
        assert RF("x / y") ** -2 == RF("y^2 / x^2")
        assert RF("x") / RF("y") == RF("x / y")
        assert RF("x / y") - RF("x / y") == RationalFunction(0)

    def test_total_degree_on_cancelled_representation(self):
        assert RF("x2^2 / x3^3").total_degree() == 3
        assert RF("x^2*y / x*y").total_degree() == 1  # cancels to x
        with pytest.raises(ValueError):
            RationalFunction(0).total_degree()

    def test_is_polynomial(self):
        assert RF("x^2 + 1").is_polynomial()
        assert not RF("1 / x").is_polynomial()


class TestNthRoot:
    def test_oracles(self):
        assert nth_root(P("x^2 + 2*x*y + y^2"), 2) in (P("x + y"), P("-x - y"))
        assert nth_root(P("x^3"), 3) == P("x")
        assert nth_root(Polynomial.constant(8), 3) == Polynomial.constant(2)
        assert nth_root(P("x + y") ** 5, 5) == P("x + y")

    def test_rational_coefficients(self):
        p = P("1/2*x + 1/3")
        assert nth_root(p ** 3, 3) == p

    def test_not_a_power(self):
        assert nth_root(P("x^2 + y^2"), 2) is None
        assert nth_root(P("x^2 + 2*x*y + y^2 + 1"), 2) is None
        assert nth_root(Polynomial.constant(-4), 2) is None
        assert nth_root(P("x^3"), 2) is None

    def test_rf_roots(self):
        assert rf_nth_root(RF("x^2 / y^2"), 2) == RF("x / y")
        assert rf_nth_root(RF("4*x^2 / 9*y^4"), 2) == RF("2*x / 3*y^2")
        assert rf_nth_root(RF("x / y"), 2) is None
        assert rf_nth_root(RF("8*x^3"), 3) == RF("2*x")


_names = st.sampled_from(["x", "y", "x2"])
_monos = st.dictionaries(_names, st.integers(1, 3), max_size=2).map(
    lambda d: Monomial(tuple(d.items()))
)
_coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool)
_polys = st.dictionaries(_monos, _coeffs, min_size=1, max_size=4).map(Polynomial)


@given(_polys)
def test_polynomial_text_round_trip(p):
    assert parse_polynomial(str(p)) == p


@given(_polys, _polys)
def test_total_degree_multiplicative(p, q):
    assert (p * q).total_degree() == p.total_degree() + q.total_degree()


@settings(max_examples=50)
@given(_polys, st.sampled_from([2, 3]))
def test_nth_root_recovers_perfect_powers(p, n):
    g = nth_root(p ** n, n)
    assert g is not None
    assert g == p or (n % 2 == 0 and g == -p)


@given(_polys, _polys.filter(lambda q: not q.is_zero()))
def test_rf_text_round_trip(p, q):
    f = RationalFunction(p, q)
    assert parse_rational_function(str(f)) == f


# --- differential oracle against sympy ---------------------------------------
#
# Coefficients mix ints and Fractions and enter through the coercing list
# constructor; every operation is replayed in sympy and compared there.

_mixed_coeffs = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
).filter(bool)
_mixed_polys = st.dictionaries(_monos, _mixed_coeffs, min_size=1, max_size=4).map(
    lambda d: Polynomial(list(d.items()))
)


@pytest.fixture(scope="module")
def sp():
    return pytest.importorskip("sympy")


def _to_sympy(sp, x):
    if isinstance(x, RationalFunction):
        return _to_sympy(sp, x.num) / _to_sympy(sp, x.den)
    total = sp.Integer(0)
    for mono, c in x.terms.items():
        term = sp.Rational(c.numerator, c.denominator)
        for var, e in mono.exps:
            term *= sp.Symbol(var) ** e
        total += term
    return total


def _assert_exact(p):
    for c in p.terms.values():
        assert type(c) in (int, Fraction), f"{c!r} in {p} is a {type(c).__name__}"
    assert parse_polynomial(str(p)) == p


def _assert_exact_rf(f):
    _assert_exact(f.num)
    _assert_exact(f.den)
    assert parse_rational_function(str(f)) == f


@settings(max_examples=150, deadline=None)
@given(_mixed_polys, _mixed_polys)
def test_polynomial_ring_matches_sympy(sp, p, q):
    for r, expected in ((p + q, _to_sympy(sp, p) + _to_sympy(sp, q)),
                        (p * q, _to_sympy(sp, p) * _to_sympy(sp, q)),
                        (p - q, _to_sympy(sp, p) - _to_sympy(sp, q))):
        _assert_exact(r)
        assert sp.expand(_to_sympy(sp, r) - expected) == 0
    assert (p == q) == (sp.expand(_to_sympy(sp, p) - _to_sympy(sp, q)) == 0)
    # equal polynomials reached two ways
    assert (p + q) * p == p * p + q * p


@settings(max_examples=100, deadline=None)
@given(_mixed_polys, _mixed_polys, _mixed_polys, _mixed_polys)
def test_rational_function_product_and_equality_match_sympy(sp, a, b, c, d):
    f, g = RationalFunction(a, b), RationalFunction(c, d)
    fg = f * g
    _assert_exact_rf(f)
    _assert_exact_rf(fg)
    expected = _to_sympy(sp, a) * _to_sympy(sp, c) / (_to_sympy(sp, b) * _to_sympy(sp, d))
    assert sp.cancel(_to_sympy(sp, fg) - expected) == 0
    same = sp.cancel(_to_sympy(sp, f) - _to_sympy(sp, g)) == 0
    assert (f == g) == same
    # a common factor that is not a monomial is not cancelled, yet compares equal
    assert RationalFunction(a * c, b * c) == f
    assert fg / g == f


@settings(max_examples=60, deadline=None)
@given(_mixed_polys, st.sampled_from([2, 3, 4]))
def test_nth_root_of_perfect_powers_round_trips(sp, p, n):
    f = p ** n
    _assert_exact(f)
    g = nth_root(f, n)
    assert g is not None
    _assert_exact(g)
    assert g == p or (n % 2 == 0 and g == -p)
    assert sp.expand(_to_sympy(sp, g) ** n - _to_sympy(sp, f)) == 0


# --- one term over one term --------------------------------------------------
#
# A one-term quotient is normalized without the general content and
# leading-coefficient pass; it must store exactly what that pass stores,
# coefficient types included.

def _general_normalization(num, den):
    """Cancel the common monomial content, then make den's leading coefficient 1."""
    content = num.monomial_content().gcd(den.monomial_content())
    if not content.is_one():
        num, den = num.divide_monomial(content), den.divide_monomial(content)
    _, lead = den.leading()
    if lead != 1:
        s = _div(1, lead)
        num, den = num.scale(s), den.scale(s)
    return num, den


def _typed_terms(p):
    return sorted((m.exps, c, type(c)) for m, c in p.terms.items())


# integral Fractions too: the dict constructor stores a coefficient as given
_any_coeffs = st.one_of(_mixed_coeffs, st.integers(-6, 6).filter(bool).map(Fraction))


@given(_monos, _any_coeffs, _monos, _any_coeffs)
def test_one_term_quotient_matches_general_normalization(mn, cn, md, cd):
    num, den = Polynomial({mn: cn}), Polynomial({md: cd})
    f = RationalFunction(num, den)
    want_num, want_den = _general_normalization(num, den)
    assert _typed_terms(f.num) == _typed_terms(want_num)
    assert _typed_terms(f.den) == _typed_terms(want_den)


# --- over one and times one --------------------------------------------------
#
# A quotient over the polynomial 1 keeps its numerator, and a product with
# the polynomial 1 is the other operand; both must store what the general
# path stores, coefficient types included, and leave every operand as it was.

# the dict constructor keeps integral Fractions, so both spellings of 1 occur
_any_polys = st.dictionaries(_monos, _any_coeffs, max_size=4).map(Polynomial)


@given(_any_polys, st.sampled_from([1, Fraction(1)]))
def test_over_one_and_times_one_match_the_general_path(p, one):
    unit = Polynomial({Monomial(): one})
    p_before, unit_before = _typed_terms(p), _typed_terms(unit)
    if p.is_zero():
        want_num, want_den = Polynomial.zero(), Polynomial.one()
    else:
        want_num, want_den = _general_normalization(p, unit)
    quotients, products = [RationalFunction(p, unit)], [p * unit, unit * p]
    if type(one) is int:
        # the int 1 stands for the polynomial 1 too
        quotients.append(RationalFunction(p))
        products += [p * 1, 1 * p]
    for f in quotients:
        assert _typed_terms(f.num) == _typed_terms(want_num)
        assert _typed_terms(f.den) == _typed_terms(want_den)
    # the general one-term product multiplies every coefficient by the unit's
    want = Polynomial({m: c * one for m, c in p.terms.items()})
    for got in products:
        assert _typed_terms(got) == _typed_terms(want)
    assert _typed_terms(p) == p_before and _typed_terms(unit) == unit_before


# --- monomial order against dense exponent vectors ---------------------------
#
# The documented variable order, written out for the sampled names; a
# monomial is its exponent vector over it, and lex order on the vectors is
# the monomial order.

_ORDER = ("a1", "b", "x", "x2", "x10", "y")
_ordered_monos = st.dictionaries(st.sampled_from(_ORDER), st.integers(1, 3), max_size=4).map(
    lambda d: Monomial(tuple(d.items()))
)


@given(_ordered_monos, _ordered_monos)
def test_monomial_order_matches_dense_exponent_vectors(a, b):
    va = tuple(a.exponent(v) for v in _ORDER)
    vb = tuple(b.exponent(v) for v in _ORDER)
    assert a._cmp(b) == (va > vb) - (va < vb)
    assert (a < b, a <= b, a > b, a >= b) == (va < vb, va <= vb, va > vb, va >= vb)


def test_names_equal_up_to_leading_zeros_are_ordered():
    # x01 and x1 share a suffix value; the digit string orders them, so the
    # monomial order is total and the term order does not follow insertion
    a, b = parse_polynomial("x01^2 + x1^2"), parse_polynomial("x1^2 + x01^2")
    assert str(a) == str(b) == "x01^2 + x1^2"
    assert a.leading() == b.leading() == (Monomial((("x01", 2),)), 1)
    assert Monomial((("x1", 2),)) < Monomial((("x01", 2),))
    assert nth_root(parse_polynomial("x01^2 + 2*x01*x1 + x1^2"), 2) == parse_polynomial("x01 + x1")


# --- nth_root against the re-powering recursion ------------------------------
#
# nth_root keeps f - g**n exact as g grows; the reference recomputes it from
# scratch after every root term.  Both must return the same root, with the
# same terms and coefficient types, or both None.

def _nth_root_repowering(f, n):
    if f.is_zero():
        return Polynomial.zero()
    lm, lc = f.leading()
    root_c = _rational_nth_root(lc, n)
    root_m = _monomial_root(lm, n)
    if root_c is None or root_m is None:
        return None
    tm, tc = _trailing(f)
    if _monomial_root(tm, n) is None or _rational_nth_root(tc, n) is None:
        return None
    if f.total_degree() % n:
        return None
    g = Polynomial.term(root_m, root_c)
    denom_c = n * root_c ** (n - 1)
    denom_m = _monomial_pow(root_m, n - 1)
    cap = 4 * len(f) + 4 * f.total_degree() + 16
    last = root_m
    h = f - g**n
    steps = 0
    while not h.is_zero():
        steps += 1
        if steps > cap:
            return None
        hm, hc = h.leading()
        um = hm.div(denom_m)
        if um is None or not um < last:
            return None
        g = g + Polynomial.term(um, _div(hc, denom_c))
        last = um
        h = f - g**n
    return g


@st.composite
def _root_cases(draw):
    """A perfect power, a near power (one term nudged in) or a negated power."""
    g = draw(st.dictionaries(_monos, _mixed_coeffs, min_size=1, max_size=7))
    n = draw(st.sampled_from([2, 3, 4, 5, 7]))
    f = Polynomial(list(g.items())) ** n
    kind = draw(st.sampled_from(["perfect", "near", "negated"]))
    if kind == "near":
        f = f + Polynomial.term(draw(_monos), draw(_mixed_coeffs))
    elif kind == "negated":
        f = -f
    return f, n


@settings(max_examples=60, deadline=None)
@given(_root_cases())
def test_nth_root_matches_repowering_recursion(case):
    f, n = case
    got, want = nth_root(f, n), _nth_root_repowering(f, n)
    assert (got is None) == (want is None)
    if got is not None:
        assert _typed_terms(got) == _typed_terms(want)


# --- the text scanner against the character-loop parser it replaced -------------
#
# frozen copies of the earlier tokenizer and recursive-descent parser; the
# regex scanner and the flat term loop must give the same polynomial, or the
# same ValueError text, on every string over the grammar's alphabet


def _ref_tokenize(text):
    name_re = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == "/" and j + 1 < n and text[j + 1].isdigit():
                k = j + 1
                while k < n and text[k].isdigit():
                    k += 1
                tokens.append(("ratio", text[i:k]))
                i = k
            else:
                tokens.append(("int", int(text[i:j])))
                i = j
            continue
        m = name_re.match(text, i)
        if m:
            tokens.append(("name", m.group()))
            i = m.end()
            continue
        if ch in "+-*^/":
            tokens.append((ch, ch))
            i += 1
            continue
        raise ValueError(f"unexpected character {ch!r} in {text!r}")
    return tokens


def _ref_parse_poly_tokens(tokens, text):
    pos = 0

    def fail(msg):
        raise ValueError(f"{msg} in {text!r}")

    def peek():
        return tokens[pos][0] if pos < len(tokens) else None

    def take():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_factor():
        kind, value = take() if pos < len(tokens) else fail("unexpected end")
        if kind == "int":
            return Polynomial.constant(value)
        if kind == "ratio":
            p, q = map(int, value.split("/"))
            if q == 0:
                fail("zero denominator")
            return Polynomial.constant(_div(p, q))
        if kind != "name":
            fail(f"unexpected {value!r}")
        exp = 1
        if peek() == "^":
            take()
            if pos == len(tokens):
                fail("exponents must be positive integers")
            kind, e = take()
            if kind != "int" or e <= 0:
                fail(f"exponents must be positive integers, got {e}")
            exp = e
        return Polynomial.variable(value, exp)

    def parse_term():
        poly = parse_factor()
        while peek() == "*":
            take()
            poly = poly * parse_factor()
        return poly

    if not tokens:
        fail("empty polynomial")
    sign = 1
    if peek() in ("+", "-"):
        sign = -1 if take()[0] == "-" else 1
    total = parse_term().scale(sign)
    while pos < len(tokens):
        kind, value = take()
        if kind == "+":
            total = total + parse_term()
        elif kind == "-":
            total = total - parse_term()
        else:
            fail(f"unexpected {value!r}")
    return total


def _ref_parse_polynomial(text):
    tokens = _ref_tokenize(text)
    if any(kind == "/" for kind, _ in tokens):
        raise ValueError(f"unexpected '/' in polynomial {text!r}")
    return _ref_parse_poly_tokens(tokens, text)


def _ref_parse_rational_function(text):
    tokens = _ref_tokenize(text)
    slashes = [i for i, (kind, _) in enumerate(tokens) if kind == "/"]
    if not slashes:
        return RationalFunction(_ref_parse_poly_tokens(tokens, text))
    if len(slashes) > 1:
        raise ValueError(f"more than one fraction bar in {text!r}")
    cut = slashes[0]
    num = _ref_parse_poly_tokens(tokens[:cut], text)
    den = _ref_parse_poly_tokens(tokens[cut + 1 :], text)
    if den.is_zero():
        raise ValueError(f"zero denominator in {text!r}")
    return RationalFunction(num, den)


def _outcome(parse, text):
    try:
        return "ok", parse(text)
    except ValueError as exc:
        return "error", str(exc)


# the grammar's alphabet: digits, operators, names, spaces, and characters
# that are no token (a comment mark, a quote and one stray character)
_GRAMMAR_PIECES = [
    "0", "1", "2", "3", "07", "12", "/", "^", "*", "+", "-",
    "x", "y", "x2", "z_1", "_a", " ", "#", '"', "@",
]
_grammar_text = st.lists(st.sampled_from(_GRAMMAR_PIECES), max_size=14).map("".join)


@settings(max_examples=600, deadline=None)
@given(_grammar_text)
def test_scanner_matches_the_character_loop_parser(text):
    for parse, ref in (
        (parse_polynomial, _ref_parse_polynomial),
        (parse_rational_function, _ref_parse_rational_function),
    ):
        got, want = _outcome(parse, text), _outcome(ref, text)
        assert got[0] == want[0] and got[1] == want[1], text
        if got[0] == "ok":
            assert str(got[1]) == str(want[1])


def test_scanner_reports_each_parse_error_as_before():
    # one string per message of the parser
    for text in ["", "-", "x*", "x y", "x 007", "1/0", "x @", "2^3", "+-x", "x^", "x^00",
                 "x^y", "x^2/3", "x / 0", "x / y / z", "/ x"]:
        for parse, ref in (
            (parse_polynomial, _ref_parse_polynomial),
            (parse_rational_function, _ref_parse_rational_function),
        ):
            with pytest.raises(ValueError) as exc:
                ref(text)
            with pytest.raises(ValueError) as got:
                parse(text)
            assert str(got.value) == str(exc.value), text
