"""Associated graded algebra, homogeneous arithmetic, and the degree-preserving map."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from valtwist.constructions import extend_choice, free_pair
from valtwist.errors import DegreeMismatchError, DomainError, LiftingError
from valtwist.graded import (
    HZERO,
    GradedElement,
    HomogeneousElement,
    constant_lift,
    h_add,
    h_mul,
    in_v,
    psi,
    psi_inverse,
    psi_inverse_term,
)
from valtwist.mpoly import (
    Monomial,
    Polynomial,
    RationalFunction,
    parse_polynomial,
    parse_rational_function,
)
from valtwist.ordgroup import FgSubgroup, GroupElement
from valtwist.suites import random_setup
from valtwist.twist import GeneratorChoice, TableChoice, TwistedRingElement
from valtwist.valuation import MonomialValuation, ResidueElement


def P(text):
    return parse_polynomial(text)


def RF(text):
    return parse_rational_function(text)


@pytest.fixture
def v():
    return MonomialValuation({"x": 1, "y": Fraction(1, 2)})


@pytest.fixture
def v1():
    return MonomialValuation({"x": 1})


@pytest.fixture
def doubled(v1):
    table = {GroupElement(1): RF("2*x")}
    for k in range(2, 7):
        table[GroupElement(k)] = RF(f"x^{k}")
    return TableChoice(v1, table)


class TestHomogeneous:
    def test_canonicalizes_to_initial_part(self, v):
        h = in_v(v, P("y + x"))
        assert h.degree == GroupElement(Fraction(1, 2))
        assert h.rep == RF("y")
        assert h == in_v(v, P("y + x^3"))

    def test_equality_needs_same_degree_and_initial(self, v):
        assert in_v(v, P("x")) != in_v(v, P("y"))
        assert in_v(v, P("y")) != in_v(v, P("2*y"))
        assert in_v(v, RF("y^2 / x")) == in_v(v, RF("y^4 + y^5 / x*y^2"))

    def test_h_mul_adds_degrees(self, v):
        p = h_mul(in_v(v, P("x")), in_v(v, P("y")))
        assert p.degree == GroupElement(Fraction(3, 2))
        assert p.rep == RF("x*y")

    def test_h_add_same_degree(self, v):
        s = h_add(in_v(v, P("x")), in_v(v, P("y^2")))
        assert s == in_v(v, P("x + y^2"))

    def test_h_add_degree_mismatch(self, v):
        with pytest.raises(DegreeMismatchError):
            h_add(in_v(v, P("x")), in_v(v, P("y")))

    def test_h_add_cancellation_gives_zero(self, v):
        assert h_add(in_v(v, P("x")), in_v(v, P("-x"))) is HZERO
        # cancellation happens even when tails differ
        assert h_add(in_v(v, P("x")), in_v(v, P("-x + x^2"))) is HZERO

    def test_zero_is_absorbing_and_neutral(self, v):
        h = in_v(v, P("x"))
        assert h_mul(h, HZERO) is HZERO
        assert h_add(h, HZERO) == h
        assert HZERO.is_zero() and not h.is_zero()

    def test_str(self, v):
        assert str(in_v(v, P("y + x"))) == "deg=1/2 rep=y"


class TestGradedElement:
    def test_absorbs_components_by_degree(self, v):
        g = GradedElement(v, [in_v(v, P("x")), in_v(v, P("y^2"))])
        assert g.support() == [GroupElement(1)]

    def test_add_and_mul(self, v):
        a = GradedElement(v, [in_v(v, P("x")), in_v(v, P("y"))])
        b = GradedElement(v, [in_v(v, P("y"))])
        s = a + b
        assert s.support() == [GroupElement(Fraction(1, 2)), GroupElement(1)]
        p = a * b
        # degrees 1/2 + 1/2 = 1 and 1 + 1/2 = 3/2
        assert p.support() == [GroupElement(1), GroupElement(Fraction(3, 2))]

    def test_cancellation_in_sums(self, v):
        a = GradedElement(v, [in_v(v, P("x"))])
        b = GradedElement(v, [in_v(v, P("-x"))])
        assert (a + b).is_zero()
        assert GradedElement.zero(v).is_zero()

    def test_render(self, v):
        g = GradedElement(v, [in_v(v, P("y")), in_v(v, P("x"))])
        assert str(g) == "deg=1/2 rep=y; deg=1 rep=x"
        assert str(GradedElement.zero(v)) == "0"


class TestPsi:
    def test_frozen_values(self, v1, doubled):
        assert str(psi(doubled, in_v(v1, P("x")))) == "(1/2)*t^1"
        assert str(psi(doubled, in_v(v1, P("3*x^2")))) == "(3)*t^2"

    def test_preserves_initial_equality_both_ways(self, v1, doubled):
        hx = in_v(v1, P("x + x^2"))
        hy = in_v(v1, P("x"))
        assert psi(doubled, hx) == psi(doubled, hy)
        assert psi(doubled, in_v(v1, P("2*x"))) != psi(doubled, hy)

    def test_additive(self, v1, doubled):
        hx, hy = in_v(v1, P("x")), in_v(v1, P("2*x"))
        assert psi(doubled, h_add(hx, hy)) == psi(doubled, hx) + psi(doubled, hy)

    def test_multiplicative_against_twisted_product(self, v1, doubled):
        from valtwist.twist import twisted_mul

        hx, hy = in_v(v1, P("x")), in_v(v1, P("3*x^2"))
        lhs = psi(doubled, h_mul(hx, hy))
        rhs = twisted_mul(doubled, psi(doubled, hx), psi(doubled, hy))
        assert lhs == rhs

    def test_degree_preserved(self, v1, doubled):
        assert psi(doubled, in_v(v1, P("5*x^3"))).support() == [GroupElement(3)]

    def test_zero_and_graded_input(self, v1, doubled):
        assert psi(doubled, HZERO).is_zero()
        g = GradedElement(v1, [in_v(v1, P("x")), in_v(v1, P("x^2"))])
        img = psi(doubled, g)
        assert img.support() == [GroupElement(1), GroupElement(2)]

    def test_outside_domain(self, v1, doubled):
        with pytest.raises(DomainError):
            psi(doubled, in_v(v1, P("x^7")))


class TestPsiInverse:
    def test_round_trip_through_constants(self, v1, doubled):
        for text in ("x", "3*x^2", "x + x^3"):
            h = in_v(v1, P(text))
            back = psi_inverse(doubled, psi(doubled, h), constant_lift)
            assert back == GradedElement(v1, [h])

    def test_term_round_trip(self, v1, doubled):
        t = TwistedRingElement.term(v1, GroupElement(2), v1.residue_constant(7))
        assert psi(doubled, psi_inverse(doubled, t, constant_lift)) == t

    def test_constant_lift_rejects_non_constant_classes(self):
        vv = MonomialValuation({"x": 1, "y": 1})
        with pytest.raises(LiftingError):
            constant_lift(vv.residue(RF("y / x")))

    def test_lifting_oracle_is_pluggable(self):
        vv = MonomialValuation({"x": 1, "y": 1})
        eps = TableChoice(vv, {GroupElement(k): RF(f"x^{k}") for k in range(1, 5)})
        coeff = vv.residue(RF("y / x"))
        t = TwistedRingElement.term(vv, GroupElement(1), coeff)
        with pytest.raises(LiftingError):
            psi_inverse(eps, t, constant_lift)
        back = psi_inverse(eps, t, lambda c: c.rep())
        assert psi(eps, back) == t

    def test_lift_output_is_verified(self, v1, doubled):
        t = TwistedRingElement.term(v1, GroupElement(1), v1.residue_constant(2))
        with pytest.raises(LiftingError):
            # claims residue 1 instead of 2
            psi_inverse_term(doubled, GroupElement(1), t.coeffs[GroupElement(1)],
                             lambda c: RF("1"))


# --- residues against the whole-quotient route ---------------------------------
#
# psi and the twisting take their residues from the factors' initial parts.
# The reference below builds the whole normalized quotient first and keeps
# its initial parts afterwards; both routes must give the same class and
# the same representation.

_setup_seeds = st.integers(0, 2**32 - 1)
_weight_pool = [Fraction(1), Fraction(1, 2), Fraction(2, 3), Fraction(3, 2), Fraction(-1, 3)]
_small_coeffs = st.one_of(
    st.integers(-4, -1),
    st.integers(1, 4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool),
)


def _residue_by_quotient(v, q):
    """The residue of a value-zero field element: initial parts of its normalized form.

    The class is the rational c when the numerator is c times the
    denominator, decided here from the leading terms and one scaled compare.
    """
    assert v.value(q) == v.group_zero
    rep = v.initial_rf(q)
    (nm, nc), (dm, dc) = rep.num.leading(), rep.den.leading()
    c = Fraction(nc) / dc
    if nm == dm and rep.num == rep.den.scale(c):
        return v.residue_constant(c)
    return ResidueElement(v, rep)


def _assert_same_residue(got, want):
    assert got == want
    assert str(got.rep()) == str(want.rep())


def _random_free_choice(seed):
    """A free choice on one multi-term witness per dimension, or None if they are dependent."""
    rng = random.Random(seed)
    dim = rng.choice([1, 2])
    names = ["x", "y", "z"][: rng.randint(2, 3)]
    weights = {n: tuple(rng.choice(_weight_pool) for _ in range(dim)) for n in names}
    v = MonomialValuation(weights)
    gens, wits = [], []
    for _ in range(dim):
        terms = [
            (Monomial([(n, rng.randint(0, 2)) for n in names]), rng.choice([1, -2, Fraction(1, 2), 3]))
            for _ in range(rng.randint(1, 3))
        ]
        low = Monomial([(rng.choice(names), rng.randint(0, 2))])
        w = RationalFunction(Polynomial(terms), Polynomial.term(low, rng.choice([1, 2, -3])))
        if w.is_zero() or v.value(w).is_zero():
            return None
        gens.append(v.value(w))
        wits.append(w)
    if FgSubgroup(dim, gens).rank != dim:
        return None
    return GeneratorChoice(v, gens, wits)


def _random_unit(v, data):
    """A drawn polynomial p over a least-value term of p: value 0 and, with
    ties, a non-constant class."""
    names = sorted(v.weights)
    monos = st.lists(st.tuples(st.sampled_from(names), st.integers(0, 2)), max_size=3).map(Monomial)
    p = data.draw(st.dictionaries(monos, _small_coeffs, min_size=1, max_size=3).map(Polynomial._raw))
    return RationalFunction(p, Polynomial.term(min(p.terms, key=v.monomial_value), 1))


def _choice(kind, seed):
    if kind == "table":
        return random_setup(random.Random(seed), seed % 97).eps
    return _random_free_choice(seed)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["table", "free"]), _setup_seeds, st.data())
def test_twisting_matches_whole_quotient_route(kind, seed, data):
    eps = _choice(kind, seed)
    assume(eps is not None)
    elements = eps.domain_elements(2)
    for _ in range(4):
        a = data.draw(st.sampled_from(elements))
        b = data.draw(st.sampled_from([b for b in elements if eps.contains(a + b)]))
        want = _residue_by_quotient(eps.valuation, (eps(a) * eps(b)) / eps(a + b))
        _assert_same_residue(eps.twisting(a, b), want)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["table", "free"]), _setup_seeds, st.data())
def test_psi_matches_whole_quotient_route(kind, seed, data):
    eps = _choice(kind, seed)
    assume(eps is not None)
    v = eps.valuation
    for _ in range(3):
        d = data.draw(st.sampled_from(eps.domain_elements(2)))
        x = eps(d) * _random_unit(v, data) * _random_unit(v, data)
        h = in_v(v, x)
        assert h.degree == d
        got = psi(eps, h).coeffs[d]
        _assert_same_residue(got, _residue_by_quotient(v, h.rep / eps(d)))
        _assert_same_residue(got, _residue_by_quotient(v, x / eps(d)))


# --- memoized initial forms against the expanded values ------------------------
#
# Twistings and psi coefficients read ``eps.initial(γ)``, the quotient of the
# initial parts of ε(γ), where they once read the expanded ε(γ).  The
# reference is the residue of the expanded values: the class and its
# representation must not change.


def _free_lex_tail_choice(data):
    """The free lex choice on Q(x, y) with witnesses that carry higher-value
    tails: c0*x + c1*x*y, and (c2*y^2 + c3*x) / (y + c4*x), whose denominator
    is not a monomial."""
    c = [data.draw(_small_coeffs) for _ in range(5)]
    v = MonomialValuation({"x": (1, 0), "y": (0, 1)})
    x, y = Polynomial.variable("x"), Polynomial.variable("y")
    wx = RationalFunction(x.scale(c[0]) + (x * y).scale(c[1]))
    wy = RationalFunction((y * y).scale(c[2]) + x.scale(c[3]), y + x.scale(c[4]))
    return GeneratorChoice(v, [GroupElement((1, 0)), GroupElement((0, 1))], [wx, wy])


def _radical_chain(data):
    """Two radical steps, 1/2 and then 1/6, over v(z) = 1/6 and the base
    ε(1) = 64*z^6 + c0*z^7; the last step's witness is z + c1*z^2."""
    c0, c1 = data.draw(_small_coeffs), data.draw(_small_coeffs)
    z = Polynomial.variable
    base_witness = RationalFunction(z("z", 6).scale(64) + z("z", 7).scale(c0))
    base = free_pair(MonomialValuation({"z": Fraction(1, 6)}), [GroupElement(1)], [base_witness])
    half = extend_choice(base, GroupElement(Fraction(1, 2)), "z^3")
    last = RationalFunction(z("z") + z("z", 2).scale(c1))
    return extend_choice(half, GroupElement(Fraction(1, 6)), last).choice


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["table", "free-lex", "radical"]), _setup_seeds, st.data())
def test_initial_form_memo_matches_the_expanded_values(kind, seed, data):
    if kind == "table":
        setup = random_setup(random.Random(seed), seed % 97)
        eps, elements = setup.eps, setup.support
    else:
        eps = _free_lex_tail_choice(data) if kind == "free-lex" else _radical_chain(data)
        elements = eps.domain_elements(2)
    v = eps.valuation
    for g in elements:
        assert eps.initial(g) == v.initial_rf(eps(g))
        assert v.in_eq(eps.initial(g), eps(g))
        assert eps.initial(g) is eps.initial(g)
    for a in elements:
        for b in elements:
            if not eps.contains(a + b):
                continue
            want = v.residue(eps(a), eps(b), over=(eps(a + b),))
            _assert_same_residue(eps.twisting(a, b), want)
            h = in_v(v, eps(a) * eps(b))
            want = v.residue(h.rep, over=(eps(h.degree),))
            _assert_same_residue(psi(eps, h).coeffs[h.degree], want)


# --- rational classes against sympy ---------------------------------------------
#
# A class is a rational number exactly when ``const`` is set.  sympy's
# cancel, which removes every common factor, decides that independently on
# twistings and psi coefficients of the same choices as above, and on
# quotients of such classes, which share a factor that is not a monomial
# whenever the class is not rational.


@pytest.fixture(scope="module")
def sp():
    return pytest.importorskip("sympy")


def _sympy_quotient(sp, f):
    def poly(p):
        total = sp.Integer(0)
        for mono, c in p.terms.items():
            term = sp.Rational(c.numerator, c.denominator)
            for var, e in mono.exps:
                term *= sp.Symbol(var) ** e
            total += term
        return total

    return sp.cancel(poly(f.num) / poly(f.den))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["table", "free"]), _setup_seeds, st.data())
def test_const_is_set_exactly_for_rational_classes(sp, kind, seed, data):
    eps = _choice(kind, seed)
    assume(eps is not None)
    v = eps.valuation
    elements = eps.domain_elements(2)
    classes = []
    for _ in range(3):
        a = data.draw(st.sampled_from(elements))
        b = data.draw(st.sampled_from([b for b in elements if eps.contains(a + b)]))
        classes.append(eps.twisting(a, b))
        x = eps(a) * _random_unit(v, data) * _random_unit(v, data)
        classes.append(psi(eps, in_v(v, x)).coeffs[a])
    c = data.draw(_small_coeffs)
    classes += [r * (r * c).inv() for r in classes]
    for r in classes:
        q = _sympy_quotient(sp, r.rep())
        assert (r.const is not None) == q.is_Rational, (str(r), q)
        if r.const is not None:
            assert q == sp.Rational(r.const.numerator, r.const.denominator)
