"""Campaign samplers: the monomial-cached sampler against a frozen copy of the
one it replaced, the one-scan initial form of a sampled polynomial, and the
one-pass operand support against the restart loop it replaced."""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from valtwist import cli
from valtwist.graded import in_v
from valtwist.mpoly import Monomial, Polynomial, RationalFunction
from valtwist.ordgroup import GroupElement
from valtwist.setupfile import load_setup
from valtwist.suites import (
    _CONST_POOL,
    _random_polynomial_for,
    fixed_nontrivial_setup,
    free_lex_setup,
    grid_table_setup,
    product_safe_support,
    random_setup,
)
from valtwist.twist import GeneratorChoice, TableChoice
from valtwist.valuation import MonomialValuation

ROOT = Path(__file__).resolve().parents[1]
BUNDLED = ("chain_radical.vt", "chain_rootless.vt", "free_lex.vt", "twisted_2x.vt")


def _frozen_random_polynomial_for(setup, rng, max_exp=3):
    """The sampler as it was before it cached monomials, kept to pin the rng stream."""
    names = sorted(setup.valuation.weights)
    for _ in range(50):
        nterms = rng.randint(1, 3)
        terms = {}
        for _ in range(nterms):
            pairs = [(n, rng.randint(0, max_exp)) for n in names]
            mono = Monomial(pairs)
            terms[mono] = rng.choice(_CONST_POOL)
        p = Polynomial(terms)
        if p.is_zero():
            continue
        if setup.eps.contains(setup.valuation.polynomial_value(p)):
            return p
    raise RuntimeError("could not sample a polynomial inside the choice domain")


def _file_setups(path):
    return cli._setups_for(load_setup(path.read_text()))


def _setups():
    out = [fixed_nontrivial_setup(), free_lex_setup(), grid_table_setup()]
    out += [random_setup(random.Random(seed), seed) for seed in range(8)]
    for name in BUNDLED:
        out += _file_setups(ROOT / "setups" / name)
    return out


def _terms(p):
    return [(m, c, type(c)) for m, c in p.terms.items()]


@pytest.mark.parametrize("setup", _setups(), ids=lambda s: s.name)
def test_cached_sampler_keeps_the_stream_and_the_polynomials(setup):
    old, new = random.Random(23), random.Random(23)
    monomials: dict = {}
    for k in range(120):
        max_exp = 2 if k % 3 == 2 else 3
        want = _frozen_random_polynomial_for(setup, old, max_exp=max_exp)
        got = _random_polynomial_for(setup, new, monomials, max_exp=max_exp)
        assert _terms(got) == _terms(want)
        assert new.getstate() == old.getstate()
    # the cache saw repeats, so later draws reused monomials built earlier
    assert len(monomials) < 120 * 3


def test_cached_sampler_misses_after_the_same_draws():
    (setup,) = _file_setups(ROOT / "tests" / "golden" / "setups" / "sampler_miss.vt")
    old, new = random.Random(1), random.Random(1)
    monomials: dict = {}
    for k in range(200):
        try:
            want = _frozen_random_polynomial_for(setup, old)
        except RuntimeError as exc:
            with pytest.raises(RuntimeError) as got:
                _random_polynomial_for(setup, new, monomials)
            assert str(got.value) == str(exc)
            break
        assert _terms(_random_polynomial_for(setup, new, monomials)) == _terms(want)
    else:
        pytest.fail("the setup's sampler never missed")
    assert k > 0 and new.getstate() == old.getstate()


@pytest.mark.parametrize("setup", _setups(), ids=lambda s: s.name)
def test_initial_form_of_a_polynomial_matches_its_quotient(setup):
    v, rng, monomials = setup.valuation, random.Random(5), {}
    for _ in range(60):
        p = _random_polynomial_for(setup, rng, monomials)
        got, want = in_v(v, p), in_v(v, RationalFunction(p))
        assert _terms(got.rep.num) == _terms(want.rep.num)
        assert _terms(got.rep.den) == _terms(want.rep.den)
        assert got.degree is v.value(p)
        assert got.degree is want.degree


def test_zero_polynomial_has_no_initial_form():
    with pytest.raises(ValueError, match="distinguished zero"):
        in_v(free_lex_setup().valuation, Polynomial.zero())


def _frozen_product_safe_support(eps, candidates):
    """The support scan as it was before it became one pass: a restart after every drop."""
    safe = sorted(set(candidates))
    if isinstance(eps, GeneratorChoice) and all(eps.contains(g) for g in safe):
        return safe
    while safe:
        bad = None
        for a in safe:
            for b in safe:
                if not eps.contains(a + b):
                    bad = max(a, b)
                    break
                for c in safe:
                    if not eps.contains(a + b + c):
                        bad = max(a, b, c)
                        break
                if bad is not None:
                    break
            if bad is not None:
                break
        if bad is None:
            return safe
        safe = [g for g in safe if g != bad]
    return safe


_SUPPORT_WEIGHTS = {1: {"x": 1}, 2: {"x": (1, 0), "y": (0, 1)}}


def _degree(point):
    return GroupElement(point[0] if len(point) == 1 else point)


def _monomial_quotient(point):
    """x^i y^j as a quotient of monomials, so negative exponents move to the denominator."""
    names = "xy"[: len(point)]
    num = Monomial({n: e for n, e in zip(names, point) if e > 0})
    den = Monomial({n: -e for n, e in zip(names, point) if e < 0})
    return RationalFunction(Polynomial({num: 1}), Polynomial({den: 1}))


def _box(lows, highs):
    points = [()]
    for lo, hi in zip(lows, highs):
        points = [p + (k,) for p in points for k in range(lo, hi + 1)]
    return points


@st.composite
def _table_supports(draw):
    """A table on a box with a few holes, and candidates from a box two wider on each side."""
    dim = draw(st.sampled_from([1, 2]))
    top = 14 if dim == 1 else 5
    lows = draw(st.tuples(*[st.integers(-3, 0)] * dim))
    highs = draw(st.tuples(*[st.integers(0, top)] * dim))
    box = _box(lows, highs)
    holes = draw(st.sets(st.sampled_from(box), max_size=4))
    table = {_degree(p): _monomial_quotient(p) for p in box if p not in holes}
    wide = _box([lo - 2 for lo in lows], [hi + 2 for hi in highs])
    cands = draw(st.lists(st.sampled_from(wide), max_size=12))
    return TableChoice(MonomialValuation(_SUPPORT_WEIGHTS[dim]), table), list(map(_degree, cands))


@settings(max_examples=300, deadline=None)
@given(_table_supports())
def test_one_pass_support_matches_the_restart_loop(case):
    eps, cands = case
    got = product_safe_support(eps, cands)
    assert got == _frozen_product_safe_support(eps, cands)
    # every two- and three-fold sum of what is kept stays in the domain
    assert all(eps.contains(a + b) and eps.contains(a + b + c)
               for a in got for b in got for c in got)


@st.composite
def _generator_supports(draw):
    """A choice on 2Z or 2Z x Z, and candidates inside the subgroup or partly outside it."""
    dim = draw(st.sampled_from([1, 2]))
    v = MonomialValuation(_SUPPORT_WEIGHTS[dim])
    if dim == 1:
        eps = GeneratorChoice(v, [GroupElement(2)], ["x^2"])
    else:
        eps = GeneratorChoice(v, [GroupElement((2, 0)), GroupElement((0, 1))], ["x^2", "y"])
    cands = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * dim), max_size=10))
    if draw(st.booleans()):
        cands = [p for p in cands if p[0] % 2 == 0]
    return eps, list(map(_degree, cands))


@settings(max_examples=100, deadline=None)
@given(_generator_supports())
def test_generator_choice_support_matches_the_restart_loop(case):
    eps, cands = case
    got = product_safe_support(eps, cands)
    assert got == _frozen_product_safe_support(eps, cands)
    if all(eps.contains(g) for g in cands):
        # the subgroup shortcut: every candidate survives, sorted and once each
        assert got == sorted(set(cands))
    else:
        assert all(eps.contains(g) for g in got)
