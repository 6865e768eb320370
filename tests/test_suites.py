"""Campaign samplers: the monomial-cached sampler against a frozen copy of the
one it replaced, and the one-scan initial form of a sampled polynomial."""

import random
from pathlib import Path

import pytest

from valtwist import cli
from valtwist.graded import in_v
from valtwist.mpoly import Monomial, Polynomial, RationalFunction
from valtwist.setupfile import load_setup
from valtwist.suites import (
    _CONST_POOL,
    _random_polynomial_for,
    fixed_nontrivial_setup,
    free_lex_setup,
    grid_table_setup,
    random_setup,
)

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
