"""Choice functions, twisting tables, and the twisted semigroup ring."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from valtwist.constructions import extend_choice, free_pair
from valtwist.errors import DomainError
from valtwist.mpoly import Polynomial, RationalFunction, parse_rational_function
from valtwist.ordgroup import GroupElement
from valtwist.suites import product_safe_support
from valtwist.twist import (
    GeneratorChoice,
    TableChoice,
    TwistedRingElement,
    is_trivial,
    semigroup_hom_check,
    twisted_mul,
)
from valtwist.valuation import MonomialValuation


def RF(text):
    return parse_rational_function(text)


@pytest.fixture
def v1():
    return MonomialValuation({"x": 1})


@pytest.fixture
def doubled(v1):
    # eps(1) = 2x makes the twisting nontrivial at (1, 1)
    table = {GroupElement(1): RF("2*x")}
    for k in range(2, 7):
        table[GroupElement(k)] = RF(f"x^{k}")
    return TableChoice(v1, table)


@pytest.fixture
def vlex():
    return MonomialValuation({"x": (1, 0), "y": (0, 1)})


@pytest.fixture
def free(vlex):
    return GeneratorChoice(
        vlex, [GroupElement((1, 0)), GroupElement((0, 1))], ["x", "y"]
    )


class TestTableChoice:
    def test_values_and_memoization(self, doubled):
        one = GroupElement(1)
        assert doubled(one) == RF("2*x")
        assert doubled(one) is doubled(one)
        assert doubled(GroupElement(0)) == RationalFunction(1)

    def test_entries_must_have_the_declared_value(self, v1):
        with pytest.raises(ValueError):
            TableChoice(v1, {GroupElement(2): RF("x")})

    def test_zero_entry_must_be_one(self, v1):
        with pytest.raises(ValueError):
            TableChoice(v1, {GroupElement(0): RF("2"), GroupElement(1): RF("x")})
        ok = TableChoice(v1, {GroupElement(0): RF("1"), GroupElement(1): RF("x")})
        assert ok(GroupElement(0)) == RationalFunction(1)

    def test_outside_domain_raises(self, doubled):
        with pytest.raises(DomainError):
            doubled(GroupElement(7))
        assert not doubled.contains(GroupElement(7))
        assert doubled.contains(GroupElement(3))

    def test_domain_elements_sorted(self, doubled):
        els = doubled.domain_elements(6)
        assert els == sorted(els)
        assert GroupElement(0) in els and GroupElement(6) in els


class TestGeneratorChoice:
    def test_free_values(self, free):
        assert free(GroupElement((2, 3))) == RF("x^2*y^3")
        assert free(GroupElement((-1, 0))) == RF("1 / x")
        assert free(GroupElement((0, 0))) == RationalFunction(1)

    def test_outside_subgroup(self, vlex):
        sub = GeneratorChoice(vlex, [GroupElement((2, 0))], ["x^2"])
        assert sub(GroupElement((4, 0))) == RF("x^4")
        with pytest.raises(DomainError):
            sub(GroupElement((1, 0)))

    def test_dependent_generators_rejected(self, v1):
        with pytest.raises(ValueError):
            GeneratorChoice(
                v1,
                [GroupElement(Fraction(1, 2)), GroupElement(Fraction(1, 3))],
                ["x", "x"],
            )

    def test_witness_value_checked(self, vlex):
        with pytest.raises(ValueError):
            GeneratorChoice(vlex, [GroupElement((1, 0))], ["y"])

    def test_exact_multiplicativity(self, free):
        for a in (GroupElement((1, 2)), GroupElement((-2, 1))):
            for b in (GroupElement((0, 1)), GroupElement((3, -1))):
                assert free(a) * free(b) == free(a + b)


class TestTwisting:
    def test_nontrivial_oracle(self, doubled):
        one = GroupElement(1)
        assert doubled.twisting(one, one) == 4
        assert doubled.twisting(one, GroupElement(2)) == 2

    def test_symmetry_structural(self, doubled):
        a, b = GroupElement(1), GroupElement(2)
        assert doubled.twisting(a, b) == doubled.twisting(b, a)

    def test_unit_row(self, doubled):
        zero = GroupElement(0)
        assert doubled.twisting(zero, GroupElement(3)) == 1

    def test_cocycle_identity_oracle(self, doubled):
        one, two = GroupElement(1), GroupElement(2)
        lhs = doubled.twisting(one, one) * doubled.twisting(two, one)
        rhs = doubled.twisting(one, two) * doubled.twisting(one, one)
        assert lhs == rhs == 8

    def test_trivial_for_free_choices(self, free):
        a, b = GroupElement((1, -2)), GroupElement((-1, 3))
        assert free.twisting(a, b) == 1

    def test_domain_pairs_respect_bound(self, free):
        pairs = list(free.iter_domain_pairs(4))
        assert pairs
        for a, b in pairs:
            assert free.contains(a + b)

    def test_value_is_a_residue_of_value_zero(self, doubled):
        t = doubled.twisting(GroupElement(1), GroupElement(1))
        assert t.const == 4


class TestTriviality:
    def test_nontrivial_table_detected(self, doubled):
        flag, pair = is_trivial(doubled, 6)
        assert flag is False
        assert pair == (GroupElement(1), GroupElement(1))
        assert semigroup_hom_check(doubled, 6) is False

    def test_free_choice_trivial(self, free):
        flag, pair = is_trivial(free, 4)
        assert flag is True and pair is None
        assert semigroup_hom_check(free, 4) is True

    def test_two_detection_paths_agree(self, doubled, free):
        for eps in (doubled, free):
            assert is_trivial(eps, 4)[0] == semigroup_hom_check(eps, 4)

    def test_a_failing_walk_stops_at_the_failure(self, v1):
        # a table ignores the bound, so all n^2 pairs are candidates; the
        # twisting fails at (1, 1), in the second row of the walk
        n = 40
        table = {GroupElement(1): RF("2*x")}
        table.update({GroupElement(k): RF(f"x^{k}") for k in range(2, n)})
        eps = TableChoice(v1, table)
        assert len(eps.domain_elements(6)) == n
        calls = []
        contains = eps.contains
        eps.contains = lambda gamma: calls.append(gamma) or contains(gamma)
        assert is_trivial(eps, 6) == (False, (GroupElement(1), GroupElement(1)))
        assert len(calls) <= 2 * n
        calls.clear()
        assert semigroup_hom_check(eps, 6) is False
        assert len(calls) <= 2 * n


class TestTwistedRing:
    def test_term_and_support(self, v1, doubled):
        a = TwistedRingElement.term(v1, GroupElement(1), v1.residue_constant(1))
        assert a.support() == [GroupElement(1)]
        assert str(a) == "(1)*t^1"

    def test_addition_is_degreewise(self, v1):
        a = TwistedRingElement.term(v1, GroupElement(1), v1.residue_constant(2))
        b = TwistedRingElement.term(v1, GroupElement(2), v1.residue_constant(3))
        s = a + b
        assert s.support() == [GroupElement(1), GroupElement(2)]
        assert s + (-s) == TwistedRingElement.zero(v1)
        assert (a - a).is_zero()

    def test_multiplication_twists(self, v1, doubled):
        a = TwistedRingElement.term(v1, GroupElement(1), v1.residue_constant(1))
        p = twisted_mul(doubled, a, a)
        assert p.support() == [GroupElement(2)]
        assert str(p) == "(4)*t^2"

    def test_unit_element(self, v1, doubled):
        one = TwistedRingElement.one(v1)
        a = TwistedRingElement.term(v1, GroupElement(2), v1.residue_constant(5))
        assert twisted_mul(doubled, one, a) == a
        assert twisted_mul(doubled, a, one) == a

    def test_free_multiplication_is_plain_convolution(self, vlex, free):
        a = TwistedRingElement.term(
            vlex, GroupElement((1, 0)), vlex.residue_constant(2)
        )
        b = TwistedRingElement.term(
            vlex, GroupElement((0, 1)), vlex.residue_constant(3)
        )
        p = twisted_mul(free, a, b)
        assert p.support() == [GroupElement((1, 1))]
        assert str(p) == "(6)*t^(1, 1)"

    def test_cross_term_cancellation(self, v1, doubled):
        c = v1.residue_constant
        a = TwistedRingElement.term(v1, GroupElement(1), c(1))
        b = TwistedRingElement.term(v1, GroupElement(1), c(-1))
        assert (a + b).is_zero()
        prod = twisted_mul(doubled, a + b, a)
        assert prod.is_zero()


_small = st.integers(-3, 3)


@settings(max_examples=60)
@given(_small, _small, _small, _small, _small, _small)
def test_cocycle_identity_for_free_choices(a1, a2, b1, b2, c1, c2):
    vlex = MonomialValuation({"x": (1, 0), "y": (0, 1)})
    eps = GeneratorChoice(
        vlex, [GroupElement((1, 0)), GroupElement((0, 1))], ["x", "y"]
    )
    a, b, c = GroupElement((a1, a2)), GroupElement((b1, b2)), GroupElement((c1, c2))
    lhs = eps.twisting(a, b) * eps.twisting(a + b, c)
    rhs = eps.twisting(a, b + c) * eps.twisting(b, c)
    assert lhs == rhs


def _first_bad(eps, safe):
    for a in safe:
        for b in safe:
            if not eps.contains(a + b):
                return max(a, b)
            for c in safe:
                if not eps.contains(a + b + c):
                    return max(a, b, c)
    return None


def _reference_support(eps, candidates):
    """The full cubic scan: drop the largest degree of the first sum outside the domain."""
    safe = sorted(set(candidates))
    while (bad := _first_bad(eps, safe)) is not None:
        safe = [g for g in safe if g != bad]
    return safe


class TestProductSafeSupport:
    def test_free_choice_keeps_every_candidate(self, free):
        cands = free.domain_elements(2)
        shuffled = list(reversed(cands)) + cands[:3]
        assert product_safe_support(free, shuffled) == _reference_support(free, cands)
        assert product_safe_support(free, shuffled) == sorted(cands)

    def test_chain_with_a_step(self):
        base = free_pair(MonomialValuation({"z": Fraction(1, 6)}), [GroupElement(1)], ["64*z^6"])
        eps = extend_choice(base, GroupElement(Fraction(1, 2)), "z^3").choice
        assert eps.steps
        cands = eps.domain_elements(2)
        assert product_safe_support(eps, cands) == _reference_support(eps, cands)

    def test_candidate_outside_the_subgroup_falls_back_to_the_scan(self, vlex):
        sub = GeneratorChoice(vlex, [GroupElement((2, 0)), GroupElement((0, 1))], ["x^2", "y"])
        cands = sub.domain_elements(2) + [GroupElement((1, 0)), GroupElement((3, 1))]
        got = product_safe_support(sub, cands)
        assert got == _reference_support(sub, cands)
        assert GroupElement((1, 0)) not in got and GroupElement((3, 1)) not in got
        assert GroupElement((2, 0)) in got

    def test_table_drops_its_largest_offending_degree_first(self, doubled):
        cands = doubled.domain_elements(6)
        got = product_safe_support(doubled, cands)
        assert got == _reference_support(doubled, cands)
        assert got == [GroupElement(k) for k in range(3)]
        # 3 + 3 = 6 stays in the table, but 0 + 1 + 6 leaves it: 6 goes before 3
        assert product_safe_support(doubled, [GroupElement(k) for k in (0, 1, 3, 6)]) == [
            GroupElement(k) for k in (0, 1)
        ]

    def test_drops_the_largest_member_of_the_first_failing_sum(self):
        # 1 + 1 + 1 = 3 fails first and drops 1, then 2 + 2 = 4 drops 2, and 10
        # stays (20 and 30 are in the table); dropping the largest offending
        # degree first would drop 10 for 1 + 2 + 10 = 13 and end with nothing
        degrees = (1, 2, 10, 11, 12, 20, 21, 22, 30)
        v = MonomialValuation({"x": 1})
        table = TableChoice(v, {GroupElement(k): parse_rational_function(f"x^{k}") for k in degrees})
        cands = [GroupElement(k) for k in (1, 2, 10)]
        assert product_safe_support(table, cands) == [GroupElement(10)]
        assert _reference_support(table, cands) == [GroupElement(10)]
