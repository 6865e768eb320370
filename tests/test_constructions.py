"""Trivialization constructions and the finite-prime analyzer."""

import itertools
import time
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from valtwist import cli, constructions, ordgroup, twist
from valtwist.constructions import (
    PRIME_LIMIT,
    UNIT_POOL_LIMIT,
    WALK_LIMIT,
    AnalyzerReport,
    ConsistentTable,
    SubgroupWithChoice,
    _augmented_recheck,
    _is_prime,
    analyze_counterexample,
    counterexample_valuation,
    extend_choice,
    forced_power_check,
    free_pair,
    make_initial,
    monomial_pool,
)
from valtwist.errors import RootNotFound, SetupError
from valtwist.mpoly import Monomial, Polynomial, RationalFunction, parse_rational_function
from valtwist.ordgroup import GroupElement
from valtwist.twist import GeneratorChoice, TableChoice, is_trivial, semigroup_hom_check
from valtwist.valuation import MonomialValuation


def RF(text):
    return parse_rational_function(text)


def ge(x):
    return GroupElement(Fraction(x) if isinstance(x, str) else x)


class TestFreeConstruction:
    def test_pair_is_certified(self):
        v = MonomialValuation({"x": (1, 0), "y": (0, 1)})
        pair = free_pair(v, [GroupElement((1, 0)), GroupElement((0, 1))], ["x", "y"])
        assert pair.certified_trivial
        assert isinstance(pair.choice, GeneratorChoice)
        assert pair.subgroup.contains(GroupElement((3, -2)))

    def test_exactness_on_a_window(self):
        v = MonomialValuation({"x": (1, 0), "y": (0, 1)})
        eps = GeneratorChoice(v, [GroupElement((1, 0)), GroupElement((0, 1))], ["x", "y"])
        els = [GroupElement((a, b)) for a in range(-2, 3) for b in range(-2, 3)]
        for a in els:
            for b in els:
                assert eps(a) * eps(b) == eps(a + b)


@pytest.fixture
def zchain_base():
    v = MonomialValuation({"z": Fraction(1, 6)})
    return free_pair(v, [GroupElement(1)], ["64*z^6"])


class TestExtensionStep:
    def test_first_step_frozen(self, zchain_base):
        p1 = extend_choice(zchain_base, ge("1/2"), "z^3")
        s = p1.choice.step
        assert s.n0 == 2
        assert str(s.x0) == "64*z^6"
        assert str(s.root_class) == "64"
        assert str(s.root_witness) == "8"
        assert str(p1.choice.step.factor) == "8*z^3"
        assert p1.certified_trivial

    def test_full_chain_frozen(self, zchain_base):
        p1 = extend_choice(zchain_base, ge("1/2"), "z^3")
        p2 = extend_choice(p1, ge("1/6"), "z")
        s = p2.choice.step
        assert (s.n0, str(s.root_witness), str(p2.choice.step.factor)) == (3, "2", "2*z")
        eps = p2.choice
        assert eps(ge("1/6")) == RF("2*z")
        assert eps(ge("1/3")) == RF("4*z^2")
        assert eps(GroupElement(1)) == RF("64*z^6")
        assert eps(ge("-1/2")) == RF("1 / 8*z^3")

    def test_chain_restriction_agrees_with_base(self, zchain_base):
        p2 = extend_choice(
            extend_choice(zchain_base, ge("1/2"), "z^3"), ge("1/6"), "z"
        )
        for n in range(-3, 4):
            assert p2.choice(GroupElement(n)) == zchain_base.choice(GroupElement(n))

    def test_chain_is_exactly_multiplicative(self, zchain_base):
        p2 = extend_choice(
            extend_choice(zchain_base, ge("1/2"), "z^3"), ge("1/6"), "z"
        )
        eps = p2.choice
        els = [ge(Fraction(k, 6)) for k in range(-6, 7)]
        for a in els:
            for b in els:
                assert eps(a) * eps(b) == eps(a + b)
        assert is_trivial(eps, 4)[0] and semigroup_hom_check(eps, 4)

    def test_canonical_decomposition_window(self, zchain_base):
        # every gamma splits as alpha + n*step with 0 <= n < n0
        p1 = extend_choice(zchain_base, ge("1/2"), "z^3")
        assert p1.choice(ge("3/2")) == RF("512*z^9")
        assert p1.choice(ge("-1/2")) == RF("1 / 8*z^3")

    def test_gamma_already_inside_rejected(self, zchain_base):
        with pytest.raises(ValueError, match="already lies in the base subgroup"):
            extend_choice(zchain_base, GroupElement(2), "z^12")

    def test_witness_value_checked(self, zchain_base):
        with pytest.raises(ValueError, match="expected 1/2"):
            extend_choice(zchain_base, ge("1/2"), "z")

    def test_uncertified_base_rejected(self, zchain_base):
        broken = SubgroupWithChoice(zchain_base.subgroup, zchain_base.choice, certified_trivial=False)
        with pytest.raises(ValueError):
            extend_choice(broken, ge("1/2"), "z^3")

    def test_rootless_class_raises(self):
        v = MonomialValuation({"x": 1, "y": Fraction(1, 2)})
        base = free_pair(v, [GroupElement(1)], ["x"])
        with pytest.raises(RootNotFound, match="no 2-th root of the class x / y\\^2"):
            extend_choice(base, ge("1/2"), "y")

    def test_returning_multiple_beyond_ten_thousand_is_found(self):
        # n0 = 10007 in Q^2; 2 has no rational 10007-th root, so no certificate
        v = MonomialValuation({"x": (Fraction(1, 10007), 0), "y": (0, 1)})
        base = free_pair(
            v, [GroupElement((1, 0)), GroupElement((0, 1))], ["2*x^10007", "y"]
        )
        with pytest.raises(RootNotFound, match="no 10007-th root of the class 2 was found"):
            extend_choice(base, GroupElement((Fraction(1, 10007), 0)), "x")

    def test_carry_crosses_a_non_returning_step(self):
        # 2*(1/2, 1/2) = (1, 0) + (0, 1) returns only through the free step
        v = MonomialValuation({"u": (Fraction(1, 2), Fraction(1, 2)), "y": (0, 1)})
        base = free_pair(v, [GroupElement((1, 0))], ["4*u^2/y"])
        p1 = extend_choice(base, GroupElement((0, 1)), "y")
        p2 = extend_choice(p1, GroupElement((Fraction(1, 2), Fraction(1, 2))), "u")
        eps = p2.choice
        assert [s.n0 for s in eps.steps] == [None, 2]
        assert str(eps.step.factor) == "2*u"
        assert eps(GroupElement((Fraction(3, 2), Fraction(1, 2)))) == RF("8*u^3 / y")
        assert eps(GroupElement((Fraction(3, 2), Fraction(-1, 2)))) == RF("8*u^3 / y^2")
        window = eps.domain_elements(2)
        for a in window:
            for b in window:
                assert eps(a) * eps(b) == eps(a + b)

    def test_disjoint_step_needs_no_root(self):
        # <1> and <1/2 + irrational direction> never meet except at 0
        v = MonomialValuation({"x": (1, 0), "y": (0, 1)})
        base = free_pair(v, [GroupElement((1, 0))], ["x"])
        pair = extend_choice(base, GroupElement((0, 1)), "y")
        s = pair.choice.step
        assert s.n0 is None and s.root_witness is None
        eps = pair.choice
        assert eps(GroupElement((2, 3))) == RF("x^2*y^3")
        assert is_trivial(eps, 3)[0]

    def test_a_step_is_multiplicative_only_up_to_residue(self):
        # eps(1)/z^6 = 64 + z is no exact square: the root 8 is that of its class
        v = MonomialValuation({"z": Fraction(1, 6)})
        base = free_pair(v, [GroupElement(1)], ["64*z^6 + z^7"])
        eps = extend_choice(base, ge("1/2"), "z^3").choice
        half = ge("1/2")
        assert str(eps.step.root_witness) == "8"
        assert eps(half) ** 2 == RF("64*z^6") != eps(GroupElement(1))
        assert eps.twisting(half, half) == 1
        assert is_trivial(eps, 6) == (True, None)

    def test_a_long_chain_reuses_each_base(self, monkeypatch):
        # eps(1) = 2^256 z^256 with v(z) = 1/256; each step 1/2^k halves both exponents
        v = MonomialValuation({"z": Fraction(1, 256)})
        pairs = [free_pair(v, [GroupElement(1)], [f"{2**256}*z^256"])]
        counts = {"subgroup": 0, "witness": 0}
        full_init, check = ordgroup.FgSubgroup.__init__, twist._check_witness

        def counted_init(self, *args):
            counts["subgroup"] += 1
            full_init(self, *args)

        def counted_check(*args):
            counts["witness"] += 1
            check(*args)

        monkeypatch.setattr(ordgroup.FgSubgroup, "__init__", counted_init)
        monkeypatch.setattr(twist, "_check_witness", counted_check)
        before = []
        for k in range(1, 9):
            prev = pairs[-1]
            before.append((prev.choice.steps, prev.subgroup.generators,
                           [(list(r.vec), list(r.coeffs)) for r in prev.subgroup._rows]))
            pairs.append(extend_choice(prev, ge(Fraction(1, 2**k)), f"z^{256 >> k}"))
        # one subgroup per step; extend_choice checks the new witness through
        # its own binding, not twist's
        assert counts == {"subgroup": 8, "witness": 0}
        free_pair(v, [GroupElement(1)], ["z^256"])
        assert counts == {"subgroup": 9, "witness": 1}
        eps = pairs[-1].choice
        assert [s.n0 for s in eps.steps] == [2] * 8
        assert str(eps.step.factor) == "2*z"
        window = [ge(Fraction(k, 256)) for k in range(-40, 41, 3)]
        for a in window:
            for b in window:
                assert eps(a) * eps(b) == eps(a + b)
        # every intermediate pair keeps its own chain, subgroup and rows
        for pair, (steps, gens, rows) in zip(pairs, before):
            assert pair.choice.steps == steps and pair.subgroup is pair.choice.subgroup
            assert pair.subgroup.generators == gens
            assert [(list(r.vec), list(r.coeffs)) for r in pair.subgroup._rows] == rows
        for k, pair in enumerate(pairs):
            assert len(pair.choice.steps) == k
            assert pair.choice(ge(Fraction(1, 2**k))) == RF(f"{2**(256 >> k)}*z^{256 >> k}")


class TestMakeInitial:
    def test_reduces_entries(self):
        v = counterexample_valuation([2])
        raw = TableChoice(v, {
            ge("1/2"): RF("x2"),
            GroupElement(1): RF("x2^2 + x2^5"),
        })
        init = make_initial(raw)
        assert init(GroupElement(1)) == RF("x2^2")
        assert init(ge("1/2")) == RF("x2")

    def test_twisting_depends_only_on_initial_parts(self):
        v = counterexample_valuation([2])
        raw = TableChoice(v, {
            ge("1/2"): RF("x2 + x2^3"),
            GroupElement(1): RF("2*x2^2 + x2^4"),
        })
        init = make_initial(raw)
        for a, b in raw.iter_domain_pairs(1):
            assert raw.twisting(a, b) == init.twisting(a, b)

    def test_rule_based_choices_rejected(self):
        v = MonomialValuation({"x": 1})
        eps = GeneratorChoice(v, [GroupElement(1)], ["x"])
        with pytest.raises(TypeError):
            make_initial(eps)


class TestForcedPower:
    def test_two_stage_oracle(self):
        v = counterexample_valuation([2])
        raw = TableChoice(v, {
            ge("1/2"): RF("x2"),
            GroupElement(1): RF("x2^2 + x2^5"),
        })
        before = forced_power_check(raw, ge("1/2"), 2)
        assert not before.consistent
        assert before.identity() == "x2^2 != x2^5 + x2^2"
        after = forced_power_check(make_initial(raw), ge("1/2"), 2)
        assert after.consistent
        assert after.identity() == "x2^2 == x2^2"

    def test_cross_product_form_handles_quotients(self):
        v = counterexample_valuation([2, 3])
        eps = TableChoice(v, {
            ge("1/2"): RF("x2^3 / x3^3"),
            GroupElement(1): RF("x2^6 / x3^6"),
        })
        pc = forced_power_check(eps, ge("1/2"), 2)
        assert pc.consistent and pc.n == 2


class TestAnalyzer:
    def test_conflict_table_frozen(self):
        t = {Fraction(1, 2): "x2", Fraction(1, 3): "x3", Fraction(1): "x2^2"}
        rep = analyze_counterexample([2, 3], candidates=t)
        assert rep.verdict == "CONFLICT" and rep.exit_code == 1
        assert rep.conflict_detail == (
            "p=3: x3^3 != x2^2; epsilon-bar(1/3, 2/3) = x3^3 / x2^2 != 1"
        )
        assert [(f.n, f.consistent) for f in rep.forced] == [(2, True), (3, False)]
        assert [(r.p, r.root, r.divides) for r in rep.roots] == [
            (2, "x2", True),
            (3, None, False),
        ]
        assert rep.unit_degree == 2 and rep.lcm_primes == 6

    def test_consistent_table_divisibility(self):
        t = {
            Fraction(1, 2): "x2^3 / x3^3",
            Fraction(1, 3): "x2^2 / x3^2",
            Fraction(1): "x2^6 / x3^6",
        }
        rep = analyze_counterexample([2, 3], candidates=t)
        assert rep.verdict == "DIVISIBILITY" and rep.exit_code == 0
        assert rep.unit_degree == 6 and rep.divisible is True

    def test_enumeration_frozen(self):
        rep = analyze_counterexample([2, 3], degree_bound=8)
        assert rep.mode == "enumerate"
        assert rep.pool_sizes == (("1/2", 5), ("1/3", 6), ("1", 5))
        assert len(rep.consistent_tables) == 1
        ct = rep.consistent_tables[0]
        assert ct.assignments == (
            ("1/2", "x2^3 / x3^3"),
            ("1/3", "x2^2 / x3^2"),
            ("1", "x2^6 / x3^6"),
        )
        assert ct.unit_degree == 6 and ct.divisible and ct.recheck_ok
        assert rep.verdict == "DIVISIBILITY" and rep.exit_code == 0

    def test_every_consistent_table_has_divisible_degree(self):
        rep = analyze_counterexample([2, 3, 5], degree_bound=8)
        # lcm(2, 3, 5) = 30 exceeds the bound, so nothing fits
        assert rep.lcm_primes == 30
        for ct in rep.consistent_tables:
            assert ct.unit_degree % rep.lcm_primes == 0

    def test_vacuous(self):
        rep = analyze_counterexample([])
        assert rep.verdict == "VACUOUS" and rep.exit_code == 0 and rep.mode == "vacuous"

    def test_bad_primes_rejected(self):
        with pytest.raises(SetupError):
            analyze_counterexample([4])
        with pytest.raises(SetupError):
            analyze_counterexample([1, 2])

    def test_table_must_cover_required_degrees(self):
        with pytest.raises(SetupError):
            analyze_counterexample([2, 3], candidates={Fraction(1, 2): "x2"})

    def test_table_entries_value_checked(self):
        with pytest.raises(SetupError):
            analyze_counterexample(
                [2], candidates={Fraction(1, 2): "x2^2", Fraction(1): "x2^2"}
            )

    def test_degree_caveat_flag(self):
        # x2^2, x3^3 and x2^4, x3^6 are value ties, so the initial numerator
        # and denominator both stay multi-term and the degree is flagged
        t = {
            Fraction(1, 2): "x2",
            Fraction(1, 3): "x3",
            Fraction(1): "x2^4 + x3^6 / x2^2 + x3^3",
        }
        rep = analyze_counterexample([2, 3], candidates=t)
        assert rep.degree_caveat is True

    def test_no_caveat_for_monomial_quotients(self):
        t = {Fraction(1, 2): "x2", Fraction(1): "x2^2"}
        rep = analyze_counterexample([2], candidates=t)
        assert rep.degree_caveat is False

    def test_narrative_mentions_the_unmechanized_step(self, capsys, tmp_path):
        setup = tmp_path / "table.vt"
        setup.write_text(
            '[analyzer]\nprimes = 2\ncandidates {\n  "1/2" = "x2"\n  "1" = "x2^2"\n}\n'
        )
        assert cli.main(["counterexample", "--setup", str(setup)]) == 0
        assert "narrative, not machine-checked" in capsys.readouterr().out

    def test_machine_lines_are_deterministic(self, capsys, tmp_path):
        setup = tmp_path / "pool.vt"
        setup.write_text("[analyzer]\nprimes = 2, 3\ndegree_bound = 8\n")
        argv = ["counterexample", "--setup", str(setup), "--machine"]
        cli.main(argv)
        a = capsys.readouterr().out.splitlines()
        cli.main(argv)
        b = capsys.readouterr().out.splitlines()
        assert a == b
        assert a[0] == "analyzer mode=enumerate primes=2,3 degree_bound=8"


class TestAnalyzerCostGuard:
    def test_oversized_walk_exits_2_without_walking(self, capsys, tmp_path, monkeypatch):
        def walk(*args):
            raise AssertionError("the oversized enumeration was walked")

        monkeypatch.setattr(constructions, "monomial_pool", walk)
        setup = tmp_path / "big.vt"
        setup.write_text("[analyzer]\nprimes = 2, 3, 5, 7, 11, 13\ndegree_bound = 60\n")
        start = time.perf_counter()
        rc = cli.main(["counterexample", "--setup", str(setup)])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err == (
            "error: the enumeration over primes 2, 3, 5, 7, 11, 13 with degree_bound 60"
            f" walks {7 * 121**5} exponent prefixes, more than the limit of {WALK_LIMIT}\n"
        )
        assert elapsed < 1.0

    def test_limit_boundary(self, monkeypatch):
        # 5 * 57^3 = 925 965 is within the limit, 5 * 59^3 = 1 026 895 is not
        monkeypatch.setattr(constructions, "_analyze_enumeration", lambda *args: "walked")
        assert analyze_counterexample([2, 3, 5, 7], degree_bound=28) == "walked"
        with pytest.raises(SetupError, match="walks 1026895 exponent prefixes"):
            analyze_counterexample([2, 3, 5, 7], degree_bound=29)

    def test_oversized_unit_pool_exits_2_before_any_lookup(self, capsys, tmp_path, monkeypatch):
        def lookup(*args):
            raise AssertionError("a candidate of the oversized pool was looked up")

        monkeypatch.setattr(constructions, "_exponents", lookup)
        monkeypatch.setattr(constructions, "_augmented_recheck", lookup)
        setup = tmp_path / "wide.vt"
        setup.write_text("[analyzer]\nprimes = 2, 3\ndegree_bound = 20000\n")
        start = time.perf_counter()
        rc = cli.main(["counterexample", "--setup", str(setup)])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err == (
            "error: the enumeration over primes 2, 3 with degree_bound 20000 has 13333"
            f" candidates for epsilon(1), more than the limit of {UNIT_POOL_LIMIT}\n"
        )
        assert elapsed < 2.0

    def test_largest_walk_passes_the_pool_guard(self):
        # the largest bound the walk guard allows for {2,3,5,7} pools 657 units
        rep = analyze_counterexample([2, 3, 5, 7], degree_bound=28)
        assert rep.pool_sizes[-1] == ("1", 657)

    def test_a_root_key_that_lies_raises(self, monkeypatch):
        # every quotient gets the same key, so the lookup finds a wrong root
        monkeypatch.setattr(constructions, "_exponents", lambda primes, f: ())
        with pytest.raises(RuntimeError, match="but its 2-th power differs"):
            analyze_counterexample([2, 3], degree_bound=8)


class TestPrimality:
    def test_agrees_with_trial_division_below_10_5(self):
        primes = []
        for n in range(10**5):
            prime = n >= 2 and all(n % p for p in itertools.takewhile(lambda p: p * p <= n, primes))
            if prime:
                primes.append(n)
            assert _is_prime(n) is prime, n

    def test_strong_pseudoprimes_to_small_bases_are_composite(self):
        # 3215031751 fools bases 2, 3, 5 and 7; 3825123056546413051 all bases up to 23;
        # 318665857834031151167461 all bases up to 37
        assert not _is_prime(3215031751)
        assert not _is_prime(3825123056546413051)
        assert not _is_prime(318665857834031151167461)
        assert _is_prime(2**61 - 1) and not _is_prime(2**61 + 1)

    def test_nineteen_digit_prime_is_fast(self, capsys, tmp_path):
        setup = tmp_path / "big_prime.vt"
        setup.write_text("[analyzer]\nprimes = 1000000000000000003\n")
        start = time.perf_counter()
        rc = cli.main(["counterexample", "--setup", str(setup)])
        elapsed = time.perf_counter() - start
        assert rc == 0 and "prime set: 1000000000000000003" in capsys.readouterr().out
        assert elapsed < 1.0

    def test_number_beyond_the_exact_test_exits_2(self, capsys, tmp_path):
        n = 123456789012345678901234567891
        assert n >= PRIME_LIMIT
        setup = tmp_path / "huge_prime.vt"
        setup.write_text(f"[analyzer]\nprimes = 2, {n}\n")
        start = time.perf_counter()
        rc = cli.main(["counterexample", "--setup", str(setup)])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err == (
            f"error: {n} is too large to be checked for primality (the limit is {PRIME_LIMIT})\n"
        )
        assert elapsed < 1.0
        with pytest.raises(SetupError, match=str(n)):
            _is_prime(n)


class TestMonomialPool:
    def test_pool_oracle(self):
        pool = monomial_pool([2], Fraction(1), 4)
        assert [str(f) for f in pool] == ["x2^2"]

    def test_pool_members_have_the_target_value(self):
        v = counterexample_valuation([2, 3])
        for f in monomial_pool([2, 3], Fraction(1, 2), 6):
            assert v.value(f) == GroupElement(Fraction(1, 2))


def _reference_pool(primes, target, degree_bound):
    """The exponent scan that adds one Fraction per node."""
    out = []

    def rec(i, exps, value, pos, neg):
        if pos > degree_bound or neg > degree_bound:
            return
        if i == len(primes):
            if value == target:
                num = Monomial([(f"x{p}", e) for p, e in zip(primes, exps) if e > 0])
                den = Monomial([(f"x{p}", -e) for p, e in zip(primes, exps) if e < 0])
                out.append(RationalFunction(Polynomial.term(num, 1), Polynomial.term(den, 1)))
            return
        for e in range(-degree_bound, degree_bound + 1):
            rec(i + 1, exps + [e], value + Fraction(e, primes[i]), pos + max(e, 0), neg + max(-e, 0))

    rec(0, [], Fraction(0), 0, 0)
    return out


def _reference_enumeration(primes, degree_bound):
    """Every joint assignment from the product of the pools, tried in turn."""
    valuation = counterexample_valuation(primes)
    pools = [_reference_pool(primes, Fraction(1, p), degree_bound) for p in primes]
    unit_pool = _reference_pool(primes, Fraction(1), degree_bound)
    sizes = tuple((f"1/{p}", len(pool)) for p, pool in zip(primes, pools)) + (
        ("1", len(unit_pool)),
    )
    tables = []
    for chosen in itertools.product(*pools):
        for unit_value in unit_pool:
            if all(unit_value == val**p for p, val in zip(primes, chosen)):
                deg = unit_value.total_degree()
                assignments = tuple(
                    [(f"1/{p}", str(val)) for p, val in zip(primes, chosen)]
                    + [("1", str(unit_value))]
                )
                recheck = _augmented_recheck(valuation, primes, unit_value, chosen)
                tables.append(ConsistentTable(assignments, deg, deg % lcm(*primes) == 0, recheck))
    return sizes, tuple(tables)


# prime subsets of {2, 3, 5, 7} with at most three primes; bounds keep the
# product search under a second, and {2, 3} at 12 and 14 has two tables
_DIFFERENTIAL_CASES = [
    ((2,), 6), ((3,), 6), ((5,), 8), ((7,), 6), ((7,), 8),
    ((2, 3), 4), ((2, 3), 8), ((2, 3), 12), ((2, 3), 14),
    ((2, 5), 10), ((2, 7), 14), ((3, 5), 14), ((3, 7), 14), ((5, 7), 14),
    ((2, 3, 5), 6), ((2, 3, 7), 6), ((2, 5, 7), 8), ((3, 5, 7), 8),
]


class TestEnumerationAgainstProductSearch:
    @pytest.mark.parametrize(
        "primes,bound",
        _DIFFERENTIAL_CASES,
        ids=[f"{'-'.join(map(str, ps))}@{b}" for ps, b in _DIFFERENTIAL_CASES],
    )
    def test_pools_and_tables_match(self, primes, bound):
        rep = analyze_counterexample(primes, degree_bound=bound)
        sizes, tables = _reference_enumeration(primes, bound)
        assert rep.pool_sizes == sizes
        assert rep.consistent_tables == tables

    # the last two are pool-only: the product search cannot reach them
    @pytest.mark.parametrize(
        "primes,bound",
        [((2, 3), 6), ((2, 3, 5), 6), ((5, 7), 8), ((2, 3, 5, 7), 6), ((2, 3, 5), 10)],
    )
    def test_monomial_pool_matches_the_fraction_scan(self, primes, bound):
        for target in [Fraction(1, p) for p in primes] + [Fraction(1), Fraction(0)]:
            assert monomial_pool(primes, target, bound) == _reference_pool(
                list(primes), target, bound
            )

    @settings(max_examples=80, deadline=None)
    @given(
        primes=st.lists(st.sampled_from([2, 3, 5, 7, 11]), max_size=4, unique=True),
        numerator=st.integers(-3, 3),
        denominator=st.integers(1, 6),
        bound=st.integers(0, 5),
    )
    def test_monomial_pool_matches_the_fraction_scan_on_random_inputs(
        self, primes, numerator, denominator, bound
    ):
        target = Fraction(numerator, denominator)
        assert monomial_pool(primes, target, bound) == _reference_pool(primes, target, bound)
