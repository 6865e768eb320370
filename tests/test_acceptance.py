"""Acceptance gate: one test per release criterion.

Each test exercises the library at campaign scale with fixed seeds, so a
run is reproducible bit for bit.  The conftest hook prints one PASS/FAIL
line per criterion at the end of the session.
"""

import random
from fractions import Fraction
from pathlib import Path

from valtwist.cli import main
from valtwist.constructions import (
    analyze_counterexample,
    counterexample_valuation,
    extend_choice,
    forced_power_check,
    free_pair,
    make_initial,
)
from valtwist.mpoly import (
    Monomial,
    Polynomial,
    nth_root,
    parse_rational_function,
)
from valtwist.ordgroup import GroupElement
from valtwist.suites import (
    cocycle_suite,
    exact_multiplicativity_suite,
    fixed_nontrivial_setup,
    free_lex_setup,
    grid_table_setup,
    psi_suites,
    random_setup,
    ring_axiom_suite,
    triviality_agreement_suite,
)
from valtwist.twist import GeneratorChoice, TableChoice, is_trivial, semigroup_hom_check
from valtwist.valuation import MonomialValuation

SETUPS = Path(__file__).resolve().parents[1] / "setups"


def test_criterion_1_ring_axioms():
    rng = random.Random(101)
    setups = [random_setup(rng, i) for i in range(100)]
    setups += [fixed_nontrivial_setup(), free_lex_setup(), grid_table_setup()]
    assert len(setups) >= 100
    bad = []
    for s in setups:
        r = ring_axiom_suite(s, rng, trials=2)
        if not r.ok:
            bad.append((s.name, r.failures[:1]))
    assert not bad, bad


def test_criterion_2_cocycle():
    rng = random.Random(202)
    setups = [random_setup(rng, 1000 + i) for i in range(12)]
    assert len(setups) >= 10
    triples = 0
    bad = []
    for s in setups:
        r = cocycle_suite(s, rng, triples=150)
        triples += r.cases // 3
        if not r.ok:
            bad.append((s.name, r.failures[:1]))
    assert not bad, bad
    assert triples >= 1000, triples


def test_criterion_3_graded_map():
    checked_pairs = 0
    for setup in (free_lex_setup(), grid_table_setup()):
        assert setup.valuation.weights[sorted(setup.valuation.weights)[0]].dim == 2
        rng = random.Random(303)
        results = psi_suites(setup, rng, pairs=400)
        for r in results:
            assert r.skipped is None, (r.name, r.skipped)
            assert r.ok, (r.name, r.failures[:3])
        by_name = {r.name.split("[")[0]: r for r in results}
        assert set(by_name) == {
            "psi-well-defined-injective",
            "psi-additive",
            "psi-multiplicative",
            "psi-degree",
            "psi-roundtrip",
        }
        checked_pairs += by_name["psi-well-defined-injective"].cases
    assert checked_pairs >= 500, checked_pairs


def test_criterion_4_triviality_agreement():
    rng = random.Random(404)
    setups = [random_setup(rng, 2000 + i) for i in range(20)]
    setups += [fixed_nontrivial_setup(), free_lex_setup(), grid_table_setup()]
    assert len(setups) >= 20
    for s in setups:
        r = triviality_agreement_suite(s, bound=4)
        assert r.ok, (s.name, r.failures)
    # the doubled table is the canonical nontrivial witness
    doubled = fixed_nontrivial_setup()
    flag, pair = is_trivial(doubled.eps, 6)
    assert flag is False and pair == (GroupElement(1), GroupElement(1))
    assert semigroup_hom_check(doubled.eps, 6) is False


def test_criterion_5_free_exactness():
    v2 = MonomialValuation({"x": (1, 0), "y": (0, 1)})
    eps2 = GeneratorChoice(v2, [GroupElement((1, 0)), GroupElement((0, 1))], ["x", "y"])
    window2 = [GroupElement((a, b)) for a in range(-5, 6) for b in range(-5, 6)]
    r2 = exact_multiplicativity_suite(eps2, window2, "Z2")
    assert r2.ok and r2.cases == len(window2) ** 2, r2.failures[:3]

    v3 = MonomialValuation({"x": (1, 0, 0), "y": (0, 1, 0), "z": (0, 0, 1)})
    eps3 = GeneratorChoice(
        v3,
        [GroupElement((1, 0, 0)), GroupElement((0, 1, 0)), GroupElement((0, 0, 1))],
        ["x", "y", "z"],
    )
    window3 = [
        GroupElement((a, b, c))
        for a in range(-5, 6)
        for b in range(-5, 6)
        for c in range(-5, 6)
    ]
    r3 = exact_multiplicativity_suite(eps3, window3, "Z3")
    assert r3.ok and r3.cases == len(window3) ** 2, r3.failures[:3]


def test_criterion_6_extension_chain(capsys):
    v = MonomialValuation({"z": Fraction(1, 6)})
    base = free_pair(v, [GroupElement(1)], ["64*z^6"])
    p1 = extend_choice(base, GroupElement(Fraction(1, 2)), "z^3")
    p2 = extend_choice(p1, GroupElement(Fraction(1, 6)), "z")
    assert p2.certified_trivial
    assert (p1.choice.step.n0, p2.choice.step.n0) == (2, 3)
    assert str(p1.choice.step.root_witness) == "8"
    assert str(p2.choice.step.root_witness) == "2"
    eps = p2.choice
    assert eps(GroupElement(Fraction(1, 6))) == parse_rational_function("2*z")
    assert eps(GroupElement(1)) == parse_rational_function("64*z^6")
    window = [GroupElement(Fraction(k, 6)) for k in range(-12, 13)]
    r = exact_multiplicativity_suite(eps, window, "chain")
    assert r.ok, r.failures[:3]
    assert is_trivial(eps, 6) == (True, None)
    assert semigroup_hom_check(eps, 6) is True
    # restriction to the base subgroup is untouched
    for n in range(-3, 4):
        assert eps(GroupElement(n)) == base.choice(GroupElement(n))

    rc = main(["build", "--setup", str(SETUPS / "chain_rootless.vt")])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.err.startswith("construction failed:")


def test_criterion_7_counterexample_lemmas():
    # twisting of a table only sees initial parts
    v = counterexample_valuation([2])
    raw = TableChoice(v, {
        GroupElement(Fraction(1, 2)): parse_rational_function("x2 + x2^3"),
        GroupElement(1): parse_rational_function("2*x2^2 + x2^4"),
    })
    init = make_initial(raw)
    for a, b in raw.iter_domain_pairs(1):
        assert raw.twisting(a, b) == init.twisting(a, b)

    # the forced identity is decided on initial parts
    messy = TableChoice(v, {
        GroupElement(Fraction(1, 2)): parse_rational_function("x2"),
        GroupElement(1): parse_rational_function("x2^2 + x2^5"),
    })
    assert not forced_power_check(messy, GroupElement(Fraction(1, 2)), 2).consistent
    assert forced_power_check(
        make_initial(messy), GroupElement(Fraction(1, 2)), 2
    ).consistent

    # explicit table with no 3rd root: conflict, exit code 1
    rep = analyze_counterexample(
        [2, 3],
        candidates={Fraction(1, 2): "x2", Fraction(1, 3): "x3", Fraction(1): "x2^2"},
    )
    assert rep.verdict == "CONFLICT" and rep.exit_code == 1
    rc = main(["counterexample", "--setup", str(SETUPS / "counterexample_conflict.vt")])
    assert rc == 1

    # exhaustive scan: every consistent table has lcm(2,3) dividing deg(eps(1))
    scan = analyze_counterexample([2, 3], degree_bound=8)
    assert scan.verdict == "DIVISIBILITY" and scan.consistent_tables
    for ct in scan.consistent_tables:
        assert ct.unit_degree % 6 == 0
        assert ct.recheck_ok


def test_criterion_8_exact_roots():
    rng = random.Random(808)
    names = ["x", "y"]
    consts = [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3)]
    checked = 0
    for i in range(210):
        n = (2, 3, 5)[i % 3]
        terms = {}
        for _ in range(rng.randint(1, 3)):
            mono = Monomial(
                tuple(
                    (nm, rng.randint(1, 2))
                    for nm in rng.sample(names, rng.randint(1, 2))
                )
            )
            terms[mono] = rng.choice(consts)
        g = Polynomial(terms)
        if g.is_zero():
            continue
        p = g ** n
        r = nth_root(p, n)
        assert r is not None, (str(g), n)
        assert r == g or (n % 2 == 0 and r == -g), (str(g), str(r), n)
        assert p.total_degree() == n * g.total_degree()
        checked += 1
    assert checked >= 200, checked
