"""Randomized verification campaigns shared by the CLI and the test suite.

Everything here is driven by an explicit ``random.Random`` so a campaign
is a pure function of (setup, seed): reports are byte-identical across
runs.  A campaign returns :class:`SuiteResult` records; rendering is the
caller's business.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import LiftingError
from .graded import GradedElement, constant_lift, h_add, h_mul, in_v, psi, psi_inverse
from .mpoly import Monomial, Polynomial, RationalFunction
from .ordgroup import GroupElement
from .twist import (
    ChoiceFunction,
    GeneratorChoice,
    TableChoice,
    TwistedRingElement,
    is_trivial,
    semigroup_hom_check,
    twisted_mul,
)
from .valuation import MonomialValuation

__all__ = [
    "SuiteResult",
    "ChoiceSetup",
    "fixed_nontrivial_setup",
    "free_lex_setup",
    "grid_table_setup",
    "random_setup",
    "product_safe_support",
    "ring_axiom_suite",
    "cocycle_suite",
    "triviality_agreement_suite",
    "psi_suites",
    "exact_multiplicativity_suite",
]

# the height of the fixed, grid and random tables: the most generators a degree sums
_HEIGHT = 6


def product_safe_support(eps: ChoiceFunction, candidates) -> list[GroupElement]:
    """Shrink ``candidates`` until all two- and three-fold sums stay in the domain.

    Campaign operands are built from these degrees, and products of up to
    three operands must remain where eps is defined.  Rule-based choices
    are defined on a whole group, so the list survives unchanged; finite
    tables lose their upper reaches.  Each round drops the largest member
    of the first sum a + b, or a + b + c, that leaves the domain, scanning
    a, b, c in sorted order (each pair before its triples), so the result
    is deterministic; that member need not be the largest offending degree.
    """
    safe = sorted(set(candidates))
    if isinstance(eps, GeneratorChoice) and all(eps.contains(g) for g in safe):
        # the domain is a subgroup, closed under +: no sum can leave it
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


@dataclass
class SuiteResult:
    name: str
    cases: int
    failures: list[str] = field(default_factory=list)
    skipped: str | None = None
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def status(self) -> str:
        if self.skipped is not None:
            return "SKIPPED"
        return "PASS" if self.ok else "FAIL"


@dataclass
class ChoiceSetup:
    """One valuation plus one choice function, ready for a campaign."""

    name: str
    valuation: MonomialValuation
    eps: ChoiceFunction
    lifting: object | None = None  # callable ResidueElement -> RationalFunction
    support: list[GroupElement] = field(default_factory=list)  # degrees safe for operands


def fixed_nontrivial_setup() -> ChoiceSetup:
    """v(x) = 1 on Q(x) with the tabulated eps(1) = 2x: twisting 4 at (1, 1)."""
    v = MonomialValuation({"x": 1})
    table = {GroupElement(1): RationalFunction(Polynomial.variable("x").scale(2))}
    for k in range(2, _HEIGHT + 1):
        table[GroupElement(k)] = RationalFunction(Polynomial.variable("x", k))
    eps = TableChoice(v, table)
    support = [GroupElement(k) for k in range(0, 3)]
    return ChoiceSetup("fixed-2x", v, eps, constant_lift, support)


def free_lex_setup() -> ChoiceSetup:
    """Q(x, y) with independent lex weights and the free choice x^a y^b."""
    v = MonomialValuation({"x": (1, 0), "y": (0, 1)})
    eps = GeneratorChoice(v, [GroupElement((1, 0)), GroupElement((0, 1))], ["x", "y"])
    support = [GroupElement((a, b)) for a in range(0, 2) for b in range(0, 2)]
    return ChoiceSetup("free-lex", v, eps, constant_lift, support)


def grid_table_setup() -> ChoiceSetup:
    """A deliberately non-multiplicative table over the grid [0..6]^2.

    Entries are c(a,b) * x^a * y^b with constants that break
    multiplicativity (e.g. the twist at ((1,0), (1,0)) is 4), while every
    value-0 class stays constant, so the constant lifting oracle applies.
    """
    v = MonomialValuation({"x": (1, 0), "y": (0, 1)})
    table = {}
    for a in range(_HEIGHT + 1):
        for b in range(_HEIGHT + 1):
            if a == b == 0:
                continue
            c = Fraction(2) ** max(0, 2 - a) if a else Fraction(1, b)
            mono = Polynomial.term(Monomial((("x", a), ("y", b))), c)
            table[GroupElement((a, b))] = RationalFunction(mono)
    eps = TableChoice(v, table)
    support = [GroupElement((a, b)) for a in range(0, 3) for b in range(0, 3)]
    return ChoiceSetup("grid-table", v, eps, constant_lift, support)


_WEIGHT_POOL = [
    Fraction(1),
    Fraction(1, 2),
    Fraction(1, 3),
    Fraction(2, 3),
    Fraction(1, 4),
    Fraction(3, 2),
    Fraction(2),
]

# integral entries are ints: some reach the dict constructor of Polynomial as given
_CONST_POOL = [1, -1, 2, 3, Fraction(1, 2), -2, Fraction(3, 4), 5]


def _random_monomial(rng: random.Random, variables) -> Monomial:
    while True:
        pairs = [(var, rng.randint(0, 2)) for var in variables]
        m = Monomial(pairs)
        if not m.is_one():
            return m


def random_setup(rng: random.Random, index: int) -> ChoiceSetup:
    """A reproducible random table setup.

    Dimension-1 weights are drawn from a small pool with repeats allowed,
    so distinct monomials frequently share values and the twistings take
    non-constant residue values; dimension-2 setups use lex weights.
    """
    dim = 1 if rng.random() < 0.7 else 2
    nvars = rng.randint(2, 3)
    names = ["x", "y", "z"][:nvars]
    if dim == 1:
        weights = {name: GroupElement(rng.choice(_WEIGHT_POOL)) for name in names}
    else:
        weights = {
            name: GroupElement((rng.choice(_WEIGHT_POOL), Fraction(rng.randint(-1, 2))))
            for name in names
        }
    v = MonomialValuation(weights)

    ngens = rng.randint(1, 3)
    gens: list[GroupElement] = []
    gen_wits: list[Monomial] = []
    for _ in range(ngens):
        for _attempt in range(20):
            m = _random_monomial(rng, names)
            gamma = v.monomial_value(m)
            if not gamma.is_zero():
                gens.append(gamma)
                gen_wits.append(m)
                break

    # positive-value monomial for optional higher-value tails
    tail_mono = None
    for name in names:
        if v.weights[name] > v.group_zero:
            tail_mono = Monomial(((name, 1),))
            break

    # enumerate sums of at most _HEIGHT generators, remembering one witness
    decomp: dict[GroupElement, Monomial] = {v.group_zero: Monomial()}
    frontier = dict(decomp)
    for _ in range(_HEIGHT):
        nxt: dict[GroupElement, Monomial] = {}
        for degree, mono in frontier.items():
            for g, w in zip(gens, gen_wits):
                d = degree + g
                if d not in decomp and d not in nxt:
                    nxt[d] = mono.mul(w)
        decomp.update(nxt)
        frontier = nxt

    table = {}
    for degree in sorted(decomp):
        if degree.is_zero():
            continue
        mono = decomp[degree]
        value = Polynomial.term(mono, rng.choice(_CONST_POOL))
        if tail_mono is not None and rng.random() < 0.3:
            value = value + Polynomial.term(
                mono.mul(tail_mono), rng.choice(_CONST_POOL)
            )
        table[degree] = RationalFunction(value)
    eps = TableChoice(v, table)

    support = sorted(decomp)
    # operands stay within height 2 so products of three remain tabulated
    low = [d for d in support if d.is_zero()]
    for g in gens:
        for h in gens:
            s = g + h
            if s in decomp:
                low.append(s)
        if g in decomp:
            low.append(g)
    low = sorted(set(low))
    return ChoiceSetup(f"random-{index}", v, eps, None, low)


def _random_coefficient(rng: random.Random, setup: ChoiceSetup):
    v = setup.valuation
    if rng.random() < 0.25 and len(setup.support) >= 2:
        a, b = rng.sample(setup.support, 2)
        if setup.eps.contains(a + b):
            return setup.eps.twisting(a, b) * rng.choice(_CONST_POOL)
    return v.residue_constant(rng.choice(_CONST_POOL))


def _random_twisted_element(rng: random.Random, setup: ChoiceSetup, max_terms: int = 4):
    v = setup.valuation
    nterms = rng.randint(1, max_terms)
    coeffs = {}
    for _ in range(nterms):
        g = rng.choice(setup.support)
        coeffs[g] = _random_coefficient(rng, setup)
    return TwistedRingElement(v, coeffs)


def ring_axiom_suite(setup: ChoiceSetup, rng: random.Random, trials: int) -> SuiteResult:
    """Commutativity, unit, associativity and distributivity on random elements."""
    result = SuiteResult(name=f"ring-axioms[{setup.name}]", cases=0)
    eps = setup.eps
    one = TwistedRingElement.one(setup.valuation)
    for t in range(trials):
        a = _random_twisted_element(rng, setup)
        b = _random_twisted_element(rng, setup)
        c = _random_twisted_element(rng, setup, max_terms=2)
        checks = [
            ("commutativity", twisted_mul(eps, a, b) == twisted_mul(eps, b, a)),
            ("left unit", twisted_mul(eps, one, a) == a),
            ("right unit", twisted_mul(eps, a, one) == a),
            (
                "associativity",
                twisted_mul(eps, twisted_mul(eps, a, b), c)
                == twisted_mul(eps, a, twisted_mul(eps, b, c)),
            ),
            (
                "distributivity",
                twisted_mul(eps, a, b + c)
                == twisted_mul(eps, a, b) + twisted_mul(eps, a, c),
            ),
            ("additive inverse", (a + (-a)).is_zero()),
        ]
        for label, ok in checks:
            result.cases += 1
            if not ok:
                result.failures.append(f"trial {t}: {label} failed")
    return result


def cocycle_suite(setup: ChoiceSetup, rng: random.Random, triples: int) -> SuiteResult:
    """The cocycle identity of the twisting on random degree triples."""
    result = SuiteResult(name=f"cocycle[{setup.name}]", cases=0)
    eps = setup.eps
    zero = setup.valuation.group_zero
    one = setup.valuation.residue_one()
    pool = setup.support
    for t in range(triples):
        a, b, c = (rng.choice(pool) for _ in range(3))
        if not (
            eps.contains(a + b)
            and eps.contains(b + c)
            and eps.contains(a + b + c)
        ):
            continue
        lhs = eps.twisting(a, b) * eps.twisting(a + b, c)
        rhs = eps.twisting(a, b + c) * eps.twisting(b, c)
        result.cases += 1
        if lhs != rhs:
            result.failures.append(f"trial {t}: cocycle identity failed at {a}, {b}, {c}")
        result.cases += 1
        if eps.twisting(a, b) != eps.twisting(b, a):
            result.failures.append(f"trial {t}: symmetry failed at {a}, {b}")
        result.cases += 1
        if eps.twisting(zero, a) != one:
            result.failures.append(f"trial {t}: unit twist failed at {a}")
    return result


def triviality_agreement_suite(setup: ChoiceSetup, bound: int) -> SuiteResult:
    """is_trivial and the semigroup-hom check must agree on every setup."""
    result = SuiteResult(name=f"triviality[{setup.name}]", cases=1)
    trivial, pair = is_trivial(setup.eps, bound)
    hom = semigroup_hom_check(setup.eps, bound)
    result.notes.append(
        f"trivial={str(trivial).lower()}"
        + (f" first_failing_pair=({pair[0]}, {pair[1]})" if pair else "")
    )
    if trivial != hom:
        result.failures.append(
            f"is_trivial says {trivial} but the hom check says {hom}"
        )
    return result


def _random_polynomial_for(setup: ChoiceSetup, rng: random.Random, max_exp: int = 3):
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
        if setup.eps.contains(setup.valuation.value(RationalFunction(p))):
            return p
    raise RuntimeError("could not sample a polynomial inside the choice domain")


def _positive_tail(setup: ChoiceSetup, rng: random.Random, x: Polynomial):
    """A polynomial of value strictly above v(x), or None."""
    v = setup.valuation
    for name in sorted(v.weights):
        if v.weights[name] > v.group_zero:
            return x * Polynomial.variable(name, rng.randint(1, 2))
    return None


def psi_suites(setup: ChoiceSetup, rng: random.Random, pairs: int) -> list[SuiteResult]:
    """The full isomorphism battery for one setup.

    Covers: well-definedness and injectivity (initial-form equality iff
    equal images, both directions), additivity in both the cancelling and
    non-cancelling case, multiplicativity against the twisted product,
    degree preservation, and — when a lifting oracle is configured — both
    round trips.
    """
    v = setup.valuation
    eps = setup.eps
    wd = SuiteResult(name=f"psi-well-defined-injective[{setup.name}]", cases=0)
    add = SuiteResult(name=f"psi-additive[{setup.name}]", cases=0)
    mul = SuiteResult(name=f"psi-multiplicative[{setup.name}]", cases=0)
    deg = SuiteResult(name=f"psi-degree[{setup.name}]", cases=0)
    cancelled = 0

    for t in range(pairs):
        x = _random_polynomial_for(setup, rng)
        flavor = t % 4
        if flavor == 0:
            y = x.scale(rng.choice([c for c in _CONST_POOL if c != 1]))
        elif flavor == 1:
            tail = _positive_tail(setup, rng, x)
            y = x + tail if tail is not None else x
        elif flavor == 2:
            y = _random_polynomial_for(setup, rng)
        else:
            y = x
        if v.value(RationalFunction(y)) != v.value(RationalFunction(x)):
            continue
        hx, hy = in_v(v, x), in_v(v, y)
        wd.cases += 1
        same_form = v.in_eq(RationalFunction(x), RationalFunction(y))
        px = psi(eps, hx)
        if same_form != (px == psi(eps, hy)):
            wd.failures.append(f"trial {t}: in_eq and psi-equality disagree")

        # additivity at equal degrees, forcing the cancelling branch on half the trials
        if flavor % 2 == 0:
            z = -x
            tail = _positive_tail(setup, rng, x)
            if tail is not None and rng.random() < 0.7:
                z = z + tail
        else:
            z = y
        hz = in_v(v, z)
        s = h_add(hx, hz)
        if s.is_zero():
            cancelled += 1
        add.cases += 1
        if psi(eps, s) != px + psi(eps, hz):
            add.failures.append(f"trial {t}: additivity failed")

        w = _random_polynomial_for(setup, rng, max_exp=2)
        hw = in_v(v, w)
        if eps.contains(hx.degree + hw.degree):
            mul.cases += 1
            if psi(eps, h_mul(hx, hw)) != twisted_mul(eps, px, psi(eps, hw)):
                mul.failures.append(f"trial {t}: multiplicativity failed")

        deg.cases += 1
        if px.support() != [hx.degree]:
            deg.failures.append(f"trial {t}: degree not preserved")

    add.notes.append(f"cancelling-branch trials: {cancelled}")
    if cancelled == 0:
        add.failures.append("the cancelling branch was never exercised")

    results = [wd, add, mul, deg]

    rt = SuiteResult(name=f"psi-roundtrip[{setup.name}]", cases=0)
    if setup.lifting is None:
        rt.skipped = "no lifting oracle for this residue field"
    else:
        for t in range(max(1, pairs // 2)):
            x = _random_polynomial_for(setup, rng)
            hx = in_v(v, x)
            rt.cases += 1
            try:
                back = psi_inverse(eps, psi(eps, hx), setup.lifting)
            except LiftingError as exc:
                rt.failures.append(f"trial {t}: lifting failed: {exc}")
                continue
            if back != GradedElement(v, [hx]):
                rt.failures.append(f"trial {t}: psi_inverse(psi(h)) != h")
            term = TwistedRingElement.term(
                v, rng.choice(setup.support), v.residue_constant(rng.choice(_CONST_POOL))
            )
            rt.cases += 1
            if psi(eps, psi_inverse(eps, term, setup.lifting)) != term:
                rt.failures.append(f"trial {t}: psi(psi_inverse(term)) != term")
    results.append(rt)
    return results


def exact_multiplicativity_suite(
    eps: ChoiceFunction, elements: list[GroupElement], name: str
) -> SuiteResult:
    """Exact eps(a)*eps(b) == eps(a+b) over all pairs from ``elements``.

    Equality of fractions is checked by cross-multiplication, so no
    intermediate normalization happens inside the quadratic loop.
    """
    result = SuiteResult(name=f"exact-mult[{name}]", cases=0)
    split = [(g, f.num, f.den) for g in elements for f in (eps(g),)]
    pair_values = {}
    for a, na, da in split:
        for b, nb, db in split:
            s = a + b
            target = pair_values.get(s)
            if target is None:
                target = eps(s)
                pair_values[s] = target
            result.cases += 1
            if (na * nb) * target.den != target.num * (da * db):
                result.failures.append(f"exactness failed at {a}, {b}")
                if len(result.failures) > 4:
                    return result
    return result
