"""Constructive trivialization of twistings, and the finite-prime analyzer.

Both constructions produce one kind of certified-trivial choice function,
the chain :class:`GeneratorChoice`: free generators, then radical steps.

* :func:`free_pair` — a chain of no steps: on a free subgroup with
  independent generators, sending sum(n_i * g_i) to prod(z_i ** n_i) is
  exactly multiplicative, so its twisting is identically 1.
* :func:`extend_choice` — one closed-by-radicals step.  Given a certified
  pair (Phi, eps) and a new degree g outside Phi with witness x_g, either
  no positive multiple of g lies in Phi (then eps extends by
  eps(a + n*g) = eps(a) * x_g**n), or the least such multiple n0 >= 2
  does, and an exact n0-th root a of eps(n0*g)/x_g**n0 — produced by the
  radical oracle, else :class:`RootNotFound` — makes
  eps(a + n*g) = eps(a) * (a*x_g)**n with the canonical exponent
  0 <= n < n0 exactly multiplicative again.  The result is the base chain
  with one more step.

The analyzer mechanizes the finite-prime part of the degree obstruction:
with weights v(x_p) = 1/p, any choice function must satisfy the forced
identity eps(1) == eps(1/p)**p in initial form, hence p | deg(eps(1)) for
every listed prime.  Without candidates, each monomial eps(1) up to a
degree bound is tried, and the identity forces every eps(1/p).  The pools
of monomials of value 1/p and 1 solve one linear equation in the exponents:
:func:`monomial_pool` walks every exponent but the last and solves for the
last.  Each eps(1/p) is then read off eps(1)'s exponents, divided by p,
and confirmed by one exact p-th power.  An
enumeration whose walk exceeds :data:`WALK_LIMIT`, or whose pool of
candidates for eps(1) exceeds :data:`UNIT_POOL_LIMIT`, is refused with a
:class:`SetupError`, and so is a prime list with a number too large for the
exact primality test.  Verdicts are per finite prime set; the step to all
primes at once is reported as narrative, not machine-checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import RootNotFound, SetupError
from .mpoly import (
    Monomial,
    Polynomial,
    RationalFunction,
    as_rational_function,
    parse_rational_function,
    rf_nth_root,
)
from .ordgroup import FgSubgroup, GroupElement
from .twist import (ChoiceFunction, ExtensionStep, GeneratorChoice, TableChoice,
                    _check_witness, is_trivial)
from .valuation import MonomialValuation

__all__ = [
    "SubgroupWithChoice",
    "ExtensionStep",
    "free_pair",
    "extend_choice",
    "make_initial",
    "PowerCheck",
    "forced_power_check",
    "AnalyzerReport",
    "analyze_counterexample",
    "counterexample_valuation",
    "monomial_pool",
]


@dataclass(frozen=True)
class SubgroupWithChoice:
    """A value subgroup together with a choice function defined on it."""

    subgroup: FgSubgroup
    choice: ChoiceFunction
    certified_trivial: bool


def free_pair(valuation: MonomialValuation, generators, witnesses) -> SubgroupWithChoice:
    """The certified pair of a free choice: a chain with no radical steps."""
    eps = GeneratorChoice(valuation, generators, witnesses)
    return SubgroupWithChoice(eps.subgroup, eps, certified_trivial=True)


def extend_choice(base: SubgroupWithChoice, gamma, x_gamma) -> SubgroupWithChoice:
    """One radical step: the base chain plus one :class:`ExtensionStep`.

    The least returning multiple n0 is exact in every dimension (see
    :meth:`FgSubgroup.min_multiple`); there is no search bound.
    """
    if not base.certified_trivial:
        raise ValueError("the base choice function must be certified trivial")
    chain = base.choice
    v = chain.valuation
    gamma = gamma if isinstance(gamma, GroupElement) else GroupElement(gamma)
    x_gamma = as_rational_function(x_gamma)
    if base.subgroup.contains(gamma):
        raise ValueError(f"{gamma} already lies in the base subgroup")
    _check_witness(v, x_gamma, gamma)
    n0 = base.subgroup.min_multiple(gamma)
    if n0 is None:
        step = ExtensionStep(gamma, x_gamma, None, None, None, None, x_gamma, None)
    else:
        x0 = chain(n0 * gamma)
        cls = v.residue(x0, over=(x_gamma**n0,))
        a = cls.nth_root(n0)
        if a is None:
            raise RootNotFound(
                f"no {n0}-th root of the class {cls} was found; "
                f"the extension by {gamma} cannot be completed"
            )
        carry = tuple(base.subgroup.decompose(n0 * gamma))
        step = ExtensionStep(gamma, x_gamma, n0, x0, str(cls), a, a * x_gamma, carry)
    eps = GeneratorChoice(v, chain.generators, chain.witnesses, chain.steps + (step,))
    return SubgroupWithChoice(eps.subgroup, eps, certified_trivial=True)


def make_initial(eps: TableChoice) -> TableChoice:
    """Replace every tabulated value by its initial-part quotient."""
    if not isinstance(eps, TableChoice):
        raise TypeError("only tabulated choice functions can be initial-reduced")
    v = eps.valuation
    return TableChoice(v, {g: v.initial_rf(f) for g, f in eps.items()})


@dataclass(frozen=True)
class PowerCheck:
    """Outcome of one forced power identity eps(alpha)^n vs eps(n*alpha)."""

    alpha: GroupElement
    n: int
    lhs: Polynomial
    rhs: Polynomial
    consistent: bool

    def identity(self) -> str:
        op = "==" if self.consistent else "!="
        return f"{self.lhs} {op} {self.rhs}"


def forced_power_check(eps: ChoiceFunction, alpha, n: int) -> PowerCheck:
    """Check the cross-multiplied identity P^n * Q' == Q^n * P'.

    Here eps(alpha) = P/Q and eps(n*alpha) = P'/Q'.  On initial-reduced
    tables the identity holds iff eps(alpha)^n and eps(n*alpha) have equal
    initial form, which any choice function on these degrees is forced to
    satisfy.
    """
    alpha = alpha if isinstance(alpha, GroupElement) else GroupElement(alpha)
    e1 = eps(alpha)
    e2 = eps(n * alpha)
    lhs = e1.num**n * e2.den
    rhs = e1.den**n * e2.num
    return PowerCheck(alpha, n, lhs, rhs, lhs == rhs)


# --- the finite-prime analyzer ----------------------------------------------


# Miller–Rabin with the primes up to 41 as bases is exact below PRIME_LIMIT,
# the least strong pseudoprime to all of them; with the bases up to 37 alone
# 318 665 857 834 031 151 167 461 would pass as prime
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Whether n is prime, by deterministic Miller–Rabin; refuses n >= PRIME_LIMIT."""
    if n >= PRIME_LIMIT:
        raise SetupError(
            f"{n} is too large to be checked for primality (the limit is {PRIME_LIMIT})"
        )
    if n < 2:
        return False
    for p in _WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def counterexample_valuation(primes) -> MonomialValuation:
    """Weights v(x_p) = 1/p for each listed prime."""
    return MonomialValuation({f"x{p}": Fraction(1, p) for p in primes})


def monomial_pool(primes, target: Fraction, degree_bound: int) -> list[RationalFunction]:
    """All unit-coefficient quotients of the x_p with value ``target`` and
    degree at most ``degree_bound``, in exponent order.

    The exponents solve sum(e_p / p) == target, scaled to integers.  The walk
    runs over every exponent but the last inside the positive and negative
    degree budgets, and the equation then forces the last one: it is kept
    when it is an integer that stays inside both budgets.
    """
    primes = list(primes)
    if not primes:
        return [_quotient(primes, [])] if target == 0 else []
    lcm_p = lcm(*primes)
    *head, last = [lcm_p * target.denominator // p for p in primes]
    goal = lcm_p * target.numerator
    out: list[RationalFunction] = []

    def rec(i: int, exps: list[int], value: int, pos: int, neg: int):
        if i == len(head):
            e, rem = divmod(goal - value, last)
            if rem == 0 and (pos + e if e > 0 else neg - e) <= degree_bound:
                out.append(_quotient(primes, exps + [e]))
            return
        w = head[i]
        for e in range(neg - degree_bound, 1):
            rec(i + 1, exps + [e], value + e * w, pos, neg - e)
        for e in range(1, degree_bound - pos + 1):
            rec(i + 1, exps + [e], value + e * w, pos + e, neg)

    rec(0, [], 0, 0, 0)
    return out


def _quotient(primes, exps) -> RationalFunction:
    """The monomial quotient prod x_p ** e_p."""
    num = Monomial([(f"x{p}", e) for p, e in zip(primes, exps) if e > 0])
    den = Monomial([(f"x{p}", -e) for p, e in zip(primes, exps) if e < 0])
    return RationalFunction(Polynomial.term(num, 1), Polynomial.term(den, 1))


def _exponents(primes, f: RationalFunction) -> tuple[int, ...]:
    """The exponent vector of a one-term quotient of the x_p."""
    (num, _), = f.num.terms.items()
    (den, _), = f.den.terms.items()
    return tuple(num.exponent(f"x{p}") - den.exponent(f"x{p}") for p in primes)


@dataclass(frozen=True)
class RootRecord:
    p: int
    root: str | None
    divides: bool


@dataclass(frozen=True)
class ConsistentTable:
    assignments: tuple[tuple[str, str], ...]
    unit_degree: int
    divisible: bool
    recheck_ok: bool


@dataclass(frozen=True)
class AnalyzerReport:
    """Everything the analyzer established about one finite prime set.

    Each mode sets only the fields it establishes; the others keep their
    empty defaults.
    """

    primes: tuple[int, ...]
    mode: str  # "vacuous" | "table" | "enumerate"
    verdict: str  # "VACUOUS" | "CONFLICT" | "DIVISIBILITY"
    narrative: tuple[str, ...]
    degree_bound: int | None = None
    candidates: tuple[tuple[str, str], ...] | None = None
    initial_table: tuple[tuple[str, str], ...] | None = None
    forced: tuple[PowerCheck, ...] = ()
    roots: tuple[RootRecord, ...] = ()
    unit_degree: int | None = None
    degree_caveat: bool = False
    lcm_primes: int | None = None
    divisible: bool | None = None
    conflict_detail: str | None = None
    pool_sizes: tuple[tuple[str, int], ...] | None = None
    consistent_tables: tuple[ConsistentTable, ...] | None = None

    @property
    def exit_code(self) -> int:
        return 1 if self.verdict == "CONFLICT" else 0


_NARRATIVE_FINITE = (
    "note: every verdict above concerns the listed primes only.",
    "note: running over all primes at once, deg(epsilon(1)) would need to be"
    " divisible by every prime, which no positive integer is; that final step"
    " is narrative, not machine-checked.",
)


def _degree_caveat(f: RationalFunction) -> bool:
    return len(f.num) > 1 and len(f.den) > 1


def _augmented_recheck(valuation, primes, unit_value, prime_values) -> bool:
    """Whether the table {k/p: eps(1/p)^k} with eps(1) at degree 1 twists trivially.

    The forced identities make it twist to 1 on every pair of its degrees
    whose sum it holds, the pairs (1/p, k/p) among them.
    """
    table = {GroupElement(Fraction(1)): unit_value}
    for p, val in zip(primes, prime_values):
        for k in range(1, p):
            table[GroupElement(Fraction(k, p))] = val**k
    # a table's scan ignores the bound, which limits rule-based domains only
    return is_trivial(TableChoice(valuation, table), 1)[0]


def _conflict_residue(valuation, p: int, prime_value, unit_value) -> str:
    """The twisting value witnessing a failed forced identity at p."""
    cls = valuation.residue(prime_value**p, over=(unit_value,))
    return f"epsilon-bar(1/{p}, {p - 1}/{p}) = {cls} != 1"


# the most exponent prefixes an enumeration may walk, (|P|+1) * (2b+1)^(|P|-1)
WALK_LIMIT = 10**6
# the most candidates for eps(1) an enumeration may look up and recheck
UNIT_POOL_LIMIT = 5_000


def analyze_counterexample(primes, candidates=None, degree_bound: int = 8) -> AnalyzerReport:
    """Check the forced-identity lemmas over a finite prime set.

    ``candidates`` maps the degrees 1/p (one per prime) and 1 to explicit
    field elements; without it, each unit-coefficient monomial quotient of
    value 1 up to ``degree_bound`` is tried as eps(1), which forces eps(1/p).
    """
    primes = tuple(sorted(set(int(p) for p in primes)))
    for p in primes:
        if not _is_prime(p):
            raise SetupError(f"{p} is not a prime")
    if degree_bound < 1:
        raise SetupError("degree_bound must be positive")

    if not primes:
        return AnalyzerReport(
            primes=(),
            mode="vacuous",
            verdict="VACUOUS",
            narrative=("note: an empty prime set forces nothing.",),
        )

    valuation = counterexample_valuation(primes)
    lcm_p = lcm(*primes)

    if candidates is not None:
        return _analyze_table(primes, valuation, lcm_p, candidates)
    walk = (len(primes) + 1) * (2 * degree_bound + 1) ** (len(primes) - 1)
    if walk > WALK_LIMIT:
        raise SetupError(
            f"the enumeration over primes {', '.join(map(str, primes))} with"
            f" degree_bound {degree_bound} walks {walk} exponent prefixes,"
            f" more than the limit of {WALK_LIMIT}"
        )
    return _analyze_enumeration(primes, valuation, lcm_p, degree_bound)


def _coerce_candidates(primes, valuation, candidates) -> TableChoice:
    table = {}
    for key, value in candidates.items():
        try:
            if isinstance(key, str):
                key = GroupElement.parse(key, dim=1)
            elif not isinstance(key, GroupElement):
                key = GroupElement(key)
            if isinstance(value, str):
                value = parse_rational_function(value)
        except ValueError as exc:
            raise SetupError(f"malformed candidate for degree {key}: {exc}") from None
        table[key] = value
    needed = [GroupElement(Fraction(1, p)) for p in primes] + [GroupElement(Fraction(1))]
    for deg in needed:
        if deg not in table:
            raise SetupError(f"candidate table is missing degree {deg}")
    try:
        return TableChoice(valuation, table)
    except ValueError as exc:
        raise SetupError(f"malformed candidate table: {exc}") from None


def _analyze_table(primes, valuation, lcm_p, candidates) -> AnalyzerReport:
    raw = _coerce_candidates(primes, valuation, candidates)
    initial = make_initial(raw)
    unit_value = initial(GroupElement(Fraction(1)))
    unit_degree = unit_value.total_degree()

    forced = []
    conflict_detail = None
    for p in primes:
        check = forced_power_check(initial, GroupElement(Fraction(1, p)), p)
        forced.append(check)
        if not check.consistent and conflict_detail is None:
            conflict_detail = (
                f"p={p}: {check.identity()}; "
                + _conflict_residue(valuation, p, initial(GroupElement(Fraction(1, p))), unit_value)
            )

    roots = []
    for p in primes:
        root = rf_nth_root(unit_value, p)
        roots.append(RootRecord(p, str(root) if root is not None else None, unit_degree % p == 0))

    consistent = all(rec.consistent for rec in forced)
    if consistent:
        divisible = unit_degree % lcm_p == 0
        # forced identities make deg(epsilon(1)) = p * deg(epsilon(1/p))
        if not divisible:
            raise RuntimeError(
                f"forced identities hold but deg(epsilon(1)) = {unit_degree} "
                f"is not divisible by lcm({', '.join(map(str, primes))}) = {lcm_p}"
            )
        verdict = "DIVISIBILITY"
    else:
        divisible = None
        verdict = "CONFLICT"

    return AnalyzerReport(
        primes=primes,
        mode="table",
        verdict=verdict,
        narrative=_NARRATIVE_FINITE,
        candidates=tuple((str(d), str(v)) for d, v in raw.items()),
        initial_table=tuple((str(d), str(v)) for d, v in initial.items()),
        forced=tuple(forced),
        roots=tuple(roots),
        unit_degree=unit_degree,
        degree_caveat=_degree_caveat(unit_value),
        lcm_primes=lcm_p,
        divisible=divisible,
        conflict_detail=conflict_detail,
    )


def _analyze_enumeration(primes, valuation, lcm_p, degree_bound) -> AnalyzerReport:
    unit_pool = monomial_pool(primes, Fraction(1), degree_bound)
    if len(unit_pool) > UNIT_POOL_LIMIT:
        raise SetupError(
            f"the enumeration over primes {', '.join(map(str, primes))} with"
            f" degree_bound {degree_bound} has {len(unit_pool)} candidates for"
            f" epsilon(1), more than the limit of {UNIT_POOL_LIMIT}"
        )
    pool_sizes = [(f"1/{p}", len(monomial_pool(primes, Fraction(1, p), degree_bound)))
                  for p in primes] + [("1", len(unit_pool))]

    # eps(1/p) is forced to be the quotient whose exponents, times p, are those of eps(1)
    tables = []
    for unit_value in unit_pool:
        exps = _exponents(primes, unit_value)
        chosen = []
        for p in primes:
            if any(e % p for e in exps):
                break
            root = _quotient(primes, [e // p for e in exps])
            if root**p != unit_value:
                raise RuntimeError(
                    f"epsilon(1/{p}) = {root} has the exponents of a {p}-th root of"
                    f" epsilon(1) = {unit_value}, but its {p}-th power differs"
                )
            chosen.append(root)
        else:
            deg = unit_value.total_degree()
            recheck = _augmented_recheck(valuation, primes, unit_value, chosen)
            assignments = tuple(
                [(f"1/{p}", str(val)) for p, val in zip(primes, chosen)]
                + [("1", str(unit_value))]
            )
            tables.append(ConsistentTable(assignments, deg, deg % lcm_p == 0, recheck))

    return AnalyzerReport(
        primes=primes,
        mode="enumerate",
        verdict="DIVISIBILITY",
        narrative=(
            "note: candidate values are unit-coefficient monomial quotients;"
            " constants change neither degrees nor the forced identities' shape.",
        )
        + _NARRATIVE_FINITE,
        degree_bound=degree_bound,
        lcm_primes=lcm_p,
        divisible=all(t.divisible for t in tables),
        pool_sizes=tuple(pool_sizes),
        consistent_tables=tuple(tables),
    )
