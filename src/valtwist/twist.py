"""Choice functions, their twistings, and the twisted semigroup ring.

A choice function picks, for every degree γ in its domain, a field element
ε(γ) of value exactly γ, with ε(0) = 1.  Its twisting

    ε̄(γ, γ') = residue of ε(γ)ε(γ')/ε(γ+γ')

measures how far ε is from being multiplicative; ε̄ is symmetric, never
zero, satisfies ε̄(0, γ) = 1, and the associativity of the twisted product
below reduces exactly to its cocycle identity

    ε̄(α, β)·ε̄(α+β, γ) == ε̄(α, β+γ)·ε̄(β, γ).

A :class:`TwistedRingElement` is a finite formal sum of residue
coefficients against degree exponents t^γ; :func:`twisted_mul` adds
exponents and corrects each coefficient product by the twisting.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError
from .mpoly import RationalFunction, as_rational_function
from .ordgroup import FgSubgroup, GroupElement
from .valuation import MonomialValuation, ResidueElement

__all__ = [
    "ChoiceFunction",
    "TableChoice",
    "ExtensionStep",
    "GeneratorChoice",
    "TwistingTable",
    "TwistedRingElement",
    "twisted_mul",
    "is_trivial",
    "semigroup_hom_check",
]


def _check_witness(valuation: MonomialValuation, f: RationalFunction, gamma, what="witness"):
    """Raise ValueError unless f is nonzero with value exactly gamma; ``what`` names f."""
    value = None if f.is_zero() else valuation.value(f)
    if value is None or value != gamma:
        shown = "undefined" if value is None else value
        raise ValueError(f"{what} for {gamma} has value {shown}, expected {gamma}")


class ChoiceFunction:
    """Base for the concrete choice-function kinds.

    Subclasses provide ``_evaluate`` (raising :class:`DomainError` outside
    the domain), ``contains`` and ``domain_elements``.  Evaluations are
    memoized here; the value invariant v(ε(γ)) = γ is the subclasses'
    responsibility (tables check every entry at load, rule-based kinds
    validate their witnesses once and are exact by construction).
    """

    def __init__(self, valuation: MonomialValuation):
        self.valuation = valuation
        self._values: dict[GroupElement, RationalFunction] = {}
        self.twist_table = TwistingTable(self)

    def __call__(self, gamma: GroupElement) -> RationalFunction:
        cached = self._values.get(gamma)
        if cached is None:
            cached = self._evaluate(gamma)
            self._values[gamma] = cached
        return cached

    def _evaluate(self, gamma: GroupElement) -> RationalFunction:
        raise NotImplementedError

    def contains(self, gamma: GroupElement) -> bool:
        raise NotImplementedError

    def domain_elements(self, bound: int) -> list[GroupElement]:
        raise NotImplementedError

    def iter_domain_pairs(self, bound: int):
        """Yield, in sorted order, the (γ, γ') with γ, γ' and γ+γ' all in the domain.

        Rule-based domains are enumerated to half the bound per operand, so
        the combined height of a pair never exceeds the bound.  A pair's
        sum is formed only when the walk reaches it.
        """
        elements = self.domain_elements((bound + 1) // 2)
        contains = self.contains
        for a in elements:
            for b in elements:
                if contains(a + b):
                    yield a, b

    def twisting(self, g1: GroupElement, g2: GroupElement) -> ResidueElement:
        return self.twist_table(g1, g2)


class TableChoice(ChoiceFunction):
    """A finite, explicitly tabulated choice function.

    Every entry is checked at construction: v(ε(γ)) must equal γ, and the
    implied entry ε(0) = 1 is added (a conflicting explicit 0 entry is
    rejected).  The checked entries are the evaluation memo itself, so a
    miss is a degree outside the table and raises :class:`DomainError`.
    """

    def __init__(self, valuation: MonomialValuation, table: dict):
        super().__init__(valuation)
        for gamma, f in table.items():
            gamma = gamma if isinstance(gamma, GroupElement) else GroupElement(gamma)
            if gamma.dim != valuation.dim:
                raise ValueError(
                    f"degree {gamma} has dimension {gamma.dim}, expected {valuation.dim}"
                )
            f = as_rational_function(f)
            _check_witness(valuation, f, gamma, "table entry")
            self._values[gamma] = f
        one = RationalFunction(1)
        if self._values.setdefault(valuation.group_zero, one) != one:
            raise ValueError("a choice function must map 0 to 1")

    def _evaluate(self, gamma: GroupElement) -> RationalFunction:
        raise DomainError(f"degree {gamma} is outside the tabulated domain")

    def contains(self, gamma: GroupElement) -> bool:
        return gamma in self._values

    def domain_elements(self, bound: int) -> list[GroupElement]:
        return sorted(self._values)

    def items(self):
        return sorted(self._values.items())


def _subgroup_elements(generators, bound: int) -> list[GroupElement]:
    """All integer combinations with |n|_1 <= bound, sorted."""
    if not generators:
        return []
    out = {GroupElement.zero(generators[0].dim)}
    frontier = set(out)
    for _ in range(bound):
        nxt = set()
        for el in frontier:
            for g in generators:
                for cand in (el + g, el - g):
                    if cand not in out:
                        out.add(cand)
                        nxt.add(cand)
        frontier = nxt
    return sorted(out)


@dataclass(frozen=True)
class ExtensionStep:
    """One radical step of a :class:`GeneratorChoice` chain.

    ``n0`` is the least multiple of ``gamma`` returning to the previous
    subgroup (None when none does) and ``carry`` the integer witness of
    ``n0*gamma`` against the previous subgroup's generators.
    """

    gamma: GroupElement
    x_gamma: RationalFunction
    n0: int | None
    x0: RationalFunction | None
    root_class: str | None
    root_witness: RationalFunction | None
    factor: RationalFunction
    carry: tuple[int, ...] | None


class GeneratorChoice(ChoiceFunction):
    """Certified-trivial choice function: free generators, then radical steps.

    Given independent degrees g_j with witnesses w_j, v(w_j) = g_j, and
    steps (γ_i, n0_i, f_i) built by ``constructions.extend_choice``, every
    degree ψ of the subgroup splits canonically as

        ψ = Σ m_j g_j + Σ n_i γ_i,   0 <= n_i < n0_i (n_i free if n0_i is None),

    and ε(ψ) = Π w_j^{m_j} · Π f_i^{n_i}.  The digits come from one
    decomposition of ψ: from the last step down, n_i = r_i mod n0_i and the
    carry (r_i - n_i)/n0_i re-enters the earlier coordinates through the
    step's witness of n0_i·γ_i.  The product is exactly multiplicative, so
    the twisting is identically 1.  A free choice is a chain of no steps.
    """

    def __init__(self, valuation: MonomialValuation, generators, witnesses, steps=()):
        super().__init__(valuation)
        gens = [g if isinstance(g, GroupElement) else GroupElement(g) for g in generators]
        wits = [as_rational_function(w) for w in witnesses]
        if len(gens) != len(wits):
            raise ValueError("need exactly one witness per generator")
        if not gens:
            raise ValueError("need at least one generator")
        free = FgSubgroup(gens[0].dim, gens)
        if free.rank != len(gens):
            raise ValueError("generators must be rationally independent")
        for g, w in zip(gens, wits):
            _check_witness(valuation, w, g)
        self.generators = tuple(gens)
        self.witnesses = tuple(wits)
        self.steps = tuple(steps)
        self.subgroup = (
            FgSubgroup(free.dim, gens + [s.gamma for s in self.steps]) if self.steps else free
        )
        self._bases = self.witnesses + tuple(s.factor for s in self.steps)

    @property
    def step(self) -> ExtensionStep | None:
        """The last radical step, or None for a free choice."""
        return self.steps[-1] if self.steps else None

    def _evaluate(self, gamma: GroupElement) -> RationalFunction:
        coeffs = self.subgroup.decompose(gamma)
        if coeffs is None:
            raise DomainError(f"degree {gamma} is outside the subgroup")
        k = len(self.generators)
        for i in reversed(range(len(self.steps))):
            step = self.steps[i]
            if step.n0 is not None:
                carry, coeffs[k + i] = divmod(coeffs[k + i], step.n0)
                for j, c in enumerate(step.carry):
                    coeffs[j] += carry * c
        out = RationalFunction(1)
        for n, b in zip(coeffs, self._bases):
            if n:
                out = out * b**n
        return out

    def contains(self, gamma: GroupElement) -> bool:
        # an evaluated degree was decomposed once already
        return gamma in self._values or self.subgroup.contains(gamma)

    def domain_elements(self, bound: int) -> list[GroupElement]:
        return _subgroup_elements(self.subgroup.generators, bound)


class TwistingTable:
    """Lazily computed map (γ, γ') -> ε̄(γ, γ').

    Entries are stored under the sorted key, so symmetry is structural.
    A miss hands ε(γ), ε(γ') and ε(γ+γ') to :meth:`MonomialValuation.residue`
    as factors, which multiplies their initial parts; the quotient
    ε(γ)ε(γ')/ε(γ+γ') itself is never formed.
    Values are residues of value-zero elements and therefore never the
    zero class.  Safe under concurrent readers: inserts are idempotent and
    a dict insert is atomic in CPython.
    """

    def __init__(self, choice: ChoiceFunction):
        self.choice = choice
        self._cache: dict[tuple[GroupElement, GroupElement], ResidueElement] = {}

    def __call__(self, g1: GroupElement, g2: GroupElement) -> ResidueElement:
        key = (g1, g2) if g1 <= g2 else (g2, g1)
        hit = self._cache.get(key)
        if hit is None:
            eps = self.choice
            hit = eps.valuation.residue(eps(g1), eps(g2), over=(eps(g1 + g2),))
            self._cache[key] = hit
        return hit


class TwistedRingElement:
    """Finite formal sum Σ a_γ · t^γ with residue coefficients a_γ != 0."""

    __slots__ = ("valuation", "coeffs")

    def __init__(self, valuation: MonomialValuation, coeffs: dict | None = None):
        self.valuation = valuation
        self.coeffs: dict[GroupElement, ResidueElement] = {}
        if coeffs:
            for gamma, c in coeffs.items():
                if isinstance(c, (int, Fraction)):
                    c = valuation.residue_constant(c)
                if not c.is_zero():
                    self.coeffs[gamma] = c

    @classmethod
    def zero(cls, valuation) -> "TwistedRingElement":
        return cls(valuation)

    @classmethod
    def one(cls, valuation) -> "TwistedRingElement":
        return cls(valuation, {valuation.group_zero: valuation.residue_one()})

    @classmethod
    def term(cls, valuation, gamma, coeff) -> "TwistedRingElement":
        return cls(valuation, {gamma: coeff})

    def is_zero(self) -> bool:
        return not self.coeffs

    def support(self):
        return sorted(self.coeffs)

    def _check(self, other) -> "TwistedRingElement":
        if not isinstance(other, TwistedRingElement):
            raise TypeError(f"expected TwistedRingElement, got {type(other).__name__}")
        if other.valuation != self.valuation:
            raise ValueError("elements over different valuations cannot be combined")
        return other

    def __add__(self, other):
        other = self._check(other)
        acc = dict(self.coeffs)
        for gamma, c in other.coeffs.items():
            mine = acc.get(gamma)
            s = c if mine is None else mine + c
            if s.is_zero():
                acc.pop(gamma, None)
            else:
                acc[gamma] = s
        out = TwistedRingElement(self.valuation)
        out.coeffs = acc
        return out

    def __neg__(self):
        out = TwistedRingElement(self.valuation)
        out.coeffs = {g: -c for g, c in self.coeffs.items()}
        return out

    def __sub__(self, other):
        return self + (-self._check(other))

    def __eq__(self, other):
        if not isinstance(other, TwistedRingElement):
            return NotImplemented
        if other.valuation != self.valuation:
            return False
        if self.coeffs.keys() != other.coeffs.keys():
            return False
        return all(other.coeffs[g] == c for g, c in self.coeffs.items())

    def __str__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"({self.coeffs[g]})*t^{g}" for g in self.support())

    def __repr__(self):
        return f"TwistedRingElement({self})"


def twisted_mul(
    eps: ChoiceFunction, a: TwistedRingElement, b: TwistedRingElement
) -> TwistedRingElement:
    """Product in the twisted ring: exponents add, coefficients twist."""
    a._check(b)
    if a.valuation != eps.valuation:
        raise ValueError("operands and choice function use different valuations")
    acc: dict[GroupElement, ResidueElement] = {}
    for g1, c1 in a.coeffs.items():
        for g2, c2 in b.coeffs.items():
            g = g1 + g2
            c = c1 * c2 * eps.twisting(g1, g2)
            mine = acc.get(g)
            s = c if mine is None else mine + c
            if s.is_zero():
                acc.pop(g, None)
            else:
                acc[g] = s
    out = TwistedRingElement(a.valuation)
    out.coeffs = acc
    return out


def is_trivial(eps: ChoiceFunction, bound: int):
    """Bounded triviality check of the twisting.

    Returns ``(True, None)`` when ε̄ == 1 on every domain pair up to the
    bound, else ``(False, (γ, γ'))`` with the first failing pair.  The
    pairs are walked lazily, so a failure stops the walk where it is found.
    For rule-based choice functions a positive answer is bounded evidence,
    not a certificate; certification is the construction's job.
    """
    one = eps.valuation.residue_one()
    for pair in eps.iter_domain_pairs(bound):
        if eps.twisting(*pair) != one:
            return False, pair
    return True, None


def semigroup_hom_check(eps: ChoiceFunction, bound: int) -> bool:
    """Whether ε(α)ε(β) and ε(α+β) agree in initial form on all bounded pairs.

    Must always agree with :func:`is_trivial`; the two sides are computed
    along independent code paths (initial-form equality of field elements
    here, residue-class equality of quotients there).  Like
    :func:`is_trivial` it walks the pairs lazily and stops at the first
    failure.
    """
    v = eps.valuation
    for a, b in eps.iter_domain_pairs(bound):
        if not v.in_eq(eps(a) * eps(b), eps(a + b)):
            return False
    return True
