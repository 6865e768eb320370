"""Choice functions, their twistings, and the twisted semigroup ring.

A choice function picks, for every degree γ in its domain, a field element
ε(γ) of value exactly γ, with ε(0) = 1.  Its twisting

    ε̄(γ, γ') = residue of ε(γ)ε(γ')/ε(γ+γ')

measures how far ε is from being multiplicative; ε̄ is symmetric, never
zero, satisfies ε̄(0, γ) = 1, and the associativity of the twisted product
below reduces exactly to its cocycle identity

    ε̄(α, β)·ε̄(α+β, γ) == ε̄(α, β+γ)·ε̄(β, γ).

The twisting depends only on the initial forms in_v(ε(γ)), so a choice
function also memoizes, per degree, the quotient of ε(γ)'s initial parts.
A :class:`GeneratorChoice` value is a power product Π b_j^{n_j(γ)} of its
bases with integer digits n(γ), so ε(a)ε(b)/ε(a+b) = Π b_j^{d_j} with
d = n(a) + n(b) - n(a+b), and d = 0 proves the pair exactly multiplicative.
A :class:`TwistingTable` miss on such a pair is the class 1 and
:func:`semigroup_hom_check` passes it, with nothing expanded; every other
pair (a carry in a radical chain, or any pair of a table) is decided as
before, the twisting from the three memoized initial forms and the hom
check from the expanded values.  The table refers to its choice function
weakly, so a dropped choice function is freed at once, without the cyclic
collector.

A :class:`TwistedRingElement` is a finite formal sum of residue
coefficients against degree exponents t^γ; :func:`twisted_mul` adds
exponents and corrects each coefficient product by the twisting.
"""

from __future__ import annotations

import weakref
from collections import namedtuple
from fractions import Fraction
from math import comb
from operator import add

from .errors import DomainError, SetupError
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


# the most degree pairs one triviality scan may walk
PAIR_LIMIT = 10**6


class ChoiceFunction:
    """Base for the concrete choice-function kinds.

    Subclasses provide ``_evaluate`` (raising :class:`DomainError` outside
    the domain), ``contains``, ``domain_elements`` and ``domain_size``, and
    may override ``_initial_of`` and ``_product_is_exact``.  Two memos live
    here, both keyed by degree: ``_values`` holds ε(γ) as evaluated, and
    ``_initials`` the quotient of its initial parts, which is all that a
    twisting or a ψ coefficient reads of ε(γ).  The value invariant
    v(ε(γ)) = γ is the subclasses' responsibility (tables check every entry
    at load, rule-based kinds validate their witnesses once and are exact
    by construction).
    """

    def __init__(self, valuation: MonomialValuation):
        self.valuation = valuation
        self._values: dict[GroupElement, RationalFunction] = {}
        self._initials: dict[GroupElement, RationalFunction] = {}
        self.twist_table = TwistingTable(self)

    def __call__(self, gamma: GroupElement) -> RationalFunction:
        cached = self._values.get(gamma)
        if cached is None:
            cached = self._evaluate(gamma)
            self._values[gamma] = cached
        return cached

    def initial(self, gamma: GroupElement) -> RationalFunction:
        """The quotient of the initial parts of ε(γ): the same initial form, in
        the shape :meth:`MonomialValuation.initial_rf` gives, computed once."""
        cached = self._initials.get(gamma)
        if cached is None:
            cached = self._initials[gamma] = self._initial_of(gamma)
        return cached

    def _evaluate(self, gamma: GroupElement) -> RationalFunction:
        raise NotImplementedError

    def _initial_of(self, gamma: GroupElement) -> RationalFunction:
        return self.valuation.initial_rf(self(gamma))

    def _product_is_exact(self, a: GroupElement, b: GroupElement) -> bool:
        """True when ε(a)·ε(b) == ε(a+b) is proved without expanding either side.

        False proves nothing: the caller then decides the pair on the
        initial forms or the expanded values.
        """
        return False

    def contains(self, gamma: GroupElement) -> bool:
        raise NotImplementedError

    def domain_elements(self, bound: int) -> list[GroupElement]:
        raise NotImplementedError

    def domain_size(self, bound: int) -> int:
        """An upper bound on ``len(self.domain_elements(bound))``, found without them."""
        raise NotImplementedError

    def iter_domain_pairs(self, bound: int):
        """Yield, in sorted order, the (γ, γ') with γ, γ' and γ+γ' all in the domain.

        Rule-based domains are enumerated to half the bound per operand, so
        the combined height of a pair never exceeds the bound.  A pair's
        sum is formed only when the walk reaches it.  A walk over more than
        :data:`PAIR_LIMIT` pairs is refused with :class:`SetupError` before
        anything is enumerated.
        """
        half = (bound + 1) // 2
        pairs = self.domain_size(half) ** 2
        if pairs > PAIR_LIMIT:
            raise SetupError(
                f"bound {bound} walks up to {pairs} degree pairs,"
                f" more than the limit of {PAIR_LIMIT}"
            )
        elements = self.domain_elements(half)
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

    def domain_size(self, bound: int) -> int:
        return len(self._values)

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


def _power_product(bases, digits) -> RationalFunction:
    """Π b_j^{n_j} over the bases and their integer digits."""
    out = RationalFunction(1)
    for n, b in zip(digits, bases):
        if n:
            # a digit of ±1 skips the vector-form round trip of a power
            out = out * (b if n == 1 else b.inv() if n == -1 else b**n)
    return out


class ExtensionStep(namedtuple(
        "ExtensionStep", "gamma x_gamma n0 x0 root_class root_witness factor carry")):
    """One radical step of a :class:`GeneratorChoice` chain.

    ``n0`` is the least multiple of ``gamma`` returning to the previous
    subgroup (None when none does) and ``carry`` the integer witness of
    ``n0*gamma`` against the previous subgroup's generators.
    """

    __slots__ = ()


class GeneratorChoice(ChoiceFunction):
    """Certified-trivial choice function: free generators, then radical steps.

    Given independent degrees g_j with witnesses w_j, v(w_j) = g_j, and
    steps (γ_i, n0_i, f_i), every degree ψ of the subgroup splits
    canonically as

        ψ = Σ m_j g_j + Σ n_i γ_i,   0 <= n_i < n0_i (n_i free if n0_i is None),

    and ε(ψ) = Π w_j^{m_j} · Π f_i^{n_i}.  The digits come from one
    decomposition of ψ: from the last step down, n_i = r_i mod n0_i and the
    carry (r_i - n_i)/n0_i re-enters the earlier coordinates through the
    step's witness of n0_i·γ_i.  They are memoized per degree and read by
    membership, evaluation, the initial form (the same power product of
    the bases' initial forms, each computed once) and the exactness test
    of a pair, whose digits cancel unless a carry separates them.  A carry
    trades ε(n0_i·γ_i) for f_i^{n0_i}, where f_i = a_i·x_i, x_i is the
    step's witness and a_i an n0_i-th root of the residue class of
    ε(n0_i·γ_i)/x_i^{n0_i}.  The two differ by a factor of residue 1, so
    the twisting is identically 1, but ε is multiplicative only up to
    residue: exactly so when every ε(n0_i·γ_i)/x_i^{n0_i} equals
    a_i^{n0_i} itself, as the constants 64 and 8 of the chain_radical
    setup do.  The constructor builds a free choice, a chain of no steps;
    :meth:`extended` adds a step whose root ``constructions.extend_choice``
    found.  Its :class:`RootNotFound` is a disproof for a rational
    obstruction class only, else "no root found".
    """

    def __init__(self, valuation: MonomialValuation, generators, witnesses):
        super().__init__(valuation)
        gens = [g if isinstance(g, GroupElement) else GroupElement(g) for g in generators]
        wits = [as_rational_function(w) for w in witnesses]
        if len(gens) != len(wits):
            raise ValueError("need exactly one witness per generator")
        if not gens:
            raise ValueError("need at least one generator")
        self.subgroup = FgSubgroup(gens[0].dim, gens)
        if self.subgroup.rank != len(gens):
            raise ValueError("generators must be rationally independent")
        for g, w in zip(gens, wits):
            _check_witness(valuation, w, g)
        self.generators = tuple(gens)
        self.witnesses = self._bases = tuple(wits)
        self._base_initials: tuple | None = None
        self._digits: dict[GroupElement, tuple] = {}
        self.steps = ()

    def extended(self, step: ExtensionStep) -> "GeneratorChoice":
        """This chain, left unchanged, plus one step: the checked generators and
        witnesses are shared, the subgroup gains step.gamma, and the memos are fresh."""
        out = object.__new__(GeneratorChoice)
        ChoiceFunction.__init__(out, self.valuation)
        out.generators, out.witnesses = self.generators, self.witnesses
        out.steps = self.steps + (step,)
        out.subgroup = FgSubgroup(self.subgroup.dim, self.subgroup.generators + (step.gamma,))
        out._bases = self._bases + (step.factor,)
        out._base_initials, out._digits = None, {}
        return out

    @property
    def step(self) -> ExtensionStep | None:
        """The last radical step, or None for a free choice."""
        return self.steps[-1] if self.steps else None

    def _decompose(self, gamma: GroupElement) -> tuple | None:
        """The digit vector n(γ), memoized, or None outside the subgroup."""
        digits = self._digits.get(gamma)
        if digits is None:
            coeffs = self.subgroup.decompose(gamma)
            if coeffs is None:
                return None
            k = len(self.generators)
            for i in reversed(range(len(self.steps))):
                step = self.steps[i]
                if step.n0 is not None:
                    carry, coeffs[k + i] = divmod(coeffs[k + i], step.n0)
                    for j, c in enumerate(step.carry):
                        coeffs[j] += carry * c
            digits = self._digits[gamma] = tuple(coeffs)
        return digits

    def _digits_of(self, gamma: GroupElement) -> tuple:
        digits = self._decompose(gamma)
        if digits is None:
            raise DomainError(f"degree {gamma} is outside the subgroup")
        return digits

    def _evaluate(self, gamma: GroupElement) -> RationalFunction:
        return _power_product(self._bases, self._digits_of(gamma))

    def _initial_of(self, gamma: GroupElement) -> RationalFunction:
        # initial forms multiply, so in_v(ε(γ)) is the same power product of
        # the in_v(b_j); those are found on first use, as a chain that is only
        # extended never reads them
        if self._base_initials is None:
            self._base_initials = tuple(map(self.valuation.initial_rf, self._bases))
        return _power_product(self._base_initials, self._digits_of(gamma))

    def _product_is_exact(self, a: GroupElement, b: GroupElement) -> bool:
        # ε(a)ε(b)/ε(a+b) = Π b_j^{d_j} with d = n(a) + n(b) - n(a+b)
        na, nb, ns = self._decompose(a), self._decompose(b), self._decompose(a + b)
        if na is None or nb is None or ns is None:
            return False
        return tuple(map(add, na, nb)) == ns

    def contains(self, gamma: GroupElement) -> bool:
        return self._decompose(gamma) is not None

    def domain_elements(self, bound: int) -> list[GroupElement]:
        return _subgroup_elements(self.subgroup.generators, bound)

    def domain_size(self, bound: int) -> int:
        # the points of Z^k with |n|_1 <= bound: exact for independent generators
        k = len(self.subgroup.generators)
        return sum(2**i * comb(k, i) * comb(bound, i) for i in range(k + 1))


class TwistingTable:
    """Lazily computed map (γ, γ') -> ε̄(γ, γ').

    Entries are stored under the sorted key, so symmetry is structural.
    A miss on a pair that the choice function proves exactly multiplicative
    (``_product_is_exact``: digits d = 0 for a generator choice) is the
    class 1.  Any other miss (d != 0, or a table) hands the memoized
    initial forms ``eps.initial`` of γ, γ' and γ+γ' to
    :meth:`MonomialValuation.residue` as factors.  The residue reads only
    the factors' initial parts, so the class is that of
    ε(γ)ε(γ')/ε(γ+γ'), while a value with many terms is never multiplied
    out; the quotient itself is never formed either.
    Values are residues of value-zero elements and therefore never the
    zero class.  The table holds its choice function through a weak
    reference, so it does not keep it alive; a table whose choice function
    is gone raises :class:`ReferenceError` on a miss.  Safe under
    concurrent readers: inserts are idempotent and a dict insert is atomic
    in CPython.
    """

    def __init__(self, choice: ChoiceFunction):
        self._choice = weakref.ref(choice)
        self._cache: dict[tuple[GroupElement, GroupElement], ResidueElement] = {}

    def __call__(self, g1: GroupElement, g2: GroupElement) -> ResidueElement:
        key = (g1, g2) if g1 <= g2 else (g2, g1)
        hit = self._cache.get(key)
        if hit is None:
            eps = self._choice()
            if eps is None:
                raise ReferenceError("the twisting table's choice function no longer exists")
            if eps._product_is_exact(g1, g2):
                hit = eps.valuation.residue_one()
            else:
                initial = eps.initial
                hit = eps.valuation.residue(initial(g1), initial(g2), over=(initial(g1 + g2),))
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
                if type(c) is not ResidueElement and isinstance(c, (int, Fraction)):
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

    Must always agree with :func:`is_trivial`.  A pair that the choice
    function proves exactly multiplicative (digits d = 0 for a generator
    choice) holds with nothing expanded, as its twisting is 1.  Every other
    pair (d != 0, or a table) is decided along a path independent of the
    twisting's: initial-form equality of the product of the expanded
    values here, the residue class of the memoized initial forms there.
    Like :func:`is_trivial` it walks the pairs lazily and stops at the
    first failure.
    """
    v = eps.valuation
    exact = eps._product_is_exact
    for a, b in eps.iter_domain_pairs(bound):
        if not (exact(a, b) or v.in_eq(eps(a) * eps(b), eps(a + b))):
            return False
    return True
