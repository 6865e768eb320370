"""The associated graded algebra of a monomial valuation, and the map ψ
identifying it degreewise with a twisted semigroup ring.

A nonzero field element x sits in the degree-v(x) piece as its initial
form in_v(x); two elements give the same form exactly when their values
agree and v(x - y) > v(x).  Homogeneous components multiply by degree
addition and add only at equal degrees, where cancellation can push the
sum into a higher degree — that is the distinguished zero.

Given a choice function ε whose domain covers the degrees involved,

    ψ(in_v(x)) = residue(x / ε(v(x))) · t^{v(x)}

is a degree-preserving isomorphism onto the twisted ring: well defined and
injective because x/ε(v(x)) has value 0, additive within a degree, and
multiplicative because the twisting absorbs exactly the failure of ε to be
multiplicative.  Its inverse needs one extra ingredient, a lifting oracle
producing a value-0 field element in a prescribed residue class; with a
lift z' of the coefficient a, the term a·t^γ pulls back to in_v(ε(γ)·z').

The forward map is the hot path of the ψ checks, so two cases skip work.
The initial form of a polynomial comes from one scan of its terms, with no
quotient normalized.  A ψ coefficient whose two quotients are one term each
over the same monomials is decided on those monomial keys, as a quotient
of coefficients; every other coefficient falls back to the general
residue.  The inverse map takes neither shortcut: it expands ε(γ), so a
round trip checks the memoized initial forms independently.
"""

from __future__ import annotations

from .errors import DegreeMismatchError, DomainError, LiftingError
from .mpoly import Polynomial, RationalFunction, as_rational_function
from .ordgroup import GroupElement
from .twist import ChoiceFunction, TwistedRingElement
from .valuation import MonomialValuation, ResidueElement

__all__ = [
    "HomogeneousElement",
    "GradedElement",
    "in_v",
    "h_mul",
    "h_add",
    "psi",
    "psi_inverse",
    "psi_inverse_term",
    "constant_lift",
]


class HomogeneousElement:
    """A nonzero homogeneous component: a degree and an initial-form class.

    The representative is canonicalized to a quotient of initial parts, so
    distinct representatives of one form share their cross products.  Each
    polynomial of the given representative is scanned once, by the pass
    that finds its initial part and its value.
    """

    __slots__ = ("valuation", "degree", "rep")

    def __init__(self, valuation: MonomialValuation, rep):
        self.valuation = valuation
        if not isinstance(rep, Polynomial):
            rep = as_rational_function(rep)
        if rep.is_zero():
            raise ValueError("use the distinguished zero for vanishing components")
        self.rep, self.degree = valuation.initial_form(rep)

    def is_zero(self) -> bool:
        return False

    def __eq__(self, other):
        if isinstance(other, _ZeroHomogeneous):
            return False
        if not isinstance(other, HomogeneousElement):
            return NotImplemented
        return self.valuation == other.valuation and self.rep == other.rep

    def __str__(self):
        return f"deg={self.degree} rep={self.rep}"

    def __repr__(self):
        return f"HomogeneousElement({self})"


class _ZeroHomogeneous:
    """The distinguished zero of every graded piece."""

    __slots__ = ()

    degree = None

    def is_zero(self) -> bool:
        return True

    def __eq__(self, other):
        return isinstance(other, _ZeroHomogeneous)

    def __hash__(self):
        return hash("_ZeroHomogeneous")

    def __str__(self):
        return "0"

    def __repr__(self):
        return "HZERO"


HZERO = _ZeroHomogeneous()


def in_v(valuation: MonomialValuation, x) -> HomogeneousElement:
    """The initial form of a nonzero field element."""
    return HomogeneousElement(valuation, x)


def _check_pair(a, b):
    if a.is_zero() or b.is_zero():
        return
    if a.valuation != b.valuation:
        raise ValueError("components over different valuations cannot be combined")


def h_mul(a, b):
    """Product of homogeneous components; degrees add."""
    _check_pair(a, b)
    if a.is_zero() or b.is_zero():
        return HZERO
    return HomogeneousElement(a.valuation, a.rep * b.rep)


def h_add(a, b):
    """Sum of homogeneous components of one degree.

    Cancellation to zero, or into strictly higher value, yields the
    distinguished zero; different degrees are a :class:`DegreeMismatchError`.
    """
    _check_pair(a, b)
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    if a.degree != b.degree:
        raise DegreeMismatchError(
            f"cannot add homogeneous components of degrees {a.degree} and {b.degree}"
        )
    s = a.rep + b.rep
    if s.is_zero() or a.valuation.value(s) != a.degree:
        return HZERO
    return HomogeneousElement(a.valuation, s)


class GradedElement:
    """A finite sum of homogeneous components, at most one per degree."""

    __slots__ = ("valuation", "components")

    def __init__(self, valuation: MonomialValuation, components=()):
        self.valuation = valuation
        self.components: dict[GroupElement, HomogeneousElement] = {}
        for comp in components:
            self._absorb(comp)

    def _absorb(self, comp):
        if comp.is_zero():
            return
        if comp.valuation != self.valuation:
            raise ValueError("component valuation differs from the element's")
        mine = self.components.get(comp.degree)
        s = comp if mine is None else h_add(mine, comp)
        if s.is_zero():
            self.components.pop(comp.degree, None)
        else:
            self.components[s.degree] = s

    @classmethod
    def zero(cls, valuation) -> "GradedElement":
        return cls(valuation)

    def is_zero(self) -> bool:
        return not self.components

    def support(self):
        return sorted(self.components)

    def __add__(self, other):
        if not isinstance(other, GradedElement):
            return NotImplemented
        if other.valuation != self.valuation:
            raise ValueError("elements over different valuations cannot be combined")
        out = GradedElement(self.valuation, self.components.values())
        for comp in other.components.values():
            out._absorb(comp)
        return out

    def __mul__(self, other):
        if not isinstance(other, GradedElement):
            return NotImplemented
        if other.valuation != self.valuation:
            raise ValueError("elements over different valuations cannot be combined")
        out = GradedElement.zero(self.valuation)
        for x in self.components.values():
            for y in other.components.values():
                out._absorb(h_mul(x, y))
        return out

    def __eq__(self, other):
        if not isinstance(other, GradedElement):
            return NotImplemented
        if other.valuation != self.valuation:
            return False
        if self.components.keys() != other.components.keys():
            return False
        return all(other.components[d] == c for d, c in self.components.items())

    def __str__(self):
        if not self.components:
            return "0"
        return "; ".join(str(self.components[d]) for d in self.support())

    def __repr__(self):
        return f"GradedElement({self})"


def psi(eps: ChoiceFunction, x) -> TwistedRingElement:
    """Apply ψ to a homogeneous component or a whole graded element.

    The coefficient residue(x/ε(γ)) is taken by
    :meth:`MonomialValuation.residue` from x's canonical quotient and the
    choice function's memoized initial form ``eps.initial(γ)`` as factors.
    It reads only initial parts, so the class is that of x/ε(γ), while the
    expanded ε(γ) is never multiplied; the quotient is never formed.  When
    both are one-term quotients over the same monomials, the class is the
    quotient of their coefficients, decided on monomial keys; otherwise
    ``residue`` falls back to its exponent sums and initial products.  A
    homogeneous component is tested first, and its valuation by identity
    before equality.
    """
    v = eps.valuation
    if isinstance(x, HomogeneousElement):
        if x.valuation is not v and x.valuation != v:
            raise ValueError("component and choice function use different valuations")
        gamma = x.degree
        if not eps.contains(gamma):
            raise DomainError(f"degree {gamma} is outside the choice function's domain")
        # the class of a nonzero value-0 quotient is never zero: no coefficient check
        out = TwistedRingElement(v)
        out.coeffs[gamma] = v.residue(x.rep, over=(eps.initial(gamma),))
        return out
    if isinstance(x, _ZeroHomogeneous):
        return TwistedRingElement.zero(v)
    if isinstance(x, GradedElement):
        out = TwistedRingElement.zero(v)
        for d in x.support():
            out = out + psi(eps, x.components[d])
        return out
    raise TypeError(f"cannot apply psi to {type(x).__name__}")


def constant_lift(coeff: ResidueElement) -> RationalFunction:
    """Lifting oracle for residue fields where every class is a constant."""
    c = coeff.const
    if c is None:
        raise LiftingError(f"residue class {coeff} is not a rational constant")
    if c == 0:
        raise LiftingError("the zero class has no value-zero lift")
    return RationalFunction(c)


def psi_inverse_term(eps: ChoiceFunction, gamma: GroupElement, coeff: ResidueElement, lift):
    """Pull one term a·t^γ back to the homogeneous component in_v(ε(γ)·z').

    ``lift`` must produce a value-0 field element in the class of ``coeff``;
    its output is verified, and a violation raises :class:`LiftingError`.
    """
    v = eps.valuation
    if coeff.is_zero():
        return HZERO
    if not eps.contains(gamma):
        raise DomainError(f"degree {gamma} is outside the choice function's domain")
    lifted = as_rational_function(lift(coeff))
    if lifted.is_zero() or v.value(lifted) != v.group_zero or v.residue(lifted) != coeff:
        raise LiftingError(f"oracle output {lifted} does not lift {coeff}")
    return in_v(v, eps(gamma) * lifted)


def psi_inverse(eps: ChoiceFunction, x: TwistedRingElement, lift) -> GradedElement:
    """Inverse of ψ on a twisted ring element, term by term."""
    v = eps.valuation
    if x.valuation != v:
        raise ValueError("element and choice function use different valuations")
    return GradedElement(
        v, (psi_inverse_term(eps, g, x.coeffs[g], lift) for g in x.support())
    )
