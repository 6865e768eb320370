"""Monomial valuations on rational function fields, and their residues.

A :class:`MonomialValuation` assigns every variable a weight in a
lex-ordered Q^d.  A monomial takes the exponent-weighted sum of its
variables' weights, a nonzero polynomial the minimum over its terms, and a
quotient the difference — well defined on the field because the valuation
is multiplicative.  The weights are scaled once to integer vectors over the
lcm of their denominators, so a monomial value is one integer dot product,
and over that shared positive denominator the lex order of the numerator
tuples is the order of the values.  Each valuation keeps a memo from
monomial to that integer vector, so the dot product is taken once per
monomial; a variable without a weight is never stored and raises on every
call.  A second memo, seeded with ``group_zero``, interns degrees: a value
is one lookup from its lattice vector, and equal degrees are one object, so
dicts keyed by degree hit on identity.  :meth:`MonomialValuation.in_eq`
compares lattice vectors too, and never normalizes the difference x - y.

The initial part of a polynomial keeps exactly the minimal-value terms;
one pass over the terms gives both it and the polynomial's value.
Because a term-by-term product of two initial polynomials concentrates in
a single value, initial parts are multiplicative here, which is what lets
residue classes be compared by polynomial cross-multiplication and never
by division.

It also means residues come from the factors' initial parts: the class
of a quotient of products is the quotient of the products of the
factors' initial parts, and its value is read off those parts.  One routine,
:meth:`MonomialValuation.residue`, computes every residue that way, so a
quotient is never normalized whole only to drop its higher-value tails.

A :class:`ResidueElement` is a value-zero class of the residue field, held
in one of two forms: the rational number ``const``, or one normalized
quotient of initial polynomials of equal value.  The class is rational
also when a common factor that is not a monomial hides it; the
constructor :meth:`ResidueElement._make` decides that in one place.  Most
classes met in practice are rational: a twisting or a ψ coefficient of
one-term quotients whose monomials cancel.  Products, sums and comparisons
of rational classes are rational arithmetic, with no polynomial product
and no quotient normalization, and a rational class builds its quotient
``c / 1`` only when ``rep`` is first read (for a printed report or for
arithmetic with a class that is not rational).
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, sub

from .errors import DimensionMismatchError
from .mpoly import (
    _ONE_MONOMIAL,
    Polynomial,
    RationalFunction,
    _coeff,
    _div,
    _rational_nth_root,
    as_rational_function,
    rf_nth_root,
)
from .ordgroup import GroupElement, _common_lattice, _reduced

__all__ = ["MonomialValuation", "ResidueElement"]


class MonomialValuation:
    __slots__ = ("weights", "dim", "_zero", "_scale", "_vecs", "_memo", "_degrees")

    def __init__(self, weights: dict):
        if not weights:
            raise ValueError("a valuation needs at least one weighted variable")
        coerced = {}
        dim = None
        for var, w in weights.items():
            w = w if isinstance(w, GroupElement) else GroupElement(w)
            if dim is None:
                dim = w.dim
            elif w.dim != dim:
                raise DimensionMismatchError(
                    f"weight of {var} has dimension {w.dim}, expected {dim}"
                )
            coerced[var] = w
        self.weights = coerced
        self.dim = dim
        self._zero = GroupElement.zero(dim)
        # the weights as integer vectors of the lattice Z^d / _scale
        self._scale, vecs = _common_lattice(coerced.values())
        self._vecs = dict(zip(coerced, vecs))
        # monomial -> _lattice(monomial), filled as monomials are met
        self._memo: dict = {}
        # lattice vector -> its interned GroupElement, filled as values are read
        self._degrees: dict = {self._zero.num: self._zero}

    @property
    def group_zero(self) -> GroupElement:
        return self._zero

    def _lattice(self, mono) -> tuple:
        """v(mono) as integer numerators over ``_scale``, computed once per monomial."""
        vec = self._memo.get(mono)
        if vec is None:
            vec = self._memo[mono] = self._dot(mono)
        return vec

    def _dot(self, mono) -> tuple:
        vecs = self._vecs
        total = None
        for var, e in mono.exps:
            vec = vecs.get(var)
            if vec is None:
                raise ValueError(f"no weight configured for variable {var!r}")
            if total is None:
                total = [e * x for x in vec]
            else:
                total = [t + e * x for t, x in zip(total, vec)]
        return self._zero.num if total is None else tuple(total)

    def _min_lattice(self, p: Polynomial) -> tuple:
        if p.is_zero():
            raise ValueError("the zero polynomial has no value")
        return min(map(self._lattice, p.terms))

    def _rf_lattice(self, f: RationalFunction) -> tuple:
        if f.is_zero():
            raise ValueError("zero has no value")
        return tuple(map(sub, self._min_lattice(f.num), self._min_lattice(f.den)))

    def _degree(self, vec: tuple) -> GroupElement:
        """The interned GroupElement of a lattice vector: equal degrees are one object."""
        g = self._degrees.get(vec)
        if g is None:
            g = self._degrees[vec] = _reduced(vec, self._scale)
        return g

    def monomial_value(self, mono) -> GroupElement:
        return self._degree(self._lattice(mono))

    def polynomial_value(self, p: Polynomial) -> GroupElement:
        return self._degree(self._min_lattice(p))

    def value(self, f) -> GroupElement:
        return self._degree(self._rf_lattice(as_rational_function(f)))

    def initial_form(self, f) -> tuple[RationalFunction, GroupElement]:
        """The quotient of f's initial parts and v(f), from one scan of each part.

        A polynomial is scanned once, as the numerator over 1.
        """
        if isinstance(f, Polynomial):
            part, vec = self._initial(f)
            return RationalFunction(part), self._degree(vec)
        f = as_rational_function(f)
        num, num_vec = self._initial(f.num)
        den, den_vec = self._initial(f.den)
        return RationalFunction(num, den), self._degree(tuple(map(sub, num_vec, den_vec)))

    def _initial(self, p: Polynomial) -> tuple[Polynomial, tuple]:
        """p's initial part and its value in the lattice, from one pass over the terms.

        A one-term polynomial is its own initial part.
        """
        terms = p.terms
        if len(terms) == 1:
            (m,) = terms
            return p, self._lattice(m)
        if not terms:
            raise ValueError("the zero polynomial has no initial part")
        cut = keep = None
        for m, c in terms.items():
            val = self._lattice(m)
            if cut is None or val < cut:
                cut, keep = val, {m: c}
            elif val == cut:
                keep[m] = c
        return (p if len(keep) == len(terms) else Polynomial._raw(keep)), cut

    def _initial_product(self, factors) -> tuple[Polynomial, tuple]:
        """The product of the factors' initial parts, and the sum of their lattice values.

        A factor equal to 1 changes neither, so it is skipped.
        """
        prod = total = None
        for p in factors:
            if len(p.terms) == 1 and p.terms.get(_ONE_MONOMIAL) == 1:
                continue
            part, val = self._initial(p)
            if prod is None:
                prod, total = part, val
            else:
                prod = prod * part
                total = tuple(map(add, total, val))
        if prod is None:
            return Polynomial.one(), self._zero.num
        return prod, total

    def initial_part(self, p: Polynomial) -> Polynomial:
        return self._initial(p)[0]

    def initial_rf(self, f) -> RationalFunction:
        """The quotient of initial parts; same initial class, canonical shape."""
        f = as_rational_function(f)
        if f.is_zero():
            raise ValueError("zero has no initial part")
        return RationalFunction(self.initial_part(f.num), self.initial_part(f.den))

    def in_eq(self, x, y) -> bool:
        """Initial-form equality: v(x) = v(y) and v(x - y) > v(x), that is n = 0 or
        v(n) > v(x.num) + v(y.den) for n = x.num·y.den - y.num·x.den."""
        x = as_rational_function(x)
        y = as_rational_function(y)
        if self._rf_lattice(x) != self._rf_lattice(y):
            return False
        n = x.num * y.den - y.num * x.den
        bar = map(add, self._min_lattice(x.num), self._min_lattice(y.den))
        return n.is_zero() or self._min_lattice(n) > tuple(bar)

    def residue(self, f, *more, over=()) -> "ResidueElement":
        """The residue class of f·Π more / Π over, field elements of total value 0.

        ``residue(f)`` is the class of one value-zero element.  The product
        is never formed: its class is the quotient of the products of the
        factors' initial parts, normalized once.  When every factor is a
        one-term quotient and their monomials cancel, the class is the
        quotient of their coefficients, and no polynomial is multiplied.
        For one factor over one factor (a ψ coefficient) that case is
        decided on monomial keys first: equal numerator monomials and equal
        denominator monomials have equal values, so the class is
        c_f·d_g / (d_f·c_g) with no value check; any other pair falls back
        to the exponent sums and then to the initial parts.
        """
        f = as_rational_function(f)
        over = [as_rational_function(g) for g in over]
        if not more and len(over) == 1:
            (g,) = over
            fn, fd, gn, gd = f.num.terms, f.den.terms, g.num.terms, g.den.terms
            if len(fn) == len(fd) == len(gn) == len(gd) == 1:
                ((mf, cf),), ((nf, df),) = fn.items(), fd.items()
                ((mg, cg),), ((ng, dg),) = gn.items(), gd.items()
                if mf == mg and nf == ng:
                    return ResidueElement._constant(self, _div(cf * dg, df * cg))
        factors = [f] + [as_rational_function(g) for g in more]
        const = _cancelled_coefficients(factors, over)
        if const is not None:
            return ResidueElement._constant(self, const)
        nums = [g.num for g in factors] + [g.den for g in over]
        dens = [g.den for g in factors] + [g.num for g in over]
        num, value = self._initial_product(nums)
        den, den_value = self._initial_product(dens)
        if value != den_value:
            diff = _reduced(tuple(map(sub, value, den_value)), self._scale)
            raise ValueError(f"residue needs a value-zero element, got value {diff}")
        return ResidueElement._make(self, RationalFunction(num, den))

    def residue_zero(self) -> "ResidueElement":
        return ResidueElement._constant(self, 0)

    def residue_one(self) -> "ResidueElement":
        return ResidueElement._constant(self, 1)

    def residue_constant(self, c) -> "ResidueElement":
        return ResidueElement._constant(self, _coeff(c))

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, MonomialValuation) and self.weights == other.weights

    def __hash__(self):
        return hash(frozenset(self.weights.items()))

    def __repr__(self):
        inner = ", ".join(f"{v}={w}" for v, w in sorted(self.weights.items()))
        return f"MonomialValuation({inner})"


def _cancelled_coefficients(factors, over) -> int | Fraction | None:
    """Π factors / Π over as a rational number, when that quotient is one.

    That is the case exactly when every factor is a one-term quotient and
    the Laurent exponents of the monomials sum to zero; otherwise None.
    Cancelled exponents have value 0, so no value check is needed.
    """
    exps: dict[str, int] = {}
    top = bottom = 1
    for sign, group in ((1, factors), (-1, over)):
        for f in group:
            num, den = f.num.terms, f.den.terms
            if len(num) != 1 or len(den) != 1:
                return None
            ((mn, cn),) = num.items()
            ((md, cd),) = den.items()
            for var, e in mn.exps:
                exps[var] = exps.get(var, 0) + sign * e
            for var, e in md.exps:
                exps[var] = exps.get(var, 0) - sign * e
            if sign > 0:
                top, bottom = top * cn, bottom * cd
            else:
                top, bottom = top * cd, bottom * cn
    if any(exps.values()):
        return None
    return _div(top, bottom)


class ResidueElement:
    """A residue-field element: a rational number, or one normalized quotient.

    ``const`` is the class as a rational number (an ``int`` when integral)
    when it is one, and None exactly when it is not; :meth:`_make` decides
    that, and the constructor takes a quotient that is not rational as
    given.  That quotient is initial, its numerator and denominator of equal
    value, so equality is quotient equality, exact because initial parts are
    multiplicative for monomial valuations.  Arithmetic on two rational
    classes is arithmetic on ``const``; all else is quotient arithmetic on
    :meth:`rep`, which a rational class builds as ``c / 1`` on first read.
    """

    __slots__ = ("valuation", "const", "_rep")

    def __init__(self, valuation: MonomialValuation, rep: RationalFunction):
        self.valuation = valuation
        self.const = None
        self._rep = rep

    @classmethod
    def _constant(cls, valuation, c) -> "ResidueElement":
        """The class of the rational ``c``, which is already an ``int`` when integral."""
        out = object.__new__(cls)
        out.valuation = valuation
        out.const = c
        out._rep = None
        return out

    @classmethod
    def _make(cls, valuation, rf: RationalFunction) -> "ResidueElement":
        """The class of the normalized quotient rf, rational exactly when rf.num = c·rf.den."""
        num, den = rf.num.terms, rf.den.terms
        if not num:
            return cls._constant(valuation, 0)
        if len(num) == len(den):
            # if num = c·den, any monomial of num is one of den, with the ratio c
            m, nc = next(iter(num.items()))
            dc = den.get(m)
            if dc is not None:
                c = _div(nc, dc)
                if num == rf.den.scale(c).terms:
                    return cls._constant(valuation, c)
        return cls(valuation, rf)

    def _check(self, other) -> "ResidueElement":
        """``other`` as a class over this valuation; a rational number is coerced."""
        if not isinstance(other, ResidueElement):
            if isinstance(other, (int, Fraction)):
                return self.valuation.residue_constant(other)
            raise TypeError(f"expected ResidueElement, got {type(other).__name__}")
        if other.valuation != self.valuation:
            raise ValueError("residues over different valuations cannot be combined")
        return other

    def is_zero(self) -> bool:
        return self.const == 0

    def rep(self) -> RationalFunction:
        rep = self._rep
        if rep is None:
            rep = self._rep = RationalFunction(self.const)
        return rep

    def __mul__(self, other):
        other = self._check(other)
        if self.const is not None and other.const is not None:
            return self._constant(self.valuation, _coeff(self.const * other.const))
        if self.is_zero() or other.is_zero():
            return self.valuation.residue_zero()
        return self._make(self.valuation, self.rep() * other.rep())

    __rmul__ = __mul__

    def __add__(self, other):
        other = self._check(other)
        if self.const is not None and other.const is not None:
            return self._constant(self.valuation, _coeff(self.const + other.const))
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        s = self.rep() + other.rep()
        if s.is_zero():
            return self.valuation.residue_zero()
        # like-value terms may cancel partially, never drop below the shared value
        v_num = self.valuation.polynomial_value(s.num)
        v_den = self.valuation.polynomial_value(s.den)
        if v_num != v_den:
            raise RuntimeError(
                f"residue sum ({self}) + ({other}): numerator {s.num} has value "
                f"{v_num}, denominator {s.den} has value {v_den}"
            )
        return self._make(self.valuation, s)

    __radd__ = __add__

    def __neg__(self):
        if self.const is not None:
            return self._constant(self.valuation, -self.const)
        return ResidueElement(self.valuation, -self._rep)

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return (-self) + other

    def inv(self) -> "ResidueElement":
        if self.is_zero():
            raise ZeroDivisionError("the zero class has no inverse")
        return self._make(self.valuation, self.rep().inv())

    def __pow__(self, n):
        if not isinstance(n, int):
            raise ValueError("powers must be integers")
        if n < 0:
            return self.inv() ** (-n)
        return self._make(self.valuation, self.rep() ** n)

    def __eq__(self, other):
        try:
            other = self._check(other)
        except TypeError:
            return NotImplemented
        except ValueError:
            return False
        if self.const is not None and other.const is not None:
            return self.const == other.const
        return self.rep() == other.rep()

    def nth_root(self, n: int) -> RationalFunction | None:
        """A field element a with residue(a**n) == self, or None.

        For a rational class None is a disproof: Kv is purely transcendental
        over Q, so a rational number has an n-th root in Kv exactly when it
        has one in Q, and that root is decided exactly on ``const``.  For
        any other class the quotient goes to :func:`rf_nth_root`, whose None
        means only that no root was found.
        """
        if self.is_zero():
            return None
        if self.const is not None:
            root = _rational_nth_root(self.const, n)
            return None if root is None else RationalFunction(root)
        return rf_nth_root(self.rep(), n)

    def __str__(self):
        return str(self.rep())

    def __repr__(self):
        return f"ResidueElement({self})"
