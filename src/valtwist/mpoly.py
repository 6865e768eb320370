"""Sparse multivariate polynomials and rational functions over Q.

Representation invariants
-------------------------
* :class:`Monomial` holds a tuple of ``(variable, exponent)`` pairs with
  strictly positive integer exponents, sorted in variable order; the empty
  tuple is the monomial 1.
* :class:`Polynomial` maps monomials to nonzero coefficients; the zero
  polynomial is the empty map.  A coefficient is an ``int`` or a
  ``Fraction``, never anything else.  Every entry point (the constructor,
  ``constant``, ``term``, ``scale``, the parser) stores an integral value as
  an ``int``, so the common integer case never touches ``Fraction``, and
  so does a power of more than one term.  ``__mul__`` and ``__add__`` keep
  ``int * int`` an ``int`` and may leave an integral ``Fraction`` behind,
  which is harmless because ``3 == Fraction(3)`` and both hash alike, so
  term maps compare equal and print the same.
* Coefficients are divided only through one exact helper, so two ``int``
  operands give an ``int`` or a ``Fraction``, never a ``float``.  Any other
  coefficient type (a ``float`` included) raises ``TypeError``.
* :class:`RationalFunction` is a pair ``num / den`` with ``den != 0``.  On
  construction the common monomial content and the leading coefficient of
  ``den`` are cancelled, so ``den`` is lex-monic and at most one of ``num``,
  ``den`` mentions any given variable-power in content.  A quotient over
  the polynomial 1 and a one-term quotient take shortcuts that store
  exactly the same terms.  No polynomial gcd is ever computed: equality is
  decided by cross-multiplication.
* Polynomials and rational functions are immutable values: nothing
  changes a term map once it is stored.  So arithmetic may return an
  operand itself, and does so for a product with the polynomial 1 (with an
  ``int`` coefficient 1) and for a quotient over 1, which keeps its
  numerator.

Variable order
--------------
Variable names are compared by splitting a trailing integer suffix, so
``x < x2 < x10 < y``; names whose suffixes differ only by leading zeros
are ordered by the digit string, so ``x01 < x1``.  Monomials are compared
lexicographically against that variable order (a higher power of an
earlier variable wins), which is the order ``leading_term`` and the root
recursion use.

Vector form
-----------
Powers of more than one term and ``nth_root`` work on one other form of a
polynomial: its variables in variable order, each monomial as its tuple of
exponents over them, and each coefficient as an ``int`` numerator over one
common denominator (``_vectors``, and ``_polynomial`` back).  Monomials
multiply by adding tuples, lex order on the tuples is the monomial order,
and all coefficient arithmetic is on integers.  A product of two
polynomials stays on term maps: converting both costs more than it saves,
and a power of one term needs neither (exponents times n, coefficient**n).

Text format
-----------
The printers emit sums of terms like ``3/4*x2^2*y - x3`` with an optional
single `` / `` separating numerator from denominator.  The tokenizer treats
a slash *directly between two integers* as a rational coefficient; any
other slash is the fraction bar.  An exponent must be a plain positive
integer literal, so ``x^2/3`` and ``x^4/2`` are rejected — write
``x^2 / 3``.  print -> parse is the identity.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb, lcm
from operator import add, sub

__all__ = [
    "Monomial",
    "Polynomial",
    "RationalFunction",
    "nth_root",
    "rf_nth_root",
    "parse_polynomial",
    "parse_rational_function",
]


def _coeff(c):
    """``c`` as a coefficient: an ``int`` when integral, else a ``Fraction``."""
    if type(c) is int:
        return c
    if type(c) is Fraction:
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, (int, Fraction)):
        return _coeff(Fraction(c))
    raise TypeError(
        f"coefficient {c!r} of type {type(c).__name__} is not an int or a Fraction"
    )


def _div(a, b):
    """The exact quotient of two coefficients, as an ``int`` when integral."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return _coeff(Fraction(a, b))


_VAR_KEYS: dict[str, tuple] = {}


def _var_key(name: str):
    key = _VAR_KEYS.get(name)
    if key is None:
        m = re.fullmatch(r"(.*?)(\d*)", name)
        prefix, digits = m.group(1), m.group(2)
        # the digit string breaks ties between names like x01 and x1
        key = (prefix, int(digits) if digits else -1, digits)
        _VAR_KEYS[name] = key
    return key


class Monomial:
    __slots__ = ("exps", "_hash")

    def __init__(self, exps=()):
        if isinstance(exps, dict):
            exps = exps.items()
        acc: dict[str, int] = {}
        for var, e in exps:
            if not isinstance(e, int):
                raise TypeError(f"exponent of {var} must be an int, got {e!r}")
            acc[var] = acc.get(var, 0) + e
        pairs = []
        for var, e in acc.items():
            if e < 0:
                raise ValueError(
                    f"negative exponent {e} for {var}; use a RationalFunction"
                )
            if e:
                pairs.append((var, e))
        pairs.sort(key=lambda p: _var_key(p[0]))
        self.exps = tuple(pairs)
        self._hash = hash(self.exps)

    @classmethod
    def _raw(cls, pairs: tuple) -> "Monomial":
        # internal: pairs must already be sorted with positive exponents
        m = object.__new__(cls)
        m.exps = pairs
        m._hash = hash(pairs)
        return m

    def degree(self) -> int:
        return sum(e for _, e in self.exps)

    def exponent(self, var: str) -> int:
        for v, e in self.exps:
            if v == var:
                return e
        return 0

    def is_one(self) -> bool:
        return not self.exps

    def mul(self, other: "Monomial") -> "Monomial":
        if not self.exps:
            return other
        if not other.exps:
            return self
        a, b = self.exps, other.exps
        out = []
        i = j = 0
        while i < len(a) and j < len(b):
            va, ea = a[i]
            vb, eb = b[j]
            if va == vb:
                out.append((va, ea + eb))
                i += 1
                j += 1
            elif _var_key(va) < _var_key(vb):
                out.append(a[i])
                i += 1
            else:
                out.append(b[j])
                j += 1
        out.extend(a[i:])
        out.extend(b[j:])
        return Monomial._raw(tuple(out))

    def div(self, other: "Monomial") -> "Monomial | None":
        """Exact quotient self / other, or None if some exponent would go negative."""
        if not other.exps:
            return self
        # no new variables appear, so insertion order (sorted) is preserved
        acc = dict(self.exps)
        for var, e in other.exps:
            left = acc.get(var, 0) - e
            if left < 0:
                return None
            if left:
                acc[var] = left
            else:
                acc.pop(var, None)
        return Monomial._raw(tuple(acc.items()))

    def gcd(self, other: "Monomial") -> "Monomial":
        if not self.exps or not other.exps:
            return _ONE_MONOMIAL
        b = dict(other.exps)
        return Monomial._raw(tuple((var, min(e, b[var])) for var, e in self.exps if var in b))

    def _cmp(self, other: "Monomial") -> int:
        a, b = self.exps, other.exps
        for (va, ea), (vb, eb) in zip(a, b):
            if va != vb:
                # a power of an earlier variable
                return 1 if _var_key(va) < _var_key(vb) else -1
            if ea != eb:
                return 1 if ea > eb else -1
        # every shared position ties: the one with more variables is greater
        return (len(a) > len(b)) - (len(a) < len(b))

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.exps == other.exps

    def __hash__(self):
        return self._hash

    def __str__(self):
        if not self.exps:
            return "1"
        return "*".join(
            var if e == 1 else f"{var}^{e}" for var, e in self.exps
        )

    def __repr__(self):
        return f"Monomial({self})"


_ONE_MONOMIAL = Monomial()


class Polynomial:
    __slots__ = ("terms",)

    def __init__(self, terms=()):
        """A polynomial from a dict or an iterable of (monomial, coefficient)
        pairs; each coefficient is checked, and zero sums are dropped."""
        acc: dict[Monomial, int | Fraction] = {}
        for mono, coeff in terms.items() if isinstance(terms, dict) else terms:
            c = _coeff(coeff) if mono not in acc else _coeff(acc[mono] + _coeff(coeff))
            if c:
                acc[mono] = c
            else:
                acc.pop(mono, None)
        self.terms = acc

    @classmethod
    def _raw(cls, terms: dict) -> "Polynomial":
        # internal: every coefficient must already be a nonzero int or Fraction
        p = object.__new__(cls)
        p.terms = terms
        return p

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls._raw({})

    @classmethod
    def one(cls) -> "Polynomial":
        return cls._raw({_ONE_MONOMIAL: 1})

    @classmethod
    def constant(cls, c) -> "Polynomial":
        c = _coeff(c)
        return cls._raw({_ONE_MONOMIAL: c} if c else {})

    @classmethod
    def variable(cls, name: str, exp: int = 1) -> "Polynomial":
        return cls._raw({Monomial(((name, exp),)): 1})

    @classmethod
    def term(cls, mono: Monomial, coeff) -> "Polynomial":
        c = _coeff(coeff)
        return cls._raw({mono: c} if c else {})

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and _ONE_MONOMIAL in self.terms)

    def constant_value(self) -> int | Fraction:
        if self.is_zero():
            return 0
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return self.terms[_ONE_MONOMIAL]

    def __len__(self):
        return len(self.terms)

    def __bool__(self):
        return bool(self.terms)

    def sorted_terms(self):
        """Terms in descending lex order (leading first)."""
        return sorted(self.terms.items(), key=lambda t: t[0], reverse=True)

    def leading(self):
        if not self.terms:
            raise ValueError("the zero polynomial has no leading term")
        m = max(self.terms)
        return m, self.terms[m]

    def total_degree(self) -> int:
        if not self.terms:
            raise ValueError("the zero polynomial has no degree")
        return max(m.degree() for m in self.terms)

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self.terms:
            return other
        if not other.terms:
            return self
        acc = dict(self.terms)
        for mono, coeff in other.terms.items():
            c = acc.get(mono, 0) + coeff
            if c:
                acc[mono] = c
            else:
                del acc[mono]
        return Polynomial._raw(acc)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._raw({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self.terms or not other.terms:
            return Polynomial.zero()
        if len(other.terms) == 1:
            (mono, coeff), = other.terms.items()
            if not mono.exps and coeff == 1 and type(coeff) is int:
                return self
            return Polynomial._raw({m.mul(mono): c * coeff for m, c in self.terms.items()})
        if len(self.terms) == 1:
            (mono, coeff), = self.terms.items()
            if not mono.exps and coeff == 1 and type(coeff) is int:
                return other
            return Polynomial._raw({m.mul(mono): c * coeff for m, c in other.terms.items()})
        acc: dict[Monomial, int | Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1.mul(m2)
                c = acc.get(m, 0) + c1 * c2
                if c:
                    acc[m] = c
                else:
                    del acc[m]
        return Polynomial._raw(acc)

    __rmul__ = __mul__

    def __pow__(self, n):
        """``self**n`` for an integer ``n >= 0``; a base of one term powers it directly.

        A longer base is powered in vector form (see the module docstring) by
        squaring and multiplying, so each integral coefficient is an ``int``.
        """
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        if n == 0:
            return Polynomial.one()
        if len(self.terms) < 2:
            return Polynomial._raw({
                Monomial._raw(tuple([(var, e * n) for var, e in m.exps])): c**n
                for m, c in self.terms.items()
            })
        names, base, den = _vectors(self)
        result, den = {(0,) * len(names): 1}, den**n
        while n:
            if n & 1:
                result = _vector_mul(result, base)
            base = _vector_mul(base, base) if n > 1 else base
            n >>= 1
        return _polynomial(names, result, den)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def scale(self, c) -> "Polynomial":
        c = _coeff(c)
        if not c:
            return Polynomial.zero()
        return Polynomial._raw({m: _coeff(coeff * c) for m, coeff in self.terms.items()})

    def monomial_content(self) -> Monomial:
        """Componentwise minimum of the exponent vectors (1 for the zero polynomial)."""
        it = iter(self.terms)
        try:
            content = next(it)
        except StopIteration:
            return _ONE_MONOMIAL
        for mono in it:
            content = content.gcd(mono)
            if content.is_one():
                break
        return content

    def divide_monomial(self, mono: Monomial) -> "Polynomial":
        acc = {}
        for m, c in self.terms.items():
            q = m.div(mono)
            if q is None:
                raise ValueError(f"{mono} does not divide every term of {self}")
            acc[q] = c
        return Polynomial._raw(acc)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for i, (mono, coeff) in enumerate(self.sorted_terms()):
            mag = abs(coeff)
            if mono.is_one():
                body = str(mag)
            elif mag == 1:
                body = str(mono)
            else:
                body = f"{mag}*{mono}"
            if i == 0:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if coeff > 0 else f" - {body}")
        return "".join(parts)

    def __repr__(self):
        return f"Polynomial({self})"


class RationalFunction:
    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        num = _as_poly(num)
        den = _as_poly(den)
        if len(den.terms) == 1:
            (md, cd), = den.terms.items()
            if num.terms and not md.exps and cd == 1:
                # over 1 nothing cancels and den is already monic, so the
                # general path would store these very terms
                self.num = num
                self.den = den
                return
            if len(num.terms) == 1:
                # a monomial quotient: cancel the monomials' gcd and divide
                # the coefficients, storing what the general path stores
                (mn, cn), = num.terms.items()
                g = mn.gcd(md)
                n, d = mn.div(g), md.div(g)
                if cd != 1:
                    num, den = Polynomial._raw({n: _div(cn, cd)}), Polynomial._raw({d: 1})
                elif n is not mn:
                    num, den = Polynomial._raw({n: cn}), Polynomial._raw({d: cd})
                self.num = num
                self.den = den
                return
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num = Polynomial.zero()
            self.den = Polynomial.one()
            return
        content = num.monomial_content().gcd(den.monomial_content())
        if not content.is_one():
            num = num.divide_monomial(content)
            den = den.divide_monomial(content)
        _, lead = den.leading()
        if lead != 1:
            scale = _div(1, lead)
            num = num.scale(scale)
            den = den.scale(scale)
        self.num = num
        self.den = den

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num)

    def constant_value(self) -> int | Fraction:
        return _div(self.num.constant_value(), self.den.constant_value())

    def is_polynomial(self) -> bool:
        return self.den == Polynomial.one()

    def total_degree(self) -> int:
        """max(deg num, deg den) on the content-cancelled representation."""
        if self.is_zero():
            raise ValueError("the zero function has no degree")
        return max(self.num.total_degree(), self.den.total_degree())

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, (int, Fraction, Polynomial)):
            return RationalFunction(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self):
        out = object.__new__(RationalFunction)
        out.num = -self.num
        out.den = self.den
        return out

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def inv(self) -> "RationalFunction":
        if self.is_zero():
            raise ZeroDivisionError("cannot invert zero")
        return RationalFunction(self.den, self.num)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inv()

    def __pow__(self, n):
        if not isinstance(n, int):
            raise ValueError("powers must be integers")
        if n < 0:
            return self.inv() ** (-n)
        return RationalFunction(self.num**n, self.den**n)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.den.terms == other.den.terms:
            return self.num.terms == other.num.terms
        return self.num * other.den == other.num * self.den

    def __str__(self):
        if self.is_polynomial():
            return str(self.num)
        return f"{self.num} / {self.den}"

    def __repr__(self):
        return f"RationalFunction({self})"


def _as_poly(x) -> Polynomial:
    if isinstance(x, Polynomial):
        return x
    if isinstance(x, (int, Fraction)):
        return Polynomial.constant(x)
    raise TypeError(f"cannot interpret {x!r} as a polynomial")


def as_rational_function(x) -> RationalFunction:
    if isinstance(x, RationalFunction):
        return x
    if isinstance(x, str):
        return parse_rational_function(x)
    return RationalFunction(_as_poly(x))


# --- vector form --------------------------------------------------------------


def _vectors(f: Polynomial):
    """f in vector form: ``(names, terms, den)``, where ``terms`` maps exponent
    tuples over ``names`` to ``int`` numerators over the least common ``den``."""
    names = sorted({var for m in f.terms for var, _ in m.exps}, key=_var_key)
    column = {name: k for k, name in enumerate(names)}
    den = lcm(*(c.denominator for c in f.terms.values()))
    terms = {}
    for m, c in f.terms.items():
        e = [0] * len(names)
        for var, x in m.exps:
            e[column[var]] = x
        terms[tuple(e)] = c.numerator * (den // c.denominator)
    return names, terms, den


def _polynomial(names, terms: dict, den: int) -> Polynomial:
    """The polynomial of a vector form; an integral coefficient becomes an ``int``."""
    return Polynomial._raw({
        Monomial._raw(tuple((var, e) for var, e in zip(names, v) if e)): _div(c, den)
        for v, c in terms.items()
    })


def _vector_mul(a: dict, b: dict) -> dict:
    """The product of two vector-form term maps over the same variables."""
    acc = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(map(add, m1, m2))
            acc[m] = acc.get(m, 0) + c1 * c2
    return {m: c for m, c in acc.items() if c}


def _int_nth_root(m: int, n: int) -> int | None:
    """Exact n-th root of m >= 0, or None."""
    if m < 0:
        raise ValueError("negative radicand")
    if m in (0, 1):
        return m
    x = 1 << ((m.bit_length() + n - 1) // n)
    while True:
        y = ((n - 1) * x + m // x ** (n - 1)) // n
        if y >= x:
            break
        x = y
    return x if x**n == m else None


def _rational_nth_root(c, n: int):
    """Exact n-th root of the coefficient ``c``, or None."""
    if c == 0:
        return 0
    if c < 0 and n % 2 == 0:
        return None
    p = _int_nth_root(abs(c.numerator), n)
    q = _int_nth_root(c.denominator, n)
    if p is None or q is None:
        return None
    return _div(-p if c < 0 else p, q)


def nth_root(f: Polynomial, n: int) -> Polynomial | None:
    """Polynomial g with ``g**n == f``, or None.

    The leading-term recursion adds one root term per step.  The remainder
    ``f - g**n`` and the powers ``g**i`` (``i < n``) are kept exact as g
    grows by a term t, through ``(g + t)**i = sum C(i, j) g**(i-j) t**j``,
    so no step re-powers g.  An f of more than one term is rooted in its
    vector form (see the module docstring), where each map holds integer
    numerators over one common denominator: ``d**i`` for ``g**i``, where d
    is the least common denominator of g's coefficients, and ``K * d**n``
    for the remainder, with K fixed by f.  Sound: g is returned only when
    that exact remainder is zero, which is the reconstruction check.  A
    one-term f is rooted on its term.  The recursion gives up after
    ``4*len(f) + 4*f.total_degree() + 16`` steps; None therefore means "no
    root found", not a disproof.
    """
    if not isinstance(n, int) or n < 2:
        raise ValueError("the root index must be an integer >= 2")
    if f.is_zero():
        return Polynomial.zero()
    if len(f.terms) == 1:
        # one term stays on the term map, as in powers
        (m, c), = f.terms.items()
        root_c = _rational_nth_root(c, n)
        if root_c is None or any(e % n for _, e in m.exps):
            return None
        return Polynomial._raw({Monomial._raw(tuple((var, e // n) for var, e in m.exps)): root_c})
    names, h, D = _vectors(f)
    lm, tm = max(h), min(h)
    root_c = _rational_nth_root(_div(h[lm], D), n)
    if root_c is None or any(e % n for e in lm):
        return None
    if any(e % n for e in tm) or _rational_nth_root(_div(h[tm], D), n) is None:
        return None
    degree = max(map(sum, h))
    if degree % n:
        return None
    last = tuple(e // n for e in lm)
    d = root_c.denominator
    # g is the leading root term, so f - g**n is f without its leading term
    del h[lm]
    # the leading coefficient root_c**n has denominator d**n, which D holds
    K = D // d**n
    denom_c = n * root_c ** (n - 1)
    denom_m = tuple(e * (n - 1) for e in last)
    cap = 4 * len(f) + 4 * degree + 16
    # powers[i] is g**i as numerators over d**i; n <= deg f here, so this is small
    powers = [{tuple(e * i for e in last): root_c.numerator**i} for i in range(n)]
    steps = 0
    while True:
        steps += 1
        if steps > cap:
            return None
        hm = max(h)
        um = tuple(map(sub, hm, denom_m))
        if min(um) < 0 or not um < last:
            return None
        uc = _div(Fraction(h[hm], K * d**n), denom_c)
        last = um
        if d % uc.denominator:
            # d grows by r: numerators over d**i scale by r**i, the
            # remainder's (over K * d**n) by r**n
            r = lcm(d, uc.denominator) // d
            d *= r
            for i in range(1, n):
                ri = r**i
                powers[i] = {m: c * ri for m, c in powers[i].items()}
            rn = r**n
            h = {m: c * rn for m, c in h.items()}
        # t = uc * um is tn / d, and t**j is (um * j, tn**j) over d**j
        tn = uc.numerator * (d // uc.denominator)
        t_powers = [(tuple(e * j for e in um), tn**j) for j in range(n + 1)]
        _add_binomial_terms(h, powers, n, t_powers, -K)
        if not h:
            # powers[1] is the old g over d
            powers[1][um] = tn
            return _polynomial(names, powers[1], d)
        # descending, so powers[i - j] is still the old power for j >= 1
        for i in range(n - 1, 0, -1):
            _add_binomial_terms(powers[i], powers, i, t_powers, 1)


def _add_binomial_terms(acc: dict, powers: list, i: int, t_powers: list, scale: int) -> None:
    """Add ``scale * sum_{j=1..i} C(i, j) powers[i-j] t**j`` to the map ``acc``.

    Monomials are exponent vectors and coefficients integer numerators;
    ``t_powers[j]`` is ``t**j`` as a (vector, numerator) pair.  A helper of
    :func:`nth_root` only.
    """
    for j in range(1, i + 1):
        tm, tc = t_powers[j]
        s = scale * comb(i, j) * tc
        for m, c in powers[i - j].items():
            key = tuple(map(add, m, tm))
            c = acc.get(key, 0) + c * s
            if c:
                acc[key] = c
            else:
                del acc[key]


def rf_nth_root(f: RationalFunction, n: int) -> RationalFunction | None:
    """Rational function g with ``g**n == f``, or None.

    Works on the stored (content-cancelled) representation, so a power
    hidden behind a non-monomial common factor of num and den is not found:
    sound, incomplete.
    """
    if f.is_zero():
        return RationalFunction(0)
    gn = nth_root(f.num, n)
    if gn is None:
        return None
    gd = nth_root(f.den, n)
    if gd is None:
        return None
    return RationalFunction(gn, gd)


# --- text format ------------------------------------------------------------

# a slash directly between two integers is a ratio; any other character that
# is neither a token nor whitespace is stray
_TOKEN_RE = re.compile(
    r"(?P<ratio>\d+/\d+)|(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*^/])|(?P<stray>\S)"
)


def _tokenize(text: str):
    """Tokens ``(kind, value)``: an ``"int"`` literal, a ``"ratio"`` literal
    ``p/q`` (value: its text), a ``"name"``, or one of ``+ - * ^ /``."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind, value = m.lastgroup, m.group()
        if kind == "stray":
            raise ValueError(f"unexpected character {value!r} in {text!r}")
        if kind == "int":
            value = int(value)
        tokens.append((value, value) if kind == "op" else (kind, value))
    return tokens


def _parse_poly_tokens(tokens, text: str) -> Polynomial:
    """A sum of signed terms, each a product of numbers and powers of names."""
    if not tokens:
        raise ValueError(f"empty polynomial in {text!r}")
    parts, term, sign, i, n = [], None, 1, 0, len(tokens)
    if tokens[0][0] in ("+", "-"):
        sign, i = (-1 if tokens[0][0] == "-" else 1), 1
    while True:
        kind, value = tokens[i] if i < n else (None, None)
        i += 1
        if kind == "int":
            factor = Polynomial.constant(value)
        elif kind == "ratio":
            p, q = map(int, value.split("/"))
            if q == 0:
                raise ValueError(f"zero denominator in {text!r}")
            factor = Polynomial.constant(_div(p, q))
        elif kind == "name":
            exp = 1
            if i < n and tokens[i][0] == "^":
                if i + 1 == n:
                    raise ValueError(f"exponents must be positive integers in {text!r}")
                kind, exp = tokens[i + 1]
                i += 2
                if kind != "int" or exp <= 0:
                    raise ValueError(
                        f"exponents must be positive integers, got {exp} in {text!r}"
                    )
            factor = Polynomial.variable(value, exp)
        elif kind is None:
            raise ValueError(f"unexpected end in {text!r}")
        else:
            raise ValueError(f"unexpected {value!r} in {text!r}")
        term = factor if term is None else term * factor
        if i < n and tokens[i][0] == "*":
            i += 1
            continue
        parts.append(term.scale(sign))
        term = None
        if i == n:
            # a balanced tree of sums copies each term O(log n) times, not O(n)
            while len(parts) > 1:
                odd = parts[-1:] if len(parts) % 2 else []
                parts = [a + b for a, b in zip(parts[::2], parts[1::2])] + odd
            return parts[0]
        kind, value = tokens[i]
        i += 1
        if kind not in ("+", "-"):
            raise ValueError(f"unexpected {value!r} in {text!r}")
        sign = 1 if kind == "+" else -1


def parse_polynomial(text: str) -> Polynomial:
    tokens = _tokenize(text)
    if any(kind == "/" for kind, _ in tokens):
        raise ValueError(f"unexpected '/' in polynomial {text!r}")
    return _parse_poly_tokens(tokens, text)


def parse_rational_function(text: str) -> RationalFunction:
    tokens = _tokenize(text)
    slashes = [i for i, (kind, _) in enumerate(tokens) if kind == "/"]
    if not slashes:
        return RationalFunction(_parse_poly_tokens(tokens, text))
    if len(slashes) > 1:
        raise ValueError(f"more than one fraction bar in {text!r}")
    cut = slashes[0]
    num = _parse_poly_tokens(tokens[:cut], text)
    den = _parse_poly_tokens(tokens[cut + 1 :], text)
    if den.is_zero():
        raise ValueError(f"zero denominator in {text!r}")
    return RationalFunction(num, den)
