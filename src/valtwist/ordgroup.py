"""Ordered abelian groups of rational vectors, and their f.g. subgroups.

A :class:`GroupElement` is an immutable point of Q^d compared
lexicographically (coordinate 0 is most significant), which makes Q^d a
totally ordered abelian group under componentwise addition.  It is stored
as integer numerators over one positive common denominator,
``coords[i] == num[i] / den``, kept reduced: ``gcd(den, *num) == 1``.  Equal
points therefore have equal ``(num, den)``, which is what ``==`` and
``hash`` use, and all group arithmetic and comparison is on integers.  The
hash, ``hash((num, den))``, is computed once when an element is made.

A :class:`FgSubgroup` is generated by finitely many such points; it scales
them once to integer vectors of a common lattice ``Z^d / scale``, and
membership is decided exactly by integer row reduction and always comes
with an integer witness, i.e. ``a == sum(n_i * g_i)`` with the returned
``n_i``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import DimensionMismatchError

__all__ = [
    "GroupElement",
    "FgSubgroup",
]


def _coordinate(c):
    """``c`` as an int or a Fraction; only exact rational input is accepted."""
    if type(c) is int or type(c) is Fraction:
        return c
    if isinstance(c, (int, Fraction)):
        return Fraction(c)
    if isinstance(c, str):
        try:
            return Fraction(c)
        except ValueError:
            raise ValueError(f"coordinate {c!r} is not a rational number") from None
    raise TypeError(
        f"coordinate {c!r} of type {type(c).__name__} is not an int, "
        "a Fraction or a rational string"
    )


class GroupElement:
    """A point of Q^d under the lexicographic order, as ``num / den``."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, coords):
        if isinstance(coords, GroupElement):
            self.num, self.den, self._hash = coords.num, coords.den, coords._hash
            return
        if isinstance(coords, (int, str, Fraction)):
            coords = (coords,)
        else:
            try:
                coords = tuple(coords)
            except TypeError:
                coords = (coords,)
        if not coords:
            raise ValueError("a group element needs at least one coordinate")
        if all(type(c) is int for c in coords):
            self.num, self.den = coords, 1
            self._hash = hash((coords, 1))
            return
        pairs = [
            (c if type(c) is Fraction else _coordinate(c)).as_integer_ratio()
            for c in coords
        ]
        # each coordinate is reduced, so numerators over the lcm of the
        # denominators share no factor with it
        den = lcm(*[d for _, d in pairs])
        self.num = tuple([n * (den // d) for n, d in pairs])
        self.den = den
        self._hash = hash((self.num, den))

    @classmethod
    def zero(cls, dim: int) -> "GroupElement":
        return _raw((0,) * dim, 1)

    @classmethod
    def parse(cls, text: str, dim: int | None = None) -> "GroupElement":
        """Read ``"1/2"`` or ``"(1, -1/2)"``; checks ``dim`` when given."""
        s = text.strip()
        if s.startswith("(") and s.endswith(")"):
            s = s[1:-1]
        parts = [p.strip() for p in s.split(",")] if s else []
        if not parts or any(not p for p in parts):
            raise ValueError(f"cannot parse group element from {text!r}")
        try:
            el = cls(Fraction(p) for p in parts)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse group element from {text!r}: {exc}") from None
        if dim is not None and el.dim != dim:
            raise DimensionMismatchError(
                f"expected a point of Q^{dim}, got {text!r} of dimension {el.dim}"
            )
        return el

    @property
    def coords(self) -> tuple:
        """The coordinates as a tuple of Fractions."""
        den = self.den
        return tuple(Fraction(x, den) for x in self.num)

    @property
    def dim(self) -> int:
        return len(self.num)

    def is_zero(self) -> bool:
        return not any(self.num)

    def _check(self, other) -> "GroupElement":
        if not isinstance(other, GroupElement):
            raise TypeError(f"expected GroupElement, got {type(other).__name__}")
        if len(other.num) != len(self.num):
            raise DimensionMismatchError(
                f"dimension mismatch: {self.dim} vs {other.dim}"
            )
        return other

    def __add__(self, other):
        if type(other) is not GroupElement or len(other.num) != len(self.num):
            other = self._check(other)
        a, b = self.den, other.den
        if a == b:
            num = tuple([x + y for x, y in zip(self.num, other.num)])
            return _raw(num, 1) if a == 1 else _reduced(num, a)
        return _reduced(tuple([x * b + y * a for x, y in zip(self.num, other.num)]), a * b)

    def __sub__(self, other):
        if type(other) is not GroupElement or len(other.num) != len(self.num):
            other = self._check(other)
        a, b = self.den, other.den
        if a == b:
            num = tuple([x - y for x, y in zip(self.num, other.num)])
            return _raw(num, 1) if a == 1 else _reduced(num, a)
        return _reduced(tuple([x * b - y * a for x, y in zip(self.num, other.num)]), a * b)

    def __neg__(self):
        return _raw(tuple([-x for x in self.num]), self.den)

    def __mul__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        den = self.den
        if den != 1:
            g = gcd(den, n)
            if g != 1:
                return _raw(tuple([(n // g) * x for x in self.num]), den // g)
        return _raw(tuple([n * x for x in self.num]), den)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, GroupElement)
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self):
        return self._hash

    # Over a shared positive denominator the numerator tuples compare
    # lexicographically, exactly as the points do; across two denominators
    # the first coordinate that differs after cross-scaling decides.
    def _cross(self, other):
        other = self._check(other)
        a, b = self.den, other.den
        if a == b:
            return self.num, other.num
        for x, y in zip(self.num, other.num):
            if x * b != y * a:
                return x * b, y * a
        return 0, 0

    def __lt__(self, other):
        l, r = self._cross(other)
        return l < r

    def __le__(self, other):
        l, r = self._cross(other)
        return l <= r

    def __gt__(self, other):
        l, r = self._cross(other)
        return l > r

    def __ge__(self, other):
        l, r = self._cross(other)
        return l >= r

    def __str__(self):
        if len(self.num) == 1:
            return str(self.coords[0])
        return "(" + ", ".join(str(c) for c in self.coords) + ")"

    def __repr__(self):
        return f"GroupElement({self})"


def _raw(num: tuple, den: int) -> GroupElement:
    """A GroupElement from numerators and a denominator already in lowest terms."""
    out = object.__new__(GroupElement)
    out.num = num
    out.den = den
    out._hash = hash((num, den))
    return out


def _reduced(num: tuple, den: int) -> GroupElement:
    """A GroupElement from numerators over ``den > 0``, brought to lowest terms."""
    g = gcd(den, *num)
    if g != 1:
        num = tuple([x // g for x in num])
        den //= g
    return _raw(num, den)


def _common_lattice(elements) -> tuple[int, list[tuple]]:
    """``(scale, vecs)``: the lcm of the denominators and each element's
    integer vector of the lattice Z^d / scale, i.e. ``g == _reduced(vec, scale)``."""
    scale = lcm(1, *(g.den for g in elements))
    return scale, [tuple([x * (scale // g.den) for x in g.num]) for g in elements]


class _Row:
    """An integer vector together with the combination of generators producing it."""

    __slots__ = ("vec", "coeffs", "pivot")

    def __init__(self, vec, coeffs):
        self.vec = vec
        self.coeffs = coeffs
        self.pivot = next((j for j, x in enumerate(vec) if x), None)

    def scale(self, s):
        self.vec = [s * x for x in self.vec]
        self.coeffs = [s * c for c in self.coeffs]

    def combine(self, other, q):
        # self -= q * other
        self.vec = [a - q * b for a, b in zip(self.vec, other.vec)]
        self.coeffs = [a - q * b for a, b in zip(self.coeffs, other.coeffs)]
        self.pivot = next((j for j, x in enumerate(self.vec) if x), None)


class FgSubgroup:
    """Subgroup of Q^d generated by finitely many elements.

    Internally the generators are scaled to a common integer lattice and
    kept in row echelon form; every echelon row remembers the integer
    combination of original generators it came from, so membership tests
    return witnesses, not just booleans.
    """

    def __init__(self, dim: int, generators):
        self.dim = dim
        gens = []
        for g in generators:
            g = g if isinstance(g, GroupElement) else GroupElement(g)
            if g.dim != dim:
                raise DimensionMismatchError(
                    f"generator {g} has dimension {g.dim}, expected {dim}"
                )
            gens.append(g)
        self.generators = tuple(gens)
        # the generators as integer vectors of the lattice Z^d / _scale
        self._scale, vecs = _common_lattice(gens)
        self._vecs = tuple(vecs)
        self._rows = self._reduce()

    def _reduce(self):
        k = len(self._vecs)
        pivot_row: dict[int, _Row] = {}
        for i, vec in enumerate(self._vecs):
            coeffs = [0] * k
            coeffs[i] = 1
            row = _Row(list(vec), coeffs)
            while row.pivot is not None:
                j = row.pivot
                hit = pivot_row.get(j)
                if hit is None:
                    if row.vec[j] < 0:
                        row.scale(-1)
                    pivot_row[j] = row
                    break
                # floor division leaves a remainder in [0, hit.vec[j]);
                # a nonzero remainder swaps roles, as in Euclid's algorithm
                row.combine(hit, row.vec[j] // hit.vec[j])
                if row.pivot == j:
                    pivot_row[j], row = row, hit
            # a row reduced to nothing came from a dependent generator
        return [pivot_row[j] for j in sorted(pivot_row)]

    @property
    def rank(self) -> int:
        """Rank of the subgroup: the size of its echelon Z-basis."""
        return len(self._rows)

    def _check_dim(self, a: GroupElement) -> None:
        if a.dim != self.dim:
            raise DimensionMismatchError(
                f"element {a} has dimension {a.dim}, expected {self.dim}"
            )

    def decompose(self, a: GroupElement):
        """Integer witness ``n`` with ``a == sum(n_i * g_i)``, or None."""
        self._check_dim(a)
        m, rem = divmod(self._scale, a.den)
        if rem:
            return None
        vec = [m * x for x in a.num]
        witness = [0] * len(self._vecs)
        for r in self._rows:
            j = r.pivot
            x = vec[j]
            if x == 0:
                continue
            q, rem = divmod(x, r.vec[j])
            if rem:
                return None
            vec = [x - q * y for x, y in zip(vec, r.vec)]
            witness = [n + q * c for n, c in zip(witness, r.coeffs)]
        if any(vec):
            return None
        if self.recombine(witness) != a:
            raise RuntimeError(
                f"witness {witness} of {a} in {self!r} recombines to "
                f"{self.recombine(witness)}"
            )
        return witness

    def contains(self, a) -> bool:
        return self.decompose(a) is not None

    def recombine(self, witness) -> GroupElement:
        if len(witness) != len(self._vecs):
            raise ValueError("witness length does not match generator count")
        total = [0] * self.dim
        for n, vec in zip(witness, self._vecs):
            if n:
                total = [t + n * x for t, x in zip(total, vec)]
        return _reduced(tuple(total), self._scale)

    def min_multiple(self, g: GroupElement):
        """Least n >= 2 with ``n*g`` in the subgroup, or None if there is none.

        Exact in every dimension: ``g`` is solved over Q against the echelon
        Z-basis, so n is the lcm of the coordinate denominators, and None
        means ``g`` lies outside the subgroup's Q-span.  Requires ``g``
        itself not to be a member.
        """
        self._check_dim(g)
        vec = [Fraction(x * self._scale, g.den) for x in g.num]
        coords = []
        for r in self._rows:
            q = vec[r.pivot] / r.vec[r.pivot]
            vec = [x - q * y for x, y in zip(vec, r.vec)]
            coords.append(q)
        if any(vec):
            return None
        n0 = lcm(1, *(q.denominator for q in coords))
        if n0 == 1:
            raise ValueError(f"{g} is already a member; no proper multiple needed")
        return n0

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.generators)
        return f"FgSubgroup(dim={self.dim}, [{gens}])"
