"""Ordered abelian groups of rational vectors, and their f.g. subgroups.

A :class:`GroupElement` is an immutable point of Q^d compared
lexicographically (coordinate 0 is most significant), which makes Q^d a
totally ordered abelian group under componentwise addition.  A
:class:`FgSubgroup` is generated by finitely many such points; membership
is decided exactly by integer row reduction and always comes with an
integer witness, i.e. ``a == sum(n_i * g_i)`` with the returned ``n_i``.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import DimensionMismatchError

__all__ = [
    "GroupElement",
    "FgSubgroup",
    "rationally_independent",
]


class GroupElement:
    """A point of Q^d under the lexicographic order."""

    __slots__ = ("coords", "_hash")

    def __init__(self, coords):
        if isinstance(coords, GroupElement):
            coords = coords.coords
        elif isinstance(coords, (int, str, Fraction)):
            coords = (coords,)
        coords = tuple(
            c if type(c) is Fraction else Fraction(c) for c in coords
        )
        if not coords:
            raise ValueError("a group element needs at least one coordinate")
        self.coords = coords
        self._hash = None

    @classmethod
    def zero(cls, dim: int) -> "GroupElement":
        return cls((0,) * dim)

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
    def dim(self) -> int:
        return len(self.coords)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def _check(self, other) -> "GroupElement":
        if not isinstance(other, GroupElement):
            raise TypeError(f"expected GroupElement, got {type(other).__name__}")
        if other.dim != self.dim:
            raise DimensionMismatchError(
                f"dimension mismatch: {self.dim} vs {other.dim}"
            )
        return other

    @classmethod
    def _raw(cls, coords: tuple) -> "GroupElement":
        out = object.__new__(cls)
        out.coords = coords
        out._hash = None
        return out

    def __add__(self, other):
        other = self._check(other)
        return GroupElement._raw(
            tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    def __sub__(self, other):
        other = self._check(other)
        return GroupElement._raw(
            tuple(a - b for a, b in zip(self.coords, other.coords))
        )

    def __neg__(self):
        return GroupElement._raw(tuple(-a for a in self.coords))

    def __mul__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        return GroupElement._raw(tuple(n * a for a in self.coords))

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, GroupElement) and self.coords == other.coords

    def __hash__(self):
        # Fraction hashing is costly; group elements are heavy dict keys
        h = self._hash
        if h is None:
            h = self._hash = hash(self.coords)
        return h

    # Tuples of Fractions compare lexicographically, which is exactly the
    # intended group order.
    def __lt__(self, other):
        return self.coords < self._check(other).coords

    def __le__(self, other):
        return self.coords <= self._check(other).coords

    def __gt__(self, other):
        return self.coords > self._check(other).coords

    def __ge__(self, other):
        return self.coords >= self._check(other).coords

    def __str__(self):
        if len(self.coords) == 1:
            return str(self.coords[0])
        return "(" + ", ".join(str(c) for c in self.coords) + ")"

    def __repr__(self):
        return f"GroupElement({self})"


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
        self._scale = lcm(
            1, *(c.denominator for g in gens for c in g.coords)
        )
        self._rows = self._reduce()

    def _reduce(self):
        k = len(self.generators)
        pivot_row: dict[int, _Row] = {}
        for i, g in enumerate(self.generators):
            vec = [int(c * self._scale) for c in g.coords]
            coeffs = [0] * k
            coeffs[i] = 1
            row = _Row(vec, coeffs)
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
        vec = []
        for c in a.coords:
            s = c * self._scale
            if s.denominator != 1:
                return None
            vec.append(int(s))
        coeffs = [0] * len(self.generators)
        row = _Row(vec, coeffs)
        for r in self._rows:
            j = r.pivot
            if row.vec[j] == 0:
                continue
            if row.vec[j] % r.vec[j] != 0:
                return None
            row.combine(r, row.vec[j] // r.vec[j])
        if any(row.vec):
            return None
        witness = [-c for c in row.coeffs]
        if self.recombine(witness) != a:
            raise RuntimeError(
                f"witness {witness} of {a} in {self!r} recombines to "
                f"{self.recombine(witness)}"
            )
        return witness

    def contains(self, a) -> bool:
        return self.decompose(a) is not None

    def recombine(self, witness) -> GroupElement:
        if len(witness) != len(self.generators):
            raise ValueError("witness length does not match generator count")
        total = GroupElement.zero(self.dim)
        for n, g in zip(witness, self.generators):
            total = total + n * g
        return total

    def min_multiple(self, g: GroupElement):
        """Least n >= 2 with ``n*g`` in the subgroup, or None if there is none.

        Exact in every dimension: ``g`` is solved over Q against the echelon
        Z-basis, so n is the lcm of the coordinate denominators, and None
        means ``g`` lies outside the subgroup's Q-span.  Requires ``g``
        itself not to be a member.
        """
        self._check_dim(g)
        vec = [c * self._scale for c in g.coords]
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


def rationally_independent(elements) -> bool:
    """Whether the given group elements are linearly independent over Q."""
    elements = list(elements)
    if not elements:
        return True
    return FgSubgroup(elements[0].dim, elements).rank == len(elements)
