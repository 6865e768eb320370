"""Ordered group elements, lex order, and finitely generated subgroups."""

import copy
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import valtwist
from valtwist.errors import DimensionMismatchError
from valtwist.ordgroup import FgSubgroup, GroupElement, _reduced


def rationally_independent(elements) -> bool:
    """Whether the given group elements are linearly independent over Q."""
    elements = list(elements)
    if not elements:
        return True
    return FgSubgroup(elements[0].dim, elements).rank == len(elements)


def g(*coords):
    return GroupElement(coords)


class TestGroupElement:
    def test_construction_coerces_to_fractions(self):
        e = GroupElement((1, "1/2", Fraction(3, 4)))
        assert e.coords == (Fraction(1), Fraction(1, 2), Fraction(3, 4))
        assert e.dim == 3

    def test_scalar_shorthand(self):
        assert GroupElement(5) == GroupElement((5,))
        assert GroupElement("2/3").coords == (Fraction(2, 3),)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            GroupElement(())

    def test_inexact_coordinates_rejected(self):
        # 0.1 is the binary fraction 3602879701896397/36028797018963968
        for spelling in ((0.1,), 0.1, (1, 0.5)):
            with pytest.raises(TypeError, match=r"coordinate 0\.[15] of type float"):
                GroupElement(spelling)
        with pytest.raises(ValueError, match="'x' is not a rational number"):
            GroupElement(("x",))

    def test_parse_oracles(self):
        assert GroupElement.parse("1/2") == GroupElement(Fraction(1, 2))
        assert GroupElement.parse("(1, -1/2)") == g(1, Fraction(-1, 2))
        assert GroupElement.parse(" ( 0 , 3 ) ") == g(0, 3)

    def test_parse_rejects_garbage(self):
        for bad in ("", "()", "(1,)", "1/0", "x", "(1; 2)"):
            with pytest.raises(ValueError):
                GroupElement.parse(bad)

    def test_parse_dimension_check(self):
        with pytest.raises(DimensionMismatchError):
            GroupElement.parse("(1, 2)", dim=3)
        assert GroupElement.parse("(1, 2)", dim=2) == g(1, 2)

    def test_str_round_trip(self):
        for e in (GroupElement(Fraction(1, 2)), g(1, Fraction(-1, 2)), g(0, 0, 3)):
            assert GroupElement.parse(str(e)) == e
        assert str(GroupElement(Fraction(1, 2))) == "1/2"
        assert str(g(1, Fraction(1, 2))) == "(1, 1/2)"

    def test_arithmetic_oracles(self):
        assert g(1, 2) + g(Fraction(1, 2), -1) == g(Fraction(3, 2), 1)
        assert g(1, 2) - g(1, 2) == GroupElement.zero(2)
        assert -g(3, -4) == g(-3, 4)
        assert 3 * g(1, Fraction(1, 2)) == g(3, Fraction(3, 2))
        assert g(1, Fraction(1, 2)) * 3 == g(3, Fraction(3, 2))

    def test_dimension_mismatch_raises(self):
        with pytest.raises(DimensionMismatchError):
            g(1, 2) + GroupElement(1)

    def test_hash_agrees_with_eq(self):
        assert hash(g(1, 2)) == hash(g(1, 2))
        assert hash(GroupElement(Fraction(2, 4))) == hash(GroupElement(Fraction(1, 2)))
        half = GroupElement(Fraction(1, 2))
        assert half + half == GroupElement(1) and hash(half + half) == hash(GroupElement(1))
        assert str(half + half) == "1" and (half + half).coords == (Fraction(1),)

    def test_lex_order_oracles(self):
        # the first coordinate dominates
        assert g(1, 0) > g(0, 5)
        assert g(1, 2) < g(1, 3)
        assert g(-1, 100) < GroupElement.zero(2)
        assert g(1, 1) <= g(1, 1) and g(1, 1) >= g(1, 1)
        assert g(0, 1) < g(1, 0)
        assert g(2, 0) > g(1, 9)

    def test_sorting_is_lexicographic(self):
        els = [g(1, 0), g(0, 2), g(0, -1), g(-1, 5), g(1, -3)]
        assert sorted(els) == [g(-1, 5), g(0, -1), g(0, 2), g(1, -3), g(1, 0)]


_coord = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


@given(st.lists(_coord, min_size=2, max_size=2), st.lists(_coord, min_size=2, max_size=2),
       st.lists(_coord, min_size=2, max_size=2))
def test_lex_order_translation_invariant(a, b, c):
    ea, eb, ec = GroupElement(a), GroupElement(b), GroupElement(c)
    assert (ea < eb) == (ea + ec < eb + ec)


@given(st.lists(_coord, min_size=2, max_size=2), st.lists(_coord, min_size=2, max_size=2))
def test_lex_order_trichotomy(a, b):
    ea, eb = GroupElement(a), GroupElement(b)
    assert (ea < eb) + (ea == eb) + (ea > eb) == 1


class TestRationallyIndependent:
    def test_standard_basis(self):
        assert rationally_independent([g(1, 0), g(0, 1)])

    def test_dependent_multiples(self):
        assert not rationally_independent([g(1, 0), g(2, 0)])
        assert not rationally_independent(
            [GroupElement(Fraction(1, 2)), GroupElement(Fraction(1, 3))]
        )

    def test_dependent_combination(self):
        assert not rationally_independent([g(1, 2), g(2, 4)])
        assert not rationally_independent([g(1, 0), g(0, 1), g(1, 1)])

    def test_independent_non_orthogonal(self):
        assert rationally_independent([g(1, 0), g(1, 1)])

    def test_small_cases(self):
        assert rationally_independent([])
        assert rationally_independent([g(1, 1)])
        assert not rationally_independent([GroupElement.zero(2)])


class TestFgSubgroup:
    def test_decompose_rank_one_overlap(self):
        G = FgSubgroup(1, [GroupElement(Fraction(1, 2)), GroupElement(Fraction(1, 3))])
        w = G.decompose(GroupElement(Fraction(1, 6)))
        assert w == [1, -1]
        assert G.recombine(w) == GroupElement(Fraction(1, 6))

    def test_decompose_outside(self):
        G = FgSubgroup(1, [GroupElement(Fraction(1, 2)), GroupElement(Fraction(1, 3))])
        assert G.decompose(GroupElement(Fraction(1, 5))) is None
        assert not G.contains(GroupElement(Fraction(1, 4)))

    def test_decompose_basis_is_unique(self):
        B = FgSubgroup(2, [g(1, 0), g(1, 2)])
        assert B.decompose(g(0, 2)) == [-1, 1]
        assert B.decompose(g(3, 4)) == [1, 2]
        assert B.decompose(g(0, 1)) is None

    def test_contains_dunder(self):
        G = FgSubgroup(1, [GroupElement(1)])
        assert G.contains(GroupElement(5))
        assert not G.contains(GroupElement(Fraction(1, 2)))

    def test_zero_subgroup(self):
        E = FgSubgroup(1, [])
        assert E.contains(GroupElement(0))
        assert not E.contains(GroupElement(1))
        assert E.min_multiple(GroupElement(1)) is None

    def test_min_multiple_dim_one_exact(self):
        H = FgSubgroup(1, [GroupElement(1)])
        assert H.min_multiple(GroupElement(Fraction(1, 2))) == 2
        assert H.min_multiple(GroupElement(Fraction(1, 6))) == 6
        assert H.min_multiple(GroupElement(Fraction(1, 5))) == 5
        # 2 * 3/2 = 3 is the first multiple that returns
        assert H.min_multiple(GroupElement(Fraction(3, 2))) == 2

    def test_min_multiple_rejects_members(self):
        H = FgSubgroup(1, [GroupElement(1)])
        with pytest.raises(ValueError):
            H.min_multiple(GroupElement(2))

    def test_min_multiple_dim_two(self):
        D = FgSubgroup(2, [g(1, 0)])
        assert D.min_multiple(g(Fraction(1, 2), 0)) == 2
        assert D.min_multiple(g(Fraction(1, 3), 0)) == 3
        assert D.min_multiple(g(0, 1)) is None

    def test_dimension_checked(self):
        with pytest.raises(DimensionMismatchError):
            FgSubgroup(2, [GroupElement(1)])


@given(st.integers(-8, 8), st.integers(-8, 8))
def test_subgroup_membership_witness_round_trip(n1, n2):
    B = FgSubgroup(2, [g(1, 0), g(1, 2)])
    a = n1 * g(1, 0) + n2 * g(1, 2)
    w = B.decompose(a)
    assert w is not None
    assert B.recombine(w) == a
    # the generators form a basis, so the witness is unique
    assert w == [n1, n2]


@given(st.integers(-10, 10), st.integers(-10, 10))
def test_subgroup_membership_dependent_generators(n1, n2):
    G = FgSubgroup(1, [GroupElement(Fraction(1, 2)), GroupElement(Fraction(1, 3))])
    a = n1 * GroupElement(Fraction(1, 2)) + n2 * GroupElement(Fraction(1, 3))
    w = G.decompose(a)
    assert w is not None and G.recombine(w) == a


class TestMinMultipleExact:
    def test_beyond_ten_thousand_in_dim_two(self):
        Z2 = FgSubgroup(2, [g(1, 0), g(0, 1)])
        assert Z2.min_multiple(g(Fraction(1, 10007), 0)) == 10007
        assert Z2.min_multiple(g(Fraction(1, 10007), Fraction(1, 3))) == 30021

    def test_skew_lattice(self):
        # (1/2, 0) = 1/2*(1, 1) - 1/4*(0, 2), so 4 is the first return
        L = FgSubgroup(2, [g(1, 1), g(0, 2)])
        assert L.min_multiple(g(Fraction(1, 2), 0)) == 4
        assert L.min_multiple(g(1, 0)) == 2

    def test_dependent_generators_in_dim_three(self):
        H = FgSubgroup(3, [g(2, 0, 0), g(3, 0, 0), g(0, 1, 1)])
        assert H.min_multiple(g(Fraction(1, 5), 0, 0)) == 5
        assert H.min_multiple(g(0, Fraction(1, 2), Fraction(1, 2))) == 2
        assert H.min_multiple(g(0, 1, 0)) is None

    def test_dimension_checked(self):
        with pytest.raises(DimensionMismatchError):
            FgSubgroup(2, [g(1, 0)]).min_multiple(GroupElement(Fraction(1, 2)))


def _q_rank(vectors) -> int:
    """Rank over Q by plain Gaussian elimination, independent of FgSubgroup."""
    rows = [list(v) for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


_wide_coord = st.fractions(min_value=-8, max_value=8, max_denominator=12)


@st.composite
def _subgroup_and_element(draw):
    dim = draw(st.integers(1, 3))
    vec = st.lists(_wide_coord, min_size=dim, max_size=dim)
    gens = draw(st.lists(vec, max_size=3))
    return dim, [GroupElement(v) for v in gens], GroupElement(draw(vec))


def _divisors(n):
    small = [d for d in range(1, int(n**0.5) + 1) if n % d == 0]
    return set(small) | {n // d for d in small}


@settings(max_examples=300)
@given(_subgroup_and_element())
def test_min_multiple_is_least_and_exact(case):
    dim, gens, a = case
    H = FgSubgroup(dim, gens)
    assume(not H.contains(a))
    n0 = H.min_multiple(a)
    in_span = _q_rank([e.coords for e in gens + [a]]) == _q_rank([e.coords for e in gens])
    assert (n0 is None) == (not in_span)
    if n0 is not None:
        assert n0 >= 2 and H.contains(n0 * a)
        assert not any(H.contains(m * a) for m in _divisors(n0) - {n0})


def test_invariant_errors_survive_optimized_mode():
    # asserts vanish under -O; the decompose recombine check must not
    code = (
        "import sys\n"
        "from valtwist.ordgroup import FgSubgroup, GroupElement\n"
        "assert sys.flags.optimize\n"
        "FgSubgroup.recombine = lambda self, w: GroupElement.zero(self.dim)\n"
        "FgSubgroup(1, [GroupElement(1)]).decompose(GroupElement(3))\n"
    )
    src = str(Path(valtwist.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 1
    assert "RuntimeError: witness [3] of 3 in FgSubgroup(dim=1, [1]) recombines to 0" in proc.stderr


# -- differential check against plain tuples of Fractions --------------------
#
# The oracle below never touches GroupElement internals: a point of Q^d is a
# tuple of Fractions, added and scaled coordinatewise and ordered by Python's
# own lexicographic tuple comparison.

def _o_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _o_scale(n, a):
    return tuple(n * x for x in a)


def _o_combine(ns, vecs, dim):
    total = (0,) * dim
    for n, v in zip(ns, vecs):
        total = _o_add(total, _o_scale(n, v))
    return total


def _o_str(a):
    return str(a[0]) if len(a) == 1 else "(" + ", ".join(str(x) for x in a) + ")"


# denominators 1..12 mix 2-, 3-, 5- and 7-parts within one vector
_diff_coord = st.fractions(min_value=-9, max_value=9, max_denominator=12)


@st.composite
def _oracle_points(draw, count):
    dim = draw(st.integers(1, 3))
    vec = st.tuples(*[_diff_coord] * dim)
    return [draw(vec) for _ in range(count)]


@settings(max_examples=300)
@given(_oracle_points(2), st.integers(-7, 7))
def test_group_element_matches_fraction_tuple_oracle(points, n):
    a, b = points
    ea, eb = GroupElement(a), GroupElement(b)
    assert ea.coords == a and eb.coords == b
    assert (ea + eb).coords == _o_add(a, b)
    assert (ea - eb).coords == _o_add(a, _o_scale(-1, b))
    assert (-ea).coords == _o_scale(-1, a)
    assert (n * ea).coords == _o_scale(n, a) == (ea * n).coords
    assert (ea < eb) == (a < b) and (ea <= eb) == (a <= b)
    assert (ea > eb) == (a > b) and (ea >= eb) == (a >= b)
    assert (ea == eb) == (a == b)
    assert str(ea) == _o_str(a)
    assert GroupElement.parse(str(ea)) == ea


@settings(max_examples=300)
@given(_oracle_points(2), st.integers(-5, 5).filter(bool), st.integers(2, 6))
def test_equal_points_built_differently_are_equal_and_hash_alike(points, n, k):
    a, b = points
    whole = GroupElement(a)
    # the same point as a sum or difference of two parts, as n times its
    # n-th, negated twice, from strings, Fractions or ints, parsed, copied,
    # and reduced from k-fold numerators
    rest = tuple(x - y for x, y in zip(a, b))
    ways = [
        GroupElement(b) + GroupElement(rest),
        GroupElement(tuple(x + y for x, y in zip(a, b))) - GroupElement(b),
        -GroupElement(tuple(-x for x in a)),
        6 * GroupElement(tuple(x / 6 for x in a)),
        n * GroupElement(tuple(x / n for x in a)),
        GroupElement(tuple(x / n for x in a)) * n,
        GroupElement(tuple(str(x) for x in a)),
        GroupElement(tuple(Fraction(x) for x in a)),
        GroupElement.parse(str(whole)),
        GroupElement(whole),
        copy.copy(whole),
        copy.deepcopy(whole),
        _reduced(tuple(k * x for x in whole.num), k * whole.den),
    ]
    if all(x.denominator == 1 for x in a):
        ways.append(GroupElement(tuple(int(x) for x in a)))
    for other in ways:
        assert other == whole and hash(other) == hash(whole)
        assert other.coords == a
        # the hash is cached when an element is made, with the value it always had
        assert hash(other) == hash((other.num, other.den))


@settings(max_examples=300)
@given(_oracle_points(4), st.lists(st.integers(-6, 6), min_size=3, max_size=3))
def test_decompose_round_trip_matches_oracle(points, ns):
    *gens, offset = points
    dim = len(offset)
    G = FgSubgroup(dim, [GroupElement(v) for v in gens])
    target = _o_combine(ns, gens, dim)
    a = GroupElement(target)
    w = G.decompose(a)
    assert w is not None and len(w) == len(gens)
    assert _o_combine(w, gens, dim) == target
    assert G.recombine(w) == a and G.recombine(w).coords == target
    # generator denominators are at most 12, so no lattice point has a 13 or 17
    shifted = GroupElement(_o_add(target, (Fraction(1, 13),) + (Fraction(1, 17),) * (dim - 1)))
    assert G.decompose(shifted) is None
    # whatever witness an arbitrary point gets must recombine to it exactly
    w = G.decompose(GroupElement(offset))
    assert w is None or _o_combine(w, gens, dim) == offset
