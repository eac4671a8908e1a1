import pytest

from hwsg import NumericalSemigroup, RelativeIdeal, enumerate_ideals_up_to_shift
from hwsg.errors import AmbientMismatch, EmptyGenerators

from conftest import oracle_ideal_members, random_ideal, random_semigroup


def window_top(ideal):
    """max generator + F + 1, a bound on the conductor: every integer from
    here on is a member."""
    return max(ideal.minimal_generators) + ideal.ambient.frobenius + 1


@pytest.fixture
def g35():
    return NumericalSemigroup.from_generators([3, 5])


class TestNormalization:
    def test_absorption(self, g35):
        assert RelativeIdeal.from_generators(g35, [0, 3]).minimal_generators == (0,)

    def test_incomparable_kept(self, g35):
        assert RelativeIdeal.from_generators(g35, [0, 1]).minimal_generators == (0, 1)

    def test_principal(self, g35):
        assert RelativeIdeal.from_generators(g35, [4]).minimal_generators == (4,)

    def test_empty(self, g35):
        with pytest.raises(EmptyGenerators):
            RelativeIdeal.from_generators(g35, [])

    def test_minimality_invariant(self, rng):
        for _ in range(50):
            g = random_semigroup(rng)
            a = random_ideal(rng, g)
            gens = a.minimal_generators
            assert all(
                not g.contains(x - y) for x in gens for y in gens if x != y
            )


class TestArithmetic:
    def test_add_identity(self, g35, rng):
        zero = RelativeIdeal.of(g35)
        for _ in range(10):
            a = random_ideal(rng, g35)
            assert (zero + a).equals(a)

    def test_union_containment(self, g35):
        a = RelativeIdeal.from_generators(g35, [0, 1])
        b = RelativeIdeal.of(g35)
        assert (a | b).equals(a)

    def test_add_example(self, g35):
        a = RelativeIdeal.from_generators(g35, [0, 1])
        assert (a + a).minimal_generators == (0, 1, 2)

    def test_intersect_example(self, g35):
        gi = RelativeIdeal.of(g35)
        assert (gi & gi.shift(1)).minimal_generators == (6, 10)

    def test_intersect_idempotent(self, g35, rng):
        for _ in range(10):
            a = random_ideal(rng, g35)
            assert (a & a).equals(a)

    def test_intersect_principals(self, g35):
        x, y = 2, 2 + 3  # y - x = 3 is a member
        px = RelativeIdeal.from_generators(g35, [x])
        py = RelativeIdeal.from_generators(g35, [y])
        assert (px & py).equals(py)

    def test_subtract_by_semigroup_is_identity(self, g35, rng):
        gi = RelativeIdeal.of(g35)
        for _ in range(10):
            a = random_ideal(rng, g35)
            assert (a - gi).equals(a)

    def test_subtract_principal_shifts(self, g35):
        gi = RelativeIdeal.of(g35)
        for x in (-3, 0, 4):
            assert (gi - RelativeIdeal.from_generators(g35, [x])).equals(gi.shift(-x))

    def test_subtract_example(self, g35):
        gi = RelativeIdeal.of(g35)
        a = RelativeIdeal.from_generators(g35, [0, 1])
        assert (gi - a).minimal_generators == (5, 9)

    def test_dual_examples(self, g35):
        a = RelativeIdeal.from_generators(g35, [0, 1])
        assert a.dual().minimal_generators == (5, 9)
        px = RelativeIdeal.from_generators(g35, [4])
        assert px.dual().minimal_generators == (-4,)

    def test_dual_of_shift(self, g35, rng):
        for _ in range(10):
            a = random_ideal(rng, g35)
            x = rng.randint(-5, 5)
            assert a.shift(x).dual().equals(a.dual().shift(-x))

    def test_shift_roundtrip(self, g35):
        a = RelativeIdeal.from_generators(g35, [0, 1])
        assert a.shift(5).minimal_generators == (5, 6)
        assert a.shift(5).shift(-5).equals(a)

    def test_ambient_mismatch(self, g35):
        other = NumericalSemigroup.from_generators([2, 3])
        with pytest.raises(AmbientMismatch):
            RelativeIdeal.of(g35).add(RelativeIdeal.of(other))

    def test_equality(self, g35):
        a = RelativeIdeal.from_generators(g35, [0, 3])
        assert a.equals(RelativeIdeal.of(g35))
        b = RelativeIdeal.from_generators(g35, [0, 1])
        c = RelativeIdeal.from_generators(g35, [0, 2])
        assert not b.equals(c)


class TestQuotientRelations:
    """The five quotient/dual relations, on randomized instances."""

    def test_subtract_of_union(self, rng):
        for _ in range(50):
            g = random_semigroup(rng)
            a, b, c = (random_ideal(rng, g) for _ in range(3))
            assert (a - (b | c)).equals((a - b) & (a - c))

    def test_subtract_from_intersection(self, rng):
        for _ in range(50):
            g = random_semigroup(rng)
            a, b, c = (random_ideal(rng, g) for _ in range(3))
            assert ((a & b) - c).equals((a - c) & (b - c))

    def test_dual_of_union(self, rng):
        for _ in range(50):
            g = random_semigroup(rng)
            a, b = random_ideal(rng, g), random_ideal(rng, g)
            assert (a | b).dual().equals(a.dual() & b.dual())

    def test_double_dual_contains(self, rng):
        for _ in range(50):
            g = random_semigroup(rng)
            a = random_ideal(rng, g)
            dd = a.dual().dual()
            hi = max(window_top(a), window_top(dd))
            assert all(dd.contains(x) for x in a.members_in(a.min_element, hi))

    def test_double_dual_equal_on_symmetric(self, rng):
        # empirical check; violations would be reported, not assumed away
        from conftest import SYMMETRIC_GEN_SETS

        for gens in SYMMETRIC_GEN_SETS:
            g = NumericalSemigroup.from_generators(gens)
            for a in enumerate_ideals_up_to_shift(g, 2):
                assert a.dual().dual().equals(a)


class TestConductor:
    def test_examples(self, g35):
        assert RelativeIdeal.from_generators(g35, [0, 1]).conductor == 3
        assert RelativeIdeal.of(g35).conductor == 8
        assert RelativeIdeal.from_generators(g35, [-2]).conductor == 6

    def test_least_against_raw_members(self, rng):
        for _ in range(200):
            g = random_semigroup(rng)
            a = random_ideal(rng, g)
            hi = window_top(a)
            members = oracle_ideal_members(g, list(a.minimal_generators), hi)
            c = a.conductor
            assert c - 1 not in members
            assert all(x in members for x in range(c, hi + 1))


class TestMembershipConsistency:
    def test_add_matches_raw_sumset(self, rng):
        for _ in range(30):
            g = random_semigroup(rng)
            a, b = random_ideal(rng, g), random_ideal(rng, g)
            res = a + b
            lo = res.min_element
            hi = max(window_top(res) + g.frobenius + 1, lo + 10)
            amem = oracle_ideal_members(g, list(a.minimal_generators), hi)
            bmem = oracle_ideal_members(g, list(b.minimal_generators), hi)
            sums = {x + y for x in amem for y in bmem if x + y <= hi}
            for x in range(lo, hi + 1):
                assert res.contains(x) == (x in sums)

    def test_intersect_matches_sets(self, rng):
        for _ in range(30):
            g = random_semigroup(rng)
            a, b = random_ideal(rng, g), random_ideal(rng, g)
            res = a & b
            hi = window_top(res) + g.frobenius + 1
            for x in range(res.min_element - 2, hi + 1):
                assert res.contains(x) == (a.contains(x) and b.contains(x))

    def test_subtract_matches_definition(self, rng):
        for _ in range(30):
            g = random_semigroup(rng)
            a, b = random_ideal(rng, g), random_ideal(rng, g)
            res = a - b
            hi = window_top(res) + g.frobenius + 1
            bmem = b.members_in(b.min_element, hi + abs(res.min_element) + 5)
            for z in range(res.min_element - 2, hi + 1):
                expected = all(
                    a.contains(z + y) for y in bmem if z + y <= window_top(a) + 1
                )
                assert res.contains(z) == expected


class TestEnumeration:
    def test_two_three(self):
        g = NumericalSemigroup.from_generators([2, 3])
        got = [i.minimal_generators for i in enumerate_ideals_up_to_shift(g)]
        assert got == [(0,), (0, 1)]

    def test_three_five_prefix(self):
        g = NumericalSemigroup.from_generators([3, 5])
        got = [i.minimal_generators for i in enumerate_ideals_up_to_shift(g)]
        assert got[0] == (0,)
        for expected in [(0, 1), (0, 2), (0, 4), (0, 7), (0, 1, 2)]:
            assert expected in got
        assert len(got) == len(set(got))

    def test_nat(self):
        g = NumericalSemigroup.from_generators([1])
        assert [i.minimal_generators for i in enumerate_ideals_up_to_shift(g)] == [(0,)]

    def test_max_extra_gens(self):
        g = NumericalSemigroup.from_generators([3, 5])
        got = [i.minimal_generators for i in enumerate_ideals_up_to_shift(g, 1)]
        assert all(len(t) <= 2 for t in got)

    def test_all_are_valid_antichains(self, rng):
        for _ in range(10):
            g = random_semigroup(rng)
            seen = set()
            for ideal in enumerate_ideals_up_to_shift(g):
                gens = ideal.minimal_generators
                assert gens[0] == 0
                assert all(not g.contains(t) for t in gens[1:])
                assert gens not in seen
                seen.add(gens)
