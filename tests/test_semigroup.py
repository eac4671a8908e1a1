import tracemalloc

import pytest

from hwsg import NumericalSemigroup, delta_set, stable_delta_intersection
from hwsg.errors import EmptyGenerators, ModulusNotInSemigroup, NotCoprime, TooLarge
from hwsg.semigroup import MAX_WINDOW

from conftest import oracle_frobenius, oracle_gaps, random_semigroup


class TestConstruction:
    def test_nat(self):
        n = NumericalSemigroup.from_generators([1])
        assert n.minimal_generators == (1,)
        assert n.frobenius == -1
        assert n.genus == 0
        assert n.contains(0) and n.contains(10**9)

    def test_example_generators_already_minimal(self):
        g = NumericalSemigroup.from_generators([6, 15, 16, 25, 26])
        assert g.minimal_generators == (6, 15, 16, 25, 26)

    def test_three_five(self):
        g = NumericalSemigroup.from_generators([3, 5])
        assert g.frobenius == oracle_frobenius([3, 5]) == 7
        assert g.genus == 4
        assert g.gaps() == tuple(oracle_gaps([3, 5])) == (1, 2, 4, 7)

    def test_redundant_generators_dropped(self):
        g = NumericalSemigroup.from_generators([3, 5, 8, 11])
        assert g.minimal_generators == (3, 5)

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            NumericalSemigroup.from_generators([2, 4])

    def test_empty_and_nonpositive(self):
        with pytest.raises(EmptyGenerators):
            NumericalSemigroup.from_generators([])
        with pytest.raises(EmptyGenerators):
            NumericalSemigroup.from_generators([0, 3])

    @pytest.mark.parametrize(
        "gens",
        # the multiplicity is over the limit; the Frobenius number is, with a
        # multiplicity of 2.  Unguarded, either builds at most a 64 KiB mask.
        [[MAX_WINDOW + 1, MAX_WINDOW + 2], [2, 2 * MAX_WINDOW + 1]],
    )
    def test_too_large_fails_before_allocating(self, gens):
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge):
                NumericalSemigroup.from_generators(gens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 1024

    @pytest.mark.parametrize(
        "gens",
        [[2, 3], [3, 5], [4, 6, 9], [6, 15, 16, 25, 26], [5, 7, 9], [6, 10, 15]],
    )
    def test_frobenius_against_dp_oracle(self, gens):
        g = NumericalSemigroup.from_generators(gens)
        assert g.frobenius == oracle_frobenius(gens)
        assert g.genus == len(oracle_gaps(gens))


class TestMembership:
    def test_examples(self):
        g = NumericalSemigroup.from_generators([3, 5])
        assert not g.contains(7)
        assert g.contains(8)
        assert g.contains(0)
        assert not g.contains(-1)

    def test_agrees_with_oracle(self, rng):
        for _ in range(20):
            g = random_semigroup(rng)
            gens = list(g.minimal_generators)
            bound = max(gens) ** 2
            from conftest import oracle_member_flags

            flags = oracle_member_flags(gens, bound)
            assert all(g.contains(x) == flags[x] for x in range(bound + 1))


class TestSymmetry:
    def test_reference_example_is_symmetric(self):
        assert NumericalSemigroup.from_generators([6, 15, 16, 25, 26]).is_symmetric()

    def test_three_five_symmetric(self):
        assert NumericalSemigroup.from_generators([3, 5]).is_symmetric()

    def test_three_five_seven_not(self):
        assert not NumericalSemigroup.from_generators([3, 5, 7]).is_symmetric()

    def test_nat_symmetric_by_convention(self):
        assert NumericalSemigroup.from_generators([1]).is_symmetric()

    def test_member_reflection_never_member(self, rng):
        # for any semigroup: x in gamma implies F - x is a gap
        for _ in range(20):
            g = random_semigroup(rng)
            for x in range(g.frobenius + 6):
                if g.contains(x):
                    assert not g.contains(g.frobenius - x)


class TestApery:
    def test_examples(self):
        g = NumericalSemigroup.from_generators([3, 5])
        assert sorted(g.apery(3).elements) == [0, 5, 10]
        n = NumericalSemigroup.from_generators([1])
        assert sorted(n.apery(1).elements) == [0]
        g23 = NumericalSemigroup.from_generators([2, 3])
        assert sorted(g23.apery(2).elements) == [0, 3]

    def test_modulus_must_be_member(self):
        g = NumericalSemigroup.from_generators([3, 5])
        with pytest.raises(ModulusNotInSemigroup):
            g.apery(4)
        with pytest.raises(ModulusNotInSemigroup):
            g.apery(0)

    def test_modulus_too_large(self):
        with pytest.raises(TooLarge):
            NumericalSemigroup.from_generators([3, 5]).apery(MAX_WINDOW + 1)

    def test_structure_invariants(self, rng):
        # |Ap| = z, 0 in Ap, max(Ap) = F + z, one element per residue
        for _ in range(20):
            g = random_semigroup(rng)
            for z in range(1, g.frobenius + 7):
                if not g.contains(z):
                    continue
                ap = g.apery(z)
                assert len(ap.elements) == z
                assert 0 in ap.elements
                assert max(ap.elements) == g.frobenius + z
                assert {x % z for x in ap.elements} == set(range(z))
                assert all(not g.contains(x - z) for x in ap.elements)


class TestDeltaSet:
    def test_simple(self):
        assert delta_set({0, 5, 10}) == frozenset({5, 10})
        assert delta_set({7}) == frozenset()
        assert delta_set(set()) == frozenset()

    def test_stable_intersection_reference_example(self):
        g = NumericalSemigroup.from_generators([6, 15, 16, 25, 26])
        assert stable_delta_intersection(g) == frozenset({1, 9, 10})

    def test_stable_intersection_nat(self):
        assert stable_delta_intersection(NumericalSemigroup.from_generators([1])) == frozenset()
