import pytest

from hwsg import (
    ArithmeticSequence,
    NumericalSemigroup,
    Verdict,
    check_two_generated,
    factorizations_two_step,
    find_irreducible_two_step,
    genus_tree,
    in_sequence_semigroup,
    is_irreducible,
    shift_apery_witness,
)
from hwsg.errors import NotInSemigroup, NotSymmetric, StepInSemigroup

from conftest import random_gluing, random_semigroup


@pytest.fixture
def g6():
    return NumericalSemigroup.from_generators([6, 15, 16, 25, 26])


class TestSequenceObject:
    def test_terms(self):
        assert ArithmeticSequence(24, 1, 2).terms == (24, 25, 26)
        assert ArithmeticSequence(6, 9, 2).terms == (6, 15, 24)

    def test_addition_law(self):
        total = ArithmeticSequence(6, 9, 2) + ArithmeticSequence(16, 9, 1)
        assert total == ArithmeticSequence(22, 9, 3)
        assert total.terms == (22, 31, 40, 49)

    def test_addition_requires_equal_step(self):
        with pytest.raises(ValueError):
            ArithmeticSequence(1, 2, 1) + ArithmeticSequence(1, 3, 1)


class TestMembership:
    def test_examples(self, g6):
        assert in_sequence_semigroup(g6, ArithmeticSequence(24, 1, 2))
        assert in_sequence_semigroup(g6, ArithmeticSequence(6, 9, 2))
        assert not in_sequence_semigroup(g6, ArithmeticSequence(35, 9, 2))

    def test_step_must_be_gap(self, g6):
        with pytest.raises(StepInSemigroup):
            in_sequence_semigroup(g6, ArithmeticSequence(6, 6, 2))

    def test_monoid_closure(self, g6, rng):
        # the sum of two in-semigroup sequences with a common step stays in
        gaps = g6.gaps()
        for _ in range(30):
            s = rng.choice(gaps)
            hi = 3 * g6.frobenius
            pool = [
                x
                for x in range(hi)
                if all(g6.contains(x + i * s) for i in range(2))
            ]
            if len(pool) < 2:
                continue
            a = ArithmeticSequence(rng.choice(pool), s, 1)
            b = ArithmeticSequence(rng.choice(pool), s, 1)
            assert in_sequence_semigroup(g6, a + b)


class TestIrreducibility:
    def test_known_irreducibles(self, g6):
        for start, step in [(24, 1), (6, 9), (6, 10)]:
            assert is_irreducible(g6, ArithmeticSequence(start, step, 2))

    def test_reducible(self, g6):
        # (32; 9; 2) = (16; 9; 1) + (16; 9; 1)
        seq = ArithmeticSequence(32, 9, 2)
        assert in_sequence_semigroup(g6, seq)
        assert not is_irreducible(g6, seq)
        assert (16, 16) in factorizations_two_step(g6, seq)

    def test_terms_must_be_members(self, g6):
        with pytest.raises(NotInSemigroup):
            is_irreducible(g6, ArithmeticSequence(35, 9, 2))

    def test_factorizations_consistent(self, g6, rng):
        for _ in range(40):
            s = rng.choice(g6.gaps())
            x = rng.randint(0, 3 * g6.frobenius)
            seq = ArithmeticSequence(x, s, 2)
            if not all(g6.contains(t) for t in seq.terms):
                continue
            facts = factorizations_two_step(g6, seq)
            assert is_irreducible(g6, seq) == (not facts)
            for y, z in facts:
                assert y + z == x
                assert g6.contains(y) and g6.contains(y + s)
                assert g6.contains(z) and g6.contains(z + s)


class TestShiftAperyWitness:
    def test_reference_example(self, g6):
        # s = 2 avoids the delta set of Ap(Gamma, 6)
        seq = shift_apery_witness(g6, 6, 2)
        assert seq == ArithmeticSequence(39, 2, 2)
        assert is_irreducible(g6, seq)

    def test_delta_step_returns_none(self, g6):
        # 9 lies in the delta set of Ap(Gamma, 6)
        assert shift_apery_witness(g6, 6, 9) is None

    def test_requires_symmetric(self):
        g = NumericalSemigroup.from_generators([3, 5, 7])
        with pytest.raises(NotSymmetric):
            shift_apery_witness(g, 3, 1)

    def test_randomized_on_gluings(self, rng):
        # glued symmetric factors give symmetric results; every non-None
        # witness must be the predicted shifted triple
        for _ in range(20):
            gl = random_gluing(rng, symmetric_only=True)
            gamma = gl.glued
            a = gl.a1 * gl.a2
            for s in gamma.gaps():
                seq = shift_apery_witness(gamma, a, s)
                if seq is not None:
                    assert seq.start == gamma.frobenius + a - s
                    assert is_irreducible(gamma, seq)


class TestSearch:
    def test_gap_nine_reference(self, g6):
        seq = find_irreducible_two_step(g6, 9)
        assert seq is not None
        assert seq.terms == (6, 15, 24)

    def test_stats_counter(self, g6):
        stats = {}
        find_irreducible_two_step(g6, 9, stats=stats)
        assert stats["candidates_checked"] >= 1

    def test_step_in_semigroup(self, g6):
        with pytest.raises(StepInSemigroup):
            find_irreducible_two_step(g6, 6)

    def test_tiny_explicit_bound_returns_none(self, g6):
        # an explicit bound disables the cross-check and may miss
        assert find_irreducible_two_step(g6, 9, bound=5) is None

    def test_default_bound_is_exact(self):
        # every x >= 2F + 2 splits as (F + 1) + (x - F - 1), so searching up
        # to 2F + 1 finds what the default bound finds
        for g in genus_tree(9):
            tight = 2 * g.frobenius + 1
            for s in g.gaps():
                seq = find_irreducible_two_step(g, s)
                assert seq == find_irreducible_two_step(g, s, bound=tight)
                if seq is not None:
                    assert seq.start <= tight

    def test_matches_ideal_criterion(self, rng):
        # the sequence search and the exact ideal test must agree on every
        # gap of every sampled semigroup
        for _ in range(15):
            g = random_semigroup(rng)
            for s in g.gaps():
                seq = find_irreducible_two_step(g, s)
                verdict = check_two_generated(g, s).verdict
                assert (seq is not None) == (verdict is Verdict.HW)
                if seq is not None:
                    assert seq.step == s
                    assert is_irreducible(g, seq)
