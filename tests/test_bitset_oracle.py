"""Differential tests of the bitmask kernel against raw set arithmetic.

Semigroup membership comes from the conftest's dynamic-programming table,
never from NumericalSemigroup.contains; ideals are plain Python sets of
integers on a window large enough that every integer above it is a member
of every set compared.
"""

from __future__ import annotations

import itertools

from hwsg import (
    NumericalSemigroup,
    RelativeIdeal,
    Verdict,
    enumerate_ideals_up_to_shift,
    genus_tree,
    is_huneke_wiegand,
)

from conftest import SMALL_GEN_SETS, oracle_member_flags, random_ideal

TABLE = 600  # far above every Frobenius number and window below


def oracle_member(gens):
    flags = oracle_member_flags(list(gens), TABLE)
    return lambda x: x > TABLE or (x >= 0 and flags[x])


def raw_ideal(member, gens, lo, hi):
    """Members of gens + Gamma in [lo, hi]."""
    return {x for x in range(lo, hi + 1) if any(member(x - g) for g in gens)}


def raw_minimal(member, elems, hi):
    """Elements x <= hi of the set with no x - s in it for s in Gamma - 0;
    `elems` must hold every member below hi."""
    lo = min(elems)
    return tuple(
        x
        for x in sorted(elems)
        if x <= hi
        and not any(x - s in elems for s in range(1, x - lo + 1) if member(s))
    )


def raw_sum(a, b, hi):
    return {x + y for x in a for y in b if x + y <= hi}


def raw_quotient(a, b, lo, hi, a_hi):
    """{z in [lo, hi] | z + b in a}, for a complete up to a_hi."""
    return {
        z for z in range(lo, hi + 1) if all(z + y in a for y in b if z + y <= a_hi)
    }


def assert_matches(ideal, elems, member, lo, hi):
    assert ideal.minimal_generators == raw_minimal(member, elems, hi)
    assert all(ideal.contains(x) == (x in elems) for x in range(lo - 3, hi + 1))


def test_kernel_matches_raw_sets(rng):
    for _ in range(300):
        gens = rng.choice(SMALL_GEN_SETS)
        gamma = NumericalSemigroup.from_generators(gens)
        member = oracle_member(gens)
        f = gamma.frobenius
        a, b = random_ideal(rng, gamma), random_ideal(rng, gamma)
        # generators lie in [-4, f + 3]: every result below lives in
        # [-2f - 8, 3f + 10], and is full above it
        lo, hi = -3 * f - 12, 4 * f + 16
        big = hi + 2 * f + 20
        ra = raw_ideal(member, a.minimal_generators, lo, big)
        rb = raw_ideal(member, b.minimal_generators, lo, big)
        rg = raw_ideal(member, [0], lo, big)
        window = set(range(lo, hi + 1))

        assert_matches(a, ra & window, member, lo, hi)
        raw_gens = [rng.randint(-4, f + 3) for _ in range(rng.randint(1, 4))]
        built = RelativeIdeal.from_generators(gamma, raw_gens)
        assert_matches(built, raw_ideal(member, raw_gens, lo, hi), member, lo, hi)

        assert_matches(a + b, raw_sum(ra, rb, hi) & window, member, lo, hi)
        assert_matches(a | b, (ra | rb) & window, member, lo, hi)
        assert_matches(a & b, ra & rb & window, member, lo, hi)
        assert_matches(a - b, raw_quotient(ra, rb, lo, hi, big), member, lo, hi)
        assert_matches(a.dual(), raw_quotient(rg, ra, lo, hi, big), member, lo, hi)


def test_genus_tree_nodes_match_direct_construction():
    nodes = 0
    for node in genus_tree(9):
        nodes += 1
        direct = NumericalSemigroup.from_generators(node.minimal_generators)
        assert node.minimal_generators == direct.minimal_generators
        assert node.frobenius == direct.frobenius
        assert node.genus == direct.genus
        assert node.mask == direct.mask
        flags = oracle_member_flags(list(node.minimal_generators), max(node.frobenius, 0))
        # bits only on [0, F]: N has none
        want = sum(1 << x for x, hit in enumerate(flags) if hit and x <= node.frobenius)
        assert node.mask == want
    assert nodes == 1 + 1 + 2 + 4 + 7 + 12 + 23 + 39 + 67 + 118


def raw_hw_witness(member, gens, hi):
    """(S, S', smallest separating element) per generator partition
    {S, S'} with gens[0] in S and (P + A*) & (Q + A*) != (P & Q) + A*."""
    a = raw_ideal(member, gens, 0, hi)
    astar = {z for z in range(hi + 1) if all(member(z + x) for x in a)}
    first, rest = gens[0], gens[1:]
    for size in range(len(rest)):
        for combo in itertools.combinations(rest, size):
            s_side = (first,) + combo
            q_side = tuple(g for g in rest if g not in combo)
            p = raw_ideal(member, s_side, 0, hi)
            q = raw_ideal(member, q_side, 0, hi)
            left = raw_sum(p, astar, hi) & raw_sum(q, astar, hi)
            right = raw_sum(p & q, astar, hi)
            if left != right:
                yield s_side, q_side, min(left - right)


def test_is_huneke_wiegand_matches_partition_oracle():
    ideals = 0
    for gamma in genus_tree(7):
        member = oracle_member(gamma.minimal_generators)
        # every set below is full from 3F + 3 on
        hi = 3 * max(gamma.frobenius, 0) + 6
        for ideal in enumerate_ideals_up_to_shift(gamma):
            ideals += 1
            gens = ideal.minimal_generators
            report = is_huneke_wiegand(ideal)
            if len(gens) == 1:
                assert report.verdict is Verdict.PRINCIPAL
                continue
            witnesses = {(s, q): w for s, q, w in raw_hw_witness(member, gens, hi)}
            if not witnesses:
                assert report.verdict is Verdict.NOT_HW
                continue
            assert report.verdict is Verdict.HW
            assert witnesses[report.witness_partition] == report.witness_element
    assert ideals == 2680
