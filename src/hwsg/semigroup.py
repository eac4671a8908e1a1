"""Numerical semigroups: membership, Frobenius number, genus, symmetry,
Apery sets and delta sets.

A numerical semigroup is a cofinite additive submonoid of the non-negative
integers.  The whole of N is encoded with frobenius = -1 so that degenerate
cases fall out cleanly downstream.

Membership is a bitmask, bit x for the integer x; a set that contains all
integers from some point on is a negative int, whose ones never end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

from .errors import (
    EmptyGenerators,
    InternalInconsistency,
    ModulusNotInSemigroup,
    NonStabilized,
    NotCoprime,
    TooLarge,
)

# Largest multiplicity, Frobenius number and Apery modulus accepted: member
# windows stay within 32 KiB, and building a semigroup within O(multiplicity
# * generators) steps.  <512, 513> (F = 261631) fits.
MAX_WINDOW = 1 << 18


def check_window(what: str, size: int) -> None:
    if size > MAX_WINDOW:
        raise TooLarge(f"{what} {size} exceeds the window limit {MAX_WINDOW}")


def minimal_bits(bits: int, gens: Iterable[int]) -> int:
    """The set bits x of `bits` with x - g unset for every g in `gens`.

    For the bits of a relative ideal and any generating set of its
    semigroup these are the minimal generators.  Every generator must be
    small enough to shift by: at most Frobenius number plus multiplicity.
    """
    covered = 0
    for g in gens:
        covered |= bits << g
    return bits & ~covered


def set_bits(bits: int, offset: int = 0) -> list[int]:
    """Positions of the set bits of a non-negative int, plus `offset`."""
    digits = bin(bits)[:1:-1]
    out = []
    i = digits.find("1")
    while i >= 0:
        out.append(offset + i)
        i = digits.find("1", i + 1)
    return out


@dataclass(frozen=True)
class AperySet:
    """One minimal element per residue class modulo `modulus`."""

    modulus: int
    elements: frozenset[int]

    def sorted(self) -> list[int]:
        return sorted(self.elements)


@dataclass(frozen=True)
class NumericalSemigroup:
    minimal_generators: tuple[int, ...]
    frobenius: int
    genus: int
    # bit x set iff x in [0, frobenius] is a member; all above is a member
    mask: int = field(repr=False, compare=False, hash=False)

    @staticmethod
    def from_generators(gens: Iterable[int]) -> "NumericalSemigroup":
        gens = sorted(set(int(g) for g in gens))
        if not gens:
            raise EmptyGenerators("at least one generator is required")
        if gens[0] <= 0:
            raise EmptyGenerators("generators must be positive integers")
        if math.gcd(*gens) != 1:
            raise NotCoprime(f"gcd({gens}) != 1; not a numerical semigroup")

        if gens[0] == 1:
            return NumericalSemigroup((1,), -1, 0, 0)

        m = gens[0]
        check_window("multiplicity", m)
        # shortest member per residue class mod m, the Apery set: shortest
        # paths on the residue graph, one round-robin pass per generator
        # (Boecker & Liptak 2007); each cycle of +a starts at its minimum
        ap: list = [0] + [math.inf] * (m - 1)
        for a in gens[1:]:
            d = math.gcd(m, a)
            for p in range(d):
                n = min(ap[p::d])
                if n == math.inf:
                    continue
                for _ in range(m // d - 1):
                    n += a
                    r = n % m
                    if ap[r] < n:
                        n = ap[r]
                    else:
                        ap[r] = n
        frobenius = max(ap) - m
        check_window("Frobenius number", frobenius)
        genus = sum((w - r) // m for r, w in enumerate(ap))
        # one comb of bits m apart per residue class, from its Apery element
        comb = int("1".rjust(m, "0") * (frobenius // m + 1), 2)
        mask = 0
        for w in ap:
            mask |= comb << w
        mask &= (1 << (frobenius + 1)) - 1
        # generators above F + m are sums of m and a member
        nonzero = (mask | (-1 << (frobenius + 1))) & -2
        minimal = minimal_bits(nonzero, [g for g in gens if g <= frobenius + m])
        return NumericalSemigroup(tuple(set_bits(minimal)), frobenius, genus, mask)

    # -- basic queries -----------------------------------------------------

    def contains(self, x: int) -> bool:
        return x > self.frobenius or (x >= 0 and bool(self.mask >> x & 1))

    def __contains__(self, x: int) -> bool:
        return self.contains(x)

    def bits(self) -> int:
        """All members as bits (bit x for x), ones forever above F."""
        return self.mask | (-1 << (self.frobenius + 1))

    @property
    def multiplicity(self) -> int:
        return self.minimal_generators[0]

    def is_nat(self) -> bool:
        return self.frobenius == -1

    def gaps(self) -> tuple[int, ...]:
        return tuple(set_bits(~self.mask & ((1 << (self.frobenius + 1)) - 1)))

    def is_symmetric(self) -> bool:
        """Genus criterion, double-checked against the complement criterion."""
        if self.is_nat():
            return True
        width = self.frobenius + 1
        by_genus = 2 * self.genus == width
        # x is a member iff F - x is not: the mask and its mirror image
        # are complements on [0, F]
        mirrored = int(format(self.mask, f"0{width}b")[::-1], 2)
        by_complement = self.mask ^ mirrored == (1 << width) - 1
        if by_genus != by_complement:
            raise InternalInconsistency(
                f"symmetry criteria disagree on {self.minimal_generators}"
            )
        return by_genus

    def apery(self, z: int) -> AperySet:
        if z <= 0 or not self.contains(z):
            raise ModulusNotInSemigroup(
                f"{z} is not a nonzero member of the semigroup"
            )
        check_window("Apery modulus", z)
        members = self.bits()
        return AperySet(z, frozenset(set_bits(members & ~(members << z))))

    def to_json(self) -> dict:
        return {
            "generators": list(self.minimal_generators),
            "frobenius": self.frobenius,
            "genus": self.genus,
            "symmetric": self.is_symmetric(),
        }


def delta_set(values: Iterable[int]) -> frozenset[int]:
    """All positive pairwise differences of a finite set."""
    vals = sorted(set(values))
    return frozenset(
        vals[j] - vals[i] for i in range(len(vals)) for j in range(i + 1, len(vals))
    )


def stable_delta_intersection(gamma: NumericalSemigroup) -> frozenset[int]:
    """Intersection of delta sets of Apery sets over nonzero members.

    Members are traversed up to 2*F + max generator; the result must be
    unchanged over the last `multiplicity` consecutive members, otherwise
    NonStabilized is raised.
    """
    if gamma.is_nat():
        return frozenset()
    bound = 2 * gamma.frobenius + max(gamma.minimal_generators)
    guard = gamma.multiplicity
    inter: frozenset[int] | None = None
    unchanged = 0
    for a in range(1, bound + 1):
        if not gamma.contains(a):
            continue
        d = delta_set(gamma.apery(a).elements)
        nxt = d if inter is None else inter & d
        unchanged = unchanged + 1 if nxt == inter else 0
        inter = nxt
    if inter is None or unchanged < guard:
        raise NonStabilized(
            f"delta-set intersection did not stabilize within bound {bound}"
        )
    return inter
