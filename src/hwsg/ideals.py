"""Relative ideals of a numerical semigroup.

A relative ideal is a set A of integers with A + Gamma contained in A that is
bounded below; it is stored by its unique minimal generating set.  Its
membership is a window of bits from its least element lo on: nothing below
lo is a member, and since lo + Gamma lies in A, everything from lo + F + 1
on is.  The bits are a negative int, whose ones continue forever, so every
binary operation is a few shifts, ANDs and ORs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import AmbientMismatch, EmptyGenerators, ModulusNotInSemigroup
from .semigroup import AperySet, NumericalSemigroup, check_window, minimal_bits, set_bits


def _generated(gamma: NumericalSemigroup, offsets: Iterable[int]) -> int:
    """Bits of ({0} + offsets) + Gamma for non-negative offsets; one above F
    is a member, so it adds nothing to offset 0."""
    members = bits = gamma.bits()
    for d in offsets:
        if d <= gamma.frobenius:
            bits |= members << d
    return bits


@dataclass(frozen=True)
class RelativeIdeal:
    ambient: NumericalSemigroup
    minimal_generators: tuple[int, ...]

    @staticmethod
    def from_generators(
        gamma: NumericalSemigroup, gens: Iterable[int]
    ) -> "RelativeIdeal":
        gens = list(gens)
        if not gens:
            raise EmptyGenerators("a relative ideal needs at least one generator")
        lo = min(gens)
        bits = _generated(gamma, (g - lo for g in gens))
        return RelativeIdeal._from_bits(gamma, lo, bits)

    @staticmethod
    def _from_bits(gamma: NumericalSemigroup, lo: int, bits: int) -> "RelativeIdeal":
        """The ideal whose members from lo on are `bits`."""
        gens = tuple(set_bits(minimal_bits(bits, gamma.minimal_generators), lo))
        ideal = RelativeIdeal(gamma, gens)
        object.__setattr__(ideal, "_window", (gens[0], bits >> (gens[0] - lo)))
        return ideal

    @staticmethod
    def of(gamma: NumericalSemigroup) -> "RelativeIdeal":
        """The semigroup itself, viewed as the relative ideal (0)."""
        return RelativeIdeal(gamma, (0,))

    # -- structure ---------------------------------------------------------

    @cached_property
    def _window(self) -> tuple[int, int]:
        """(least element lo, membership bits from lo on)."""
        lo = self.minimal_generators[0]
        return lo, _generated(self.ambient, (g - lo for g in self.minimal_generators))

    def bits(self, lo: int) -> int:
        """Membership from lo on: bit i stands for lo + i."""
        start, bits = self._window
        return bits << (start - lo) if start >= lo else bits >> (lo - start)

    @property
    def conductor(self) -> int:
        """The least c with every integer >= c a member."""
        lo, bits = self._window
        return lo + (~bits).bit_length()

    @property
    def min_element(self) -> int:
        return self.minimal_generators[0]

    def is_principal(self) -> bool:
        return len(self.minimal_generators) == 1

    def contains(self, x: int) -> bool:
        lo, bits = self._window
        return x >= lo and bool(bits >> (x - lo) & 1)

    def __contains__(self, x: int) -> bool:
        return self.contains(x)

    def members_in(self, lo: int, hi: int) -> list[int]:
        return [x for x in range(lo, hi + 1) if self.contains(x)]

    def _check_ambient(self, other: "RelativeIdeal") -> None:
        if self.ambient != other.ambient:
            raise AmbientMismatch("operands live over different semigroups")

    def equals(self, other: "RelativeIdeal") -> bool:
        self._check_ambient(other)
        return self.minimal_generators == other.minimal_generators

    # -- arithmetic --------------------------------------------------------

    def add(self, other: "RelativeIdeal") -> "RelativeIdeal":
        """The union of self + b over the generators b of other."""
        self._check_ambient(other)
        lo, bits = self._window
        base = other.min_element
        total = 0
        for b in other.minimal_generators:
            total |= bits << (b - base)
        return RelativeIdeal._from_bits(self.ambient, lo + base, total)

    def union(self, other: "RelativeIdeal") -> "RelativeIdeal":
        self._check_ambient(other)
        return RelativeIdeal.from_generators(
            self.ambient, self.minimal_generators + other.minimal_generators
        )

    def intersect(self, other: "RelativeIdeal") -> "RelativeIdeal":
        self._check_ambient(other)
        lo = max(self.min_element, other.min_element)
        return RelativeIdeal._from_bits(self.ambient, lo, self.bits(lo) & other.bits(lo))

    def subtract(self, other: "RelativeIdeal") -> "RelativeIdeal":
        """The quotient {z | z + other is contained in self}: the
        intersection of self - b over the generators b of other."""
        self._check_ambient(other)
        lo, bits = self._window
        base = other.min_element
        quotient = -1
        for b in other.minimal_generators:
            quotient &= bits >> (b - base)
        return RelativeIdeal._from_bits(self.ambient, lo - base, quotient)

    def dual(self) -> "RelativeIdeal":
        return RelativeIdeal.of(self.ambient).subtract(self)

    def shift(self, x: int) -> "RelativeIdeal":
        return RelativeIdeal(
            self.ambient, tuple(g + x for g in self.minimal_generators)
        )

    def apery(self, z: int) -> AperySet:
        if z <= 0 or not self.ambient.contains(z):
            raise ModulusNotInSemigroup(
                f"{z} is not a nonzero member of the ambient semigroup"
            )
        check_window("Apery modulus", z)
        lo, bits = self._window
        return AperySet(z, frozenset(set_bits(bits & ~(bits << z), lo)))

    def to_json(self) -> dict:
        return {
            "ambient": list(self.ambient.minimal_generators),
            "generators": list(self.minimal_generators),
        }

    __add__ = add
    __or__ = union
    __and__ = intersect
    __sub__ = subtract


def enumerate_ideals_up_to_shift(
    gamma: NumericalSemigroup, max_extra_gens: int | None = None
) -> Iterator[RelativeIdeal]:
    """One representative per translation class of relative ideals.

    Normalized representatives are (0) together with ideals (0, t1, ..., tk)
    where the t's form an antichain of gaps (no difference in the semigroup).
    Output order is lexicographic on the sorted gap tuples, principal first.
    """
    yield RelativeIdeal(gamma, (0,))
    gaps = gamma.gaps()

    def rec(prefix: Sequence[int], start: int) -> Iterator[RelativeIdeal]:
        for i in range(start, len(gaps)):
            t = gaps[i]
            if any(gamma.contains(t - p) for p in prefix):
                continue
            chosen = tuple(prefix) + (t,)
            yield RelativeIdeal(gamma, (0,) + chosen)
            if max_extra_gens is None or len(chosen) < max_extra_gens:
                yield from rec(chosen, i + 1)

    if max_extra_gens is None or max_extra_gens >= 1:
        yield from rec((), 0)
