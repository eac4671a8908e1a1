"""Arithmetic sequences with step a gap of the semigroup.

(x; s; n) stands for (x, x+s, ..., x+ns).  Sequences whose terms all lie in
the semigroup form a monoid under term-wise set addition; witnesses for the
two-generated Huneke-Wiegand property are irreducible sequences with two
steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import (
    InternalInconsistency,
    NotInSemigroup,
    NotSymmetric,
    StepInSemigroup,
)
from .semigroup import NumericalSemigroup, delta_set


@dataclass(frozen=True)
class ArithmeticSequence:
    start: int
    step: int
    steps: int

    @property
    def terms(self) -> tuple[int, ...]:
        return tuple(self.start + i * self.step for i in range(self.steps + 1))

    def __add__(self, other: "ArithmeticSequence") -> "ArithmeticSequence":
        if self.step != other.step:
            raise ValueError("only sequences with equal step can be added")
        return ArithmeticSequence(
            self.start + other.start, self.step, self.steps + other.steps
        )

    def to_json(self) -> dict:
        return {
            "start": self.start,
            "step": self.step,
            "steps": self.steps,
            "terms": list(self.terms),
        }


def in_sequence_semigroup(
    gamma: NumericalSemigroup, seq: ArithmeticSequence
) -> bool:
    if gamma.contains(seq.step):
        raise StepInSemigroup(f"step {seq.step} must be a gap")
    return all(gamma.contains(t) for t in seq.terms)


def _terms_in(gamma: NumericalSemigroup, start: int, step: int, steps: int) -> bool:
    return all(gamma.contains(start + i * step) for i in range(steps + 1))


def factorizations_two_step(
    gamma: NumericalSemigroup, seq: ArithmeticSequence
) -> list[tuple[int, int]]:
    """All splittings (y;s;1) + (z;s;1) of a two-step sequence, y <= z."""
    if seq.steps != 2:
        raise ValueError("only two-step sequences are supported here")
    if not in_sequence_semigroup(gamma, seq):
        raise NotInSemigroup("sequence terms must lie in the semigroup")
    x, s = seq.start, seq.step
    out = []
    for y in range(1, x // 2 + 1):
        z = x - y
        if _terms_in(gamma, y, s, 1) and _terms_in(gamma, z, s, 1):
            out.append((y, z))
    return out


def is_irreducible(gamma: NumericalSemigroup, seq: ArithmeticSequence) -> bool:
    if not in_sequence_semigroup(gamma, seq):
        raise NotInSemigroup("sequence terms must lie in the semigroup")
    x, s, n = seq.start, seq.step, seq.steps
    for p in range(1, n // 2 + 1):
        q = n - p
        for y in range(0, x + 1):
            if _terms_in(gamma, y, s, p) and _terms_in(gamma, x - y, s, q):
                return False
    return True


def shift_apery_witness(
    gamma: NumericalSemigroup, a: int, s: int
) -> Optional[ArithmeticSequence]:
    """The explicit irreducible sequence (F + a - s; s; 2) available whenever
    s avoids the delta set of the Apery set of a.  Returns None when s lies
    in that delta set."""
    if not gamma.is_symmetric():
        raise NotSymmetric("the construction needs a symmetric semigroup")
    if gamma.contains(s):
        raise StepInSemigroup(f"step {s} must be a gap")
    if s in delta_set(gamma.apery(a).elements):
        return None
    seq = ArithmeticSequence(gamma.frobenius + a - s, s, 2)
    if not in_sequence_semigroup(gamma, seq) or not is_irreducible(gamma, seq):
        raise InternalInconsistency(
            "shifted Apery sequence failed its irreducibility guarantee"
        )
    return seq


def find_irreducible_two_step(
    gamma: NumericalSemigroup,
    s: int,
    bound: int | None = None,
    stats: dict | None = None,
) -> Optional[ArithmeticSequence]:
    """Ascending search for the irreducible (x; s; 2) of least start.

    A miss under the default bound is exact: for x >= 2F + 2 the splitting
    x = (F + 1) + (x - F - 1) has both parts and both parts plus s above F,
    hence in Gamma, so every irreducible start is at most 2F + 1, and the
    default bound 2F + 2s + max(gens) exceeds that.  The search never
    consults the ideal criterion; it stays an independent oracle for it.
    """
    if gamma.contains(s):
        raise StepInSemigroup(f"step {s} must be a gap")
    if bound is None:
        bound = 2 * gamma.frobenius + 2 * s + max(gamma.minimal_generators)
    candidates = 0
    for x in range(bound + 1):
        if not _terms_in(gamma, x, s, 2):
            continue
        candidates += 1
        seq = ArithmeticSequence(x, s, 2)
        if not factorizations_two_step(gamma, seq):
            if stats is not None:
                stats["candidates_checked"] = candidates
            return seq
    if stats is not None:
        stats["candidates_checked"] = candidates
    return None
