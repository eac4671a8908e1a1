"""Huneke-Wiegand property decisions with verifiable witnesses.

A relative ideal A is Huneke-Wiegand if it is principal or some partition
{S, S'} of its minimal generators, with P = (S) and Q = (S'), satisfies
(P + A*) cap (Q + A*)  !=  (P cap Q) + A*.  The reduction from arbitrary
covers to generator partitions is exact, so the partition search decides the
property.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Optional

from .errors import HypothesisViolated, InternalInconsistency, NotAGap
from . import ideals
from .ideals import RelativeIdeal
from .semigroup import NumericalSemigroup, delta_set


class Verdict(enum.Enum):
    PRINCIPAL = "principal"
    HW = "hw"
    NOT_HW = "not-hw"


@dataclass
class HWReport:
    ideal: RelativeIdeal
    verdict: Verdict
    witness_partition: Optional[tuple[tuple[int, ...], tuple[int, ...]]]
    witness_element: Optional[int]
    checked_partitions: int

    @property
    def is_hw(self) -> bool:
        """Principal ideals are Huneke-Wiegand by definition."""
        return self.verdict is not Verdict.NOT_HW

    def to_json(self) -> dict:
        return {
            "ideal": self.ideal.to_json(),
            "verdict": self.verdict.value,
            "witness_partition": (
                [list(s) for s in self.witness_partition]
                if self.witness_partition
                else None
            ),
            "witness_element": self.witness_element,
            "checked_partitions": self.checked_partitions,
        }


def _first_difference(left: RelativeIdeal, right: RelativeIdeal) -> Optional[int]:
    """Smallest element of `left` missing from `right`, None if contained."""
    lo = left.min_element
    diff = left.bits(lo) & ~right.bits(lo)
    return lo + (diff & -diff).bit_length() - 1 if diff else None


def is_huneke_wiegand(ideal: RelativeIdeal) -> HWReport:
    gens = ideal.minimal_generators
    if len(gens) == 1:
        return HWReport(ideal, Verdict.PRINCIPAL, None, None, 0)

    gamma = ideal.ambient
    astar = ideal.dual()
    rest = gens[1:]
    checked = 0
    # the smallest generator is pinned to S, killing the {S,S'} double count;
    # partitions by increasing |S|, then lexicographically
    for size in range(1, len(gens)):
        for combo in itertools.combinations(rest, size - 1):
            s_side = (gens[0],) + combo
            q_side = tuple(g for g in gens if g not in s_side)
            checked += 1
            p = RelativeIdeal.from_generators(gamma, s_side)
            q = RelativeIdeal.from_generators(gamma, q_side)
            left = (p + astar) & (q + astar)
            right = (p & q) + astar
            if left.minimal_generators != right.minimal_generators:
                witness = _first_difference(left, right)
                if witness is None:
                    raise InternalInconsistency(
                        "ideals differ but no separating element found"
                    )
                return HWReport(
                    ideal, Verdict.HW, (s_side, q_side), witness, checked
                )
    return HWReport(ideal, Verdict.NOT_HW, None, None, checked)


def check_two_generated(
    gamma: NumericalSemigroup, s: int, strict: bool = False
) -> HWReport:
    """Decide the property for the normalized two-generated ideal (0, s)."""
    if gamma.contains(s):
        if strict:
            raise NotAGap(f"{s} is a member; (0, {s}) is principal")
        return HWReport(RelativeIdeal(gamma, (0,)), Verdict.PRINCIPAL, None, None, 0)
    return is_huneke_wiegand(RelativeIdeal(gamma, (0, s)))


@dataclass
class TwoGeneratedScan:
    gamma: NumericalSemigroup
    reports: list[HWReport]
    all_hw: bool

    def to_json(self) -> dict:
        return {
            "semigroup": self.gamma.to_json(),
            "gaps_checked": len(self.reports),
            "all_hw": self.all_hw,
            "reports": [r.to_json() for r in self.reports],
        }


def check_all_two_generated(gamma: NumericalSemigroup) -> TwoGeneratedScan:
    reports = [check_two_generated(gamma, s) for s in gamma.gaps()]
    return TwoGeneratedScan(gamma, reports, all(r.is_hw for r in reports))


@dataclass
class IdealScan:
    gamma: NumericalSemigroup
    total: int
    principal: int
    hw: int
    not_hw: list[HWReport]

    @property
    def all_hw(self) -> bool:
        return not self.not_hw

    def to_json(self) -> dict:
        return {
            "semigroup": self.gamma.to_json(),
            "total": self.total,
            "principal": self.principal,
            "hw": self.hw,
            "all_hw": self.all_hw,
            "counterexamples": [r.to_json() for r in self.not_hw],
        }


def check_all_ideals(
    gamma: NumericalSemigroup, max_extra_gens: int | None = None
) -> IdealScan:
    """Run the partition check over every ideal up to translation."""
    total = principal = hw = 0
    bad: list[HWReport] = []
    for ideal in ideals.enumerate_ideals_up_to_shift(gamma, max_extra_gens):
        report = is_huneke_wiegand(ideal)
        total += 1
        if report.verdict is Verdict.PRINCIPAL:
            principal += 1
        elif report.verdict is Verdict.HW:
            hw += 1
        else:
            bad.append(report)
    return IdealScan(gamma, total, principal, hw, bad)


@dataclass
class NmidWitness:
    element: int
    partition: tuple[tuple[int, ...], tuple[int, ...]]


def lemma_nmid_check(
    gamma: NumericalSemigroup, g: int, a: int, ideal: RelativeIdeal
) -> Optional[NmidWitness]:
    """Divisibility witness: when the nonzero Apery set of g has all its
    differences divisible by a, splitting the generators by a-divisibility
    exhibits F + g as a Huneke-Wiegand witness.

    Returns None when every generator is divisible by a (the split is empty
    on one side); raises HypothesisViolated when a premise fails.
    """
    if not gamma.is_symmetric():
        raise HypothesisViolated("the semigroup must be symmetric")
    if g <= 0 or not gamma.contains(g):
        raise HypothesisViolated(f"{g} is not a nonzero member")
    ap_nonzero = gamma.apery(g).elements - {0}
    if any(d % a != 0 for d in delta_set(ap_nonzero)):
        raise HypothesisViolated(
            f"delta set of Ap(Gamma,{g}) minus 0 is not contained in {a}N"
        )
    gens = ideal.minimal_generators
    if gens[0] != 0:
        raise HypothesisViolated("ideal must be normalized so 0 is the least generator")
    p_side = tuple(x for x in gens if x % a == 0)
    q_side = tuple(x for x in gens if x % a != 0)
    if not q_side:
        return None

    astar = ideal.dual()
    p = RelativeIdeal.from_generators(gamma, p_side)
    q = RelativeIdeal.from_generators(gamma, q_side)
    w = gamma.frobenius + g
    in_left = (p + astar).contains(w) and (q + astar).contains(w)
    in_right = ((p & q) + astar).contains(w)
    if not in_left or in_right:
        raise InternalInconsistency("divisibility witness failed re-verification")
    return NmidWitness(w, (p_side, q_side))
