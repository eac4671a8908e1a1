"""Desk-scale corpora and batch verification.

The genus tree enumerates every numerical semigroup up to a genus bound,
each exactly once; filters and the gluing closure build the corpora, and
verify_hw_corpus runs the two-generated Huneke-Wiegand scan over them.
"""

from __future__ import annotations

import functools
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from .gluing import glue
from .hw import Verdict, check_all_two_generated
from .semigroup import NumericalSemigroup, minimal_bits, set_bits
from .sequences import find_irreducible_two_step


def _remove_generator(parent: NumericalSemigroup, g: int) -> NumericalSemigroup:
    # g is a minimal generator larger than the Frobenius number: it becomes
    # the child's Frobenius number, the generators below it stay, and the
    # others, old or new, lie in (g, g + multiplicity]
    mask = parent.bits() & ((1 << g) - 1)
    kept = tuple(h for h in parent.minimal_generators if h < g)
    mult = kept[0] if kept else g + 1
    nonzero = (mask | (-1 << (g + 1))) & -2
    above = minimal_bits(nonzero, kept) >> (g + 1) & ((1 << mult) - 1)
    gens = kept + tuple(set_bits(above, g + 1))
    return NumericalSemigroup(gens, g, parent.genus + 1, mask)


def genus_tree(max_genus: int) -> Iterator[NumericalSemigroup]:
    """Every numerical semigroup of genus <= max_genus, exactly once,
    in depth-first pre-order (children by removed generator, ascending)."""
    if max_genus < 0:
        raise ValueError("max_genus must be non-negative")
    stack = [NumericalSemigroup.from_generators([1])]
    while stack:
        gamma = stack.pop()
        yield gamma
        if gamma.genus < max_genus:
            children = [
                _remove_generator(gamma, g)
                for g in gamma.minimal_generators
                if g > gamma.frobenius
            ]
            stack.extend(reversed(children))


def symmetric_below(bound_frobenius: int) -> Iterator[NumericalSemigroup]:
    """Symmetric semigroups other than N with Frobenius number < bound."""
    if bound_frobenius < 1:
        raise ValueError("bound must be at least 1")
    for gamma in genus_tree(bound_frobenius // 2):
        if (
            0 < gamma.frobenius < bound_frobenius
            and 2 * gamma.genus == gamma.frobenius + 1
            and gamma.is_symmetric()
        ):
            yield gamma


def gluing_closure(
    seeds: Iterable[NumericalSemigroup],
    depth: int,
    multiplier_cap: int = 15,
) -> Iterator[NumericalSemigroup]:
    """Iterated gluings of pairs from the running set, with both multipliers
    capped to keep each level finite.  Seeds come out first; new semigroups
    per level in generator order."""
    if depth < 0:
        raise ValueError("depth must be non-negative")
    seen: dict[tuple[int, ...], NumericalSemigroup] = {}
    for s in seeds:
        if s.minimal_generators not in seen:
            seen[s.minimal_generators] = s
            yield s
    for _ in range(depth):
        current = list(seen.values())
        fresh: dict[tuple[int, ...], NumericalSemigroup] = {}
        for left in current:
            for right in current:
                a2_opts = [
                    a for a in range(1, multiplier_cap + 1) if left.contains(a)
                ]
                a1_opts = [
                    a for a in range(1, multiplier_cap + 1) if right.contains(a)
                ]
                for a1 in a1_opts:
                    for a2 in a2_opts:
                        if math.gcd(a1, a2) != 1:
                            continue
                        glued = glue(left, a1, right, a2).glued
                        key = glued.minimal_generators
                        if key not in seen and key not in fresh:
                            fresh[key] = glued
        for key in sorted(fresh):
            seen[key] = fresh[key]
            yield fresh[key]


@dataclass
class CorpusSpec:
    mode: str  # genus-tree | symmetric-below | gluing-closure
    bound: int = 40  # Frobenius bound for symmetric-below
    max_genus: int = 8  # genus bound for genus-tree
    seeds: tuple[tuple[int, ...], ...] = ()  # generator tuples for gluing-closure
    depth: int = 1
    multiplier_cap: int = 15
    cross_check: bool = True  # also run the sequence-search oracle per gap
    jobs: int = 1
    output: Optional[str] = None  # JSON-lines report path

    def corpus(self) -> Iterator[NumericalSemigroup]:
        if self.mode == "genus-tree":
            return genus_tree(self.max_genus)
        if self.mode == "symmetric-below":
            return symmetric_below(self.bound)
        if self.mode == "gluing-closure":
            seeds = [NumericalSemigroup.from_generators(g) for g in self.seeds]
            return gluing_closure(seeds, self.depth, self.multiplier_cap)
        raise ValueError(f"unknown corpus mode {self.mode!r}")


@dataclass
class VerificationReport:
    spec: CorpusSpec
    semigroups: int = 0
    ideals_checked: int = 0
    all_hw: bool = True
    counterexamples: list[dict] = field(default_factory=list)
    wall_time: float = 0.0
    records: list[dict] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "mode": self.spec.mode,
            "semigroups": self.semigroups,
            "ideals_checked": self.ideals_checked,
            "all_hw": self.all_hw,
            "counterexamples": self.counterexamples,
            "wall_time": round(self.wall_time, 3),
            "multiplier_cap": self.spec.multiplier_cap,
            "cross_check": self.spec.cross_check,
        }


def _scan_one(gamma: NumericalSemigroup, cross_check: bool) -> dict:
    scan = check_all_two_generated(gamma)
    record: dict = {
        "generators": list(gamma.minimal_generators),
        "frobenius": gamma.frobenius,
        "genus": gamma.genus,
        "gaps_checked": len(scan.reports),
        "all_hw": scan.all_hw,
        "witnesses": [],
        "counterexamples": [],
    }
    for report in scan.reports:
        gap = report.ideal.minimal_generators[-1]
        entry = {
            "s": gap,
            "verdict": report.verdict.value,
            "witness_element": report.witness_element,
        }
        if cross_check and report.verdict is not Verdict.PRINCIPAL:
            seq = find_irreducible_two_step(gamma, gap)
            entry["sequence"] = seq.to_json() if seq else None
            if (seq is not None) != (report.verdict is Verdict.HW):
                record["counterexamples"].append(
                    {"kind": "oracle-disagreement", "s": gap, **entry}
                )
        if report.verdict is Verdict.NOT_HW:
            record["counterexamples"].append({"kind": "not-hw", "s": gap})
        record["witnesses"].append(entry)
    return record


def verify_hw_corpus(spec: CorpusSpec) -> VerificationReport:
    """Scan every semigroup of the corpus; parallel runs merge in corpus
    order so reports are deterministic."""
    started = time.monotonic()
    scan = functools.partial(_scan_one, cross_check=spec.cross_check)
    if spec.jobs > 1:
        with ProcessPoolExecutor(max_workers=spec.jobs) as pool:
            records = list(pool.map(scan, spec.corpus(), chunksize=16))
    else:
        records = list(map(scan, spec.corpus()))

    report = VerificationReport(spec)
    report.records = records
    for rec in records:
        report.semigroups += 1
        report.ideals_checked += rec["gaps_checked"]
        if not rec["all_hw"] or rec["counterexamples"]:
            report.all_hw = False
            report.counterexamples.extend(rec["counterexamples"])
    report.wall_time = time.monotonic() - started

    if spec.output:
        with open(spec.output, "w") as fh:
            for rec in records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
    return report
