"""Regenerate the frozen inputs and references in ``data/``.

    PYTHONPATH=src python3 perfbench/make_data.py

This runs the code under test once, at the commit that defines the
benchmark, and is never run by the benchmark itself.  Rerunning it at a
later commit would move the reference onto that commit's answers, so do
it only on purpose and say so.  ``work`` counts the calls one entry made
into its hot layer here (membership tests for all-ideals, semigroup
constructions for classify); it only orders the population into strata
for sampling.
"""

from __future__ import annotations

import gzip
import json
import platform
import sys
import tempfile
import time
from pathlib import Path

import hwsg
from hwsg import cli, detect_complete_intersection, detect_free, genus_tree
from hwsg import check_all_ideals
from hwsg.ideals import RelativeIdeal
from hwsg.semigroup import NumericalSemigroup

from workloads import DATA, WORKLOADS, corpus_argv, prepare, project_corpus, source_digest

SRC = Path(hwsg.__file__).resolve().parent.parent


def meta() -> dict:
    return {"source_sha256": source_digest(SRC), "python": platform.python_version()}


def write_data(name: str, payload: dict) -> None:
    # mtime=0 keeps the file bytes a function of the content alone
    with open(DATA / f"{name}.json.gz", "wb") as raw:
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
            fh.write(json.dumps(payload, separators=(",", ":")).encode())


class Calls:
    """Counts calls of the wrapped callables; the answers do not change."""

    def __init__(self) -> None:
        self.n = 0

    def wrap(self, fn):
        def counted(*args):
            self.n += 1
            return fn(*args)

        return counted


def sym40() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.jsonl"
        if cli.run(corpus_argv(1, str(out))) != 0:
            raise SystemExit("corpus verify failed")
        lines = out.read_text().splitlines()
    got, flagged = project_corpus(lines)
    if flagged:
        raise SystemExit(f"reference run flags counterexamples: {sorted(flagged)[:5]}")
    semigroups: dict = {}
    for (gens, s), (verdict, witness, terms) in got.items():
        semigroups.setdefault(gens, []).append([s, verdict, witness, terms])
    return {"meta": meta(), "semigroups": [[list(g), e] for g, e in semigroups.items()]}


def all_ideals() -> dict:
    semigroups = [g for g in genus_tree(11) if g.genus >= 9]
    tests = Calls()
    originals = {cls: cls.contains for cls in (NumericalSemigroup, RelativeIdeal)}
    for cls, contains in originals.items():
        cls.contains = tests.wrap(contains)
    population = []
    for gamma in semigroups:
        tests.n = 0
        scan = check_all_ideals(gamma)
        population.append({
            "gens": list(gamma.minimal_generators),
            "genus": gamma.genus,
            "frobenius": gamma.frobenius,
            "work": tests.n,
            "scan": [scan.total, scan.principal, scan.hw, len(scan.not_hw)],
        })
    for cls, contains in originals.items():
        cls.contains = contains
    return {"meta": meta(), "population": population}


def classify() -> dict:
    semigroups = list(genus_tree(13))
    builds = Calls()
    build = NumericalSemigroup.__dict__["from_generators"]
    NumericalSemigroup.from_generators = staticmethod(builds.wrap(build.__func__))
    population = []
    for gamma in semigroups:
        builds.n = 0
        ci = detect_complete_intersection(gamma)
        free = detect_free(gamma)
        population.append({
            "gens": list(gamma.minimal_generators),
            "genus": gamma.genus,
            "frobenius": gamma.frobenius,
            "symmetric": gamma.is_symmetric(),
            "work": builds.n,
            "ci": ci.to_json() if ci else None,
            "free": free.to_json() if free else None,
        })
    NumericalSemigroup.from_generators = build
    return {"meta": meta(), "population": population}


def main() -> None:
    for name, build in (("sym40", sym40), ("all_ideals", all_ideals), ("classify", classify)):
        start = time.perf_counter()
        write_data(name, build())
        print(f"{name}: {time.perf_counter() - start:.1f} s", file=sys.stderr)
    for workload in WORKLOADS.values():  # re-reads the files and checks known counts
        prepare(workload, 0)


if __name__ == "__main__":
    main()
