"""Workloads: frozen inputs, seeded samples and the correctness gate.

Every input comes from the files in ``data/``, written once by
``make_data.py``; nothing here calls the code under test, so two commits
measured with the same seed get identical inputs.  The gate compares a
canonical projection of the program's output with the reference stored
beside the inputs, and ignores keys and records it does not know, so
telemetry added to the output does not trip it.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

# every failure the gate counts on a corpus record, besides a wrong projection
CORPUS_FAILURE_KINDS = ("oracle-disagreement", "not-hw")


class DataError(Exception):
    """The frozen data disagrees with the counts it is known to have."""


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # corpus | all-ideals | classify
    item: str
    jobs: int = 1
    # seeded sample: the `census` heaviest entries, then one from each run of
    # `stratum` entries of similar work, so every seed draws nearly equal work
    stratum: int = 0
    census: int = 0


# why each workload exists is in BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in (
        Workload("sym40", "corpus", "ideal"),
        Workload("sym40-j2", "corpus", "ideal", jobs=2),
        Workload("all-ideals", "all-ideals", "ideal", stratum=8, census=8),
        Workload("classify", "classify", "semigroup", stratum=4, census=8),
    )
}


def corpus_argv(jobs: int, out: str) -> list[str]:
    return [
        "corpus", "verify", "--mode", "symmetric", "--bound", "40",
        "--jobs", str(jobs), "--out", out,
    ]


def read_data(name: str) -> dict:
    with gzip.open(DATA / f"{name}.json.gz", "rt") as fh:
        return json.load(fh)


def _expect(what: str, got: int, want: int) -> None:
    if got != want:
        raise DataError(f"{what}: data has {got}, expected {want}")


def _stratified(population: list, stratum: int, census: int, seed: int) -> list:
    """The `census` entries of most frozen work, then one entry per run of
    `stratum` entries of similar work; in population order.  The heavy
    tail is taken whole because one such entry in or out would move the
    whole sample's time by several percent."""
    order = sorted(range(len(population)), key=lambda i: (population[i]["work"], i))
    rest = order[: len(order) - census]
    rng = random.Random(seed)
    picked = order[len(rest):] + [
        rest[start + rng.randrange(min(stratum, len(rest) - start))]
        for start in range(0, len(rest), stratum)
    ]
    return [population[i] for i in sorted(picked)]


def source_digest(src: Path) -> str:
    """sha256 over the package sources, for telling commits apart without git."""
    h = hashlib.sha256()
    for path in sorted((src / "hwsg").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode()).hexdigest()[:16]


@dataclass
class Inputs:
    workload: Workload
    seed_used: bool
    inputs: list  # generator tuples handed to the worker; empty for the corpus
    reference: dict  # canonical projection the output must reproduce
    items: int  # items decided per repetition
    digest: str


def prepare(workload: Workload, seed: int) -> Inputs:
    if workload.kind == "corpus":
        data = read_data("sym40")
        reference = {
            (tuple(gens), s): (verdict, witness, terms)
            for gens, entries in data["semigroups"]
            for s, verdict, witness, terms in entries
        }
        _expect("sym40 semigroups", len(data["semigroups"]), 1149)
        _expect("sym40 ideals", len(reference), 19403)
        spec = corpus_argv(workload.jobs, "OUT")
        return Inputs(workload, False, [], reference, len(reference), digest(spec))

    if workload.kind == "all-ideals":
        population = read_data("all_ideals")["population"]
        _expect("genus-10 semigroups", sum(p["genus"] == 10 for p in population), 204)
        sample = _stratified(population, workload.stratum, workload.census, seed)
        reference = {tuple(p["gens"]): tuple(p["scan"]) for p in sample}
        items = sum(p["scan"][0] for p in sample)
    else:
        population = read_data("classify")["population"]
        _expect("genus<=13 semigroups", len(population), 2414)
        _expect(
            "CIs of genus<=12",
            sum(p["genus"] <= 12 and p["ci"] is not None for p in population),
            53,
        )
        sample = _stratified(population, workload.stratum, workload.census, seed)
        reference = {tuple(p["gens"]): (p["ci"], p["free"]) for p in sample}
        items = len(sample)
    inputs = [p["gens"] for p in sample]
    return Inputs(workload, True, inputs, reference, items, digest(inputs))


# -- projections -----------------------------------------------------------


def project_corpus(lines) -> tuple[dict, set]:
    """(generators, s) -> (verdict, witness element, sequence terms), and the
    (generators, s) keys the output itself flags as counterexamples."""
    got: dict = {}
    flagged: set = set()
    for line in lines:
        rec = json.loads(line)
        if not isinstance(rec, dict) or "generators" not in rec or "witnesses" not in rec:
            continue  # header, summary or any other record type
        gens = tuple(rec["generators"])
        for entry in rec["witnesses"]:
            seq = entry.get("sequence")
            got[(gens, entry["s"])] = (
                entry.get("verdict"),
                entry.get("witness_element"),
                seq.get("terms") if isinstance(seq, dict) else None,
            )
        for bad in rec.get("counterexamples", []):
            if bad.get("kind") in CORPUS_FAILURE_KINDS:
                flagged.add((gens, bad.get("s")))
    return got, flagged


def failures(prepared: Inputs, run_dir: Path, output) -> int:
    """Items of one repetition that the gate fails; `output` is what the
    worker returned, None if it did not finish."""
    ref = prepared.reference
    if prepared.workload.kind == "corpus":
        path = run_dir / "out.jsonl"
        if output is None or not path.exists():
            return prepared.items
        with open(path) as fh:
            got, flagged = project_corpus(fh)
        return sum(got.get(key) != want or key in flagged for key, want in ref.items())

    if output is None:
        return prepared.items
    got = {tuple(row[0]): tuple(row[1:]) for row in output}
    if prepared.workload.kind == "all-ideals":
        # a wrong count fails every ideal of that semigroup
        return sum(want[0] for gens, want in ref.items() if got.get(gens) != want)
    return sum(got.get(gens) != want for gens, want in ref.items())
