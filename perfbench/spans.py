"""Outside-in layer tracing of the hwsg package, done from the benchmark.

Wrappers go on the names a module calls across a module boundary, as the
calling module sees them (``hwsg.enumeration.check_all_two_generated``,
``hwsg.hw.is_huneke_wiegand``), and on the methods of the two shared
classes, operator aliases included, since callers look those up on the
class.  Nothing under ``src/`` changes.  A process either records spans or
counts ``contains`` calls, never both: counting those 25 M calls costs
seconds that must not land in any span's self time.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

SPANS_FILE = "spans.tsv"
COUNTS_FILE = "counts.json"


class Tracer:
    def __init__(self) -> None:
        # (name, start, end, parent index or -1, request = index of the root span)
        self.spans: list = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._cells: dict[str, list[int]] = {}

    def span(self, name, fn, observe=None):
        """`fn` recording one span per call; `observe(counts, args, kwargs,
        result)` records outcome counters after the span closes."""
        spans, stack, clock, counts = self.spans, self._stack, time.perf_counter, self.counts

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, stack[0] if stack else idx)
            if observe is not None:
                observe(counts, args, kwargs, result)
            return result

        return traced

    def span_iter(self, name, fn):
        """A generator function whose every next() is one span; items
        yielded are counted as `<name>.items`."""
        step = self.span(name, next)
        counts = self.counts
        key = name + ".items"

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            counts.setdefault(key, 0)
            while True:
                try:
                    item = step(it)
                except StopIteration:
                    return
                counts[key] += 1
                yield item

        return traced

    def count_iter(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts.setdefault(name, 0)
            for item in fn(*args, **kwargs):
                counts[name] += 1
                yield item

        return counted

    def count(self, name, fn):
        cell = self._cells.setdefault(name, [0])

        def counted(*args):
            cell[0] += 1
            return fn(*args)

        return counted

    def dump(self, run_dir: Path) -> None:
        counts = dict(self.counts)
        counts.update((name, cell[0]) for name, cell in self._cells.items())
        (run_dir / COUNTS_FILE).write_text(json.dumps(counts))
        with open(run_dir / SPANS_FILE, "w") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(f"{name}\t{start!r}\t{end!r}\t{parent}\t{request}\n")


# -- outcome counters -----------------------------------------------------


def _bump(counts, key, by=1):
    counts[key] = counts.get(key, 0) + by


def _hw_outcome(counts, args, kwargs, report):
    _bump(counts, "hw.verdicts." + report.verdict.value.replace("-", "_"))
    _bump(counts, "hw.partitions_checked", report.checked_partitions)


def _sequence_outcome(counts, args, kwargs, seq):
    if seq is not None:
        _bump(counts, "sequences.found")
    elif len(args) < 3 and kwargs.get("bound") is None:
        # a miss under the default bound falls back to the exact ideal check
        _bump(counts, "sequences.bound_escalations")


def _ci_outcome(counts, args, kwargs, tree):
    gamma = args[0]
    _bump(counts, "gluing.input.symmetric", 2 * gamma.genus == gamma.frobenius + 1)
    _bump(counts, "gluing.ci.found", tree is not None)


def _free_outcome(counts, args, kwargs, tree):
    _bump(counts, "gluing.free.found", tree is not None)


# -- installation -----------------------------------------------------------


def harness_api() -> dict:
    """The callables the benchmark itself calls, untraced."""
    from hwsg import cli, gluing, hw

    return {
        "cli.run": cli.run,
        "hw.check_all_ideals": hw.check_all_ideals,
        "gluing.detect_complete_intersection": gluing.detect_complete_intersection,
        "gluing.detect_free": gluing.detect_free,
    }


def install_spans(tracer: Tracer) -> dict:
    from hwsg import enumeration, hw, ideals
    from hwsg.ideals import RelativeIdeal
    from hwsg.semigroup import NumericalSemigroup

    span = tracer.span
    for cls, layer in ((NumericalSemigroup, "semigroup"), (RelativeIdeal, "ideals")):
        build = cls.__dict__["from_generators"].__func__
        cls.from_generators = staticmethod(span(f"{layer}.from_generators", build))
    for attr in ("gaps", "is_symmetric"):
        setattr(NumericalSemigroup, attr, span(f"semigroup.{attr}", getattr(NumericalSemigroup, attr)))
    for attr, op in (
        ("add", "add"), ("__add__", "add"),
        ("intersect", "intersect"), ("__and__", "intersect"),
        ("subtract", "subtract"), ("__sub__", "subtract"),
        ("union", "union"), ("__or__", "union"),
        ("dual", "dual"),
    ):
        setattr(RelativeIdeal, attr, span(f"ideals.{op}", RelativeIdeal.__dict__[attr]))

    # cli -> enumeration, and enumeration's own corpus generators
    enumeration.verify_hw_corpus = span("enumeration.verify", enumeration.verify_hw_corpus)
    enumeration.symmetric_below = tracer.span_iter("enumeration.corpus", enumeration.symmetric_below)
    enumeration.genus_tree = tracer.count_iter("enumeration.corpus.nodes", enumeration.genus_tree)
    # enumeration -> hw, sequences, gluing
    enumeration.check_all_two_generated = span(
        "hw.check_all_two_generated", enumeration.check_all_two_generated
    )
    enumeration.find_irreducible_two_step = span(
        "sequences.find_irreducible_two_step",
        enumeration.find_irreducible_two_step,
        _sequence_outcome,
    )
    enumeration.glue = span("gluing.glue", enumeration.glue)
    # hw's partition check, called from its scans
    hw.is_huneke_wiegand = span("hw.is_huneke_wiegand", hw.is_huneke_wiegand, _hw_outcome)
    # hw -> ideals: check_all_ideals imports this name from hwsg.ideals per call
    ideals.enumerate_ideals_up_to_shift = tracer.span_iter(
        "ideals.enumerate_ideals_up_to_shift", ideals.enumerate_ideals_up_to_shift
    )

    api = harness_api()
    return {
        "cli.run": span("cli.run", api["cli.run"]),
        "hw.check_all_ideals": span("hw.check_all_ideals", api["hw.check_all_ideals"]),
        "gluing.detect_complete_intersection": span(
            "gluing.detect_complete_intersection",
            api["gluing.detect_complete_intersection"],
            _ci_outcome,
        ),
        "gluing.detect_free": span("gluing.detect_free", api["gluing.detect_free"], _free_outcome),
    }


def install_counts(tracer: Tracer) -> dict:
    from hwsg.ideals import RelativeIdeal
    from hwsg.semigroup import NumericalSemigroup

    NumericalSemigroup.contains = tracer.count("semigroup.contains", NumericalSemigroup.contains)
    RelativeIdeal.contains = tracer.count("ideals.contains", RelativeIdeal.contains)
    return harness_api()


# -- aggregation ------------------------------------------------------------


def read_spans(run_dir: Path) -> list:
    rows = []
    with open(run_dir / SPANS_FILE) as fh:
        for line in fh:
            name, start, end, parent, request = line.rstrip("\n").split("\t")
            rows.append((name, float(start), float(end), int(parent), int(request)))
    return rows


def aggregate(rows: list) -> dict:
    """Per span name: calls, self seconds, durations and the names of the
    parents of its spans."""
    child = [0.0] * len(rows)
    for name, start, end, parent, _ in rows:
        if parent >= 0:
            child[parent] += end - start
    out: dict = {}
    for i, (name, start, end, parent, _) in enumerate(rows):
        entry = out.setdefault(
            name, {"calls": 0, "self_s": 0.0, "durations": [], "parents": {}}
        )
        duration = end - start
        entry["calls"] += 1
        entry["self_s"] += duration - child[i]
        entry["durations"].append(duration)
        pname = rows[parent][0] if parent >= 0 else None
        entry["parents"][pname] = entry["parents"].get(pname, 0) + 1
    return out


def percentile_ms(durations: list, q: float) -> float:
    """Nearest-rank percentile in milliseconds; 0 without samples."""
    if not durations:
        return 0.0
    ordered = sorted(durations)
    rank = max(1, math.ceil(round(q * len(ordered), 9)))
    return ordered[rank - 1] * 1e3


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(agg: dict, counts: dict, contains: dict) -> dict:
    """The per-layer metrics a traced process can give on its own; the
    caller adds the ones derived from untraced runs."""

    def calls(name):
        return agg.get(name, {}).get("calls", 0)

    def self_s(name):
        return agg.get(name, {}).get("self_s", 0.0)

    def durations(*names):
        return [d for n in names for d in agg.get(n, {}).get("durations", [])]

    m: dict = {}
    for op in ("intersect", "subtract", "add", "from_generators"):
        m[f"ideals.{op}.calls"] = calls(f"ideals.{op}")
        m[f"ideals.{op}.self_s"] = self_s(f"ideals.{op}")
    m["ideals.dual.calls"] = calls("ideals.dual")
    m["ideals.contains.calls"] = contains.get("ideals.contains", 0)

    m["semigroup.from_generators.calls"] = calls("semigroup.from_generators")
    m["semigroup.from_generators.self_s"] = self_s("semigroup.from_generators")
    m["semigroup.contains.calls"] = contains.get("semigroup.contains", 0)

    hw_calls = durations("hw.is_huneke_wiegand")
    per_semigroup = durations("hw.check_all_two_generated", "hw.check_all_ideals")
    m["hw.is_huneke_wiegand.calls"] = calls("hw.is_huneke_wiegand")
    m["hw.is_huneke_wiegand.self_s"] = self_s("hw.is_huneke_wiegand")
    m["hw.is_huneke_wiegand.p50_ms"] = percentile_ms(hw_calls, 0.50)
    m["hw.is_huneke_wiegand.p99_ms"] = percentile_ms(hw_calls, 0.99)
    m["hw.per_semigroup.p50_ms"] = percentile_ms(per_semigroup, 0.50)
    m["hw.per_semigroup.p99_ms"] = percentile_ms(per_semigroup, 0.99)
    partitions = counts.get("hw.partitions_checked", 0)
    m["hw.partitions_checked"] = partitions
    m["hw.witness_yield"] = _ratio(counts.get("hw.verdicts.hw", 0), partitions)
    for verdict in ("hw", "not_hw", "principal"):
        m[f"hw.verdicts.{verdict}"] = counts.get(f"hw.verdicts.{verdict}", 0)

    seq = "sequences.find_irreducible_two_step"
    m[f"{seq}.calls"] = calls(seq)
    m[f"{seq}.self_s"] = self_s(seq)
    m["sequences.yield"] = _ratio(counts.get("sequences.found", 0), calls(seq))
    m["sequences.bound_escalations"] = counts.get("sequences.bound_escalations", 0)

    ci, free = "gluing.detect_complete_intersection", "gluing.detect_free"
    m[f"{ci}.calls"] = calls(ci)
    m[f"{ci}.self_s"] = self_s(ci)
    m[f"{free}.calls"] = calls(free)
    m[f"{free}.self_s"] = self_s(free)
    m["gluing.ci.found"] = counts.get("gluing.ci.found", 0)
    m["gluing.free.found"] = counts.get("gluing.free.found", 0)
    m["gluing.ci.yield"] = _ratio(m["gluing.ci.found"], calls(ci))
    builds = agg.get("semigroup.from_generators", {}).get("parents", {}).get(ci, 0)
    m["gluing.ci.from_generators_per_call"] = _ratio(builds, calls(ci))
    m["gluing.input.symmetric_share"] = _ratio(counts.get("gluing.input.symmetric", 0), calls(ci))

    nodes = counts.get("enumeration.corpus.nodes", 0)
    kept = counts.get("enumeration.corpus.items", 0)
    m["enumeration.corpus.nodes"] = nodes
    m["enumeration.corpus.kept"] = kept
    m["enumeration.corpus.keep_ratio"] = _ratio(kept, nodes)
    m["enumeration.corpus.self_s"] = self_s("enumeration.corpus")
    m["enumeration.verify.self_s"] = self_s("enumeration.verify")
    return m
