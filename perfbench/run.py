"""The hwsg benchmark.

    python3 perfbench/run.py                       # every workload, untraced
    python3 perfbench/run.py --workload sym40 --seed 3 --seconds 15 --trace 0
    python3 perfbench/run.py --trace 1             # per-layer numbers
    python3 perfbench/run.py --compare BASE.log NEW.log

Run it from the root of a source tree; it imports hwsg from ``src/`` there
and writes only under ``.bench_tmp/`` there.  Workloads, metrics, units and
bounds are in BENCHMARK.json; inputs and references are in ``data/``.

Untraced (``--trace 0``): every repetition runs the workload in a fresh
interpreter (``worker.py``), so the ``lru_cache`` in ``gluing`` starts cold as
in a CLI call, and writes to a fresh directory.  Repetitions run one at a
time until ``--seconds`` is used, at least three; each metric is the median
over them.  ``setup_s`` is the median time of fresh interpreters that import
hwsg and build the CLI parser.  Every repetition's output is checked against
the reference; an item fails if it is wrong, missing or flagged as a
counterexample, and every item of a repetition that did not finish fails.

Traced (``--trace 1``): untraced repetitions for the baselines, then one
serial in-process run recording spans at the layer boundaries (``spans.py``)
and one more counting ``contains`` calls.  For sym40-j2 the traced run is
the serial command, since spans are recorded in one process.

Every run prints a ``record`` line (seed, input digest, commit, Python,
CPU count, load average and per-repetition values) and, last, one JSON
object with the keys correct, attempted, failed and metrics.  ``--compare``
reads the record lines of two sets of runs, one file or directory each.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".bench_tmp"

SETUP_PROBES = 15
MIN_REPS = 3
RUN_BUDGET_S = 165  # a run ends well inside the 180 s it is allowed
SETUP_CODE = "import hwsg.cli; hwsg.cli.build_parser()"


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# -- child processes ----------------------------------------------------------


@dataclass
class Proc:
    ok: bool
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def spawn(argv: list[str], run_dir: Path, timeout: float) -> Proc:
    """Run one child to completion through launch.py, which measures it."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0", TMPDIR=str(run_dir))
    env.pop("HW_JOBS", None)
    timeout = max(timeout, 0.1)
    subprocess.run(
        [sys.executable, str(HERE / "launch.py"), str(run_dir), repr(timeout), *argv],
        cwd=ROOT, env=env, stdin=subprocess.DEVNULL, timeout=timeout + 30, check=True,
    )
    return Proc(**json.loads((run_dir / "usage.json").read_text()))


@dataclass
class Rep:
    proc: Proc
    inner_s: float
    failed: int
    detail: dict = field(default_factory=dict)


def repetition(prepared: workloads.Inputs, mode: str, jobs: int, deadline: float) -> Rep:
    run_dir = Path(tempfile.mkdtemp(prefix="rep-", dir=TMP))
    try:
        (run_dir / "inputs.json").write_text(json.dumps(prepared.inputs))
        argv = [
            sys.executable, str(HERE / "worker.py"),
            prepared.workload.kind, str(jobs), str(run_dir), mode,
        ]
        proc = spawn(argv, run_dir, deadline - time.monotonic())
        result_path = run_dir / "result.json"
        result = json.loads(result_path.read_text()) if proc.ok and result_path.exists() else None
        if result is None:
            tail = (run_dir / "stderr.txt").read_text(errors="replace").strip().splitlines()
            print(f"  {prepared.workload.name} {mode}: child failed: {tail[-1] if tail else proc}")
        failed = workloads.failures(prepared, run_dir, result and result["output"])
        detail: dict = {}
        if mode == "spans" and result is not None:
            detail["aggregate"] = spans.aggregate(spans.read_spans(run_dir))
        if mode != "plain" and result is not None:
            detail["counts"] = json.loads((run_dir / spans.COUNTS_FILE).read_text())
        out = run_dir / "out.jsonl"
        detail["jsonl_bytes"] = out.stat().st_size if out.exists() else 0
        return Rep(proc, result["inner_s"] if result else 0.0, failed, detail)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def setup_times(deadline: float) -> list[float]:
    """Fresh interpreters importing hwsg and building the CLI parser; the
    first one only fills the bytecode cache and is not counted."""
    times = []
    for i in range(SETUP_PROBES + 1):
        run_dir = Path(tempfile.mkdtemp(prefix="setup-", dir=TMP))
        try:
            proc = spawn([sys.executable, "-c", SETUP_CODE], run_dir, deadline - time.monotonic())
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        if not proc.ok:
            raise BenchError("a fresh interpreter could not import hwsg from src/")
        if i:
            times.append(proc.wall_s)
    return times


def repeat(preps: list, seconds: float, min_reps: int, deadline: float) -> list[list[Rep]]:
    """Untraced repetitions, the workloads in `preps` taking turns, until
    `seconds` are used (at least `min_reps` turns) or the run's budget ends."""
    reps: list[list[Rep]] = [[] for _ in preps]
    start = time.monotonic()
    while True:
        turn = 0.0
        for prepared, out in zip(preps, reps):
            rep = repetition(prepared, "plain", prepared.workload.jobs, deadline)
            out.append(rep)
            turn += rep.proc.wall_s
        now = time.monotonic()
        done = len(reps[0]) >= min_reps and now - start + turn > seconds
        if done or now + 2 * turn > deadline:
            return reps


# -- metrics ------------------------------------------------------------------


def end_to_end(prepared: workloads.Inputs, reps: list[Rep], setup: list[float]) -> tuple[dict, dict]:
    samples = {
        "setup_s": setup,
        "wall_s": [r.proc.wall_s for r in reps],
        "items_per_s": [prepared.items / r.proc.wall_s for r in reps],
        "cpu_s": [r.proc.cpu_s for r in reps],
        "peak_rss_mb": [r.proc.peak_rss_mb for r in reps],
    }
    return {name: statistics.median(values) for name, values in samples.items()}, samples


def per_layer(traced: Rep, counted: Rep, base: list[Rep], pool: list[list[Rep]]) -> dict:
    """Per-layer metrics of one traced run.  `base` are untraced runs of the
    command the traced run executed; `pool` the untraced sym40 and sym40-j2
    runs of a corpus workload, empty otherwise."""
    metrics = spans.layer_metrics(
        traced.detail.get("aggregate", {}),
        traced.detail.get("counts", {}),
        counted.detail.get("counts", {}),
    )
    metrics["enumeration.jsonl_bytes"] = traced.detail.get("jsonl_bytes", 0)
    metrics["enumeration.pool.scaling_eff"] = 0.0
    metrics["enumeration.pool.cpu_overhead_s"] = 0.0
    if pool:
        serial, parallel = pool
        metrics["enumeration.pool.scaling_eff"] = statistics.median(
            r.proc.wall_s for r in serial
        ) / (2 * statistics.median(r.proc.wall_s for r in parallel))
        metrics["enumeration.pool.cpu_overhead_s"] = statistics.median(
            r.proc.cpu_s for r in parallel
        ) - statistics.median(r.proc.cpu_s for r in serial)
    metrics["cli.trace_overhead_s"] = traced.inner_s - statistics.median(r.inner_s for r in base)
    return metrics


# -- one workload -----------------------------------------------------------------


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
            )
            commit = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "commit": commit,
        "source_sha256": workloads.source_digest(SRC),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    workload = workloads.WORKLOADS[name]
    prepared = workloads.prepare(workload, seed)
    env = environment()
    if prepared.seed_used:
        print(f"{name}: seed {seed}, {prepared.items} {workload.item}s, inputs {prepared.digest}")
    else:
        print(f"{name}: seed {seed} unused (the corpus is fixed by definition), "
              f"{prepared.items} {workload.item}s")

    if not trace:
        setup = setup_times(deadline)
        reps = repeat([prepared], seconds, MIN_REPS, deadline)[0]
        metrics, samples = end_to_end(prepared, reps, setup)
        runs = reps
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    else:
        if workload.kind == "corpus":
            serial = workloads.prepare(workloads.WORKLOADS["sym40"], seed)
            parallel = workloads.prepare(workloads.WORKLOADS["sym40-j2"], seed)
            pool = repeat([serial, parallel], seconds, 1, deadline)
            base, traced_as = pool[0], serial
            runs = pool[0] + pool[1]
        else:
            pool = []
            base = repeat([prepared], seconds, 1, deadline)[0]
            traced_as, runs = prepared, list(base)
        traced = repetition(traced_as, "spans", 1, deadline)
        counted = repetition(traced_as, "counts", 1, deadline)
        runs += [traced, counted]
        metrics = per_layer(traced, counted, base, pool)
        samples = {}
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}

    if set(metrics) != set(units):
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    attempted = prepared.items * len(runs)
    failed = sum(r.failed for r in runs)
    for metric, value in metrics.items():
        extra = f"  (median of {len(samples[metric])})" if samples.get(metric) else ""
        shown = f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6g}"
        print(f"  {metric:<44} {shown} {units[metric]}{extra}")
    print(f"  {'fail_rate':<44} {failed / attempted:>14.6g} ratio  ({failed} of {attempted} failed)")
    env["loadavg_end"] = list(os.getloadavg())
    record = {
        "workload": name, "seed": seed, "seed_used": prepared.seed_used,
        "inputs_digest": prepared.digest, "items": prepared.items, "trace": int(trace),
        "seconds": seconds, "reps": len(runs), "attempted": attempted, "failed": failed,
        "metrics": metrics, "samples": samples, "env": env,
    }
    print("record " + json.dumps(record, sort_keys=True))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


# -- compare mode -------------------------------------------------------------------


def load_records(path: Path) -> list[dict]:
    files = sorted(p for p in path.iterdir() if p.is_file()) if path.is_dir() else [path]
    records = []
    for file in files:
        for line in file.read_text(errors="replace").splitlines():
            if line.startswith("record "):
                records.append(json.loads(line[len("record "):]))
    return records


def series(records: list[dict]) -> dict:
    """(workload, metric) -> {(seed, occurrence): value}, with the derived
    pool scaling efficiency of every seed that ran both corpus workloads."""
    out: dict = {}
    for rec in records:
        for metric, value in rec["metrics"].items():
            values = out.setdefault((rec["workload"], metric), {})
            n = sum(1 for seed, _ in values if seed == rec["seed"])
            values[(rec["seed"], n)] = value
    serial = out.get(("sym40", "wall_s"), {})
    parallel = out.get(("sym40-j2", "wall_s"), {})
    derived = {k: serial[k] / (2 * parallel[k]) for k in serial.keys() & parallel.keys()}
    if derived:
        out[("sym40+sym40-j2", "enumeration.pool.scaling_eff")] = derived
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], new: list[float], higher_better: bool) -> tuple[str, int]:
    """The pair-win rule: a side wins a pair when it is better, ties count
    for neither; a verdict needs at least ten pairs, nine tenths of them
    won, and medians further apart than the base's quartile spread."""
    sign = 1 if higher_better else -1
    new_wins = sum(sign * (n - b) > 0 for b, n in zip(base, new))
    base_wins = sum(sign * (b - n) > 0 for b, n in zip(base, new))
    q1, med_base, q3 = quartiles(base)
    med_new = statistics.median(new)
    if len(base) >= 10 and abs(med_new - med_base) > q3 - q1:
        if new_wins >= 0.9 * len(base) and sign * (med_new - med_base) > 0:
            return "improved", new_wins
        if base_wins >= 0.9 * len(base) and sign * (med_new - med_base) < 0:
            return "regressed", new_wins
    return "unresolved", new_wins


def compare(base_path: Path, new_path: Path, spec: dict) -> None:
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = series(load_records(base_path)), series(load_records(new_path))
    print(f"{'workload':<16} {'metric':<44} {'pairs':>5}  {'base median [q1, q3]':<34}"
          f"{'new median [q1, q3]':<34}{'new/base':>9} {'wins':>5}  verdict")
    for key in sorted(base.keys() & new.keys()):
        pairs = sorted(base[key].keys() & new[key].keys())
        if not pairs or key[1] not in better:
            continue
        b = [base[key][p] for p in pairs]
        n = [new[key][p] for p in pairs]
        word, wins = verdict(b, n, better[key[1]] == "higher")
        bq, nq = quartiles(b), quartiles(n)
        ratio = nq[1] / bq[1] if bq[1] else float("nan")
        cells = [f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]" for q in (bq, nq)]
        print(f"{key[0]:<16} {key[1]:<44} {len(pairs):>5}  {cells[0]:<34}{cells[1]:<34}"
              f"{ratio:>9.4f} {wins:>5}  {word}")


# -- entry point ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hwsg benchmark")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        raise BenchError(f"{spec_path} is missing")
    spec = json.loads(spec_path.read_text())
    if args.compare:
        compare(*args.compare, spec)
        return 0
    if not (SRC / "hwsg" / "__init__.py").exists():
        raise BenchError(f"no hwsg sources under {SRC}; run from the root of a source tree")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    TMP.mkdir(exist_ok=True)
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    results = {name: run_workload(name, args.seed, seconds, bool(args.trace), spec) for name in names}
    if args.workload:
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    try:
        TMP.rmdir()
    except OSError:
        pass
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, workloads.DataError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
