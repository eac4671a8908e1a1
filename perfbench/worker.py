"""One repetition of one workload, in the fresh interpreter it runs in.

    python3 perfbench/worker.py KIND JOBS RUN_DIR MODE

KIND is corpus, all-ideals or classify; MODE is plain (untraced), spans or
counts.  Inputs come from RUN_DIR/inputs.json, and RUN_DIR/result.json gets
the time the workload call took in this process and its output.  The
benchmark's run.py starts this; it is not meant to be run by hand.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from workloads import corpus_argv

SRC = Path(__file__).resolve().parent.parent / "src"


def run_corpus(api, inputs, run_dir: Path, jobs: int):
    code = api["cli.run"](corpus_argv(jobs, str(run_dir / "out.jsonl")))
    if code != 0:
        raise SystemExit(code)
    return []


def run_all_ideals(api, inputs, run_dir, jobs):
    from hwsg.semigroup import NumericalSemigroup

    out = []
    for gens in inputs:
        scan = api["hw.check_all_ideals"](NumericalSemigroup.from_generators(gens))
        out.append([gens, scan.total, scan.principal, scan.hw, len(scan.not_hw)])
    return out


def run_classify(api, inputs, run_dir, jobs):
    from hwsg.semigroup import NumericalSemigroup

    out = []
    for gens in inputs:
        gamma = NumericalSemigroup.from_generators(gens)
        ci = api["gluing.detect_complete_intersection"](gamma)
        free = api["gluing.detect_free"](gamma)
        out.append([gens, ci.to_json() if ci else None, free.to_json() if free else None])
    return out


RUNNERS = {"corpus": run_corpus, "all-ideals": run_all_ideals, "classify": run_classify}


def main() -> None:
    kind, jobs, run_dir, mode = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]), sys.argv[4]
    import hwsg

    if Path(hwsg.__file__).resolve().parent != SRC.resolve() / "hwsg":
        raise SystemExit(f"hwsg imported from {hwsg.__file__}, not from {SRC}")
    import spans

    tracer = spans.Tracer()
    if mode == "plain":
        api = spans.harness_api()
    elif mode == "spans":
        api = spans.install_spans(tracer)
    else:
        api = spans.install_counts(tracer)
    inputs = json.loads((run_dir / "inputs.json").read_text())

    start = time.perf_counter()
    output = RUNNERS[kind](api, inputs, run_dir, jobs)
    inner = time.perf_counter() - start

    (run_dir / "result.json").write_text(json.dumps({"inner_s": inner, "output": output}))
    if mode != "plain":
        tracer.dump(run_dir)


if __name__ == "__main__":
    main()
