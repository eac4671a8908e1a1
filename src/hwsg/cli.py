"""Command-line front door.

Every subcommand validates its inputs, runs the library operation and emits
JSON with sorted keys (or a short text rendering with --format text).
Exit codes: 0 success, 1 domain error (structured error JSON on stderr),
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from . import enumeration, gluing, hw, ideals, semigroup, sequences
from .errors import DomainError


def _parse_int_list(text: str) -> list[int]:
    text = text.strip()
    if text.startswith("{") or text.startswith("["):
        data = json.loads(text)
        if isinstance(data, dict):
            data = data.get("generators")
        if not isinstance(data, list):
            raise argparse.ArgumentTypeError(f"no generator list in {text!r}")
        return [int(x) for x in data]
    if text.startswith("<") and text.endswith(">"):
        text = text[1:-1]
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse integer list {text!r}")


def _at_least(minimum: int):
    """An argparse type: an integer >= minimum."""

    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return integer


def _semigroup(args) -> semigroup.NumericalSemigroup:
    return semigroup.NumericalSemigroup.from_generators(args.semigroup)


def _ideal(gamma, gens) -> ideals.RelativeIdeal:
    return ideals.RelativeIdeal.from_generators(gamma, gens)


def _emit(args, payload: dict) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for key in sorted(payload):
            print(f"{key}: {payload[key]}")


# -- subcommand handlers -------------------------------------------------


def _cmd_info(args) -> dict:
    return _semigroup(args).to_json()


def _cmd_apery(args) -> dict:
    gamma = _semigroup(args)
    target = _ideal(gamma, args.ideal) if args.ideal else gamma
    ap = target.apery(args.modulus)
    return {"modulus": ap.modulus, "elements": ap.sorted()}


def _cmd_delta(args) -> dict:
    if args.set is not None:
        return {"delta": sorted(semigroup.delta_set(args.set))}
    gamma = _semigroup(args)
    stable = semigroup.stable_delta_intersection(gamma)
    return {"semigroup": gamma.to_json(), "stable_delta_intersection": sorted(stable)}


def _cmd_ideal(args) -> dict:
    gamma = _semigroup(args)
    ideal = _ideal(gamma, args.ideal)
    if args.add:
        ideal = ideal + _ideal(gamma, args.add)
    if args.union:
        ideal = ideal | _ideal(gamma, args.union)
    if args.intersect:
        ideal = ideal & _ideal(gamma, args.intersect)
    if args.subtract:
        ideal = ideal - _ideal(gamma, args.subtract)
    if args.shift:
        ideal = ideal.shift(args.shift)
    if args.dual:
        ideal = ideal.dual()
    payload = ideal.to_json()
    payload["conductor"] = ideal.conductor
    payload["principal"] = ideal.is_principal()
    return payload


def _cmd_hw_check(args) -> dict:
    gamma = _semigroup(args)
    return hw.is_huneke_wiegand(_ideal(gamma, args.ideal)).to_json()


def _cmd_hw_scan(args) -> dict:
    gamma = _semigroup(args)
    if args.two_generated:
        return hw.check_all_two_generated(gamma).to_json()
    return hw.check_all_ideals(gamma, args.max_gens).to_json()


def _cmd_seq(args) -> dict:
    gamma = _semigroup(args)
    stats: dict = {}
    seq = sequences.find_irreducible_two_step(gamma, args.step, args.bound, stats)
    return {
        "found": seq is not None,
        "x": seq.start if seq else None,
        "terms": list(seq.terms) if seq else None,
        "candidates_checked": stats.get("candidates_checked", 0),
    }


def _cmd_glue(args) -> dict:
    left = semigroup.NumericalSemigroup.from_generators(args.left)
    right = semigroup.NumericalSemigroup.from_generators(args.right)
    g = gluing.glue(left, args.a1, right, args.a2)
    return {
        "left": list(left.minimal_generators),
        "a1": g.a1,
        "right": list(right.minimal_generators),
        "a2": g.a2,
        "glued": g.glued.to_json(),
    }


def _cmd_classify(args) -> dict:
    gamma = _semigroup(args)
    free = gluing.detect_free(gamma)
    ci = gluing.detect_complete_intersection(gamma)
    return {
        "semigroup": gamma.to_json(),
        "free": free.to_json() if free else None,
        "complete_intersection": ci.to_json() if ci else None,
    }


def _cmd_corpus(args) -> dict:
    spec = enumeration.CorpusSpec(
        mode=args.mode,
        bound=args.bound,
        max_genus=args.max_genus,
        cross_check=not args.no_cross_check,
        jobs=args.jobs,
        output=args.out,
    )
    return enumeration.verify_hw_corpus(spec).to_json()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hwsg",
        description="Huneke-Wiegand checks for numerical semigroups",
    )
    parser.add_argument("--format", choices=["json", "text"], default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    def sg_arg(p):
        p.add_argument(
            "--semigroup", type=_parse_int_list, required=True, metavar="G1,G2,..."
        )

    p = sub.add_parser("info", help="basic invariants of a semigroup")
    sg_arg(p)
    p.set_defaults(handler=_cmd_info)

    p = sub.add_parser("apery", help="Apery set w.r.t. a nonzero member")
    sg_arg(p)
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--ideal", type=_parse_int_list, default=None)
    p.set_defaults(handler=_cmd_apery)

    p = sub.add_parser("delta", help="delta set / stable delta intersection")
    p.add_argument("--semigroup", type=_parse_int_list, default=None)
    p.add_argument("--set", type=_parse_int_list, default=None)
    p.set_defaults(handler=_cmd_delta)

    p = sub.add_parser("ideal", help="relative ideal arithmetic")
    sg_arg(p)
    p.add_argument("--ideal", type=_parse_int_list, required=True)
    p.add_argument("--add", type=_parse_int_list, default=None)
    p.add_argument("--union", type=_parse_int_list, default=None)
    p.add_argument("--intersect", type=_parse_int_list, default=None)
    p.add_argument("--subtract", type=_parse_int_list, default=None)
    p.add_argument("--shift", type=int, default=0)
    p.add_argument("--dual", action="store_true")
    p.set_defaults(handler=_cmd_ideal)

    p = sub.add_parser("hw", help="Huneke-Wiegand checks")
    hw_sub = p.add_subparsers(dest="hw_command", required=True)
    pc = hw_sub.add_parser("check", help="check a single relative ideal")
    sg_arg(pc)
    pc.add_argument("--ideal", type=_parse_int_list, required=True)
    pc.set_defaults(handler=_cmd_hw_check)
    ps = hw_sub.add_parser("scan", help="check all ideals up to translation")
    sg_arg(ps)
    ps.add_argument("--max-gens", type=int, default=None)
    ps.add_argument(
        "--two-generated",
        action="store_true",
        help="restrict to the normalized two-generated ideals (0, s)",
    )
    ps.set_defaults(handler=_cmd_hw_scan)

    p = sub.add_parser("seq", help="search for an irreducible two-step sequence")
    seq_sub = p.add_subparsers(dest="seq_command", required=True)
    pi = seq_sub.add_parser("irreducible")
    sg_arg(pi)
    pi.add_argument("--step", type=int, required=True)
    pi.add_argument("--bound", type=int, default=None)
    pi.set_defaults(handler=_cmd_seq)

    p = sub.add_parser("glue", help="glue two semigroups")
    p.add_argument("--left", type=_parse_int_list, required=True)
    p.add_argument("--a1", type=int, required=True)
    p.add_argument("--right", type=_parse_int_list, required=True)
    p.add_argument("--a2", type=int, required=True)
    p.set_defaults(handler=_cmd_glue)

    p = sub.add_parser("classify", help="free / complete-intersection trees")
    sg_arg(p)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("corpus", help="batch verification over a corpus")
    corpus_sub = p.add_subparsers(dest="corpus_command", required=True)
    pv = corpus_sub.add_parser("verify")
    pv.add_argument(
        "--mode",
        choices=["symmetric", "genus-tree"],
        default="symmetric",
    )
    pv.add_argument("--bound", type=_at_least(1), default=40)
    pv.add_argument("--max-genus", type=_at_least(0), default=8)
    pv.add_argument("--no-cross-check", action="store_true")
    # argparse converts a string default only when the option is absent,
    # so a bad HW_JOBS is a usage error of this subcommand alone
    pv.add_argument(
        "--jobs",
        type=_at_least(1),
        default=os.environ.get("HW_JOBS", "1"),
        help="worker processes (default: HW_JOBS, else 1)",
    )
    pv.add_argument("--out", default=None)
    pv.set_defaults(handler=_cmd_corpus)
    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "command", None) == "corpus":
        args.mode = {"symmetric": "symmetric-below"}.get(args.mode, args.mode)
    try:
        payload = args.handler(args)
    except DomainError as exc:
        print(
            json.dumps({"error": exc.code, "message": str(exc)}, sort_keys=True),
            file=sys.stderr,
        )
        return 1
    _emit(args, payload)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
