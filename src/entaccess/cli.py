"""Command-line front end: experiments, slot runs, and circuit export.

Every experiment subcommand requires an explicit --seed so that repeated
invocations are bitwise reproducible. Numeric output is formatted to 12
significant digits. Output goes to stdout as JSON by default; --out takes
either a bare format name (json, jsonl, csv) for stdout or a file path
whose extension picks the format. Subcommands return their output as text,
or export-circuit as lines made as they are read, and write nothing;
``main`` resolves format and destination and writes it.

Exit status: 0 on success, 2 on usage errors, 1 on internal failures.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from collections.abc import Iterable

from .circuits import circuit_lines, end_node_count
from .protocol import SlotType, run_contention, run_slot
from .session import (
    DEFAULT_SLOT_PATTERN,
    MAX_ORACLE_N,
    SessionConfig,
    anonymity_experiment,
    fairness_experiment,
    run_session,
)
from .statevector import RandomSource

FORMATS = ("json", "jsonl", "csv")

# Lines joined per write when a command's output comes as lines.
_CHUNK_LINES = 4096


def _int_at_least(least: int, text: str, error: str) -> int:
    """``int(text)`` if it is at least ``least``; ``ArgumentTypeError(error)`` for
    anything else, non-integer text included."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(error) from None
    if value < least:
        raise argparse.ArgumentTypeError(error)
    return value


def _nonnegative_int(text: str) -> int:
    return _int_at_least(0, text, "must be a non-negative integer")


def _positive_int(text: str) -> int:
    return _int_at_least(1, text, "must be a positive integer")


def _slot_pattern(text: str) -> tuple[SlotType, ...]:
    """Parse a slot pattern like 'du', 'dudu', or 'downlink,uplink'."""
    text = text.strip().lower()
    if not text:
        raise argparse.ArgumentTypeError("slot pattern must not be empty")
    if set(text) <= {"d", "u"}:
        return tuple(SlotType.DOWNLINK if c == "d" else SlotType.UPLINK for c in text)
    pattern = []
    for token in text.split(","):
        token = token.strip()
        if token in ("d", "down", "downlink"):
            pattern.append(SlotType.DOWNLINK)
        elif token in ("u", "up", "uplink"):
            pattern.append(SlotType.UPLINK)
        else:
            raise argparse.ArgumentTypeError(f"unknown slot type {token!r}")
    return tuple(pattern)


def _round_floats(obj):
    """Pin floats to 12 significant digits so output is format-stable."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _resolve_output(args) -> tuple[str, str | None]:
    """(format, path or None for stdout) from --out/--format."""
    out = args.out
    fmt = args.format
    if out is None:
        return fmt or "json", None
    if out in FORMATS:
        if fmt is not None and fmt != out:
            raise ValueError(f"--out {out} conflicts with --format {fmt}")
        return out, None
    if fmt is None:
        suffix = out.rsplit(".", 1)[-1].lower() if "." in out else ""
        fmt = suffix if suffix in FORMATS else "json"
    return fmt, out


def _dump_json(obj) -> str:
    return json.dumps(_round_floats(obj), sort_keys=True) + "\n"


def _dump_jsonl(records) -> str:
    return "".join(_dump_json(r) for r in records)


def _csv(header: str, rows) -> str:
    return header + "\n" + "".join(",".join(map(str, row)) + "\n" for row in rows)


def _cmd_elect(args, fmt: str) -> str:
    winner, w_outcomes, ancilla = run_contention(args.n, RandomSource(args.seed))
    return _dump_json(
        {
            "n": args.n,
            "seed": args.seed,
            "winner": winner,
            "w_outcomes": list(w_outcomes),
            "ancilla": list(ancilla),
        }
    )


def _cmd_slot(args, fmt: str) -> str:
    record = run_slot(args.n, args.slot_type, None, RandomSource(args.seed)).to_record(0)
    record["seed"] = args.seed
    return _dump_json(record)  # one record: its json and jsonl lines are the same


def _cmd_session(args, fmt: str) -> str:
    config = SessionConfig(n=args.n, seed=args.seed, slots=args.slots, trials=args.trials)
    stats, records = run_session(config, jobs=args.jobs)
    if fmt == "jsonl":
        return _dump_jsonl(records)
    if fmt == "csv":
        rows = ((st, w, c) for st, hist in stats.winner_hist.items() for w, c in hist.items())
        return _csv("slot_type,winner,count", rows)
    doc = stats.to_dict()
    doc["seed"] = args.seed
    doc["slots"] = [st.value for st in config.slots]
    return _dump_json(doc)


def _cmd_fairness(args, fmt: str) -> str:
    result = fairness_experiment(args.n, args.trials, args.seed, jobs=args.jobs)
    if fmt == "csv":
        return _csv("winner,count", sorted(result.histogram.items()))
    return _dump_json(result.to_dict())


def _cmd_anonymity(args, fmt: str) -> str:
    report = anonymity_experiment(args.n)
    if fmt == "csv":
        rows = (
            (st.value, f"{sa.max_deviation:.12g}", sa.view_count, int(sa.vacuous))
            for st, sa in report.per_slot.items()
        )
        return _csv("slot_type,max_deviation,views,vacuous", rows)
    return _dump_json(report.to_dict())


def _cmd_export_circuit(args, fmt) -> Iterable[str]:
    return circuit_lines(end_node_count(args.n))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entaccess",
        description="Entanglement access control experiments on a star quantum network.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, seed=True, trials=False):
        p.add_argument("--n", type=_positive_int, required=True, help="number of end-nodes")
        if seed:
            p.add_argument("--seed", type=_nonnegative_int, required=True,
                           help="RNG seed (required: runs are reproducible, never wall-clock seeded)")
        if trials:
            p.add_argument("--trials", type=_positive_int, required=True, help="trial count")
        p.add_argument("--format", choices=FORMATS, help="output format")
        p.add_argument("--out", help="output: a format name for stdout, or a file path")

    def add_jobs(p):
        p.add_argument("--jobs", type=_positive_int, default=1,
                       help="worker processes for trials, capped at the CPU count "
                            "(output independent of this)")

    p = sub.add_parser("elect", help="run one contention round and report the winner")
    add_common(p)
    p.set_defaults(func=_cmd_elect, formats=("json",))

    for slot_type in SlotType:
        p = sub.add_parser(slot_type.value, help=f"run one {slot_type.value} slot")
        add_common(p)
        p.set_defaults(func=_cmd_slot, slot_type=slot_type, formats=("json", "jsonl"))

    p = sub.add_parser("session", help="run a multi-slot session")
    add_common(p)
    p.add_argument("--trials", type=_positive_int, default=1, help="trial count")
    p.add_argument("--slots", type=_slot_pattern, default=DEFAULT_SLOT_PATTERN,
                   help="slot pattern, e.g. 'du' or 'downlink,uplink' (default du)")
    add_jobs(p)
    p.set_defaults(func=_cmd_session, formats=FORMATS)

    p = sub.add_parser("fairness", help="winner-histogram uniformity experiment")
    add_common(p, trials=True)
    add_jobs(p)
    p.set_defaults(func=_cmd_fairness, formats=("json", "csv"))

    p = sub.add_parser(
        "anonymity", help=f"exhaustive winner-anonymity check (n <= {MAX_ORACLE_N})"
    )
    add_common(p, seed=False)
    p.set_defaults(func=_cmd_anonymity, formats=("json", "csv"))

    p = sub.add_parser("export-circuit", help="emit the contention circuit as a gate list")
    p.add_argument("--n", type=_positive_int, required=True, help="number of end-nodes")
    p.add_argument("--out", help="output file path (default stdout)")
    p.set_defaults(func=_cmd_export_circuit, formats=None)

    return parser


def _write(fh, output: str | Iterable[str]) -> None:
    """Write a command's text, or its lines ``_CHUNK_LINES`` at a time."""
    if isinstance(output, str):
        fh.write(output)
        return
    lines = iter(output)
    while chunk := "".join(itertools.islice(lines, _CHUNK_LINES)):
        fh.write(chunk)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.formats is None:  # export-circuit: --out is a plain path
        fmt, path = None, args.out
    else:
        try:
            fmt, path = _resolve_output(args)
        except ValueError as exc:
            parser.error(str(exc))
        if fmt not in args.formats:
            parser.error(f"{args.command} does not support {fmt} output")
    try:
        output = args.func(args, fmt)
        if path is None:
            _write(sys.stdout, output)
        else:
            with open(path, "w", newline="") as fh:
                _write(fh, output)
    except Exception as exc:  # internal invariant violations and bad values
        print(f"entaccess: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
