"""Command-line front end.

Subcommands: group-info, verify, entropy, husimi, channel, minimize, scan.
Each takes --group and only the options it reads (`_READS`); any other
option, and any abbreviation of an option, is an argparse error. One size
guard runs for every subcommand, before any subgroup, frame or state is
built: |G| above the dense-matrix limit is an input error. Reports go to stdout (JSON by default, CSV where
tabular); diagnostics go to stderr. Exit codes: 0 success, 1 verification
failure, 2 input error. Identical invocations (including --seed) produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from functools import lru_cache

import numpy as np

from . import limits
from .entropy import entropy_report, husimi, husimi_fast, measurement_channel
from .frames import CoherentFrame
from .groups import (
    FiniteAbelianGroup,
    Subgroup,
    all_subgroups,
    annihilator,
    is_corwin,
    parse_generators,
    parse_group,
    parse_point,
    subgroup_closure,
)
from .io import density_matrix_to_json, entropy_report_to_json, husimi_to_csv, load_state_file
from .minimize import MinimizerConfig, minimize, scan_fiducials
from .states import check_state_vector, maximally_mixed, pure_density, random_state_vector
from .verify import run_checks

__all__ = ["build_parser", "main"]

# criterion 10's gate on the minimum entropy; `minimize --trace` reports each
# restart's margin to it as log10(gate / entropy)
_ENTROPY_GATE = 1e-6


def _subgroup_from_args(group: FiniteAbelianGroup, text: str | None) -> Subgroup:
    if text is None:
        return Subgroup.whole(group)
    return subgroup_closure(group, parse_generators(group, text))


def _resolve_state(frame: CoherentFrame, text: str):
    """Parse a --state value into ("vector" | "density", array)."""
    group = frame.group
    if text == "maximally_mixed":
        return "density", maximally_mixed(group.order)
    if text.startswith("coherent:"):
        z = parse_point(group, text[len("coherent:"):])
        return "vector", frame.state(z)
    if text.startswith("random:"):
        rng = np.random.default_rng(int(text[len("random:"):]))
        return "vector", random_state_vector(group.order, rng)
    kind, arr = load_state_file(text)
    if kind == "vector":
        check_state_vector(arr, dim=group.order)
    # a density matrix is validated where it is used, by the command's numerics
    return kind, arr


def _state_density(frame: CoherentFrame, text: str) -> np.ndarray:
    kind, arr = _resolve_state(frame, text)
    return pure_density(arr) if kind == "vector" else arr


def cmd_group_info(args: argparse.Namespace, group: FiniteAbelianGroup) -> int:
    subs = all_subgroups(group)
    rows = [
        {
            "elements": str(H),
            "order": H.order,
            "annihilator_order": annihilator(H).order,
            "corwin": is_corwin(H),
        }
        for H in subs
    ]
    if args.output == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["elements", "order", "annihilator_order", "corwin"])
        for row in rows:
            writer.writerow(
                [row["elements"], row["order"], row["annihilator_order"], row["corwin"]]
            )
        return 0
    payload = {
        "group": str(group),
        "order": group.order,
        "factors": list(group.orders),
        "dual": str(group),
        "subgroup_count": len(subs),
        "subgroups": rows,
    }
    print(json.dumps(payload, sort_keys=True))
    return 0


def cmd_verify(args: argparse.Namespace, group: FiniteAbelianGroup) -> int:
    subgroup = _subgroup_from_args(group, args.subgroup)
    results = run_checks(group, subgroup, seed=args.seed)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"{r.name:<{width}}  {status}  residual={r.residual:.3e}  tol={r.tolerance:.3e}"
        if r.note:
            line += f"  ({r.note})"
        print(line)
    failures = sum(not r.passed for r in results)
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 1 if failures else 0


def cmd_entropy(args: argparse.Namespace, group: FiniteAbelianGroup) -> int:
    frame = CoherentFrame.vacuum(_subgroup_from_args(group, args.subgroup))
    rho = _state_density(frame, args.state)
    report = entropy_report(frame, rho, log_base=args.log_base)
    if args.output == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["wehrl", "von_neumann", "gap", "log_base"])
        writer.writerow(
            [repr(report.wehrl), repr(report.von_neumann), repr(report.gap), report.log_base]
        )
        return 0
    print(entropy_report_to_json(report))
    return 0


def cmd_husimi(args: argparse.Namespace, group: FiniteAbelianGroup) -> int:
    frame = CoherentFrame.vacuum(_subgroup_from_args(group, args.subgroup))
    kind, arr = _resolve_state(frame, args.state)
    table = husimi_fast(frame, arr) if kind == "vector" else husimi(frame, arr)
    sys.stdout.write(husimi_to_csv(table))
    return 0


def cmd_channel(args: argparse.Namespace, group: FiniteAbelianGroup) -> int:
    frame = CoherentFrame.vacuum(_subgroup_from_args(group, args.subgroup))
    rho = _state_density(frame, args.state)
    print(density_matrix_to_json(measurement_channel(frame, rho)))
    return 0


def cmd_minimize(args: argparse.Namespace, group: FiniteAbelianGroup) -> int:
    subgroup = _subgroup_from_args(group, args.subgroup)
    config = MinimizerConfig(seed=args.seed)
    result = minimize(CoherentFrame.vacuum(subgroup), config)
    payload = {
        "group": str(group),
        "subgroup": str(subgroup),
        "fiducial_kind": "vacuum",
        "best_entropy": float(result.best_entropy),
        "overlap": float(result.nearest_overlap),
        "iterations": int(result.iterations),
        "seed": config.seed,
    }
    print(json.dumps(payload, sort_keys=True))
    if args.trace:
        _trace_restarts(result)
    return 0


def _trace_restarts(result) -> None:
    """One JSON line per restart on stderr, in restart order."""
    for i, entropy in enumerate(result.restart_entropies.tolist()):
        line = {
            "restart": i,
            "iterations": int(result.restart_iterations[i]),
            "halvings": int(result.restart_halvings[i]),
            "entropy": entropy,
            # null where the entropy is 0: the margin is unbounded
            "gate_margin_log10": float(np.log10(_ENTROPY_GATE / entropy)) if entropy > 0 else None,
            "grad_norm": float(result.restart_grad_norms[i]),
            "overlap": float(result.restart_overlaps[i]),
            "converged": bool(result.restart_converged[i]),
        }
        print(json.dumps(line, sort_keys=True), file=sys.stderr)


def cmd_scan(args: argparse.Namespace, group: FiniteAbelianGroup) -> int:
    subgroup = _subgroup_from_args(group, args.subgroup)
    report = scan_fiducials(subgroup, MinimizerConfig(seed=args.seed))
    print(json.dumps(report, sort_keys=True))
    return 0


_COMMANDS = {
    "group-info": (cmd_group_info, "print group order, dual, and subgroup lattice"),
    "verify": (cmd_verify, "run the invariant suite for one (group, subgroup)"),
    "entropy": (cmd_entropy, "Wehrl and von Neumann entropies of a state"),
    "husimi": (cmd_husimi, "emit the Husimi table as CSV"),
    "channel": (cmd_channel, "apply the coherent-state measurement channel"),
    "minimize": (cmd_minimize, "search for the Wehrl entropy minimum"),
    "scan": (cmd_scan, "compare minima across vacuum and random fiducials"),
}


# every option besides --group, and the options each subcommand reads: a
# subcommand accepts exactly --group and its own entries
_OPTIONS = {
    "--subgroup": {"help": "generator list, e.g. '2' or '1,0;0,1'; default: the whole group"},
    "--state": {
        "required": True,
        "help": "maximally_mixed | coherent:<g;lambda> | random:<seed> | file path",
    },
    "--log-base": {"choices": ("e", "2"), "default": "e"},
    "--output": {"choices": ("json", "csv"), "default": "json"},
    "--seed": {"type": int, "default": 0},
    "--trace": {"action": "store_true", "help": "write one JSON line per restart to stderr"},
}
_READS = {
    "group-info": ("--output",),
    "verify": ("--subgroup", "--seed"),
    "entropy": ("--subgroup", "--state", "--log-base", "--output"),
    "husimi": ("--subgroup", "--state"),
    "channel": ("--subgroup", "--state"),
    "minimize": ("--subgroup", "--seed", "--trace"),
    "scan": ("--subgroup", "--seed"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wehrl",
        description="Weyl systems, coherent-state frames, and Wehrl entropy "
        "over finite abelian groups.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.add_argument("--group", required=True, help="group spec, e.g. Z4 or Z2xZ2")
        for option in _READS[name]:
            p.add_argument(option, **_OPTIONS[option])
    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    # parse_args leaves the parser unchanged, so one per process serves every call
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has already written its message
        code = exc.code
        return code if isinstance(code, int) else 2
    # argparse drops "--" from an attached value (--subgroup=--) and hands
    # the option an empty list in place of its one string
    for name, value in vars(args).items():
        if isinstance(value, list):
            print(f"error: argument --{name.replace('_', '-')}: expected one argument",
                  file=sys.stderr)
            return 2
    func, _ = _COMMANDS[args.subcommand]
    try:
        group = parse_group(args.group)
        # the one size guard of every subcommand, before any subgroup, frame
        # or state is built
        limits.require_dense("|G|", group.order)
        return func(args, group)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
