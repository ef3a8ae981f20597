"""Record the benchmark's numbers for one or more commits as BENCH_<label>.json.

    python scripts/bench.py baseline=<rev> new=. [--seeds 8101 ... 8110] [--seconds 30]

Each argument is label=rev; rev "." is the working tree, anything else is a
git revision, exported with `git archive` into a temporary directory. For
every workload and seed, each commit runs its own `perfbench/run.py` in a
subprocess, the commits taking turns (which one goes first alternates from
seed to seed) so that they share the machine's drift; the Tier-1,
`run_suite.py` and CLI timings take turns the same way on each repetition.
Each file holds:
- every untraced run's end-to-end block, seed, rounds and host_ref_s (the
  mean of the host reference timings before and after the run; it tells
  the machine's speed at the time);
- one traced run per workload at the first seed: the per-layer metrics;
- the median of each end-to-end metric per workload;
- `run_suite_s`: the median of `scripts/run_suite.py`'s reported total
  over `REPEATS` runs, each run in `run_suite_runs_s`;
- `tier1_s`: the median wall time of `REPEATS` Tier-1 runs (`python -m
  pytest`) in the tree, one BLAS thread, each run in `tier1_runs_s`;
- `cli_s`: the median wall time of `REPEATS` fresh `python -m wehrl`
  processes per subcommand (the calls in `CLI_CALLS`), one BLAS thread,
  each run in `cli_runs_s`;
- the dense-vs-fast Husimi table: the state-matrix product <z|rho|z>
  (the dense oracle of `check_fast_vs_dense`) against `husimi` on rho and
  `husimi_fast` on psi, for one pure state psi of Z16, Z32 and Z64.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("suite-verify", "minimize", "cli-session")
ONE_THREAD = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
# runs per tree of each Tier-1, run_suite.py and CLI timing
REPEATS = 5
# the one call per subcommand that cli_s times
CLI_CALLS = {
    "group-info": ("--group", "Z64"),
    "verify": ("--group", "Z3xZ3"),
    **{
        command: ("--group", "Z64", "--subgroup", "8", "--state", "random:3")
        for command in ("entropy", "husimi", "channel")
    },
    "minimize": ("--group", "Z8xZ8"),
    "scan": ("--group", "Z8"),
}


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def export_tree(rev: str, into: Path) -> Path:
    """The committed files of rev, unpacked under into/<short hash>."""
    dest = into / git("rev-parse", "--short", rev)
    archive = into / "tree.tar"
    subprocess.run(["git", "archive", "-o", str(archive), rev], cwd=ROOT, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()
    return dest


def commit_of(rev: str) -> str:
    if rev != ".":
        return git("rev-parse", rev)
    dirty = git("status", "--porcelain", "--", "src", "perfbench", "scripts")
    return git("rev-parse", "HEAD") + ("+uncommitted" if dirty else "")


def run_workload(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=tree, check=True, capture_output=True, text=True).stdout
    lines = out.strip().splitlines()
    summary = json.loads(lines[-2][2:])
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"bench: {workload} seed {seed} in {tree} was not correct: {result}")
    return {
        "workload": workload,
        "seed": seed,
        "rounds": summary["rounds"],
        "samples": summary["samples"],
        "host_ref_s": (summary["host_ref_start_s"] + summary["host_ref_end_s"]) / 2,
        "end_to_end": summary["end_to_end"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def take_turns(trees: dict[str, Path], measure) -> dict[str, list[float]]:
    """REPEATS runs of measure(tree) per tree, the trees taking turns on each repetition."""
    runs: dict[str, list[float]] = {label: [] for label in trees}
    for i in range(REPEATS):
        for label, tree in list(trees.items())[:: -1 if i % 2 else 1]:
            runs[label].append(measure(tree))
    return runs


def run_suite_s(tree: Path) -> float:
    """The total reported by one run of the tree's scripts/run_suite.py."""
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": str(tree / "src")}
    out = subprocess.run(
        [sys.executable, "scripts/run_suite.py"],
        cwd=tree, env=env, check=True, capture_output=True, text=True,
    ).stdout
    return float(re.search(r"([0-9.]+)s total", out).group(1))


def tier1_s(tree: Path) -> float:
    """Wall time of one Tier-1 run in the tree; a failing test aborts the script."""
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": str(tree / "src")}
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
        cwd=tree, env=env, check=True, stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - t0


def cli_s(tree: Path, command: str) -> float:
    """Wall time of one fresh process running the CLI_CALLS call of command."""
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": str(tree / "src")}
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "wehrl", command, *CLI_CALLS[command]],
        cwd=tree, env=env, check=True, stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - t0


def husimi_table(tree: Path) -> list[dict]:
    """This script's --husimi-table, run against the tree's src directory."""
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": str(tree / "src")}
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--husimi-table"],
        env=env, check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out)


def print_husimi_table(orders=(16, 32, 64), repeats: int = 20, seed: int = 0) -> None:
    """Best-of-repeats times of the dense oracle and the library's Husimi paths, as JSON."""
    import numpy as np

    from wehrl import CoherentFrame, Subgroup, husimi, husimi_fast, parse_group
    from wehrl.states import pure_density, random_state_vector

    def best_of(fn) -> float:
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return min(times)

    rng = np.random.default_rng(seed)
    rows = []
    for n in orders:
        frame = CoherentFrame.vacuum(Subgroup.whole(parse_group(f"Z{n}")))
        S = frame.state_matrix()  # cached outside the timed region
        psi = random_state_vector(n, rng)
        rho = pure_density(psi)

        def oracle():
            return np.einsum("zk,zk->z", S.conj() @ rho, S).real

        dense = best_of(oracle)
        density = best_of(lambda: husimi(frame, rho))
        fast = best_of(lambda: husimi_fast(frame, psi))
        diff = np.abs(oracle() - husimi_fast(frame, psi).values).max()
        rows.append({
            "group": f"Z{n}", "dense_ms": dense * 1e3, "density_ms": density * 1e3,
            "fast_ms": fast * 1e3, "speedup": dense / fast, "max_diff": float(diff),
        })
    print(json.dumps(rows))


def main() -> int:
    if sys.argv[1:] == ["--husimi-table"]:
        print_husimi_table()
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("targets", nargs="+", metavar="label=rev")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(8101, 8111)))
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args()
    targets = [t.split("=", 1) for t in args.targets]
    if any(len(t) != 2 for t in targets):
        parser.error("each target is label=rev")

    with tempfile.TemporaryDirectory(prefix="wehrl-bench-") as tmp:
        trees = {
            label: ROOT if rev == "." else export_tree(rev, Path(tmp))
            for label, rev in targets
        }
        records = {
            label: {
                "label": label,
                "commit": commit_of(rev),
                "host": f"{platform.machine()}, {os.cpu_count()} cores, {platform.system()}",
                "python": platform.python_version(),
                "numpy": metadata.version("numpy"),
                "seconds": args.seconds,
                "runs": [],
                "layers": {},
            }
            for label, rev in targets
        }
        for workload in WORKLOADS:
            for i, seed in enumerate(args.seeds):
                for label, tree in list(trees.items())[:: -1 if i % 2 else 1]:
                    run = run_workload(tree, workload, seed, args.seconds, trace=0)
                    del run["metrics"]
                    records[label]["runs"].append(run)
                    print(f"{label:10s} {workload:13s} {seed}: {run['end_to_end']}", flush=True)
            for label, tree in trees.items():
                traced = run_workload(tree, workload, args.seeds[0], args.seconds, trace=1)
                records[label]["layers"][workload] = {
                    "seed": traced["seed"], "metrics": traced["metrics"],
                }
        suite_runs = take_turns(trees, run_suite_s)
        tier1_runs = take_turns(trees, tier1_s)
        cli_runs = {
            command: take_turns(trees, lambda tree, c=command: cli_s(tree, c))
            for command in CLI_CALLS
        }
        for label, tree in trees.items():
            record = records[label]
            record["median"] = {
                workload: {
                    metric: statistics.median(
                        r["end_to_end"][metric] for r in record["runs"] if r["workload"] == workload
                    )
                    for metric in record["runs"][0]["end_to_end"]
                }
                for workload in WORKLOADS
            }
            record["run_suite_s"] = statistics.median(suite_runs[label])
            record["run_suite_runs_s"] = suite_runs[label]
            record["tier1_s"] = statistics.median(tier1_runs[label])
            record["tier1_runs_s"] = tier1_runs[label]
            record["cli_s"] = {c: statistics.median(runs[label]) for c, runs in cli_runs.items()}
            record["cli_runs_s"] = {c: runs[label] for c, runs in cli_runs.items()}
            record["husimi_dense_vs_fast"] = husimi_table(tree)
            path = ROOT / f"BENCH_{label}.json"
            path.write_text(json.dumps(record, indent=1) + "\n")
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
