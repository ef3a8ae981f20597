"""Summarise the result and trace files that perfbench/run.py leaves in .perfbench/.

    python3 perfbench/report.py spread SEEDS      # e.g. 101-110
    python3 perfbench/report.py layers SEED       # traced runs of that seed

`spread` prints, per workload and end-to-end metric, the median and the
quartile spread (Q3 - Q1) / median of the untraced runs with those seeds,
and each run's host reference times. `layers` prints the per-layer figures
of the traced runs, the tracing overhead against the median untraced run,
and the layer self times at the fixed shapes Z64, Z8xZ8, Z2^6.
"""

import json
import statistics
import sys
from pathlib import Path

OUT_DIR = Path(__file__).resolve().parent.parent / ".perfbench"
WORKLOADS = ("suite-verify", "minimize", "cli-session")
# fixed group shapes the tracer breaks out (Z2x6 = Z2xZ2xZ2xZ2xZ2xZ2)
SHAPES = ("Z64", "Z8xZ8", "Z2x6")


def load(workload: str, seed: int, trace: int) -> dict | None:
    path = OUT_DIR / f"result-{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text()) if path.exists() else None


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(seeds: list[int]) -> None:
    for workload in WORKLOADS:
        runs = [r for r in (load(workload, s, 0) for s in seeds) if r is not None]
        if not runs:
            continue
        print(f"\n{workload}: {len(runs)} runs, seeds {seeds[0]}-{seeds[-1]}, "
              f"{runs[0]['samples']} samples per run, tail = p{runs[0]['tail_percentile']}")
        print("| metric | median | Q1 | Q3 | spread |")
        print("|---|---|---|---|---|")
        for name in runs[0]["end_to_end"]:
            values = [r["end_to_end"][name] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            print(f"| {name} | {med:.5g} | {q1:.5g} | {q3:.5g} | {(q3 - q1) / med:.1%} |")
        print("| seed | correct | failed/attempted | host.ref_s start | host.ref_s end |")
        print("|---|---|---|---|---|")
        for r in runs:
            res = r["result"]
            print(f"| {r['seed']} | {res['correct']} | {res['failed']}/{res['attempted']} | "
                  f"{r['host_ref_start_s']:.3f} | {r['host_ref_end_s']:.3f} |")


def layers(seed: int) -> None:
    for workload in WORKLOADS:
        traced = load(workload, seed, 1)
        if traced is None:
            continue
        print(f"\n{workload}, seed {seed}: per-layer figures for one setup plus one round")
        plain = [json.loads(p.read_text()) for p in OUT_DIR.glob(f"result-{workload}-*-trace0.json")]
        if plain:
            t = traced["timed_wall_s"] / traced["rounds"]
            u = statistics.median(r["timed_wall_s"] / r["rounds"] for r in plain)
            print(f"tracing overhead: {t:.2f} s traced vs {u:.2f} s untraced per round "
                  f"(median of {len(plain)} untraced runs): {t / u - 1:+.0%}")
        for name, m in traced["result"]["metrics"].items():
            if m["value"]:
                print(f"  {name:45s} {m['value']:.6g} {m['unit']}")
        trace_path = OUT_DIR / f"trace-{workload}-seed{seed}-trace1.json"
        if not trace_path.exists():
            continue
        trace = json.loads(trace_path.read_text())
        for shape in SHAPES:
            rows = [(k, s) for k, s in trace["self_s"].items() if k.endswith("." + shape)]
            if rows:
                print(f"  at {shape}: self s, calls, ms per call")
            for key, s in sorted(rows, key=lambda kv: -kv[1]):
                n = trace["calls"][key]
                print(f"      {key[: -len(shape) - 1]:40s} {s:9.4f} {n:9.0f} {1e3 * s / n:9.4f}")
        ops = [o for o in trace["ops"] if o["round"] == 0]
        print(f"  one round: {len(ops)} operations, {sum(o['end_s'] - o['start_s'] for o in ops):.2f} s")


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[0] not in ("spread", "layers"):
        print(__doc__, file=sys.stderr)
        return 2
    if argv[0] == "spread":
        spread(seeds_of(argv[1]))
    else:
        layers(int(argv[1]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
