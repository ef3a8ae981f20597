"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {suite-verify,minimize,cli-session} \
        --seed N --seconds S --trace {0,1}

Builds `wehrl` from the `src` directory next to this one, runs the
workload's setup several times, then replays its operations in
max(1, floor(S / nominal round time)) whole rounds, checking every output. The last line of stdout
is one JSON object: end-to-end metrics with --trace 0, per-layer metrics
with --trace 1. Results and traces are also written under `.perfbench/`.
"""

import os

# One BLAS / OpenMP thread: at these matrix sizes a second thread only adds
# hand-off cost and noise. This must happen before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("suite-verify", "minimize", "cli-session")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import `wehrl` from this checkout's src directory, and nothing else."""
    sys.path[:0] = [str(SRC), str(ROOT)]
    try:
        import wehrl
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import wehrl from {SRC}: {exc}")
    origin = Path(wehrl.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"perfbench: wehrl was imported from {origin}, not from {SRC}")
    return wehrl


def host_reference_s() -> float:
    """Median of three timings of a fixed numpy-and-Python loop that does not use wehrl."""
    import numpy as np

    rng = np.random.default_rng(20230626)
    a = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    times = []
    for _ in range(3):
        t0 = perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc += (i * i) % 7
        b = a
        for _ in range(600):
            b = np.fft.fft(a @ b, axis=0)
            b /= np.abs(b).max()
        times.append(perf_counter() - t0)
    return sorted(times)[1]


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    from perfbench import oracle, tracing
    from perfbench.workloads import WORKLOADS, CheckFailed

    ref_start = host_reference_s()
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    workload = WORKLOADS[args.workload](args.seed, OUT_DIR / "work" / args.workload)

    workload.make_inputs()
    setup_s = []
    for _ in range(workload.setup_repeats):
        t0 = perf_counter()
        workload.setup()
        setup_s.append(perf_counter() - t0)
    setup_snapshot = tracer.snapshot() if tracer is not None else None
    correct = True
    problems: list[str] = []
    try:
        workload.check_setup()
    except CheckFailed as exc:
        correct = False
        problems.append(f"setup: {exc}")
    ops = workload.operations()
    rounds = max(1, int(args.seconds // workload.nominal_round_s))

    latencies: list[float] = []
    op_records = []
    attempted = failed = 0
    fingerprints: dict[int, str] = {}
    # The benchmark's own objects (operations, inputs, fingerprints) would
    # otherwise be traversed by every full collection the program triggers.
    gc.collect()
    gc.freeze()
    for r in range(rounds):
        for i, op in enumerate(ops):
            attempted += 1
            before = tracer.snapshot()[0] if tracer is not None else None
            t0 = perf_counter()
            try:
                out = op.run()
            except Exception:  # the program failed this operation; count it, keep going
                failed += 1
                problems.append(f"{op.name}: {traceback.format_exc(limit=3)}")
                continue
            t1 = perf_counter()
            latencies.append(t1 - t0)
            try:
                if r == 0:
                    op.check(out)
                    fingerprints[i] = op.fingerprint(out)
                elif op.fingerprint(out) != fingerprints.get(i):
                    raise CheckFailed(f"{op.name}: output differs from round 0")
            except CheckFailed as exc:
                correct = False
                problems.append(str(exc))
            if tracer is not None:
                after = tracer.snapshot()[0]
                layers = {k: v - before.get(k, 0.0) for k, v in after.items() if v != before.get(k)}
                op_records.append({"op": op.name, "round": r, "start_s": t0, "end_s": t1,
                                   "self_s": layers})
    ref_end = host_reference_s()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    wall = sum(latencies)
    if len(latencies) > 10:
        pct, tail = oracle.tail_percentile(latencies)
    else:
        correct = False
        problems.append(f"only {len(latencies)} operations completed")
        pct, tail = 0, 0.0
    end_to_end = {
        "ops_per_s": (len(latencies) / wall if wall else 0.0, "1/s"),
        "op_p50_s": (oracle.median(latencies) if latencies else 0.0, "s"),
        "op_tail_s": (tail, "s"),
        "setup_s": (oracle.median(setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    if tracer is not None:
        tracer.uninstall()
        self_s, calls = tracing.per_setup_and_round(
            setup_snapshot, tracer.snapshot(), workload.setup_repeats, rounds
        )
        values = tracing.layer_values(self_s, calls)
        values["host.ref_s"] = (ref_start + ref_end) / 2
        metrics = {k: {"value": values[k], "unit": u} for k, u in tracing.LAYER_METRICS.items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()}

    for line in problems[:20]:
        print(f"perfbench: {line}", file=sys.stderr)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": rounds, "ops_per_round": len(ops), "samples": len(latencies),
        "tail_percentile": pct, "timed_wall_s": wall,
        "setup_runs_s": setup_s, "host_ref_start_s": ref_start, "host_ref_end_s": ref_end,
        "end_to_end": {k: v for k, (v, _) in end_to_end.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps({**summary, "result": result}, indent=1))
    if tracer is not None:
        trace = {"self_s": self_s, "calls": calls, "ops": op_records}
        (OUT_DIR / f"trace-{stem}.json").write_text(json.dumps(trace))
    print("# " + json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
