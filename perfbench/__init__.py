"""Benchmark of `wehrl`: three workloads, end-to-end and per-layer metrics.

Run it with `python3 perfbench/run.py`; see perfbench/README.md.
"""
