"""Benchmark of privcal: workloads, an independent reference, and spans.

Run ``python3 perfbench/run.py --help``; see perfbench/README.md.
"""
