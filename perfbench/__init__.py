"""End-to-end and per-layer benchmark of the metricopt command line.

Run ``python3 perfbench/run.py --workload all`` from the repository root;
see ``perfbench/README.md`` for the workloads and metrics.
"""
