"""End-to-end and per-layer benchmark of the repro simulator.

Run from the root of a source checkout: ``python -m bench run``.  See
bench/README.md for the workloads and metrics.
"""
