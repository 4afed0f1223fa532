"""Benchmark for the noiseattn pipeline; run ``perfbench/run.py``."""
