"""Pipeline benchmark for cisched; see run.py for usage and README.md for the metrics."""
