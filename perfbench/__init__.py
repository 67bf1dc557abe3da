"""latzeta benchmark harness; see run.py."""
