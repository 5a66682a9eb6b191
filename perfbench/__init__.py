"""End-to-end benchmark of the StandOff XQuery engine (see run.py)."""
