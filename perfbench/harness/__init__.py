"""Support code for the end-to-end benchmark in ``perfbench/run.py``."""
