"""The repository's benchmark: workloads, spans and the run command (``run.py``)."""
