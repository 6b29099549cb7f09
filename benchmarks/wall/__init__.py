"""Wall-clock benchmark of the repro engine: six workloads, an end-to-end
ledger and a per-layer ledger. Entry point: ``benchmarks/wall/run.py``;
see ``benchmarks/wall/README.md``."""
