"""End-to-end simulator benchmark: seeded workloads and a per-layer ledger.

Run ``python3 simbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the repository root; see ``simbench/README.md``.
"""
