"""Steady stream/scatter/mixed benchmark of the repro simulator, data plane and daemon.

Run ``python3 perfbench/run.py --workload stream --seed 1 --seconds 35
--trace 0`` from the repository root; see ``perfbench/README.md``.
"""
