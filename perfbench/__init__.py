"""Benchmark for demoplan: seeded workloads, end-to-end metrics and a traced run.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
from the repository root; see ``perfbench/run.py`` for the workloads and metrics.
"""
