"""The repository benchmark: PatchIndex reads, fine-grained updates and
durable mixed traffic over TCP.

Run ``python3 pibench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; ``pibench/README.md`` records
the workloads, their sizes and the metrics.
"""
