"""Collecting samples over the timed blocks and turning them into the
end-to-end and per-layer metrics a run prints."""

from __future__ import annotations

import dataclasses
import json
import os
from collections import defaultdict
from typing import Dict, List, Optional

from pibench import common, trace

#: tail percentile of every workload.  At the recorded run length (25 s)
#: ~25 samples lie beyond it on pi-read and ~70 or more on the others, so
#: a few stalls that land in one run and not the next move it little (at
#: p99, runs of the same code spread up to 0.45 of the median)
TAIL_PCT = 95.0
#: set-ups per run (the median is reported) and htap-wire reopens per
#: traced run (an untraced run reopens once, as an output check)
SETUP_REPS = 7
RECOVERY_REPS = 7
#: untimed warm-up before the timed phase, as a share of ``--seconds``
#: and at most ``WARMUP_S``
WARMUP_SHARE = 0.1
WARMUP_S = 2.0
#: set-up spans whose medians are per-layer metrics
SETUP_SPANS = ("workloads.generate", "core.create")


def warmup_s(seconds: float) -> float:
    return min(WARMUP_S, WARMUP_SHARE * seconds)


def blocks(seconds: float, traced: bool) -> List[tuple]:
    """``(traced, seconds)`` blocks of the timed phase.  A traced run
    alternates untraced and traced quarters, so the tracing overhead is
    measured on the same data in the same process."""
    if not traced:
        return [(False, seconds)]
    q = seconds / 4.0
    return [(False, q), (True, q), (False, q), (True, q)]


@dataclasses.dataclass
class Samples:
    """Latencies and throughput of the timed phase, by block kind."""

    latencies: Dict[str, List[float]] = dataclasses.field(
        default_factory=lambda: defaultdict(list)
    )
    ops: Dict[bool, int] = dataclasses.field(default_factory=lambda: defaultdict(int))
    busy_s: Dict[bool, float] = dataclasses.field(default_factory=lambda: defaultdict(float))
    attempted: int = 0
    failed: int = 0

    def record(self, template: str, seconds: float, traced: bool) -> None:
        self.ops[traced] += 1
        if not traced:
            self.latencies[template].append(seconds)

    def ops_per_s(self, traced: bool) -> float:
        busy = self.busy_s[traced]
        return self.ops[traced] / busy if busy else 0.0


def end_to_end(
    samples: Samples,
    setup_s: List[float],
    stats: Dict[str, float],
    rss_mb: float,
) -> Dict[str, Dict]:
    """The end-to-end metrics of an untraced run."""
    every = [x for v in samples.latencies.values() for x in v]
    beyond = common.beyond_count(len(every), TAIL_PCT)
    if beyond < 10:
        print(f"warning: only {beyond} samples beyond p{TAIL_PCT:g} ({len(every)} samples)")
    print(f"  set-up reps (s): {' '.join(f'{x:.3f}' for x in setup_s)}")
    for name, values in sorted(samples.latencies.items()):
        print(f"  {name:<16} n={len(values):<5} median {1e3 * common.median(values):9.3f} ms")
    return {
        "setup_s": common.metric(common.median(setup_s), "s"),
        "ops_per_s": common.metric(samples.ops_per_s(False), "1/s"),
        "gmean_ms": common.metric(1e3 * common.gmean_of_medians(samples.latencies), "ms"),
        "tail_ms": common.metric(1e3 * common.percentile(every, TAIL_PCT), "ms"),
        "index_bytes_per_row": common.metric(stats["bytes_per_row"], "B"),
        "exception_rate_end": common.metric(stats["exception_rate"], "frac"),
        "peak_rss_mb": common.metric(rss_mb, "MB"),
    }


def per_layer(
    samples: Samples,
    stats: Dict[str, float],
    run_totals: Dict,
    counters: Dict,
    setup_spans: Dict[str, List[float]],
    queue_run_wire_ms: Optional[tuple] = None,
    recover_totals: Optional[Dict] = None,
    recover_s: Optional[List[float]] = None,
) -> Dict[str, Dict]:
    """The per-layer metrics of a traced run, from span totals of the
    traced blocks (``run``) and of the set-ups.  htap-wire adds the
    client-side queue/run/wire split and its reopens (span totals and
    times); in process there is no queue, wire or recovery, and run is
    ``run_prepared``."""
    ops = samples.ops[True]
    out = trace.run_metrics(run_totals, counters, ops)
    if queue_run_wire_ms is None:
        run_ms = run_totals.get("sql.run", {}).get("incl_ns", 0) / 1e6 / max(1, ops)
        queue_run_wire_ms = (0.0, run_ms, 0.0)
    for name, value in zip(("sql.queue_ms", "sql.run_ms", "server.wire_ms"), queue_run_wire_ms):
        out[name] = (value, "ms/op")
    out.update(trace.recover_metrics(recover_totals or {}, recover_s or []))
    out["bitmap.utilization_end"] = (stats["utilization"], "frac")
    out["workloads.generate_s"] = (common.median(setup_spans["workloads.generate"]), "s")
    out["core.create_s"] = (common.median(setup_spans["core.create"]), "s")
    untraced, traced = samples.ops_per_s(False), samples.ops_per_s(True)
    out["trace.overhead_frac"] = (1.0 - traced / untraced if untraced else 0.0, "frac")
    print(
        f"tracing overhead: traced {traced:.2f} ops/s vs untraced {untraced:.2f} ops/s "
        f"({100 * out['trace.overhead_frac'][0]:.1f}% fewer)"
    )
    for name, (value, unit) in sorted(out.items()):
        print(f"  {name:<30} {value:>12.4f} {unit}")
    return {name: common.metric(v, u) for name, (v, u) in out.items()}


def dump_spans(tracer: trace.Tracer, name: str) -> None:
    """Write the run's spans to ``.pibench_out/<name>.jsonl``."""
    path = common.OUT_DIR / f"{name}.jsonl"
    tracer.dump(str(path))
    print(f"spans: {path.relative_to(common.ROOT)}")


def result_line(samples: Samples, metrics: Dict[str, Dict]) -> str:
    return json.dumps(
        {
            "correct": samples.failed == 0,
            "attempted": samples.attempted,
            "failed": samples.failed,
            "metrics": metrics,
        }
    )


def data_dir(workload: str, seed: int):
    return common.OUT_DIR / f"data-{workload}-seed{seed}-{os.getpid()}"
