"""The in-process workloads: pi-read and pi-update.

Both run one client in a closed loop on ``SQLSession(parallelism=2)``:
the next statement starts when the previous one returned.
"""

from __future__ import annotations

import gc
import time
from typing import Callable, Optional

import numpy as np

from pibench import checks, common, data, report, statements
from pibench.trace import NULL_TRACER, Tracer

PARALLELISM = 2
#: pi-update: auto-condense once 0.4% of bitmap capacity is lost to
#: deletes, which fires several times per run
CONDENSE_THRESHOLD = 0.004
#: pi-update: index size and exception rate are read after this many
#: timed statements, a fixed point of the seeded log, so a faster commit
#: path (more statements per run) does not change them
UPDATE_STATS_AT = 300


def _setup(seed, scale, tpch, condense, tracer):
    """Build the database ``SETUP_REPS`` times; keep the last one."""
    from repro.sql import SQLSession

    times, kept = [], None
    for _ in range(report.SETUP_REPS):
        if kept is not None:
            _release(*kept)
            kept = None
            gc.collect()
        t0 = time.perf_counter()
        setup = data.build(seed, scale, tpch=tpch, condense_threshold=condense, tracer=tracer)
        session = SQLSession(setup.catalog, setup.manager, parallelism=PARALLELISM)
        times.append(time.perf_counter() - t0)
        kept = (setup, session)
    return kept[0], kept[1], times


def _release(setup, session) -> None:
    session.close()
    for handle in setup.manager.indexes():
        handle.detach()


def _timed_loop(seconds, traced_run, tracer, samples, step, min_ops=0):
    """Run ``step(traced)`` in blocks; returns when the time is up and at
    least ``min_ops`` statements ran.  ``step`` returns the seconds it
    spent checking outputs, which do not count as busy time."""
    tracer.phase = "run"
    plan = report.blocks(seconds, traced_run)
    for i, (traced, dur) in enumerate(plan):
        if traced:
            tracer.install()
        try:
            start = time.perf_counter()
            end = start + dur
            check_s = 0.0
            last = i == len(plan) - 1
            while time.perf_counter() < end or (
                last and samples.ops[True] + samples.ops[False] < min_ops
            ):
                check_s += step(traced)
            samples.busy_s[traced] += time.perf_counter() - start - check_s
        finally:
            if traced:
                tracer.uninstall()


def _finish(workload, seed, trace_run, tracer, samples, setup_times, stats, rss):
    if trace_run:
        spans = {n: tracer.durations_s(n, "setup") for n in report.SETUP_SPANS}
        # no recovery in process: the storage.re* metrics read 0 here
        metrics = report.per_layer(samples, stats, tracer.totals("run"), tracer.counters, spans)
        report.dump_spans(tracer, f"trace-{workload}-seed{seed}")
    else:
        metrics = report.end_to_end(samples, setup_times, stats, rss)
    return report.result_line(samples, metrics)


# ----------------------------------------------------------------------
# pi-read
# ----------------------------------------------------------------------
def run_pi_read(
    seed: int,
    seconds: float,
    trace_run: bool,
    scale: float = 1.0,
    tamper: Optional[Callable] = None,
) -> str:
    """Read-only templates; every result is checked against an
    index-free session over the same tables.  ``tamper(template, cols,
    n)`` lets a test corrupt the ``n``-th result before the check."""
    from repro.sql import SQLSession

    tracer = Tracer() if trace_run else NULL_TRACER
    setup, session, setup_times = _setup(seed, scale, True, None, tracer)
    reference = SQLSession(setup.catalog, parallelism=PARALLELISM)
    templates = statements.read_statements(setup.rows)
    refs, verified = {}, {t[0]: set() for t in templates}
    samples = report.Samples()
    rng = np.random.default_rng([seed, 3])
    queue = []

    def run_one(template, traced) -> float:
        name, sql, key, limit = template
        with tracer.span("bench.statement"):
            t0 = time.perf_counter()
            rel = session.execute(sql)
            latency = time.perf_counter() - t0
        samples.record(name, latency, traced)
        t1 = time.perf_counter()
        cols = checks.result_columns(rel)
        if tamper is not None:
            cols = tamper(name, cols, samples.attempted)
        samples.attempted += 1
        fingerprint = checks.digest(cols)
        if fingerprint not in verified[name]:
            if name not in refs:
                ref_rel = reference.execute(statements.reference_sql(sql, limit))
                refs[name] = checks.result_columns(ref_rel)
            if key is None:
                ok = checks.same_multiset(cols, refs[name])
            else:
                ok = checks.same_ordered(cols, refs[name], key, limit)
            if ok:
                verified[name].add(fingerprint)
            else:
                samples.failed += 1
        return time.perf_counter() - t1

    def step(traced) -> float:
        if not queue:
            queue.extend(templates[i] for i in rng.permutation(len(templates)))
        return run_one(queue.pop(), traced)

    # warm-up: one checked run per template (also computes the references),
    # then more rounds until the warm-up time is up; none of it is timed
    for template in templates:
        run_one(template, traced=False)
    warm_end = time.perf_counter() + report.warmup_s(seconds)
    while time.perf_counter() < warm_end:
        step(False)
    samples.latencies.clear()
    samples.ops.clear()

    _timed_loop(seconds, trace_run, tracer, samples, step)
    rss = common.peak_rss_mb()
    stats = data.index_stats(setup.manager)
    reference.close()
    _release(setup, session)
    return _finish("pi-read", seed, trace_run, tracer, samples, setup_times, stats, rss)


# ----------------------------------------------------------------------
# pi-update
# ----------------------------------------------------------------------
def run_pi_update(
    seed: int,
    seconds: float,
    trace_run: bool,
    scale: float = 1.0,
    tamper: Optional[Callable] = None,
) -> str:
    """Write-only templates.  Afterwards every index must verify and the
    tables must equal an untimed replay of the statement log on an
    index-free catalog.  ``tamper(setup)`` lets a test corrupt the end
    state before the checks."""
    from repro.sql import SQLSession

    tracer = Tracer() if trace_run else NULL_TRACER
    setup, session, setup_times = _setup(seed, scale, False, CONDENSE_THRESHOLD, tracer)
    stream = statements.WriteStream(seed, setup.rows)
    log, samples, stats = [], report.Samples(), {}

    def run_one(traced) -> float:
        name, sql = stream.next()
        with tracer.span("bench.statement"):
            t0 = time.perf_counter()
            session.execute(sql)
            latency = time.perf_counter() - t0
        log.append(sql)
        samples.attempted += 1
        if traced is not None:
            samples.record(name, latency, traced)
            if samples.ops[True] + samples.ops[False] == UPDATE_STATS_AT:
                t1 = time.perf_counter()
                stats.update(data.index_stats(setup.manager))
                return time.perf_counter() - t1
        return 0.0

    # warm-up: whole cycles of the write templates (logged, not timed)
    warm_end = time.perf_counter() + report.warmup_s(seconds)
    while True:
        for _ in statements.WRITE_TEMPLATES:
            run_one(None)
        if time.perf_counter() >= warm_end:
            break
    _timed_loop(seconds, trace_run, tracer, samples, run_one, min_ops=UPDATE_STATS_AT)
    rss = common.peak_rss_mb()
    stats["utilization"] = data.index_stats(setup.manager)["utilization"]
    if tamper is not None:
        tamper(setup)

    # end-state checks: every index verifies; tables equal the replay
    samples.attempted += len(setup.index_specs)
    samples.failed += data.verify_all(setup.manager)
    replay = data.build(seed, scale, with_indexes=False)
    with SQLSession(replay.catalog) as plain:
        for sql in log:
            plain.execute(sql)
    got, want = data.images(setup.catalog), data.images(replay.catalog)
    samples.attempted += len(want)
    samples.failed += sum(0 if checks.same_image(got[n], want[n]) else 1 for n in want)
    _release(setup, session)
    return _finish("pi-update", seed, trace_run, tracer, samples, setup_times, stats, rss)
