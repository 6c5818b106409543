"""htap-wire: mixed durable traffic over TCP.

The server runs in a child process (``pibench/server_main.py``): the
seeded tables and PatchIndexes behind ``SQLServer(parallelism=2)`` with a
data directory, ``wal_sync=group`` and periodic checkpoints.  This
process drives it with one ``AsyncSQLClient`` connection in a closed
loop: the client and the server take turns, so the run never needs more
than the machine's two cores, and a neighbour busy on one of them moves
the figures little (with two connections a statement waited behind the
other's and the spread between runs doubled).  The child takes one JSON
command per stdin line (``trace`` on/off between blocks, ``stop``,
``quit``) and answers with one JSON line on stdout.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import subprocess
import sys
import time
from collections import defaultdict

from pibench import common, data, report, statements
from pibench.trace import NULL_TRACER, Tracer

PARALLELISM = 2
CONNECTIONS = 1
WAL_SYNC = "group"
#: commits between automatic checkpoints: several fire per run
CHECKPOINT_INTERVAL = 25
#: seconds the child may take to answer a command
REPLY_TIMEOUT_S = 150.0


# ----------------------------------------------------------------------
# the server process
# ----------------------------------------------------------------------
def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


async def _serve(args) -> None:
    from repro.server import SQLServer

    tracer = Tracer() if args.trace else NULL_TRACER
    setup = data.build(args.seed, args.scale, tracer=tracer)
    server = SQLServer(
        setup.catalog, setup.manager, parallelism=PARALLELISM, data_dir=args.data_dir,
        wal_sync=WAL_SYNC, checkpoint_interval=CHECKPOINT_INTERVAL,
    )
    await server.start()
    spans = {n: tracer.durations_s(n, "setup") for n in report.SETUP_SPANS} if args.trace else {}
    _emit({"ready": server.port, "setup_spans": spans})
    loop = asyncio.get_running_loop()
    while True:
        line = await loop.run_in_executor(None, sys.stdin.readline)
        cmd = json.loads(line) if line.strip() else {"cmd": "quit"}
        if cmd["cmd"] == "trace":
            if cmd["on"]:
                tracer.phase = "run"
                tracer.install()
            else:
                tracer.uninstall()
            _emit({"ok": True})
        else:
            break
    await server.aclose()
    if cmd["cmd"] == "quit":
        return
    rss = common.peak_rss_mb()
    stats = data.index_stats(setup.manager)
    verify_failed = data.verify_all(setup.manager)
    tracer.phase = "recover"
    tracer.install()
    try:
        reps = report.RECOVERY_REPS if args.trace else 1
        times, bad = data.recover(setup, args.data_dir, WAL_SYNC, reps)
    finally:
        tracer.uninstall()
    out = {
        "rss_mb": rss, "stats": stats, "verify_failed": verify_failed,
        "recover_s": times, "bad_reopens": bad, "indexes": len(setup.index_specs),
    }
    if args.trace:
        out["run_totals"] = tracer.totals("run")
        out["counters"] = dict(tracer.counters)
        out["recover_totals"] = tracer.totals("recover")
        # stdout carries the command protocol: no report lines here
        tracer.dump(str(common.OUT_DIR / f"trace-htap-wire-seed{args.seed}-server.jsonl"))
    _emit({"result": out})


def serve_main(argv=None) -> None:
    parser = argparse.ArgumentParser(description="htap-wire server process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--data-dir", required=True)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)
    common.limit_malloc_arenas()
    common.ensure_src()
    asyncio.run(_serve(args))


# ----------------------------------------------------------------------
# the driving process
# ----------------------------------------------------------------------
class _Child:
    """A server process and its command pipe."""

    def __init__(self, seed: int, scale: float, trace: bool, data_dir) -> None:
        self.data_dir = data_dir
        self.proc = subprocess.Popen(
            [
                sys.executable, str(common.ROOT / "pibench" / "server_main.py"),
                "--seed", str(seed), "--scale", str(scale),
                "--data-dir", str(data_dir), "--trace", str(int(trace)),
            ],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=str(common.ROOT),
        )

    async def reply(self):
        loop = asyncio.get_running_loop()
        line = await asyncio.wait_for(
            loop.run_in_executor(None, self.proc.stdout.readline), REPLY_TIMEOUT_S
        )
        if not line:
            raise RuntimeError(f"server process exited with {self.proc.wait()}")
        return json.loads(line)

    async def command(self, **cmd):
        self.proc.stdin.write(json.dumps(cmd) + "\n")
        self.proc.stdin.flush()
        if cmd["cmd"] != "quit":
            return await self.reply()

    def finish(self) -> None:
        """Wait for the process (killing it if it lingers) and remove its
        data directory."""
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except OSError:
                pass
        data.remove_dir(self.data_dir)


async def _connect(port: int):
    from repro.server import AsyncSQLClient

    return [await AsyncSQLClient.connect("127.0.0.1", port) for _ in range(CONNECTIONS)]


async def _close(clients) -> None:
    for client in clients:
        await client.aclose()


async def _drive(seed, seconds, trace_run, scale):
    from repro.server import ServerError

    samples = report.Samples()
    setup_times, setup_spans = [], defaultdict(list)
    children, clients = [], []
    base_dir = report.data_dir("htap-wire", seed)
    try:
        for rep in range(report.SETUP_REPS):
            t0 = time.perf_counter()
            child = _Child(seed, scale, trace_run, base_dir / str(rep))
            children.append(child)
            ready = await child.reply()
            clients = await _connect(ready["ready"])
            setup_times.append(time.perf_counter() - t0)
            for name, values in ready["setup_spans"].items():
                setup_spans[name].extend(values)
            if rep < report.SETUP_REPS - 1:
                await _close(clients)
                await child.command(cmd="quit")
                child.finish()
        child = children[-1]

        rows = max(200, int(data.MICRO_ROWS * scale))
        stream = statements.MixStream(seed, rows)
        split = defaultdict(float)  # queue / run / wire ns of traced statements

        async def run_one(client, traced, timed=True):
            kind, name, sql = stream.next()
            t0 = time.perf_counter_ns()
            samples.attempted += 1
            try:
                result = await client.execute(sql)
            except ServerError as exc:
                samples.failed += 1
                print(f"failed: {name}: {exc}")
                return
            latency_ns = time.perf_counter_ns() - t0
            if not timed:
                return
            # writes pool into one template: ~10% of the mix leaves too few
            # samples per write template for a steady median
            samples.record("write" if kind == "write" else name, latency_ns / 1e9, traced)
            if traced and result.stats:
                queued, run = result.stats["queued_ns"], result.stats["exec_ns"]
                split["queue"] += queued
                split["run"] += run
                split["wire"] += latency_ns - queued - run

        # warm-up: a few statements per connection, then more until the
        # warm-up time is up; none of it is timed
        warm_end = time.perf_counter() + report.warmup_s(seconds)
        for client in clients:
            for _ in range(len(statements.MIX_READS)):
                await run_one(client, False, timed=False)
        while time.perf_counter() < warm_end:
            for client in clients:
                await run_one(client, False, timed=False)

        for traced, dur in report.blocks(seconds, trace_run):
            if trace_run:
                await child.command(cmd="trace", on=traced)
            start = time.perf_counter()
            end = start + dur

            async def loop(client):
                while time.perf_counter() < end:
                    await run_one(client, traced)

            await asyncio.gather(*(loop(c) for c in clients))
            samples.busy_s[traced] += time.perf_counter() - start
        if trace_run:
            await child.command(cmd="trace", on=False)
        await _close(clients)
        clients = []
        result = (await child.command(cmd="stop"))["result"]
    finally:
        await _close(clients)
        for child in children:
            if child.proc.poll() is None and child.proc.stdin and not child.proc.stdin.closed:
                try:
                    child.proc.stdin.close()  # EOF: the server drains and exits
                except OSError:
                    pass
            child.finish()
        data.remove_dir(base_dir)

    samples.attempted += len(result["recover_s"]) + result["indexes"]
    samples.failed += result["bad_reopens"] + result["verify_failed"]
    if trace_run:
        ops = max(1, samples.ops[True])
        metrics = report.per_layer(
            samples, result["stats"], result["run_totals"], result["counters"], setup_spans,
            queue_run_wire_ms=tuple(split[k] / 1e6 / ops for k in ("queue", "run", "wire")),
            recover_totals=result["recover_totals"], recover_s=result["recover_s"],
        )
        print(f"spans: .pibench_out/trace-htap-wire-seed{seed}-server.jsonl")
    else:
        metrics = report.end_to_end(
            samples, setup_times, result["stats"], result["rss_mb"]
        )
    return report.result_line(samples, metrics)


def run_htap_wire(seed: int, seconds: float, trace_run: bool, scale: float = 1.0) -> str:
    return asyncio.run(_drive(seed, seconds, trace_run, scale))
