"""Seeded data and PatchIndexes, plus the recovery check.

Everything here goes through the program's public API:
``repro.workloads`` generates the tables, ``PatchIndexManager.create``
attaches the indexes and a durable ``SQLSession`` recovers them.
"""

from __future__ import annotations

import dataclasses
import gc
import shutil
import time
from pathlib import Path
from typing import Dict, List, Optional

from pibench import checks
from pibench.trace import NULL_TRACER

#: rows per microbenchmark table, exception rate and nsc payload width
MICRO_ROWS = 300_000
EXCEPTION_RATE = 0.05
NSC_PAYLOADS = 4
#: TPC-H subset for the join template (SF 0.015: ~90K lineitems)
TPCH_SCALE = 0.015
LINEITEM_PERTURB = 0.05


@dataclasses.dataclass
class Setup:
    """One built database: catalog, index manager and what built it."""

    catalog: object
    manager: object
    rows: int
    index_specs: List[tuple]
    condense_threshold: Optional[float]


def seeds(seed: int) -> Dict[str, int]:
    """Independent generator seeds derived from the run's ``--seed``."""
    return {name: seed * 100 + i for i, name in enumerate(["nuc", "nsc", "tpch", "perturb"])}


def build(
    seed: int,
    scale: float = 1.0,
    tpch: bool = False,
    condense_threshold: Optional[float] = None,
    with_indexes: bool = True,
    tracer=NULL_TRACER,
) -> Setup:
    """Generate ``nuc``/``nsc`` (and optionally lineitem/orders) from the
    seed and attach the PatchIndexes: NUC on ``nuc.v``, NSC on
    ``nsc.v`` and, with ``tpch``, NSC on both join keys."""
    from repro.core import NearlySortedColumn, NearlyUniqueColumn, PatchIndexManager
    from repro.storage import Catalog
    from repro.workloads import generate_dataset, generate_tpch, perturb_order

    s = seeds(seed)
    rows = max(200, int(MICRO_ROWS * scale))
    catalog = Catalog()
    with tracer.span("workloads.generate"):
        catalog.register(
            generate_dataset(rows, EXCEPTION_RATE, "nuc", seed=s["nuc"], name="nuc").table
        )
        catalog.register(
            generate_dataset(
                rows, EXCEPTION_RATE, "nsc", seed=s["nsc"], name="nsc",
                payload_columns=NSC_PAYLOADS,
            ).table
        )
        if tpch:
            data = generate_tpch(TPCH_SCALE * scale, seed=s["tpch"])
            catalog.register(perturb_order(data.lineitem, LINEITEM_PERTURB, seed=s["perturb"]))
            catalog.register(data.orders)
    specs = [("nuc", "v", NearlyUniqueColumn), ("nsc", "v", NearlySortedColumn)]
    if tpch:
        specs += [
            ("lineitem", "l_orderkey", NearlySortedColumn),
            ("orders", "o_orderkey", NearlySortedColumn),
        ]
    manager = PatchIndexManager(catalog)
    if with_indexes:
        with tracer.span("core.create"):
            attach(catalog, manager, specs, condense_threshold)
    return Setup(catalog, manager, rows, specs, condense_threshold)


def attach(catalog, manager, specs, condense_threshold) -> None:
    for table, column, constraint in specs:
        manager.create(
            catalog.table(table), column, constraint(),
            condense_threshold=condense_threshold,
        )


def index_stats(manager) -> Dict[str, float]:
    """Index memory per covered row, the row-weighted exception rate and
    the bitmaps' shard utilization, over every PatchIndex."""
    handles = manager.indexes()
    rows = sum(h.num_rows for h in handles)
    patches = sum(h.num_patches for h in handles)
    mem = sum(h.memory_bytes() for h in handles)
    # the sharded bitmap behind each index (no public accessor yet)
    bitmaps = [getattr(h.index, "_bitmap", None) for h in handles]
    bitmaps = [b for b in bitmaps if b is not None]
    used = sum(len(b) for b in bitmaps)
    cap = sum(len(b) / b.utilization() for b in bitmaps if b.utilization() > 0)
    return {
        "bytes_per_row": mem / rows if rows else 0.0,
        "exception_rate": patches / rows if rows else 0.0,
        "utilization": used / cap if cap else 1.0,
    }


def verify_all(manager) -> int:
    """Number of PatchIndexes whose invariant check fails."""
    return sum(0 if h.verify() else 1 for h in manager.indexes())


def images(catalog) -> Dict[str, Dict]:
    return {t.name: checks.table_image(t) for t in catalog}


def recover(setup: Setup, data_dir: Path, wal_sync: str, reps: int):
    """Reopen ``data_dir`` into a fresh catalog of empty tables with the
    same PatchIndexes attached, ``reps`` times.

    Returns ``(seconds per reopen, failed reopens)``: each reopen must
    reproduce ``setup``'s table images and pass every index's verify.
    """
    from repro.core import PatchIndexManager
    from repro.sql import SQLSession
    from repro.storage import Catalog, Table

    expected = images(setup.catalog)
    times, bad = [], 0
    for _ in range(reps):
        gc.collect()
        t0 = time.perf_counter()
        catalog = Catalog()
        for table in setup.catalog:
            catalog.register(Table.empty_like(table.name, table))
        manager = PatchIndexManager(catalog)
        attach(catalog, manager, setup.index_specs, setup.condense_threshold)
        session = SQLSession(catalog, manager, data_dir=str(data_dir), wal_sync=wal_sync)
        times.append(time.perf_counter() - t0)
        got = images(catalog)
        same = all(
            name in got and checks.same_image(img, got[name]) for name, img in expected.items()
        )
        bad += 0 if same and verify_all(manager) == 0 else 1
        session.close()
        for handle in manager.indexes():
            handle.detach()
    return times, bad


def remove_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
