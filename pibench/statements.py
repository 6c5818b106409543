"""Seeded statement streams.

The statement text depends only on the seed and the statement's
position in its stream, never on timing, so a run's statement log is a
prefix of one fixed sequence and can be replayed exactly.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

ROWS_PER_WRITE = 20

#: pi-read: (template, SQL, ORDER BY key or None, LIMIT or None)
READ_TEMPLATES = [
    ("nuc-distinct", "SELECT DISTINCT v FROM nuc", None, None),
    ("nsc-sort", "SELECT k, v, p00, p01, p02, p03 FROM nsc ORDER BY v", "v", None),
    ("nsc-topn", "SELECT k, v, p00 FROM nsc ORDER BY v LIMIT 100", "v", 100),
    ("nuc-groupby", "SELECT v, COUNT(*) AS c FROM nuc GROUP BY v", None, None),
    (
        "tpch-join",
        "SELECT o_orderdate, SUM(l_extendedprice) AS rev FROM lineitem JOIN orders "
        "ON l_orderkey = o_orderkey WHERE o_orderdate < 19950101 GROUP BY o_orderdate",
        None,
        None,
    ),
    ("control-agg", "SELECT SUM(p00) AS s FROM nsc WHERE k < {half}", None, None),
]

WRITE_TEMPLATES = ["ins-nuc", "ins-nsc", "upd-nuc", "upd-nsc", "del-nuc", "del-nsc"]


def read_statements(rows: int):
    """pi-read templates with the table size filled in."""
    return [(n, sql.format(half=rows // 2), key, lim) for n, sql, key, lim in READ_TEMPLATES]


def reference_sql(sql: str, limit: Optional[int]) -> str:
    """The statement the index-free reference runs: a LIMIT is dropped so
    rows tied at the cut can be judged."""
    return sql.rsplit(" LIMIT ", 1)[0] if limit is not None else sql


class WriteStream:
    """pi-update statements, cycling insert/update/delete over both tables.

    Each statement touches ~``ROWS_PER_WRITE`` rows.  NUC inserts take
    ~20% of their values from the generated unique values (collisions,
    so new patches); NSC inserts append ascending values beyond the
    sorted run except ~10% random ones (patches).  Updates shift ``v`` of
    a random key range: on ``nuc`` by a statement-unique offset that
    collides with nothing, so correct maintenance adds no patch; on
    ``nsc`` every modified row becomes a patch (§5.1).  Deletes drop a
    random key range.
    """

    def __init__(self, seed: int, rows: int) -> None:
        self.rng = np.random.default_rng([seed, 7])
        self.rows = rows
        self.position = 0
        self._next_key = rows
        self._nuc_fresh = 10**9
        self._nsc_top = 10**8

    def _key_range(self) -> Tuple[int, int]:
        lo = int(self.rng.integers(0, max(1, self.rows - ROWS_PER_WRITE)))
        return lo, lo + ROWS_PER_WRITE

    def _keys(self) -> range:
        keys = range(self._next_key, self._next_key + ROWS_PER_WRITE)
        self._next_key += ROWS_PER_WRITE
        return keys

    def next(self) -> Tuple[str, str]:
        name = WRITE_TEMPLATES[self.position % len(WRITE_TEMPLATES)]
        self.position += 1
        rng, n = self.rng, self.rows
        if name == "ins-nuc":
            values = []
            for k in self._keys():
                if rng.random() < 0.2:
                    v = n + int(rng.integers(0, n))  # a generated unique value
                else:
                    self._nuc_fresh += 1
                    v = self._nuc_fresh
                values.append(f"({k}, {v})")
            return name, "INSERT INTO nuc (k, v) VALUES " + ", ".join(values)
        if name == "ins-nsc":
            values = []
            for k in self._keys():
                if rng.random() < 0.1:
                    v = int(rng.integers(0, n))  # below the sorted boundary
                else:
                    self._nsc_top += 1
                    v = self._nsc_top
                p = rng.integers(0, 1 << 30, 4)
                values.append(f"({k}, {v}, {p[0]}, {p[1]}, {p[2]}, {p[3]})")
            return name, (
                "INSERT INTO nsc (k, v, p00, p01, p02, p03) VALUES " + ", ".join(values)
            )
        lo, hi = self._key_range()
        table = name[4:]
        if name.startswith("upd"):
            shift = (2 + self.position) * 10**9 if table == "nuc" else 7
            return name, f"UPDATE {table} SET v = v + {shift} WHERE k >= {lo} AND k < {hi}"
        return name, f"DELETE FROM {table} WHERE k >= {lo} AND k < {hi}"


#: htap-wire reads: small results only (JSON encoding of big ones would
#: dominate the wire path)
MIX_READS = ["point", "nsc-topn", "range-groupby", "control-agg"]
WRITE_SHARE = 0.10


class MixStream:
    """htap-wire statements: ~90% small-result reads, ~10% pi-update writes."""

    def __init__(self, seed: int, rows: int) -> None:
        self.rng = np.random.default_rng([seed, 11])
        self.rows = rows
        self.writes = WriteStream(seed, rows)

    def next(self) -> Tuple[str, str, str]:
        """``(kind, template, sql)``."""
        rng, n = self.rng, self.rows
        if rng.random() < WRITE_SHARE:
            return ("write",) + self.writes.next()
        name = MIX_READS[int(rng.integers(0, len(MIX_READS)))]
        if name == "point":
            sql = f"SELECT k, v, p00 FROM nsc WHERE k = {int(rng.integers(0, n))}"
        elif name == "nsc-topn":
            sql = "SELECT k, v, p00 FROM nsc ORDER BY v LIMIT 100"
        elif name == "range-groupby":
            lo = int(rng.integers(0, max(1, n - 500)))
            sql = (
                f"SELECT v, COUNT(*) AS c FROM nuc WHERE k >= {lo} AND k < {lo + 500} "
                "GROUP BY v"
            )
        else:
            sql = f"SELECT SUM(p00) AS s FROM nsc WHERE k < {int(rng.integers(1, n))}"
        return "read", name, sql
