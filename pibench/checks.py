"""Output checks: result digests, reference comparisons, table images.

A read result is checked against the same statement run on an
index-free session.  Unordered results compare as row multisets; an
``ORDER BY key [LIMIT n]`` result must carry the reference's key column
in order, and the same rows, except that rows tied on the last key of a
LIMIT cut may be any of the tied reference rows.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Optional

import numpy as np

_ROWID = "__rowid__"
_MIX = np.uint64(0x9E3779B97F4A7C15)


def result_columns(rel) -> Dict[str, np.ndarray]:
    """A result's user-visible columns (the rowid carrier excluded)."""
    return {n: np.asarray(rel.column(n)) for n in rel.column_names if n != _ROWID}


def _as_words(arr: np.ndarray) -> np.ndarray:
    if arr.dtype == object:
        return np.array([hash(v) for v in arr], dtype=np.int64).view(np.uint64)
    if arr.dtype.kind == "f":
        return np.ascontiguousarray(arr, dtype=np.float64).view(np.uint64)
    return np.ascontiguousarray(arr).astype(np.int64, copy=False).view(np.uint64)


def digest(cols: Dict[str, np.ndarray]) -> tuple:
    """Position-sensitive fingerprint of a result (a few ms per 300K
    rows).  Equal digests stand for equal results; a result whose digest
    was already checked against the reference needs no second check."""
    n = len(next(iter(cols.values()))) if cols else 0
    weights = np.arange(1, n + 1, dtype=np.uint64) * _MIX | np.uint64(1)
    parts = [n]
    for name in sorted(cols):
        parts.append((name, int((_as_words(cols[name]) * weights).sum())))
    return tuple(parts)


def _float_names(cols: Dict[str, np.ndarray]) -> list:
    return [n for n in sorted(cols) if cols[n].dtype.kind == "f"]


def _canonical(cols: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Rows sorted by every exact column (floats only as a last resort,
    since sums may differ in the last bits between plans)."""
    if not cols:
        return cols
    floats = _float_names(cols)
    exact = [n for n in sorted(cols) if n not in floats]
    keys = [cols[n] for n in reversed(exact + floats)]
    keys = [k.astype(str) if k.dtype == object else k for k in keys]
    order = np.lexsort(keys)
    return {n: a[order] for n, a in cols.items()}


def _equal_columns(a: Dict[str, np.ndarray], b: Dict[str, np.ndarray]) -> bool:
    if set(a) != set(b):
        return False
    for name in a:
        x, y = a[name], b[name]
        if len(x) != len(y):
            return False
        if x.dtype.kind == "f" or y.dtype.kind == "f":
            if not np.allclose(x, y, rtol=1e-9, atol=1e-6, equal_nan=True):
                return False
        elif not np.array_equal(x, y):
            return False
    return True


def same_multiset(result: Dict[str, np.ndarray], ref: Dict[str, np.ndarray]) -> bool:
    """Equal as row multisets (column order ignored)."""
    return _equal_columns(_canonical(result), _canonical(ref))


def same_ordered(
    result: Dict[str, np.ndarray],
    ref_full: Dict[str, np.ndarray],
    key: str,
    limit: Optional[int] = None,
) -> bool:
    """An ascending ``ORDER BY key [LIMIT limit]`` result against the
    reference's full ``ORDER BY key`` output (no LIMIT)."""
    if set(result) != set(ref_full) or key not in result:
        return False
    total = len(ref_full[key])
    m = len(result[key])
    if m != (total if limit is None else min(limit, total)):
        return False
    if not np.array_equal(result[key], ref_full[key][:m]):
        return False
    if m == 0:
        return True
    last = result[key][m - 1]
    head = m - int(np.count_nonzero(result[key] == last))
    head_r = {n: a[:head] for n, a in result.items()}
    head_f = {n: a[:head] for n, a in ref_full.items()}
    if not same_multiset(head_r, head_f):
        return False
    # the tied group at the cut: any sub-multiset of the tied reference rows
    tied_end = head + int(np.count_nonzero(ref_full[key] == last))
    names = sorted(result)
    got = Counter(zip(*(result[n][head:m].tolist() for n in names)))
    pool = Counter(zip(*(ref_full[n][head:tied_end].tolist() for n in names)))
    return not (got - pool)


def table_image(table) -> Dict[str, np.ndarray]:
    """A copy of every column of a table."""
    return {n: np.array(table.column(n), copy=True) for n in table.schema.names}


def same_image(a: Dict[str, np.ndarray], b: Dict[str, np.ndarray]) -> bool:
    """Bit-identical table images (same columns, order and dtypes)."""
    return set(a) == set(b) and all(
        a[n].dtype == b[n].dtype and np.array_equal(a[n], b[n]) for n in a
    )
