"""Shared helpers: locating the program's source, environment tags and
latency statistics."""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import platform
import resource
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: scratch space for data directories and span dumps (git-ignored)
OUT_DIR = ROOT / ".pibench_out"
#: malloc arenas per benchmark process: one per core.  With glibc's
#: default (8 per core) each worker and executor thread kept an arena of
#: its own, and peak memory followed how freed blocks happened to
#: fragment: 200-245 MB for the htap-wire server and 102-117 MB on
#: pi-update over ten runs of the same code; with 2 arenas 164-179 MB
#: and 103-110 MB
MALLOC_ARENAS = 2
M_ARENA_MAX = -8  # mallopt parameter, glibc's malloc.h


class SourceMissingError(RuntimeError):
    """The checkout holds no ``src/repro`` package to benchmark."""


def ensure_src() -> None:
    """Put the checkout's ``src`` first on ``sys.path`` and prove that
    ``import repro`` resolves there, never to an installed copy."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SourceMissingError(f"no program source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SourceMissingError(f"repro imported from {repro.__file__}, not {SRC}")


def limit_malloc_arenas() -> None:
    """Cap glibc's malloc arenas; call before the process starts threads."""
    try:
        ctypes.CDLL(None).mallopt(M_ARENA_MAX, MALLOC_ARENAS)
    except (OSError, AttributeError):
        pass  # not glibc: no arenas to cap


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# environment tags
# ----------------------------------------------------------------------
def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git (a
    benchmark checkout may not be a repository at all)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none (not a git checkout)"


def _source_digest() -> str:
    """sha256 over the program's source files: identifies the code even
    where there is no git commit."""
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _filesystem(path: Path) -> str:
    """Filesystem type of the mount holding ``path`` (from /proc/mounts)."""
    target = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as fh:
            for line in fh:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def env_tags(data_dir: Optional[Path], wal_sync: str) -> Dict:
    """Hardware and environment the figures were measured on."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "wal_sync": wal_sync,
        "data_dir_fs": _filesystem(data_dir) if data_dir is not None else "none",
        "note": "latencies are this machine's, not a storage device's",
    }


# ----------------------------------------------------------------------
# latency statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Iterable[float]) -> float:
    return percentile(list(values), 50.0)


def gmean_of_medians(by_template: Dict[str, List[float]]) -> float:
    """Median latency per statement template, combined by geometric mean
    (the TPC-H "power" aggregate): a 2x change on any one template moves
    it by the same factor whatever that template's share of the mix."""
    meds = [median(v) for v in by_template.values() if v]
    if not meds:
        raise ValueError("no latency samples")
    return math.exp(sum(math.log(max(m, 1e-9)) for m in meds) / len(meds))


def beyond_count(n: int, q: float) -> int:
    """Samples strictly above the ``q``-th percentile of ``n`` samples."""
    return int(n - math.ceil(n * q / 100.0))


def metric(value: float, unit: str) -> Dict:
    return {"value": float(value), "unit": unit}
