"""The benchmark's own tests, at tiny sizes.

Each workload must run, pass its output checks and print every metric
``BENCHMARK.json`` names, with its unit; a planted wrong result must be
counted as failed.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from pibench import checks, common

SPEC = json.loads((common.ROOT / "BENCHMARK.json").read_text())
TINY = ["--seconds", "0.4", "--scale", "0.01"]


def _run(*args):
    out = subprocess.run(
        [sys.executable, str(common.ROOT / "pibench" / "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=str(common.ROOT),
    )
    assert out.returncode == 0, out.stdout[-3000:] + out.stderr[-3000:]
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_prints_every_metric(workload, trace):
    result = _run("--workload", workload, "--seed", "3", "--trace", str(trace), *TINY)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)


def _in_process():
    common.ensure_src()
    from pibench import inproc

    return inproc


def test_pi_read_counts_a_dropped_row_as_failed():
    def drop_row(template, cols, n):
        if n == 8:  # after the first round, which computed the references
            return {k: v[:-1] for k, v in cols.items()}
        return cols

    result = json.loads(
        _in_process().run_pi_read(3, 0.4, False, scale=0.01, tamper=drop_row)
    )
    assert result["failed"] == 1 and not result["correct"]


def test_pi_update_counts_a_lost_write_as_failed():
    def lose_row(setup):
        table = setup.catalog.table("nsc")
        table.delete(np.array([0]))

    result = json.loads(
        _in_process().run_pi_update(3, 0.4, False, scale=0.01, tamper=lose_row)
    )
    assert result["failed"] >= 1 and not result["correct"]


def test_ordered_check_accepts_any_rows_tied_at_the_limit():
    ref = {"v": np.array([1, 2, 2, 2, 3]), "k": np.array([10, 20, 21, 22, 30])}
    ok = {"v": np.array([1, 2, 2]), "k": np.array([10, 22, 20])}
    wrong = {"v": np.array([1, 2, 2]), "k": np.array([10, 22, 99])}
    assert checks.same_ordered(ok, ref, "v", limit=3)
    assert not checks.same_ordered(wrong, ref, "v", limit=3)
    assert not checks.same_ordered({"v": ok["v"][::-1], "k": ok["k"]}, ref, "v", limit=3)


def test_multiset_check_ignores_row_order_but_not_rows():
    a = {"x": np.array([3, 1, 2]), "s": np.array([0.5, 0.25, 1.0])}
    b = {"x": np.array([1, 2, 3]), "s": np.array([0.25, 1.0, 0.5])}
    assert checks.same_multiset(a, b)
    assert not checks.same_multiset(a, {"x": b["x"][:2], "s": b["s"][:2]})
    assert checks.digest(a) != checks.digest(b)


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    (tmp_path / "pibench").mkdir()
    for path in (common.ROOT / "pibench").glob("*.py"):
        (tmp_path / "pibench" / path.name).write_text(path.read_text())
    out = subprocess.run(
        [sys.executable, "pibench/run.py", "--workload", "pi-read", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=str(tmp_path),
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
