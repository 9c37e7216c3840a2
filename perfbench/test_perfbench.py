"""Self-tests of the benchmark: its checks catch a wrong DU, its inputs
follow the seed, and it reports every metric it declares.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.prepare_environment()

import workloads  # noqa: E402

# One stratum per n keeps a du-n* run to a single channel.
SMALL_DU = {"strata": 1}


def _rewrite_csv(path: Path, row: int, column: int, delta: float) -> None:
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[column] = repr(float(cells[column]) + delta)
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("env_dim", workloads.BULK_ENV_DIMS)
def test_bulk_check_counts_a_planted_wrong_du(env_dim, tmp_path):
    wl = workloads.BulkQubit(env_dim, 3, tmp_path)
    item = wl.item(0)
    call = wl.call(item)
    assert wl.check(item, call, None) == 0
    _rewrite_csv(wl.csv, 5, 0, 1e-6)
    assert wl.check(item, call, None) == 1


@pytest.mark.parametrize("n", [2, 4])
def test_du_check_counts_a_planted_wrong_du(n, tmp_path):
    wl = workloads.DuDims(n, 3, tmp_path, strata=2)
    wl.prepare()
    for item in wl.schedule:
        call = wl.call(item)
        assert wl.check(item, call, None) == 0
        result, bounds = call.output
        for delta in (-1e-6, 1e-6):
            planted = dataclasses.replace(result, value=result.value + delta)
            wrong = dataclasses.replace(call, output=(planted, bounds))
            assert wl.check(item, wrong, None) == 1


def test_du_check_holds_the_recorded_reference(tmp_path):
    wl = workloads.DuDims(4, 3, tmp_path, strata=2)
    wl.prepare()
    i, ch, reference = wl.schedule[0]
    call = wl.call(wl.schedule[0])
    raised = (i, ch, call.output[0].value + 1e-6)
    assert wl.check(raised, call, None) == 1


def test_table1_check_counts_a_planted_wrong_du(tmp_path):
    wl = workloads.Table1Cli(3, tmp_path)
    wl.prepare()
    call = wl.call("pass")
    assert wl.check("pass", call, None) == 0
    _rewrite_csv(wl.csv, 7, 2, 1e-6)
    assert wl.check("pass", call, None) == 1
    lines = wl.csv.read_text().splitlines()
    wl.csv.write_text("\n".join(lines[:-1]) + "\n")
    assert wl.check("pass", call, None) == 2


def test_table1_check_skips_summary_lines_and_new_columns(tmp_path):
    wl = workloads.Table1Cli(3, tmp_path)
    wl.prepare()
    call = wl.call("pass")
    lines = wl.csv.read_text().splitlines()
    extended = ["# rows=204"] + [f"{line},{'note' if k == 0 else 'x'}" for k, line in enumerate(lines)]
    wl.csv.write_text("\n".join(extended) + "\n")
    assert wl.check("pass", call, None) == 0


def test_inputs_follow_the_seed(tmp_path):
    def bulk(seed):
        wl = workloads.BulkQubit(2, seed, tmp_path)
        return [wl.item(i) for i in range(3)]

    def du_schedule(seed):
        wl = workloads.DuDims(2, seed, tmp_path, strata=8)
        wl.prepare()
        return [i for i, _, _ in wl.schedule]

    assert bulk(1) == bulk(1)
    assert bulk(1) != bulk(2)
    assert du_schedule(1) == du_schedule(1)
    assert du_schedule(1) != du_schedule(2)


def test_pool_reference_covers_the_pools():
    reference = workloads.load_reference()
    assert {n: len(rows) for n, rows in reference.items()} == workloads.DU_POOL
    assert all(workloads.DU_STRATA[n] <= size for n, size in workloads.DU_POOL.items())


def test_benchmark_json_declares_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in workloads.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in workloads.PER_LAYER
    ]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_is_reported_with_its_unit(name, tmp_path):
    kwargs = SMALL_DU if name.startswith("du-") else {}
    plain = workloads.run(name, 5, 0.0, False, run.SRC, tmp_path, **kwargs)
    assert plain.correct and plain.failed == 0 and plain.attempted > 0
    assert {k: u for k, (_, u) in plain.metrics.items()} == {
        n: u for n, u, _, _ in workloads.END_TO_END
    }
    assert all(v > 0 for v, _ in plain.metrics.values())

    traced = workloads.run(name, 5, 0.0, True, run.SRC, tmp_path, **kwargs)
    assert traced.correct
    assert {k: u for k, (_, u) in traced.metrics.items()} == {
        n: u for n, u, _ in workloads.PER_LAYER
    }
    values = {k: v for k, (v, _) in traced.metrics.items()}
    modules = sum(values[f"layer.{m}.self_ms"] for m in workloads.MODULES)
    assert modules == pytest.approx(values["layer.call.span_ms"], rel=1e-9)
    assert (tmp_path / f"trace-{name}-5.jsonl").is_file()


def test_exits_without_result_when_the_library_is_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table1-cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
