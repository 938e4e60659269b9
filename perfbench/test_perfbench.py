"""Tests of the benchmark itself: generator, output checks, self-time arithmetic.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from checks import check_csv, compare_reference
from run import END_TO_END, PER_LAYER
from spans import Tracer, summarize
from workloads import DEFAULT_SEED, HELD_OUT_SEED, STRATUM_SPAN, WORKLOADS, generate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_and_stratified(name):
    workload = WORKLOADS[name]
    lo, hi = (1e3 * x for x in workload.length_band_km)
    for seed in (DEFAULT_SEED, HELD_OUT_SEED, 12345):
        grid = generate(name, seed)
        assert grid == generate(name, seed)
        assert grid.ini() == generate(name, seed).ini()
        lengths = grid.path_lengths_m
        assert len(lengths) == workload.lengths
        for i, length in enumerate(lengths):
            stratum = math.log(length / lo) / math.log(hi / lo) * workload.lengths
            assert abs(stratum - (i + 0.5)) <= 0.5 * STRATUM_SPAN + 1e-12
    assert generate(name, 1).path_lengths_m != generate(name, 2).path_lengths_m


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generated_config_parses_to_the_grid(name, tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from fsoqkd.cli import load_config
    finally:
        sys.path.remove(str(ROOT / "src"))
    grid = generate(name, HELD_OUT_SEED)
    path = tmp_path / "config.ini"
    path.write_text(grid.ini())
    cfg = load_config(str(path))
    assert cfg.path_lengths == grid.path_lengths_m
    assert cfg.cn2_values == grid.cn2_values
    assert (cfg.q_max, cfg.n_max) == (grid.workload.q_max, grid.workload.n_max)


def _reference(workload: str, command: str):
    text = (BENCH / "reference" / f"{workload}-{command}.csv").read_text()
    return text, generate(workload, DEFAULT_SEED).rows(command)


@pytest.mark.parametrize(
    "workload,command",
    [
        ("lg-turb", "rates"),
        ("fb-scan", "rates"),
        ("single-beam", "validate"),
        ("single-beam", "transmissivity"),
    ],
)
def test_reference_outputs_pass_their_checks(workload, command):
    text, keys = _reference(workload, command)
    assert check_csv(command, text, keys) == {}
    assert compare_reference(text, text) == {}


def _edit_cell(text: str, row: int, column: int, edit) -> str:
    lines = text.split("\n")
    cells = lines[row + 1].split(",")
    cells[column] = edit(cells[column])
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines)


def test_rate_perturbed_by_2e_6_relative_is_flagged():
    text, keys = _reference("fb-scan", "rates")
    bumped = _edit_cell(text, 3, 4, lambda c: "%.11e" % (float(c) * (1 + 2e-6)))
    assert check_csv("rates", bumped, keys) == {}
    assert list(compare_reference(bumped, text)) == [3]
    within = _edit_cell(text, 3, 4, lambda c: "%.11e" % (float(c) * (1 + 5e-7)))
    assert compare_reference(within, text) == {}


def test_failing_validate_row_is_flagged():
    text, keys = _reference("single-beam", "validate")
    failed = _edit_cell(text, 7, 6, lambda c: "fail")
    assert list(check_csv("validate", failed, keys)) == [7]


def test_physical_bounds_and_missing_rows_are_flagged():
    text, keys = _reference("lg-turb", "rates")
    over = _edit_cell(text, 0, 4, lambda c: "9.0e+12")
    assert list(check_csv("rates", over, keys)) == [0]
    errored = _edit_cell(text, 1, 4, lambda c: "")
    assert list(check_csv("rates", errored, keys)) == [1]
    truncated = "\n".join(text.split("\n")[:-2]) + "\n"
    assert list(check_csv("rates", truncated, keys)) == [len(keys) - 1]
    trans, trans_keys = _reference("single-beam", "transmissivity")
    above_one = _edit_cell(trans, 2, 3, lambda c: "1.5")
    assert list(check_csv("transmissivity", above_one, trans_keys)) == [2]


def test_self_time_with_reentrant_span_and_hidden_time():
    spans = [
        ["cli.main", 0.0, 10.0, -1, 0.0],
        ["turbulence.gaussian_pib_53", 1.0, 9.0, 0, 0.0],
        ["numerics.integrate_1d", 2.0, 8.0, 1, 0.0],
        ["numerics.integrate_1d", 3.0, 4.0, 2, 0.0],
        ["numerics.integrate_1d", 5.0, 7.0, 2, 0.5],
    ]
    out = summarize(spans)
    assert out["cli.main"] == {"calls": 1, "self_s": 2.0, "incl_s": 10.0}
    assert out["turbulence.gaussian_pib_53"] == {"calls": 1, "self_s": 2.0, "incl_s": 8.0}
    quad = out["numerics.integrate_1d"]
    assert quad["calls"] == 3
    assert quad["self_s"] == pytest.approx(3.0 + 1.0 + 1.5)
    assert quad["incl_s"] == 6.0  # the naive inclusive sum would read 9.0
    assert sum(v["self_s"] for v in out.values()) + 0.5 == pytest.approx(10.0)


def test_tracer_records_nesting_and_counts():
    tracer = Tracer()
    counted = tracer.counted("qkd.leaf", lambda x: x)

    def recurse(n):
        counted(n)
        return traced(n - 1) if n else 0

    traced = tracer.span("numerics.recurse", recurse)
    traced(2)
    assert [s[0] for s in tracer.spans] == ["numerics.recurse"] * 3
    assert [s[3] for s in tracer.spans] == [-1, 0, 1]
    assert tracer.counters["qkd.leaf"][0] == 3
    assert all(s[4] > 0.0 for s in tracer.spans)
    out = summarize(tracer.spans)["numerics.recurse"]
    assert out["incl_s"] == tracer.spans[0][2] - tracer.spans[0][1]


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)


def test_runner_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lg-turb", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
