"""fsoqkd benchmark: one workload, repeated CLI invocations, checked outputs.

Usage (from the repository root):

    python3 perfbench/run.py --workload lg-turb --seed 1 --seconds 40 --trace 0

Each invocation is a fresh child process that imports ``fsoqkd`` from
``src/`` and calls ``fsoqkd.cli.main`` with ``--jobs 1`` on a generated INI
config, so every invocation pays the engine, Gauss-Legendre and basis-change
caches cold, as a real CLI run does.  Invocations repeat until the next one
would end after ``--seconds``.  With ``--trace 0`` the last stdout line
holds the end-to-end metrics (medians over invocations); with ``--trace 1``
invocations alternate untraced and traced, and it holds the per-layer
metrics of the traced ones.  The full record (machine, versions, code
identity, grid, every invocation) is printed before that line and written
to ``.perfbench/<workload>-seed<seed>-trace<t>/result.json``.

Exit status: 0 when every output check passed, 1 when one failed (the
result line is still printed), 2 when the checkout holds no ``src/fsoqkd``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from checks import check_csv, compare_reference
from spans import summarize
from workloads import DEFAULT_SEED, WORKLOADS, Grid, generate

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("turbulence.lg_turb_matrix.self_s", "s"),
    ("turbulence.lg_turb_matrix.share", "%"),
    ("numerics.hg_sample.calls", "count"),
    ("numerics.hg_sample.self_s", "s"),
    ("planner.optimize_allocation.calls", "count"),
    ("planner.optimize_allocation.self_s", "s"),
    ("planner.optimize_allocation.evals_per_call", "evals/call"),
    ("planner.optimize_allocation.share", "%"),
    ("qkd.rate_per_pulse.calls", "count"),
    ("qkd.rate_per_pulse.self_s", "s"),
    ("qkd.rate_per_pulse.us_per_call", "us"),
    ("turbulence.fb_turb_matrix.self_s", "s"),
    ("vacuum.fb_vacuum_matrix.self_s", "s"),
    ("vacuum.lg_vacuum_matrix.self_s", "s"),
    ("turbulence.gaussian_pib_53.self_s", "s"),
    ("turbulence.fb_turb_eta.self_s", "s"),
    ("numerics.integrate_1d.calls", "count"),
    ("numerics.integrate_1d.self_s", "s"),
    ("numerics.integrate_1d.share", "%"),
    ("cli.self_s", "s"),
    ("planner.lg_envelope.self_s", "s"),
    ("planner.fb_envelope.self_s", "s"),
    ("planner.scan.self_s", "s"),
    ("channel.derive.calls", "count"),
    ("vacuum.lg_vacuum_capacity.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)

SETUP_SPAWNS = 2
"""Import-and-parse-only invocations per run, so setup_s has enough samples."""

LIMIT_S = 170.0
"""No invocation starts, and none may run, past this many seconds."""

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
"""One process, one thread: the load never asks for more threads than nproc."""

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unavailable"


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fsoqkd").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


@dataclass
class Invocation:
    """One child process: its timings and the rows that failed their checks."""

    traced: bool
    setup_only: bool
    setup_s: Optional[float] = None
    wall_s: Optional[float] = None
    peak_rss_mb: Optional[float] = None
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    layers: Dict[str, float] = field(default_factory=dict)
    versions: Dict[str, str] = field(default_factory=dict)

    def record(self) -> dict:
        out = asdict(self)
        del out["layers"], out["versions"]
        out["failed"] = len(self.failures)
        out["failures"] = self.failures[:5]
        return out


def layer_values(spans: list, counters: Dict[str, list], wall: float) -> Dict[str, float]:
    """Per-layer metrics of one traced invocation (see PER_LAYER)."""
    summary = summarize(spans)
    for name, (calls, seconds) in counters.items():
        summary[name] = {"calls": calls, "self_s": seconds, "incl_s": seconds}
    empty = {"calls": 0, "self_s": 0.0, "incl_s": 0.0}
    values: Dict[str, float] = {}
    for metric, _unit in PER_LAYER:
        # "<module>.<function>.<calls|self_s|share>"; the rest are set below.
        layer, _, kind = metric.rpartition(".")
        stats = summary.get(layer, empty)
        if kind in ("calls", "self_s") and "." in layer:
            values[metric] = stats[kind]
        elif kind == "share":
            values[metric] = 100.0 * stats["incl_s"] / wall
    rate = summary.get("qkd.rate_per_pulse", empty)
    optimizations = summary.get("planner.optimize_allocation", empty)["calls"]
    values["qkd.rate_per_pulse.us_per_call"] = (
        1e6 * rate["self_s"] / rate["calls"] if rate["calls"] else 0.0
    )
    values["planner.optimize_allocation.evals_per_call"] = (
        rate["calls"] / optimizations if optimizations else 0.0
    )
    values["cli.self_s"] = sum(
        stats["self_s"] for name, stats in summary.items() if name.startswith("cli.")
    )
    values["trace.wall_s"] = wall
    return values


def invoke(grid: Grid, work: Path, tag: str, traced: bool, setup_only: bool,
           timeout: float) -> Invocation:
    inv = Invocation(traced, setup_only)
    commands = [(c, str(work / f"{tag}-{c}.csv")) for c in grid.workload.commands]
    spec = {
        "root": str(ROOT),
        "config": str(work / "config.ini"),
        "commands": commands,
        "trace": traced,
        "setup_only": setup_only,
        "spans": str(work / "spans.json"),
        "result": str(work / f"{tag}-result.json"),
    }
    spec_path = work / f"{tag}-spec.json"
    spec_path.write_text(json.dumps(spec))
    env = {**os.environ, **THREAD_ENV, "FSO_QKD_LOG": "WARNING"}
    spawned = _now()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), str(spec_path)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        proc = None
    result_path = Path(spec["result"])
    if proc is None or proc.returncode != 0 or not result_path.is_file():
        reason = "timed out" if proc is None else proc.stderr.strip()[-300:]
        inv.failures.append(f"invocation failed: {reason}")
        if not setup_only:
            inv.attempted = sum(len(grid.rows(c)) for c, _ in commands)
            inv.failures *= max(inv.attempted, 1)
        return inv
    result = json.loads(result_path.read_text())
    inv.setup_s = result["t_ready"] - spawned
    inv.peak_rss_mb = result["peak_rss_mb"]
    inv.versions = result["versions"]
    if setup_only:
        return inv
    inv.wall_s = sum(run["wall_s"] for run in result["runs"])
    for run, (command, csv_path) in zip(result["runs"], commands):
        keys = grid.rows(command)
        inv.attempted += len(keys)
        text = Path(csv_path).read_text() if Path(csv_path).is_file() else ""
        if run["status"] != 0:
            inv.failures += [f"{command}: exit status {run['status']}"] * len(keys)
            continue
        failed = check_csv(command, text, keys)
        if grid.seed == DEFAULT_SEED:
            ref = BENCH / "reference" / f"{grid.workload.name}-{command}.csv"
            if not ref.is_file():
                failed[-1] = f"no reference CSV {ref.name}"
            else:
                for row, reason in compare_reference(text, ref.read_text()).items():
                    failed.setdefault(row, reason)
        if -1 in failed:
            inv.failures += [f"{command}: {failed[-1]}"] * len(keys)
        else:
            inv.failures += [f"{command} row {row}: {why}" for row, why in sorted(failed.items())]
    if traced:
        spans = json.loads(Path(spec["spans"]).read_text())
        inv.layers = layer_values(spans, result["counters"], inv.wall_s)
    return inv


def _quartiles(values: List[float]) -> tuple:
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def _line(name: str, unit: str, values: List[float], note: str = "") -> str:
    q1, q3 = _quartiles(values)
    return (f"  {name:<46} median {statistics.median(values):.6g} {unit}"
            f"  (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)}){note}")


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    grid = generate(workload, seed)
    work = ROOT / ".perfbench" / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (work / "config.ini").write_text(grid.ini())

    start = _now()
    invocations: List[Invocation] = []
    for i in range(SETUP_SPAWNS):
        invocations.append(invoke(grid, work, f"setup{i}", False, True, LIMIT_S))
    pattern = itertools.cycle((False, True)) if trace else itertools.repeat(False)
    full: List[Invocation] = []
    for i, traced in enumerate(pattern):
        timeout = LIMIT_S - (_now() - start)
        inv = invoke(grid, work, f"run{i}", traced, False, max(timeout, 1.0))
        full.append(inv)
        invocations.append(inv)
        if inv.wall_s is None:
            break
        elapsed = _now() - start
        typical = statistics.median(v.wall_s + v.setup_s for v in full)
        modes_covered = not trace or len(full) >= 2
        if modes_covered and elapsed + typical > seconds or elapsed + typical > LIMIT_S:
            break

    attempted = sum(v.attempted for v in full)
    failed = sum(len(v.failures) for v in full)
    failures = [f for v in invocations for f in v.failures]
    correct = not failures
    untraced = [v for v in full if not v.traced and v.wall_s is not None]
    traced_runs = [v for v in full if v.traced and v.wall_s is not None]

    samples = {
        "wall_s": [v.wall_s for v in untraced],
        "setup_s": [v.setup_s for v in invocations if v.setup_s is not None],
        "peak_rss_mb": [v.peak_rss_mb for v in untraced],
    }
    print(f"fsoqkd benchmark: workload {workload}, seed {seed}, trace {int(trace)}, "
          f"{len(full)} invocations in {_now() - start:.1f} s")
    for name, unit in END_TO_END:
        if samples[name]:
            print(_line(name, unit, samples[name]))
    print(f"  {'failed_frac':<46} {failed / max(attempted, 1):.6g}"
          f"  ({failed} of {attempted} rows)")

    metrics: Dict[str, dict] = {}
    if trace and traced_runs and untraced:
        layer_samples = {m: [v.layers[m] for v in traced_runs] for m, _ in PER_LAYER
                         if m != "trace.overhead_s"}
        layer_samples["trace.overhead_s"] = [
            statistics.median(layer_samples["trace.wall_s"])
            - statistics.median(samples["wall_s"])
        ]
        base = statistics.median(layer_samples["planner.optimize_allocation.calls"])
        for name, unit in PER_LAYER:
            note = f"  base: {base:g} optimizations" if name.endswith("evals_per_call") else ""
            print(_line(name, unit, layer_samples[name], note))
            metrics[name] = {"value": statistics.median(layer_samples[name]), "unit": unit}
    elif not trace and samples["wall_s"]:
        for name, unit in END_TO_END:
            metrics[name] = {"value": statistics.median(samples[name]), "unit": unit}
    else:
        correct = False
    for failure in failures[:10]:
        print(f"  FAILED {failure}")

    versions = next((v.versions for v in invocations if v.versions), {})
    record = {
        "workload": workload,
        "why": grid.workload.why,
        "seconds": seconds,
        "trace": trace,
        "grid": grid.record(),
        "machine": {
            "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "platform": platform.platform(),
            **versions,
            "thread_env": THREAD_ENV,
            "load": "one child process at a time, --jobs 1",
        },
        "code": {"git_commit": _git_commit(), "src_sha256": _src_digest()},
        "invocations": [v.record() for v in invocations],
        "metrics": metrics,
    }
    (work / "result.json").write_text(json.dumps(record, indent=1))
    print("record " + json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed if attempted else 1, "metrics": metrics}))
    return 0 if correct else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fsoqkd" / "cli.py").is_file():
        print(f"perfbench: no fsoqkd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
