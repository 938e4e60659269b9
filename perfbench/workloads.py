"""Workload table and seed-driven grid generation.

Each workload is a set of ``fsoqkd`` subcommands run on one generated INI
config.  Path lengths are drawn log-uniformly inside fixed strata of a band
(one draw in the central ``STRATUM_SPAN`` of each equal log-width stratum),
so every seed covers the band the same way and the cost of a run stays
comparable across seeds: near-field flat-top points cost up to 3x more than
far-field ones.  The ``cn2`` values are fixed per workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

DEFAULT_SEED = 1
"""Seed whose outputs are compared with the CSVs under ``reference/``."""

HELD_OUT_SEED = 7919
"""Seed kept out of tuning; a later performance claim must also hold on it."""

STRATUM_SPAN = 0.3
"""Share of each stratum's log-width that draws fall in, centred."""


@dataclass(frozen=True)
class Workload:
    name: str
    commands: Tuple[str, ...]
    length_band_km: Tuple[float, float]
    lengths: int
    cn2_values: Tuple[float, ...]
    q_max: int
    n_max: int
    why: str


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="lg-turb",
            commands=("rates",),
            length_band_km=(10.0, 20.0),
            lengths=1,
            cn2_values=(1e-14, 1e-13),
            q_max=8,
            n_max=1,
            why="turbulent LG matrix at the default q_max = 8: the HG moment "
            "engine dominates, the optimizer is second",
        ),
        Workload(
            name="fb-scan",
            commands=("rates",),
            length_band_km=(1.0, 40.0),
            lengths=3,
            cn2_values=(0.0, 1e-14),
            q_max=1,
            n_max=8,
            why="flat-top grids N = 1..8 in vacuum and turbulence: the power "
            "optimizer dominates, the moment engine is idle",
        ),
        Workload(
            name="single-beam",
            commands=("validate", "transmissivity"),
            length_band_km=(10.0, 100.0),
            lengths=60,
            cn2_values=(0.0, 1e-15, 1e-14, 1e-13),
            q_max=8,
            n_max=8,
            why="single-beam 5/3-law and flat-top averages: 1-D adaptive "
            "quadrature and CSV emission, no matrices or optimizer",
        ),
    )
}


@dataclass(frozen=True)
class Grid:
    """The generated inputs of one workload at one seed."""

    workload: Workload
    seed: int
    path_lengths_m: Tuple[float, ...]

    @property
    def cn2_values(self) -> Tuple[float, ...]:
        return self.workload.cn2_values

    def rows(self, command: str) -> List[Tuple[float, float]]:
        """Expected (L, cn2) key of every CSV row, in CLI output order."""
        keys = [(L, c) for L in self.path_lengths_m for c in self.cn2_values]
        if command == "rates":
            return [key for key in keys for _family in ("lg", "fb")]
        return keys

    def ini(self) -> str:
        lengths = ", ".join(f"{L!r} m" for L in self.path_lengths_m)
        cn2 = ", ".join(repr(c) for c in self.cn2_values)
        return (
            "[channel]\n"
            f"path_lengths = {lengths}\n"
            "[turbulence]\n"
            f"cn2_values = {cn2}\n"
            "[planner]\n"
            f"q_max = {self.workload.q_max}\n"
            f"n_max = {self.workload.n_max}\n"
        )

    def record(self) -> dict:
        return {
            "seed": self.seed,
            "commands": list(self.workload.commands),
            "path_lengths_m": list(self.path_lengths_m),
            "cn2_values": list(self.cn2_values),
            "q_max": self.workload.q_max,
            "n_max": self.workload.n_max,
        }


def stratified_log(rng: random.Random, lo: float, hi: float, count: int) -> List[float]:
    """One log-uniform draw in the central STRATUM_SPAN of each of ``count`` strata."""
    ratio = hi / lo
    offset = 0.5 * (1.0 - STRATUM_SPAN)
    return [
        lo * ratio ** ((i + offset + STRATUM_SPAN * rng.random()) / count)
        for i in range(count)
    ]


def generate(name: str, seed: int) -> Grid:
    workload = WORKLOADS[name]
    rng = random.Random(f"{name}/{seed}")
    lo, hi = workload.length_band_km
    lengths = stratified_log(rng, lo * 1e3, hi * 1e3, workload.lengths)
    return Grid(workload=workload, seed=seed, path_lengths_m=tuple(lengths))
