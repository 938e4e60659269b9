"""Command-line front end: config parsing, scans, CSV emission.

Subcommands
-----------
transmissivity
    Average single-beam transmissivities vs path length: the flat-top
    focused beam over its matched square pupil and the focused Gaussian
    power-in-bucket.  Columns: L_m,cn2,eta_fb,eta_gauss.
rates
    Optimized QKD rate envelopes per (L, cn2, mode family) plus the lossy
    channel capacity bound on LG rows.  Columns:
    L_m,cn2,mode_set,config,rate_bps,capacity_bps.
validate
    Square-law vs 5/3-law Gaussian power-in-bucket over a grid, asserting
    square <= five-thirds <= vacuum at every point, vacuum included; the
    exit code reflects the assertion outcome.

Config keys are listed once, in ``_KEYS``: each names its parser and the
:class:`RunConfig` field it sets, and both the unknown-key check and the
parsing read that table.  :func:`load_config` checks each line of the
file as it reads it, in one pass, so every config error carries a
``file:line`` prefix and exits 2.  Every subcommand builds its (L, cn2)
grid and deals the points round-robin over one task ``(config, points)``
per worker in one helper, ``_per_point``.  A ``transmissivity`` or
``validate`` task makes one array call per quantity on all its points; a
``rates`` task is one ``scan`` call on both families' links of its
points, one lockstep ascent for both families.  ``_link`` alone chooses
a pupil by family.

Every CSV is written by ``_csv``, which owns the header and the LF line
endings.  Real cells use ``_REAL``, 12-significant-digit scientific
notation, so identical configurations yield byte-identical files:
``_csv`` writes every number a row always has, and ``cmd_rates`` writes
its two that may be missing (rate, capacity) as text, empty or
``_REAL``.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import re
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .channel import (
    ChannelConfig,
    HardSquare,
    SoftGaussian,
    derive,
    matched_square_side,
)
from .planner import OptimizerOptions, ScanRow, scan
from .qkd import QkdSystemParams
from .turbulence import fb_turb_eta, gaussian_pib_53, gaussian_pib_turb
from .vacuum import fb_pixel_grid, lg_vacuum_eta

__all__ = ["RunConfig", "load_config", "cmd_transmissivity", "cmd_rates", "cmd_validate", "main"]

log = logging.getLogger("fsoqkd")

_REAL = "%.11e"

# The mode families of a ``rates`` point, in CSV order: soft Gaussian
# pupils for LG modes, then hard square pupils for flat-top beams.
_FAMILIES = ("lg", "fb")

_LENGTH_UNITS = {
    "nm": 1e-9,
    "um": 1e-6,
    "µm": 1e-6,
    "mm": 1e-3,
    "cm": 1e-2,
    "m": 1.0,
    "km": 1e3,
}


class ConfigError(ValueError):
    """A run configuration could not be parsed or validated."""


@dataclass
class RunConfig:
    """Validated run configuration; defaults reproduce the standard link setup."""

    wavelength: float = 1.55e-6
    gauss_radius: float = 0.10
    square_side: Optional[float] = None
    path_lengths: Optional[Tuple[float, ...]] = None
    cn2_values: Optional[Tuple[float, ...]] = None
    qkd: QkdSystemParams = field(default_factory=QkdSystemParams)
    optimizer: OptimizerOptions = field(default_factory=OptimizerOptions)
    n_max: int = 8
    q_max: int = 8
    output_path: Optional[str] = None

    def resolved_square_side(self) -> float:
        """Square pupil side, matched in area to the Gaussian pupil unless set."""
        if self.square_side is not None:
            return self.square_side
        return matched_square_side(self.gauss_radius)

    def resolved_path_lengths(self) -> Tuple[float, ...]:
        if self.path_lengths is not None:
            return self.path_lengths
        return _log_range(1e3, 100e3, 20)

    def resolved_cn2(self, include_vacuum: bool) -> Tuple[float, ...]:
        if self.cn2_values is not None:
            return self.cn2_values
        regimes = (1e-15, 1e-14, 1e-13)
        return ((0.0,) + regimes) if include_vacuum else regimes


def _log_range(start: float, stop: float, count: int) -> Tuple[float, ...]:
    return tuple(np.geomspace(start, stop, count))


# --------------------------------------------------------------------------
# Config values.  Each parser takes the raw text and ``where``, the
# ``file:line: section.key`` prefix of its error messages.
# --------------------------------------------------------------------------


def _parse_length(text: str, where: str) -> float:
    match = re.fullmatch(
        r"\s*([-+0-9.eE]+)\s*(nm|um|µm|mm|cm|km|m)?\s*", text
    )
    if not match:
        raise ConfigError(f"{where}: cannot parse length {text!r}")
    try:
        value = float(match.group(1))
    except ValueError as exc:
        raise ConfigError(f"{where}: cannot parse length {text!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{where}: length {text!r} is not finite")
    if value <= 0:
        raise ConfigError(f"{where}: length {text!r} must be > 0")
    return value * _LENGTH_UNITS[match.group(2) or "m"]


def _parse_float(text: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigError(f"{where}: cannot parse number {text!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{where}: number {text!r} is not finite")
    return value


def _parse_cn2(text: str, where: str) -> float:
    value = _parse_float(text, where)
    if value < 0:
        raise ConfigError(f"{where}: cn2 {text!r} must be >= 0")
    return value


def _parse_int(text: str, where: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ConfigError(f"{where}: cannot parse integer {text!r}") from exc


def _parse_count(text: str, where: str) -> int:
    value = _parse_int(text, where)
    if value < 1:
        raise ConfigError(f"{where}: must be >= 1, got {value}")
    return value


def _parse_list(item: Callable[[str, str], float]) -> Callable[[str, str], Tuple[float, ...]]:
    """Parser of a non-empty comma-separated list of ``item`` values."""

    def parse(text: str, where: str) -> Tuple[float, ...]:
        values = tuple(item(part, where) for part in text.split(",") if part.strip())
        if not values:
            raise ConfigError(f"{where}: empty list")
        return values

    return parse


def _parse_log_range(text: str, where: str) -> Tuple[float, ...]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"{where}: expects start:stop:count")
    start = _parse_length(parts[0], where)
    stop = _parse_length(parts[1], where)
    count = _parse_int(parts[2], where)
    if start > stop or count < 1:
        raise ConfigError(f"{where}: {text!r} is not a valid range")
    return _log_range(start, stop, count)


def _parse_path(text: str, where: str) -> str:
    if not text:
        raise ConfigError(f"{where}: empty path")
    return text


# section -> key -> (parser, RunConfig target).  A dotted target such as
# "qkd.visibility" sets a field of the frozen options object ``cfg.qkd``;
# keys of one section that share a target are exclusive.
_KEYS: Dict[str, Dict[str, Tuple[Callable[[str, str], object], str]]] = {
    "channel": {
        "wavelength": (_parse_length, "wavelength"),
        "gauss_radius": (_parse_length, "gauss_radius"),
        "square_side": (_parse_length, "square_side"),
        "path_lengths": (_parse_list(_parse_length), "path_lengths"),
        "path_log_range": (_parse_log_range, "path_lengths"),
    },
    "turbulence": {"cn2_values": (_parse_list(_parse_cn2), "cn2_values")},
    "qkd": {
        "visibility": (_parse_float, "qkd.visibility"),
        "dark_count": (_parse_float, "qkd.dark_count"),
        "pulse_rate": (_parse_float, "qkd.pulse_rate"),
        "error_correction_factor": (_parse_float, "qkd.error_correction_factor"),
        "sifting_factor": (_parse_float, "qkd.sifting_factor"),
    },
    "planner": {
        "n_max": (_parse_count, "n_max"),
        "q_max": (_parse_count, "q_max"),
        "mu_min": (_parse_float, "optimizer.mu_min"),
        "mu_max": (_parse_float, "optimizer.mu_max"),
        "rel_tol": (_parse_float, "optimizer.rel_tol"),
        "max_sweeps": (_parse_int, "optimizer.max_sweeps"),
    },
    "output": {"path": (_parse_path, "output_path")},
}


def load_config(path: Optional[str]) -> RunConfig:
    """Parse an INI-style config file; None means all defaults.

    One pass reads the lines, ended by CRLF, CR or LF, after an optional
    UTF-8 byte-order mark.  A stripped line is blank, a ``;`` or ``#``
    comment, a ``[section]`` header or a ``key = value`` (or ``key: value``)
    entry; names ignore case and appear once.  Each entry is checked and
    parsed as it is read, so an error cites its line.  Whole-section checks
    cite the header line; those of [qkd] and [planner] run at the end.
    """
    cfg = RunConfig()
    if path is None:
        return cfg
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        text = raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        lineno = len(re.split(rb"\r\n?|\n", exc.object[: exc.start]))
        raise ConfigError(f"{path}:{lineno}: not UTF-8: {exc.reason}") from exc

    seen: Dict[str, int] = {}  # "[section]" or "section.key" -> its line
    set_by: Dict[str, str] = {}  # target -> the key that set it
    options: Dict[Tuple[str, str], dict] = {}  # (section, group) -> changes
    name = None
    for lineno, line in enumerate(re.split(r"\r\n?|\n", text), start=1):
        here = f"{path}:{lineno}"
        entry = line.strip()
        if not entry or entry[0] in ";#":
            continue
        if entry[0] == "[" and entry[-1] == "]":
            section = entry[1:-1].strip()
            name, key = section.lower(), None
            if name not in _KEYS:
                raise ConfigError(f"{here}: unknown section [{section}]")
            token = f"[{name}]"
        else:
            pair = re.match(r"([^=:]*)[=:](.*)", entry)
            if pair is None:
                raise ConfigError(f"{here}: expected [section] or key = value, got {entry!r}")
            key = pair.group(1).strip().lower()
            if name is None:
                raise ConfigError(f"{here}: key {key!r} comes before any [section]")
            if key not in _KEYS[name]:
                raise ConfigError(f"{here}: unknown key {key!r} in section [{section}]")
            token = f"{name}.{key}"
        if token in seen:
            raise ConfigError(f"{here}: {token} repeats line {seen[token]}")
        seen[token] = lineno
        if key is None:
            continue
        parse, target = _KEYS[name][key]
        if target in set_by:
            raise ConfigError(
                f"{path}:{seen[f'[{name}]']}: {name}.{set_by[target]} and {token} are exclusive"
            )
        set_by[target] = key
        value = parse(pair.group(2).strip(), f"{here}: {token}")
        group, _, attr = target.rpartition(".")
        if group:
            options.setdefault((name, group), {})[attr] = value
        else:
            setattr(cfg, attr, value)
    for (name, group), changes in options.items():
        try:
            setattr(cfg, group, replace(getattr(cfg, group), **changes))
        except ValueError as exc:
            raise ConfigError(f"{path}:{seen[f'[{name}]']}: [{name}] {exc}") from exc
    return cfg


# --------------------------------------------------------------------------
# Subcommand workers, one per task, module level so a process pool can
# pickle them.
# --------------------------------------------------------------------------


def _link(config: RunConfig, path_length: float, cn2: float, family: str) -> ChannelConfig:
    """The link of the "lg" (soft Gaussian) or "fb" (hard square) pupil;
    a parsed config has lengths > 0 and finite numbers, so it passes."""
    if family == "lg":
        pupil = SoftGaussian(radius=config.gauss_radius)
    else:
        pupil = HardSquare(side=config.resolved_square_side())
    return ChannelConfig(
        wavelength=config.wavelength, path_length=path_length, cn2=cn2, pupil=pupil
    )


def _transmissivity_task(config: RunConfig, points: List[Tuple[float, float]]) -> List[tuple]:
    pixel = fb_pixel_grid(1)[0]
    fb = [derive(_link(config, *point, "fb")) for point in points]
    eta_gauss = [gaussian_pib_turb(derive(_link(config, *point, "lg"))) for point in points]
    return list(zip(fb_turb_eta(pixel, pixel, fb).tolist(), eta_gauss))


def _rates_task(config: RunConfig, points: List[Tuple[float, float]]) -> List[List[ScanRow]]:
    """The rows of both families at each point, from one :func:`scan` call
    on all their links."""
    links = [_link(config, *point, family) for point in points for family in _FAMILIES]
    rows = scan(links, config.qkd, config.n_max, config.q_max, config.optimizer)
    return [rows[i : i + len(_FAMILIES)] for i in range(0, len(rows), len(_FAMILIES))]


def _validate_task(config: RunConfig, points: List[Tuple[float, float]]) -> List[tuple]:
    chans = [derive(_link(config, *point, "lg")) for point in points]
    # The vacuum power-in-bucket depends on the channel only through its
    # Fresnel product, which does not depend on cn2.
    return [
        (gaussian_pib_turb(ch), eta_53, lg_vacuum_eta(1, ch.fresnel_product))
        for ch, eta_53 in zip(chans, gaussian_pib_53(chans).tolist())
    ]


def _pool_map(worker, tasks: List[tuple], jobs: int) -> List:
    """Order-preserving ``worker(*task)`` per task, on one worker per task at most."""
    if jobs <= 1 or len(tasks) <= 1:
        return [worker(*task) for task in tasks]
    import concurrent.futures  # only a pool needs it, and it slows every import

    with concurrent.futures.ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        return list(pool.map(worker, *zip(*tasks)))


def _per_point(
    worker, config: RunConfig, path_lengths: Sequence[float], include_vacuum: bool, jobs: int
) -> Tuple[List[Tuple[float, float]], List]:
    """The (L, cn2) grid of a subcommand, by path length, then cn2, and
    one result per point, in point order.

    The points are dealt round-robin over min(jobs, points) tasks, so
    near- and far-field points spread evenly over the workers, and a task
    is one ``worker(config, its points)`` call returning one result per
    point.
    """
    points = [(L, cn2) for L in path_lengths for cn2 in config.resolved_cn2(include_vacuum)]
    n_tasks = min(max(jobs, 1), len(points))
    log.info("%d (L, cn2) points in %d tasks", len(points), n_tasks)
    tasks = [(config, points[t::n_tasks]) for t in range(n_tasks)]
    results: List = [None] * len(points)
    for t, task_results in enumerate(_pool_map(worker, tasks, jobs)):
        results[t::n_tasks] = task_results
    return points, results


def _csv(header: str, reals: int, rows: List[tuple]) -> str:
    """CSV text: the header, then one line per row, each ended by LF.  The
    first ``reals`` cells of a row are numbers, written ``_REAL``; the
    rest are text, so a real that may be missing comes preformatted."""
    line = ",".join([_REAL] * reals + ["%s"] * (header.count(",") + 1 - reals))
    return "\n".join([header, *(line % row for row in rows)]) + "\n"


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------


def cmd_transmissivity(config: RunConfig, jobs: int = 1) -> str:
    """Single-beam average transmissivities; CSV text.  A task
    integrates all its flat-top points in one call."""
    path_lengths = config.resolved_path_lengths()
    points, results = _per_point(_transmissivity_task, config, path_lengths, True, jobs)
    return _csv("L_m,cn2,eta_fb,eta_gauss", 4, [p + r for p, r in zip(points, results)])


def cmd_rates(config: RunConfig, jobs: int = 1) -> Tuple[str, bool]:
    """Optimized rate envelopes; returns (CSV text, all rows succeeded).

    A task is one :func:`scan` call on both families' links of its
    points, so its one ascent spans both families and all its path
    lengths.  The CSV lists rows by path length, then cn2, then family.
    """
    points, results = _per_point(_rates_task, config, config.resolved_path_lengths(), False, jobs)
    rows, clean = [], True
    for (path_length, cn2), point_rows in zip(points, results):
        for family, row in zip(_FAMILIES, point_rows):
            if row.error is not None:
                clean = False
                log.error(
                    "rates point L=%g cn2=%g %s failed: %s",
                    path_length, cn2, family, row.error,
                )
            point = row.point
            if point is None:
                cells = (family, "", "")
            else:
                config_cell = "" if point.config is None else point.config
                cells = (point.mode_set, config_cell, _REAL % point.total_rate_bps)
            capacity = "" if row.capacity_bps is None else _REAL % row.capacity_bps
            rows.append((path_length, cn2, *cells, capacity))
    return _csv("L_m,cn2,mode_set,config,rate_bps,capacity_bps", 2, rows), clean


def cmd_validate(config: RunConfig, jobs: int = 1) -> Tuple[str, bool]:
    """Square-law vs 5/3-law power-in-bucket; returns (CSV, all passed).

    One rule holds at every point, vacuum included: eta(square) <=
    eta(5/3) <= eta(vacuum), each within 1e-9 relative.  In vacuum the
    two laws agree to roundoff.  eta(square) <= eta(5/3) holds only where
    the coherence length rho_0 is shorter than the separations that carry
    the beam's power.  Where rho_0 exceeds them the square law is the
    milder model and the point fails: 18 of the 60 turbulent points of
    the default ``rates`` lengths do (cn2 1e-15 up to 8.9 km, 1e-14 up to
    3.4 km, 1e-13 up to 1.3 km), hence the far-field default grid.  A
    task integrates all its 5/3-law points in one call.
    """
    if config.path_lengths is not None:
        path_lengths = config.path_lengths
    else:
        path_lengths = (10e3, 30e3, 100e3)
    points, results = _per_point(_validate_task, config, path_lengths, True, jobs)
    rows, all_pass = [], True
    for (path_length, cn2), (eta_sq, eta_53, eta_vac) in zip(points, results):
        rel_gap = (eta_53 - eta_sq) / eta_53 if eta_53 > 0 else 0.0
        ok = eta_sq <= eta_53 * (1 + 1e-9) and eta_53 <= eta_vac * (1 + 1e-9)
        all_pass = all_pass and ok
        rows.append((path_length, cn2, eta_sq, eta_53, eta_vac, rel_gap, "pass" if ok else "fail"))
    header = "L_m,cn2,eta_square_law,eta_five_thirds,eta_vacuum,rel_gap,status"
    return _csv(header, 6, rows), all_pass


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fsoqkd",
        description="Free-space channel transmissivities and QKD rate envelopes.",
    )
    parser.add_argument("--config", help="INI config file (defaults reproduce the standard setup)")
    parser.add_argument("--out", help="output CSV path (default: stdout)")
    # Python has sched_getaffinity on some systems only (not on macOS or Windows).
    affinity = getattr(os, "sched_getaffinity", None)
    parser.add_argument(
        "--jobs",
        type=int,
        default=len(affinity(0)) if affinity else os.cpu_count() or 1,
        help="worker processes (default: available parallelism)",
    )
    parser.add_argument(
        "command", choices=("transmissivity", "rates", "validate"), help="subcommand"
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    level = os.environ.get("FSO_QKD_LOG", "WARNING")
    # getLevelName maps a known level name to its number, anything else to a str.
    if not isinstance(logging.getLevelName(level.upper()), int):
        print(
            f"fsoqkd: FSO_QKD_LOG={level!r} is not a log level; "
            "use debug, info, warning, error or critical",
            file=sys.stderr,
        )
        return 2
    # basicConfig does nothing once the root logger has a handler, so the
    # package logger takes the level, on every call.
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    log.setLevel(level.upper())
    args = _build_parser().parse_args(argv)
    if args.jobs < 1:
        print("fsoqkd: --jobs must be >= 1", file=sys.stderr)
        return 2
    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(f"fsoqkd: {exc}", file=sys.stderr)
        return 2

    # Open the output before any work, so an unwritable path costs no compute.
    out_path = args.out or config.output_path
    try:
        out = open(out_path, "w", encoding="utf-8", newline="") if out_path else None
    except OSError as exc:
        print(f"fsoqkd: cannot write {out_path}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    with out or nullcontext(sys.stdout) as handle:
        status = 0
        if args.command == "transmissivity":
            text = cmd_transmissivity(config, args.jobs)
        elif args.command == "rates":
            text, clean = cmd_rates(config, args.jobs)
            status = 0 if clean else 1
        else:
            text, all_pass = cmd_validate(config, args.jobs)
            status = 0 if all_pass else 1
            print(
                f"validate: {'all points passed' if all_pass else 'some points FAILED'}",
                file=sys.stderr,
            )
        handle.write(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
