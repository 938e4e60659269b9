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
    square <= five-thirds <= vacuum per point; the exit code reflects the
    assertion outcome.

All real CSV cells use 12-significant-digit scientific notation with LF
line endings, so identical configurations yield byte-identical files.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import configparser
import logging
import math
import os
import re
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .channel import (
    ChannelConfig,
    HardSquare,
    SoftGaussian,
    derive,
    matched_square_side,
)
from .planner import OptimizerOptions, ScanGeometry, ScanRow, scan
from .qkd import QkdSystemParams
from .turbulence import fb_turb_eta, gaussian_pib_53, gaussian_pib_turb
from .vacuum import fb_pixel_grid

__all__ = ["RunConfig", "load_config", "cmd_transmissivity", "cmd_rates", "cmd_validate", "main"]

log = logging.getLogger("fsoqkd")

_REAL = "%.11e"

_LENGTH_UNITS = {
    "nm": 1e-9,
    "um": 1e-6,
    "µm": 1e-6,
    "mm": 1e-3,
    "cm": 1e-2,
    "m": 1.0,
    "km": 1e3,
}

_ALLOWED_KEYS = {
    "channel": {
        "wavelength",
        "gauss_radius",
        "square_side",
        "path_lengths",
        "path_log_range",
    },
    "turbulence": {"cn2_values"},
    "qkd": {
        "visibility",
        "dark_count",
        "pulse_rate",
        "error_correction_factor",
        "sifting_factor",
    },
    "planner": {
        "n_max",
        "q_max",
        "mu_min",
        "mu_max",
        "rel_tol",
        "max_sweeps",
    },
    "output": {"path"},
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
    return value * _LENGTH_UNITS[match.group(2) or "m"]


def _parse_float(text: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigError(f"{where}: cannot parse number {text!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{where}: number {text!r} is not finite")
    return value


def _parse_int(text: str, where: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ConfigError(f"{where}: cannot parse integer {text!r}") from exc


def _key_line_numbers(path: str) -> Dict[str, int]:
    """Best-effort map from section/key tokens to 1-based line numbers."""
    numbers: Dict[str, int] = {}
    section = ""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                stripped = line.strip()
                head = re.match(r"\[([^\]]+)\]", stripped)
                if head:
                    section = head.group(1).strip().lower()
                    numbers.setdefault(f"[{section}]", lineno)
                    continue
                pair = re.match(r"([^=:#;]+)[=:]", stripped)
                if pair:
                    key = pair.group(1).strip().lower()
                    numbers.setdefault(f"{section}.{key}", lineno)
    except OSError:
        pass
    return numbers


def load_config(path: Optional[str]) -> RunConfig:
    """Parse an INI-style config file; None means all defaults."""
    cfg = RunConfig()
    if path is None:
        return cfg
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    lines = _key_line_numbers(path)
    for section in parser.sections():
        name = section.lower()
        if name not in _ALLOWED_KEYS:
            lineno = lines.get(f"[{name}]", 0)
            raise ConfigError(f"{path}:{lineno}: unknown section [{section}]")
        for key in parser[section]:
            if key.lower() not in _ALLOWED_KEYS[name]:
                lineno = lines.get(f"{name}.{key.lower()}", 0)
                raise ConfigError(
                    f"{path}:{lineno}: unknown key {key!r} in section [{section}]"
                )

    def get(section: str, key: str) -> Optional[str]:
        return parser.get(section, key, fallback=None)

    value = get("channel", "wavelength")
    if value is not None:
        cfg.wavelength = _parse_length(value, f"{path}: channel.wavelength")
    value = get("channel", "gauss_radius")
    if value is not None:
        cfg.gauss_radius = _parse_length(value, f"{path}: channel.gauss_radius")
    value = get("channel", "square_side")
    if value is not None:
        cfg.square_side = _parse_length(value, f"{path}: channel.square_side")

    lengths = get("channel", "path_lengths")
    log_range = get("channel", "path_log_range")
    if lengths is not None and log_range is not None:
        raise ConfigError(
            f"{path}: channel.path_lengths and channel.path_log_range are exclusive"
        )
    if lengths is not None:
        cfg.path_lengths = tuple(
            _parse_length(item, f"{path}: channel.path_lengths")
            for item in lengths.split(",")
            if item.strip()
        )
    if log_range is not None:
        parts = [p for p in log_range.split(":")]
        if len(parts) != 3:
            raise ConfigError(
                f"{path}: channel.path_log_range expects start:stop:count"
            )
        start = _parse_length(parts[0], f"{path}: channel.path_log_range")
        stop = _parse_length(parts[1], f"{path}: channel.path_log_range")
        count = _parse_int(parts[2], f"{path}: channel.path_log_range")
        if not (0 < start <= stop) or count < 1:
            raise ConfigError(f"{path}: channel.path_log_range is not a valid range")
        cfg.path_lengths = _log_range(start, stop, count)

    value = get("turbulence", "cn2_values")
    if value is not None:
        cfg.cn2_values = tuple(
            _parse_float(item, f"{path}: turbulence.cn2_values")
            for item in value.split(",")
            if item.strip()
        )
        if any(v < 0 for v in cfg.cn2_values):
            raise ConfigError(f"{path}: turbulence.cn2_values must be >= 0")

    qkd_kwargs = {}
    for key, attr in (
        ("visibility", "visibility"),
        ("dark_count", "dark_count"),
        ("pulse_rate", "pulse_rate"),
        ("error_correction_factor", "error_correction_factor"),
        ("sifting_factor", "sifting_factor"),
    ):
        value = get("qkd", key)
        if value is not None:
            qkd_kwargs[attr] = _parse_float(value, f"{path}: qkd.{key}")
    if qkd_kwargs:
        try:
            cfg.qkd = QkdSystemParams(**{**_dataclass_dict(cfg.qkd), **qkd_kwargs})
        except ValueError as exc:
            raise ConfigError(f"{path}: [qkd] {exc}") from exc

    opt_kwargs = {}
    for key, attr, conv in (
        ("mu_min", "mu_min", _parse_float),
        ("mu_max", "mu_max", _parse_float),
        ("rel_tol", "rel_tol", _parse_float),
        ("max_sweeps", "max_sweeps", _parse_int),
    ):
        value = get("planner", key)
        if value is not None:
            opt_kwargs[attr] = conv(value, f"{path}: planner.{key}")
    if opt_kwargs:
        try:
            cfg.optimizer = OptimizerOptions(
                **{**_dataclass_dict(cfg.optimizer), **opt_kwargs}
            )
        except ValueError as exc:
            raise ConfigError(f"{path}: [planner] {exc}") from exc

    value = get("planner", "n_max")
    if value is not None:
        cfg.n_max = _parse_int(value, f"{path}: planner.n_max")
    value = get("planner", "q_max")
    if value is not None:
        cfg.q_max = _parse_int(value, f"{path}: planner.q_max")
    if cfg.n_max < 1 or cfg.q_max < 1:
        raise ConfigError(f"{path}: planner.n_max and planner.q_max must be >= 1")

    value = get("output", "path")
    if value is not None:
        cfg.output_path = value

    if cfg.wavelength <= 0 or cfg.gauss_radius <= 0:
        raise ConfigError(f"{path}: lengths must be positive")
    if cfg.square_side is not None and cfg.square_side <= 0:
        raise ConfigError(f"{path}: channel.square_side must be positive")
    if cfg.path_lengths is not None and any(l <= 0 for l in cfg.path_lengths):
        raise ConfigError(f"{path}: path lengths must be positive")
    return cfg


def _dataclass_dict(obj) -> dict:
    return {name: getattr(obj, name) for name in obj.__dataclass_fields__}


# --------------------------------------------------------------------------
# Subcommand workers (module level so a process pool can pickle them)
# --------------------------------------------------------------------------


def _transmissivity_point(args: Tuple[float, float, float, float, float]):
    wavelength, radius, side, path_length, cn2 = args
    square = derive(
        ChannelConfig(
            wavelength=wavelength,
            path_length=path_length,
            cn2=cn2,
            pupil=HardSquare(side=side),
        )
    )
    pixel = fb_pixel_grid(1)[0]
    eta_fb = fb_turb_eta(pixel, pixel, square)
    gauss = derive(
        ChannelConfig(
            wavelength=wavelength,
            path_length=path_length,
            cn2=cn2,
            pupil=SoftGaussian(radius=radius),
        )
    )
    eta_gauss = gaussian_pib_turb(gauss)
    return path_length, cn2, eta_fb, eta_gauss


def _rates_point(args) -> ScanRow:
    (
        wavelength,
        radius,
        side,
        path_length,
        cn2,
        family,
        qkd_params,
        opts,
        n_max,
        q_max,
    ) = args
    geometry = ScanGeometry(
        wavelength=wavelength, gauss_radius=radius, square_side=side
    )
    rows = scan([(path_length, cn2)], [family], geometry, qkd_params, n_max, q_max, opts)
    return rows[0]


def _validate_point(args):
    wavelength, radius, path_length, cn2 = args
    ch = derive(
        ChannelConfig(
            wavelength=wavelength,
            path_length=path_length,
            cn2=cn2,
            pupil=SoftGaussian(radius=radius),
        )
    )
    vacuum = derive(
        ChannelConfig(
            wavelength=wavelength,
            path_length=path_length,
            cn2=0.0,
            pupil=SoftGaussian(radius=radius),
        )
    )
    eta_sq = gaussian_pib_turb(ch)
    eta_53 = gaussian_pib_53(ch)
    eta_vac = gaussian_pib_turb(vacuum)
    return path_length, cn2, eta_sq, eta_53, eta_vac


def _pool_map(worker, args_list: List, jobs: int) -> List:
    """Order-preserving map, inline when one worker suffices."""
    if jobs <= 1 or len(args_list) <= 1:
        return [worker(args) for args in args_list]
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, args_list))


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------


def cmd_transmissivity(config: RunConfig, jobs: int = 1) -> str:
    """Single-beam average transmissivities; CSV text."""
    side = config.resolved_square_side()
    tasks = [
        (config.wavelength, config.gauss_radius, side, path_length, cn2)
        for path_length in config.resolved_path_lengths()
        for cn2 in config.resolved_cn2(include_vacuum=True)
    ]
    log.info("transmissivity: %d points", len(tasks))
    results = _pool_map(_transmissivity_point, tasks, jobs)
    lines = ["L_m,cn2,eta_fb,eta_gauss"]
    for path_length, cn2, eta_fb, eta_gauss in results:
        lines.append(
            f"{_REAL % path_length},{_REAL % cn2},{_REAL % eta_fb},{_REAL % eta_gauss}"
        )
    return "\n".join(lines) + "\n"


def cmd_rates(config: RunConfig, jobs: int = 1) -> Tuple[str, bool]:
    """Optimized rate envelopes; returns (CSV text, all rows succeeded)."""
    side = config.resolved_square_side()
    tasks = [
        (
            config.wavelength,
            config.gauss_radius,
            side,
            path_length,
            cn2,
            family,
            config.qkd,
            config.optimizer,
            config.n_max,
            config.q_max,
        )
        for path_length in config.resolved_path_lengths()
        for cn2 in config.resolved_cn2(include_vacuum=False)
        for family in ("lg", "fb")
    ]
    log.info("rates: %d scan rows", len(tasks))
    rows: List[ScanRow] = _pool_map(_rates_point, tasks, jobs)
    lines = ["L_m,cn2,mode_set,config,rate_bps,capacity_bps"]
    clean = True
    for row in rows:
        capacity = "" if row.capacity_bps is None else _REAL % row.capacity_bps
        if row.error is not None or row.point is None:
            clean = False
            log.error(
                "rates point L=%g cn2=%g %s failed: %s",
                row.path_length,
                row.cn2,
                row.family,
                row.error,
            )
            lines.append(
                f"{_REAL % row.path_length},{_REAL % row.cn2},{row.family},,,{capacity}"
            )
            continue
        point = row.point
        config_cell = "" if point.config is None else str(point.config)
        lines.append(
            f"{_REAL % row.path_length},{_REAL % row.cn2},{point.mode_set},"
            f"{config_cell},{_REAL % point.total_rate_bps},{capacity}"
        )
    return "\n".join(lines) + "\n", clean


def cmd_validate(config: RunConfig, jobs: int = 1) -> Tuple[str, bool]:
    """Square-law vs 5/3-law power-in-bucket; returns (CSV, all passed)."""
    if config.path_lengths is not None:
        path_lengths = config.path_lengths
    else:
        path_lengths = (10e3, 30e3, 100e3)
    tasks = [
        (config.wavelength, config.gauss_radius, path_length, cn2)
        for path_length in path_lengths
        for cn2 in config.resolved_cn2(include_vacuum=True)
    ]
    log.info("validate: %d points", len(tasks))
    results = _pool_map(_validate_point, tasks, jobs)
    lines = ["L_m,cn2,eta_square_law,eta_five_thirds,eta_vacuum,rel_gap,status"]
    all_pass = True
    for path_length, cn2, eta_sq, eta_53, eta_vac in results:
        rel_gap = (eta_53 - eta_sq) / eta_53 if eta_53 > 0 else 0.0
        if cn2 == 0.0:
            ok = abs(eta_53 - eta_sq) <= 1e-4 * eta_sq and eta_53 <= eta_vac * (1 + 1e-9)
        else:
            ok = eta_sq <= eta_53 * (1 + 1e-9) and eta_53 <= eta_vac * (1 + 1e-9)
        all_pass = all_pass and ok
        lines.append(
            f"{_REAL % path_length},{_REAL % cn2},{_REAL % eta_sq},{_REAL % eta_53},"
            f"{_REAL % eta_vac},{_REAL % rel_gap},{'pass' if ok else 'fail'}"
        )
    return "\n".join(lines) + "\n", all_pass


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
    parser.add_argument(
        "--jobs",
        type=int,
        default=len(os.sched_getaffinity(0)),
        help="worker processes (default: available parallelism)",
    )
    parser.add_argument(
        "command", choices=("transmissivity", "rates", "validate"), help="subcommand"
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    logging.basicConfig(
        level=os.environ.get("FSO_QKD_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    args = _build_parser().parse_args(argv)
    if args.jobs < 1:
        print("fsoqkd: --jobs must be >= 1", file=sys.stderr)
        return 2
    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(f"fsoqkd: {exc}", file=sys.stderr)
        return 2

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

    out_path = args.out or config.output_path
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
