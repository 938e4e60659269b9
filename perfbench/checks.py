"""Output checks on the CSVs the CLI writes.

A row fails when a cell is missing or malformed, when its (L, cn2) key is
not the generated one, when a physical bound is broken (rate above the
capacity bound, transmissivity outside [0, 1], a validate row that does
not pass), or, at the default seed, when a number differs from the
reference CSV by more than ``REL_TOL``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

REL_TOL = 1e-6
"""The optimizer's rel_tol: a faster path must reproduce numbers this closely."""

ABS_FLOOR = 1e-12
"""Absolute slack for cells that are pure roundoff, such as rel_gap in vacuum."""

HEADERS = {
    "rates": "L_m,cn2,mode_set,config,rate_bps,capacity_bps",
    "transmissivity": "L_m,cn2,eta_fb,eta_gauss",
    "validate": "L_m,cn2,eta_square_law,eta_five_thirds,eta_vacuum,rel_gap,status",
}

_REAL = "%.11e"

Failures = Dict[int, str]
"""Row index -> first reason that row failed; index -1 is the file itself."""


def _number(cell: str) -> Optional[float]:
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _eta_ok(cells: Sequence[str]) -> Optional[str]:
    for cell in cells:
        value = _number(cell)
        if value is None or not 0.0 <= value <= 1.0:
            return f"transmissivity {cell!r} outside [0, 1]"
    return None


def _rates_row(index: int, cells: List[str]) -> Optional[str]:
    _, _, mode_set, config, rate, capacity = cells
    lg_family = index % 2 == 0
    allowed = ("lg", "gaussian-pib") if lg_family else ("fb",)
    if mode_set not in allowed:
        return f"mode_set {mode_set!r} not in {allowed}"
    if not rate:
        return "empty rate_bps (the CLI recorded an error)"
    if (config == "") != (mode_set == "gaussian-pib"):
        return f"config {config!r} does not fit mode_set {mode_set!r}"
    rate_value = _number(rate)
    if rate_value is None or rate_value < 0.0:
        return f"rate_bps {rate!r} is not a finite rate"
    if not lg_family:
        return None if capacity == "" else "capacity on a flat-top row"
    capacity_value = _number(capacity)
    if capacity_value is None:
        return "empty capacity_bps on an LG row"
    if rate_value > capacity_value:
        return f"rate {rate} exceeds capacity {capacity}"
    return None


def _validate_row(index: int, cells: List[str]) -> Optional[str]:
    bad = _eta_ok(cells[2:5])
    if bad:
        return bad
    if _number(cells[5]) is None:
        return f"rel_gap {cells[5]!r} is not a number"
    return None if cells[6] == "pass" else f"status {cells[6]!r}"


def _transmissivity_row(index: int, cells: List[str]) -> Optional[str]:
    return _eta_ok(cells[2:4])


_ROW_CHECKS = {
    "rates": _rates_row,
    "transmissivity": _transmissivity_row,
    "validate": _validate_row,
}


def check_csv(command: str, text: str, keys: Sequence[Tuple[float, float]]) -> Failures:
    """Check one CLI output against the generated grid ``keys``."""
    lines = text.split("\n")
    if not text.endswith("\n") or lines[0] != HEADERS[command]:
        return {-1: "missing header or trailing newline"}
    rows = lines[1:-1]
    failures: Failures = {}
    width = HEADERS[command].count(",") + 1
    for index in range(max(len(rows), len(keys))):
        if index >= len(rows):
            failures[index] = "row missing"
            continue
        if index >= len(keys):
            failures[index] = "row not in the generated grid"
            continue
        cells = rows[index].split(",")
        length, cn2 = keys[index]
        if len(cells) != width:
            failures[index] = f"{len(cells)} cells, expected {width}"
        elif cells[0] != _REAL % length or cells[1] != _REAL % cn2:
            failures[index] = f"key {cells[0]},{cells[1]} is not the generated one"
        else:
            reason = _ROW_CHECKS[command](index, cells)
            if reason:
                failures[index] = reason
    return failures


def _cells_close(got: str, want: str) -> bool:
    if got == want:
        return True
    a, b = _number(got), _number(want)
    if a is None or b is None:
        return False
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + ABS_FLOOR


def compare_reference(text: str, reference: str) -> Failures:
    """Rows whose cells differ from the reference beyond ``REL_TOL``."""
    rows = text.split("\n")[1:-1]
    ref_rows = reference.split("\n")[1:-1]
    failures: Failures = {}
    for index in range(max(len(rows), len(ref_rows))):
        if index >= len(rows) or index >= len(ref_rows):
            failures[index] = "row count differs from the reference"
            continue
        got, want = rows[index].split(","), ref_rows[index].split(",")
        if len(got) != len(want) or not all(map(_cells_close, got, want)):
            failures[index] = f"differs from reference: {rows[index]} vs {ref_rows[index]}"
    return failures
