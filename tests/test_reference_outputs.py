"""The CLI's CSVs against the reference files under ``tests/data``.

Each reference is regenerated by the command given for it in
``tests/data/README.md``.  Every run here uses two worker processes.
Text cells (``mode_set``, ``config``, ``status``) and empty cells must match
exactly; every real cell must be within 1e-9 relative plus 1e-12 absolute
(for roundoff cells such as the vacuum ``rel_gap``).  A failure lists every
moved cell.
"""

import csv
from pathlib import Path

import pytest

from fsoqkd.cli import main

DATA = Path(__file__).parent / "data"
REL_TOL, ABS_TOL = 1e-9, 1e-12
TEXT_COLUMNS = ("mode_set", "config", "status")

# (subcommand, config under tests/data or None for the defaults, reference)
REFERENCES = [
    ("rates", None, "rates-default.csv"),
    ("rates", "rates-vacuum-strong.ini", "rates-vacuum-strong.csv"),
    ("transmissivity", "single-beam.ini", "transmissivity.csv"),
    ("validate", "single-beam.ini", "validate.csv"),
]


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def moved_cells(rows, reference):
    """Every cell of ``rows`` that differs from ``reference`` beyond the
    tolerances, as ``row N column: got X, reference Y`` lines."""
    moved = []
    for n, (row, ref) in enumerate(zip(rows, reference), start=1):
        for column, want in ref.items():
            got = row[column]
            if column in TEXT_COLUMNS or not want or not got:
                same = got == want
            else:
                shift = abs(float(got) - float(want))
                same = shift <= REL_TOL * abs(float(want)) + ABS_TOL
            if not same:
                moved.append(f"row {n} {column}: got {got!r}, reference {want!r}")
    return moved


@pytest.mark.parametrize("command,config,reference", REFERENCES)
def test_output_matches_reference(tmp_path, command, config, reference):
    out = tmp_path / reference
    argv = ["--jobs", "2", "--out", str(out)]
    if config is not None:
        argv += ["--config", str(DATA / config)]
    main(argv + [command])
    rows, want = read_rows(out), read_rows(DATA / reference)
    assert list(rows[0]) == list(want[0]), "columns differ"
    assert len(rows) == len(want), f"{len(rows)} rows, reference has {len(want)}"
    moved = moved_cells(rows, want)
    assert not moved, f"{len(moved)} cells moved:\n" + "\n".join(moved)
