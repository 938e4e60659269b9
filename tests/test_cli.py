"""Config parsing, CSV emission, determinism, and exit codes."""

import concurrent.futures
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import fsoqkd.cli as cli
import fsoqkd.planner as planner
import fsoqkd.turbulence as turbulence
import fsoqkd.vacuum as vacuum
from fsoqkd import numerics
from fsoqkd.channel import matched_square_side
from fsoqkd.cli import (
    ConfigError,
    _build_parser,
    _parse_length,
    cmd_rates,
    cmd_transmissivity,
    cmd_validate,
    load_config,
    main,
)

CELL = re.compile(r"^\d\.\d{11}e[+-]\d{2,3}$")


def small_config(**overrides):
    cfg = load_config(None)
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


def test_defaults():
    cfg = load_config(None)
    assert cfg.wavelength == 1.55e-6
    assert cfg.gauss_radius == 0.10
    assert cfg.resolved_square_side() == pytest.approx(matched_square_side(0.10), rel=1e-14)
    lengths = cfg.resolved_path_lengths()
    assert len(lengths) == 20
    assert lengths[0] == pytest.approx(1e3, rel=1e-12)
    assert lengths[-1] == pytest.approx(100e3, rel=1e-12)
    assert cfg.resolved_cn2(include_vacuum=True) == (0.0, 1e-15, 1e-14, 1e-13)
    assert cfg.resolved_cn2(include_vacuum=False) == (1e-15, 1e-14, 1e-13)
    assert cfg.n_max == 8 and cfg.q_max == 8
    assert cfg.output_path is None


@pytest.mark.parametrize(
    "text,meters",
    [
        ("1550 nm", 1.55e-6),
        ("1.55 um", 1.55e-6),
        ("1.55 µm", 1.55e-6),
        ("1.2 mm", 1.2e-3),
        ("12.5 cm", 0.125),
        ("2 km", 2000.0),
        ("17 m", 17.0),
        ("17", 17.0),
        ("  0.5km ", 500.0),
    ],
)
def test_parse_length_units(text, meters):
    assert _parse_length(text, "here") == pytest.approx(meters, rel=1e-12)


def test_parse_length_rejects_garbage():
    with pytest.raises(ConfigError, match="here"):
        _parse_length("five meters", "here")
    with pytest.raises(ConfigError):
        _parse_length("1.5 parsec", "x")


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(
        "[channel]\n"
        "wavelength = 1550 nm\n"
        "gauss_radius = 10 cm\n"
        "square_side = 125.33 mm\n"
        "path_lengths = 1 km, 10km\n"
        "[turbulence]\n"
        "cn2_values = 1e-15, 0\n"
        "[qkd]\n"
        "visibility = 0.98\n"
        "pulse_rate = 5e9\n"
        "[planner]\n"
        "n_max = 3\n"
        "q_max = 2\n"
        "mu_max = 1.2\n"
        "[output]\n"
        "path = out.csv\n"
    )
    cfg = load_config(str(path))
    assert cfg.wavelength == pytest.approx(1.55e-6, rel=1e-12)
    assert cfg.gauss_radius == pytest.approx(0.10, rel=1e-12)
    assert cfg.square_side == pytest.approx(0.12533, rel=1e-9)
    assert cfg.path_lengths == (1000.0, 10000.0)
    assert cfg.cn2_values == (1e-15, 0.0)
    assert cfg.qkd.visibility == 0.98
    assert cfg.qkd.pulse_rate == 5e9
    assert cfg.n_max == 3 and cfg.q_max == 2
    assert cfg.optimizer.mu_max == 1.2
    assert cfg.output_path == "out.csv"


def test_unknown_key_reports_line(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[channel]\nwavelength = 1550 nm\nbogus = 1\n")
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert f"{path}:3: unknown key 'bogus' in section [channel]" in str(err.value)


def test_non_utf8_config_exits_2_with_its_line(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_bytes(b"[channel]\nwavelength = 1.55 um\n# caf\xe9\n")
    assert main(["--config", str(path), "transmissivity"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"fsoqkd: {path}:3: ")
    assert "Traceback" not in err


def test_crlf_config_keeps_line_numbers(tmp_path):
    path = tmp_path / "crlf.ini"
    path.write_bytes(b"[channel]\r\nbogus = 1\r\n")
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert f"{path}:2: unknown key 'bogus' in section [channel]" in str(err.value)


def test_section_names_ignore_case(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[Channel]\npath_lengths = 3 km\n")
    assert load_config(str(path)).path_lengths == (3000.0,)


def test_unknown_section_reports_line(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[wibble]\nx = 1\n")
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert f"{path}:1: unknown section [wibble]" in str(err.value)


@pytest.mark.parametrize(
    "text", ["[DEFAULT]\nq_max = 2\n", "[DEFAULT]\nq_max = 2\n[channel]\npath_lengths = 1 km\n"]
)
def test_default_section_is_unknown(tmp_path, capsys, text):
    # No section fills in the keys of others: [DEFAULT] is a name like any
    # other, and no section has that name.
    path = tmp_path / "bad.ini"
    path.write_text(text)
    assert main(["--config", str(path), "validate"]) == 2
    assert f"{path}:1: unknown section [DEFAULT]" in capsys.readouterr().err


def _config_error(path, n_lines):
    """None when ``path`` loads, else its ConfigError message, which must
    start with ``path:N: `` for a line N in 1..n_lines; any other exception
    propagates."""
    try:
        load_config(str(path))
    except ConfigError as exc:
        match = re.match(rf"{re.escape(str(path))}:(\d+): ", str(exc))
        assert match and 1 <= int(match.group(1)) <= n_lines, str(exc)
        return str(exc)
    return None


@pytest.mark.parametrize(
    "text,error",
    [
        ("[ channel ]\npath_lengths = 1 km\n", None),
        ("[channel]\nfoo;bar = 1\n", "2: unknown key 'foo;bar'"),
        (
            "[Channel]\npath_lengths = 1 km\n[channel]\npath_lengths = 2 km\n",
            "3: [channel] repeats line 1",
        ),
        ("[planner]\nq_max = 2\nQ_MAX = 3\n", "3: planner.q_max repeats line 2"),
        ("[planner]\nq_max = 2\n[planner]\nn_max = 2\n", "3: [planner] repeats line 1"),
        ("q_max = 2\n[planner]\n", "1: key 'q_max' comes before any [section]"),
        ("[planner]\nq_max\n", "2: expected [section] or key = value"),
        # An indented line is no continuation of the value above it.
        ("[channel]\npath_lengths = 1 km,\n  2 km\n", "3: expected [section] or key = value"),
    ],
    ids=[
        "padded-header",
        "semicolon-key",
        "case-variant-section",
        "repeated-key",
        "repeated-section",
        "key-before-section",
        "no-delimiter",
        "indented-value",
    ],
)
def test_config_errors_name_their_line(tmp_path, text, error):
    path = tmp_path / "run.ini"
    path.write_text(text)
    message = _config_error(path, text.count("\n"))
    if error is None:
        assert message is None
    else:
        assert message.startswith(f"{path}:{error}"), message


def test_case_variant_section_repeat_runs_no_grid(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "cmd_transmissivity", lambda *args: calls.append(args))
    path = tmp_path / "run.ini"
    path.write_text("[Channel]\npath_lengths = 1 km\n[channel]\npath_lengths = 2 km\n")
    assert main(["--config", str(path), "transmissivity"]) == 2
    assert f"{path}:3: [channel] repeats line 1" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize(
    "raw,lineno",
    [
        (b"\xef\xbb\xbf[channel]\nbogus = 1\n", 2),
        (b"[channel]\rbogus = 1\r", 2),
        # Only CRLF, CR and LF end a line: not a form feed or a separator.
        ("[channel]\n; a\x0c; b\x1c; c\u2028; d\nbogus = 1\n".encode("utf-8"), 3),
    ],
    ids=["bom", "cr", "form-feed"],
)
def test_bom_and_line_ends_keep_line_numbers(tmp_path, raw, lineno):
    path = tmp_path / "run.ini"
    path.write_bytes(raw)
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert f"{path}:{lineno}: unknown key 'bogus' in section [channel]" in str(err.value)


def test_indented_entries_are_plain_entries(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("  [channel]\n\tpath_lengths = 2 km\n    ; a comment\n")
    assert load_config(str(path)).path_lengths == (2000.0,)


_README_INI = re.search(
    r"```ini\n(.*?)```", (Path(__file__).resolve().parent.parent / "README.md").read_text(), re.S
).group(1).splitlines()

# Lines to splice into the README example: each syntax the reader takes,
# and near misses of it.
_ODD_LINES = (
    "[ channel ]", "[Channel]", "[DEFAULT]", "[wibble]", "[]", "[channel", "[planner] x",
    "foo;bar = 1", "  2 km", "q_max", "= 1", "Q_MAX: 3", "n_max =", "\t; comment", "#",
    "path_log_range = 1 km : 2 km : 2", "\ufeff[qkd]", "visibility = 2", "mu_min = 2",
)
_LINE = st.one_of(
    st.sampled_from(_ODD_LINES + tuple(_README_INI)),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"), max_size=12),
)


@st.composite
def _mutated_readme_ini(draw):
    lines = list(_README_INI)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines)))
        edit = draw(st.sampled_from(["insert", "replace", "delete", "indent", "upper"]))
        if edit == "insert" or i == len(lines):
            lines.insert(i, draw(_LINE))
        elif edit == "replace":
            lines[i] = draw(_LINE)
        elif edit == "delete":
            del lines[i]
        elif edit == "indent":
            lines[i] = "  " + lines[i]
        else:
            lines[i] = lines[i].upper()
    return lines


@seed(2021)
@settings(max_examples=300, deadline=None, database=None)
@given(lines=_mutated_readme_ini())
def test_mutated_readme_configs_load_or_name_a_line(tmp_path_factory, lines):
    path = tmp_path_factory.getbasetemp() / "mutated.ini"
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
    _config_error(path, max(len(lines), 1))


def test_exclusive_path_keys(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text(
        "[channel]\npath_lengths = 1 km\npath_log_range = 1 km:2 km:3\n"
    )
    with pytest.raises(ConfigError, match="exclusive") as err:
        load_config(str(path))
    assert str(err.value).startswith(f"{path}:1: ")


def test_path_log_range(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[channel]\npath_log_range = 1 km : 100 km : 5\n")
    cfg = load_config(str(path))
    lengths = cfg.resolved_path_lengths()
    assert len(lengths) == 5
    assert lengths[0] == pytest.approx(1e3, rel=1e-12)
    assert lengths[2] == pytest.approx(10e3, rel=1e-12)
    assert lengths[-1] == pytest.approx(100e3, rel=1e-12)
    path.write_text("[channel]\npath_log_range = 1 km:100 km:0\n")
    with pytest.raises(ConfigError, match="not a valid range"):
        load_config(str(path))
    path.write_text("[channel]\npath_log_range = 1 km:100 km\n")
    with pytest.raises(ConfigError, match="start:stop:count"):
        load_config(str(path))


def test_invalid_values_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    for text, lineno, pattern in (
        # Cross-key validators cite the section header's line.
        ("[qkd]\ndark_count = 1e-6\nvisibility = 2\n", 1, r"\[qkd\]"),
        ("[channel]\nwavelength = 1 um\n[planner]\nmax_sweeps = 0\n", 3, "sweep"),
        # Single-key checks cite the key's line.
        ("[turbulence]\ncn2_values = -1e-15\n", 2, "cn2"),
        ("[planner]\nn_max = 2\nq_max = 0\n", 3, "q_max"),
        ("[channel]\npath_lengths = 1 km, inf\n", 2, "path_lengths"),
        ("[channel]\nsquare_side = 0 cm\n", 2, "must be > 0"),
    ):
        path.write_text(text)
        with pytest.raises(ConfigError, match=pattern) as err:
            load_config(str(path))
        assert str(err.value).startswith(f"{path}:{lineno}: "), text


@pytest.mark.parametrize("command", ["transmissivity", "rates", "validate"])
@pytest.mark.parametrize(
    "section,key,value", [("channel", "path_lengths", ","), ("turbulence", "cn2_values", "")]
)
def test_empty_grid_exits_2(tmp_path, capsys, section, key, value, command):
    path = tmp_path / "empty.ini"
    path.write_text(f"[{section}]\n{key} = {value}\n")
    out = tmp_path / "out.csv"
    assert main(["--config", str(path), "--out", str(out), command]) == 2
    assert f"{path}:2: {section}.{key}: empty list" in capsys.readouterr().err
    assert not out.exists()


def test_bad_log_level_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FSO_QKD_LOG", "verbose")
    out = tmp_path / "out.csv"
    assert main(["--out", str(out), "transmissivity"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("fsoqkd: FSO_QKD_LOG='verbose'")
    assert "debug, info, warning, error or critical" in err
    assert not out.exists()


def test_log_level_applies_to_every_main_call(tmp_path, monkeypatch, caplog):
    # FSO_QKD_LOG sets the package logger's level on each call, under any
    # root handler (here pytest's), not only on a process's first call.
    ini = tmp_path / "run.ini"
    ini.write_text("[channel]\npath_lengths = 1 km\n[turbulence]\ncn2_values = 0\n")
    argv = ["--jobs", "1", "--config", str(ini), "--out", str(tmp_path / "t.csv"), "transmissivity"]
    for level, shown in (("ERROR", False), ("debug", True), ("warning", False)):
        caplog.clear()
        monkeypatch.setenv("FSO_QKD_LOG", level)
        assert main(argv) == 0
        assert logging.getLogger("fsoqkd").level == getattr(logging, level.upper())
        assert ("(L, cn2) points in 1 tasks" in caplog.text) == shown, level


# One valid non-default value per config key.
_NON_DEFAULT = {
    ("channel", "wavelength"): "1 um",
    ("channel", "gauss_radius"): "5 cm",
    ("channel", "square_side"): "20 cm",
    ("channel", "path_lengths"): "2 km",
    ("channel", "path_log_range"): "1 km : 2 km : 2",
    ("turbulence", "cn2_values"): "1e-14",
    ("qkd", "visibility"): "0.9",
    ("qkd", "dark_count"): "1e-5",
    ("qkd", "pulse_rate"): "1e9",
    ("qkd", "error_correction_factor"): "1.2",
    ("qkd", "sifting_factor"): "0.25",
    ("planner", "n_max"): "3",
    ("planner", "q_max"): "3",
    ("planner", "mu_min"): "1e-5",
    ("planner", "mu_max"): "1.0",
    ("planner", "rel_tol"): "1e-5",
    ("planner", "max_sweeps"): "10",
    ("output", "path"): "x.csv",
}


@pytest.mark.parametrize(
    "section,key", [(section, key) for section, keys in cli._KEYS.items() for key in keys]
)
def test_no_config_key_is_a_no_op(tmp_path, section, key):
    path = tmp_path / "one.ini"
    path.write_text(f"[{section}]\n{key} = {_NON_DEFAULT[section, key]}\n")
    assert load_config(str(path)) != load_config(None)


def test_quad_base_order_is_unknown_key(tmp_path, capsys):
    path = tmp_path / "old.ini"
    path.write_text("[planner]\nq_max = 2\nquad_base_order = 40\n")
    assert main(["--config", str(path), "rates"]) == 2
    assert f"{path}:3: unknown key 'quad_base_order'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section,key,value,command",
    [
        ("turbulence", "cn2_values", "nan", "transmissivity"),
        ("turbulence", "cn2_values", "1e-14, nan", "validate"),
        ("qkd", "pulse_rate", "inf", "rates"),
        ("channel", "path_lengths", "1 km, 1e400 km", "transmissivity"),
        ("planner", "quad_rel_tol", "nan", "validate"),
    ],
)
def test_non_finite_numbers_exit_2(tmp_path, capsys, section, key, value, command):
    path = tmp_path / "bad.ini"
    path.write_text(f"[{section}]\n{key} = {value}\n")
    assert main(["--config", str(path), command]) == 2
    err = capsys.readouterr().err
    if key == "quad_rel_tol":
        # No longer a key: refused by name before its value is parsed.
        assert f"{path}:2: unknown key 'quad_rel_tol'" in err
    else:
        assert f"{section}.{key}" in err and "not finite" in err


def test_cmd_transmissivity_layout_and_golden_cells():
    cfg = small_config(path_lengths=(1e3, 2e3), cn2_values=(0.0, 1e-14))
    text = cmd_transmissivity(cfg)
    lines = text.splitlines()
    assert lines[0] == "L_m,cn2,eta_fb,eta_gauss"
    assert len(lines) == 1 + 4
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 4
        for cell in cells:
            assert CELL.match(cell), cell
    # Vacuum single-beam bucket power at 1 km, closed form.
    assert lines[1].split(",")[3] == "9.06072390474e-01"
    assert text.endswith("\n") and "\r" not in text


def test_cmd_rates_small_grid_and_determinism():
    cfg = small_config(path_lengths=(10e3,), cn2_values=(1e-15,), n_max=2, q_max=2)
    text, clean = cmd_rates(cfg)
    assert clean
    lines = text.splitlines()
    assert lines[0] == "L_m,cn2,mode_set,config,rate_bps,capacity_bps"
    assert len(lines) == 3
    lg_cells = lines[1].split(",")
    fb_cells = lines[2].split(",")
    assert lg_cells[2] in ("lg", "gaussian-pib")
    assert fb_cells[2] == "fb"
    assert float(lg_cells[4]) > 0.0 and float(fb_cells[4]) > 0.0
    assert CELL.match(lg_cells[5])
    assert fb_cells[5] == ""
    assert float(lg_cells[4]) <= float(lg_cells[5])

    text2, _ = cmd_rates(cfg)
    assert text2.encode() == text.encode()


def test_cmd_rates_lists_rows_by_length_then_cn2_then_family():
    # One worker gets one task holding every link; the CSV order is
    # unchanged.
    cfg = small_config(path_lengths=(20e3, 10e3), cn2_values=(1e-14, 1e-15), n_max=1, q_max=1)
    text, clean = cmd_rates(cfg)
    assert clean
    keys = [
        (float(cells[0]), float(cells[1]), "fb" if cells[2] == "fb" else "lg")
        for cells in (line.split(",") for line in text.splitlines()[1:])
    ]
    assert keys == [
        (path_length, cn2, family)
        for path_length in (20e3, 10e3)
        for cn2 in (1e-14, 1e-15)
        for family in ("lg", "fb")
    ]


def test_cmd_rates_deals_points_round_robin(monkeypatch):
    # A task holds both families' links of its (L, cn2) points, and the
    # points are dealt round-robin over min(jobs, points) tasks.
    cfg = small_config(path_lengths=(10e3, 20e3), cn2_values=(1e-15, 1e-14), n_max=1, q_max=1)
    shapes = []
    scan = cli.scan

    def serial(worker, tasks, jobs):
        shapes.append([])
        return [worker(*task) for task in tasks]

    def recorded(links, *args):
        shapes[-1].append([(ch.path_length, ch.cn2, type(ch.pupil).__name__) for ch in links])
        return scan(links, *args)

    monkeypatch.setattr(cli, "_pool_map", serial)
    monkeypatch.setattr(cli, "scan", recorded)
    points = [(10e3, 1e-15), (10e3, 1e-14), (20e3, 1e-15), (20e3, 1e-14)]

    def links(*indices):
        return [(*points[i], pupil) for i in indices for pupil in ("SoftGaussian", "HardSquare")]

    expected = cmd_rates(cfg, jobs=1)
    assert shapes.pop() == [links(0, 1, 2, 3)]
    cmd_rates(cfg, jobs=3)
    assert shapes.pop() == [links(0, 3), links(1), links(2)]
    for jobs in (2, 3, 4):
        assert cmd_rates(cfg, jobs=jobs) == expected
    assert [len(shape) for shape in shapes] == [2, 3, 4]


def test_cmd_rates_work_budget(kernel_work):
    # Deterministic work of one worker on 3 lengths x 2 cn2 at n_max = 4,
    # q_max = 1: one ascent for both families (against 2 with an ascent
    # per family, and 6 with a task per path length), whose line-search
    # probes evaluate only the real modes of the rows still searching.
    # Measured: 212 kernel calls on 57,356 elements; the budgets allow 10%
    # more.
    cfg = small_config(
        path_lengths=(1e3, 3e3, 10e3), cn2_values=(0.0, 1e-14), n_max=4, q_max=1
    )
    text, clean = cmd_rates(cfg, jobs=1)
    assert clean and len(text.splitlines()) == 1 + 3 * 2 * 2
    assert kernel_work.optimize == 1
    assert len(kernel_work.calls) <= 1.1 * 212
    assert kernel_work.elements <= 1.1 * 57_356


SINGLE_BEAM = (cmd_transmissivity, cmd_validate)


@pytest.mark.parametrize("command", SINGLE_BEAM, ids=["transmissivity", "validate"])
def test_single_beam_work_budget(monkeypatch, command):
    # Deterministic work of one worker on 60 L x 4 cn2: one quadrature call
    # for the task's one integrated quantity (the flat-top axis, or the
    # 5/3-law power-in-bucket), against one per point before, each damped
    # row integrated only where its damping is above e^-60.  Measured: 5
    # integrand calls on 20,608 (row, node) pairs for transmissivity and 7
    # on 43,264 for validate (9 on 41,344 and 12 on 78,976 over the full
    # ranges); the budgets allow 10% more.
    work = {"quadratures": 0, "integrands": 0, "pairs": 0}

    def counted(f, *args, **kwargs):
        work["quadratures"] += 1

        def integrand(rows, x):
            work["integrands"] += 1
            work["pairs"] += x.size
            return f(rows, x)

        return numerics.integrate_1d(integrand, *args, **kwargs)

    monkeypatch.setattr(turbulence, "integrate_1d", counted)
    monkeypatch.setattr(vacuum, "integrate_1d", counted)
    cfg = small_config(
        path_lengths=tuple(np.geomspace(10e3, 100e3, 60)), cn2_values=(0.0, 1e-15, 1e-14, 1e-13)
    )
    text = command(cfg, jobs=1)
    assert len((text if isinstance(text, str) else text[0]).splitlines()) == 1 + 240
    integrands, pairs = {cmd_transmissivity: (5, 20_608), cmd_validate: (7, 43_264)}[command]
    assert work["quadratures"] == 1
    assert work["integrands"] <= 1.1 * integrands
    assert work["pairs"] <= 1.1 * pairs


@pytest.mark.parametrize("command", ["transmissivity", "validate"])
def test_single_beam_rows_are_the_same_alone_and_in_any_task(tmp_path, command):
    # A point's cells are the same bit for bit alone and inside a 60-length
    # grid, however its points are dealt over 1, 2 or 3 workers.
    lengths = np.geomspace(10e3, 100e3, 60)

    def rows(path_lengths, jobs):
        ini = tmp_path / "grid.ini"
        ini.write_text(
            "[channel]\npath_lengths = " + ", ".join(f"{float(L)!r} m" for L in path_lengths)
            + "\n[turbulence]\ncn2_values = 0.0, 1e-14\n"
        )
        out = tmp_path / "out.csv"
        main(["--jobs", str(jobs), "--config", str(ini), "--out", str(out), command])
        return out.read_text().splitlines()[1:]

    picks = (0, 37, 59)
    alone = [rows([lengths[i]], 1) for i in picks]
    for jobs in (1, 2, 3):
        grid = rows(lengths, jobs)
        assert [grid[2 * i : 2 * i + 2] for i in picks] == alone


def test_cmd_rates_records_failures(monkeypatch, caplog):
    cfg = small_config(path_lengths=(10e3,), cn2_values=(1e-14,), n_max=1, q_max=1)

    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(planner, "lg_turb_matrix", boom)
    monkeypatch.setattr(planner, "lg_turb_same_order", boom)
    text, clean = cmd_rates(cfg)
    assert not clean
    lines = text.splitlines()
    lg_cells = lines[1].split(",")
    assert lg_cells[2] == "lg"
    assert lg_cells[3] == "" and lg_cells[4] == ""
    assert CELL.match(lg_cells[5])
    fb_cells = lines[2].split(",")
    assert fb_cells[2] == "fb" and float(fb_cells[4]) > 0.0


def test_cmd_rates_keeps_rate_when_capacity_fails(caplog):
    # At 0.3 m the LG capacity series exhausts its order budget.
    cfg = small_config(path_lengths=(0.3,), cn2_values=(1e-14,), n_max=1, q_max=2)
    text, clean = cmd_rates(cfg)
    assert not clean
    lg_cells = text.splitlines()[1].split(",")
    assert lg_cells[2] in ("lg", "gaussian-pib")
    assert lg_cells[3] != "" and CELL.match(lg_cells[4])
    assert lg_cells[5] == ""
    assert "lg_vacuum_capacity" in caplog.text


def test_quad_rel_tol_is_unknown_key(tmp_path):
    path = tmp_path / "old.ini"
    path.write_text("[planner]\nq_max = 2\nquad_rel_tol = 1e-7\n")
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert f"{path}:3: unknown key 'quad_rel_tol'" in str(err.value)


def test_validate_refuses_quad_rel_tol_before_any_work(tmp_path, capsys, monkeypatch):
    # The 5/3 check runs at the rule's fixed tolerance: a configured
    # quad_rel_tol stops validate (exit 2) before any check runs.
    path = tmp_path / "run.ini"
    path.write_text(
        "[channel]\npath_lengths = 10 km\n[turbulence]\ncn2_values = 1e-14\n"
        "[planner]\nquad_rel_tol = 1e-7\n"
    )
    seen = []
    monkeypatch.setattr(cli, "gaussian_pib_53", lambda ch: seen.append(ch))
    out = tmp_path / "validate.csv"
    assert main(["--config", str(path), "--out", str(out), "validate"]) == 2
    assert f"{path}:6: unknown key 'quad_rel_tol'" in capsys.readouterr().err
    assert seen == [] and not out.exists()


def test_rates_short_links_fill_every_fb_row(tmp_path):
    # Deep near field: the flat-top axis factors are 0.95-0.998 here.
    ini = tmp_path / "short.ini"
    ini.write_text(
        "[channel]\npath_lengths = 100 m, 300 m\n[turbulence]\ncn2_values = 1e-14\n"
        "[planner]\nq_max = 2\n"
    )
    out = tmp_path / "rates.csv"
    assert main(["--jobs", "1", "--config", str(ini), "--out", str(out), "rates"]) == 0
    fb_rows = [line.split(",") for line in out.read_text().splitlines() if ",fb," in line]
    assert len(fb_rows) == 2
    for cells in fb_rows:
        assert cells[3] != "" and float(cells[4]) > 0.0


def test_readme_example_config_loads(tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"```ini\n(.*?)```", readme, re.S)
    assert block is not None
    path = tmp_path / "example.ini"
    path.write_text(block.group(1))
    cfg = load_config(str(path))
    assert cfg.cn2_values == (1e-15, 1e-14, 1e-13)
    assert cfg.n_max == 8 and cfg.q_max == 8


def test_cli_import_loads_no_scipy():
    src = Path(cli.__file__).resolve().parent.parent
    code = "import sys, fsoqkd.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_cli_import_loads_no_concurrent_futures():
    # Only a process pool needs concurrent.futures, and --jobs 1 makes none.
    src = Path(cli.__file__).resolve().parent.parent
    code = "import sys, fsoqkd.cli; print('concurrent.futures' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_cli_config_load_loads_no_configparser():
    # load_config reads the INI text itself, in one pass.
    root = Path(cli.__file__).resolve().parent.parent.parent
    code = (
        "import sys, fsoqkd.cli; fsoqkd.cli.load_config(sys.argv[1]); "
        "print('configparser' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    out = subprocess.run(
        [sys.executable, "-c", code, str(root / "tests" / "data" / "single-beam.ini")],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"


def test_cli_run_loads_no_numpy_polynomial(tmp_path):
    # A fresh process builds its quadrature nodes without numpy.polynomial,
    # whose import alone costs milliseconds of every CLI run.
    root = Path(cli.__file__).resolve().parent.parent.parent
    code = (
        "import sys, fsoqkd.cli; "
        "status = fsoqkd.cli.main(sys.argv[1:]); "
        "print(status, sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))"
    )
    argv = [
        "--jobs", "1",
        "--config", str(root / "tests" / "data" / "single-beam.ini"),
        "--out", str(tmp_path / "transmissivity.csv"),
        "transmissivity",
    ]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    out = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "0 []"
    assert (tmp_path / "transmissivity.csv").read_text().startswith("L_m,cn2,eta_fb,eta_gauss")


@pytest.mark.parametrize("command", ["rates", "validate", "transmissivity"])
def test_cli_run_imports_no_new_module(tmp_path, command):
    # A run imports nothing that `import fsoqkd.cli` and a first read of
    # its config (which loads the utf-8-sig codec) did not, bar argparse's
    # lazy locale: a lazy import inside numpy (numpy.ma behind np.unique,
    # for one) costs milliseconds of every CLI run.  The rates grid holds a
    # 30 m flat-top link that fails at N = 5, so the failure path runs too.
    root = Path(cli.__file__).resolve().parent.parent.parent
    ini = root / "tests" / "data" / "single-beam.ini"
    if command == "rates":
        ini = tmp_path / "rates.ini"
        ini.write_text(
            "[channel]\npath_lengths = 30 m, 10 km\n[turbulence]\ncn2_values = 0, 1e-14\n"
            "[planner]\nn_max = 5\nq_max = 3\n"
        )
    code = (
        "import sys, fsoqkd.cli; fsoqkd.cli.load_config(sys.argv[4]); "
        "before = set(sys.modules); status = fsoqkd.cli.main(sys.argv[1:]); "
        "print(status, sorted(set(sys.modules) - before - {'locale', '_locale'}))"
    )
    argv = ["--jobs", "1", "--config", str(ini), "--out", str(tmp_path / "out.csv"), command]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    out = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, check=True
    )
    status = {"rates": 1, "validate": 1, "transmissivity": 0}[command]
    assert out.stdout.strip() == f"{status} []"


def test_cmd_validate_small_grid():
    cfg = small_config(path_lengths=(10e3,), cn2_values=(0.0, 1e-14))
    text, all_pass = cmd_validate(cfg)
    assert all_pass
    lines = text.splitlines()
    assert lines[0] == "L_m,cn2,eta_square_law,eta_five_thirds,eta_vacuum,rel_gap,status"
    assert len(lines) == 3
    for line in lines[1:]:
        assert line.endswith(",pass")
    turb_cells = lines[2].split(",")
    assert float(turb_cells[2]) <= float(turb_cells[3]) <= float(turb_cells[4])
    assert float(turb_cells[5]) >= 0.0


def test_cmd_validate_holds_vacuum_to_the_one_rule(monkeypatch):
    # A 5/3-law vacuum value 1e-6 below the square law breaks
    # eta(square) <= eta(5/3) (1 + 1e-9); vacuum has no looser rule.
    exact = cli.gaussian_pib_53

    def low_in_vacuum(chans):
        eta = exact(chans)
        vacuum = [i for i, ch in enumerate(chans) if ch.cn2 == 0.0]
        eta[vacuum] = [turbulence.gaussian_pib_turb(chans[i]) * (1 - 1e-6) for i in vacuum]
        return eta

    monkeypatch.setattr(cli, "gaussian_pib_53", low_in_vacuum)
    cfg = small_config(path_lengths=(10e3,), cn2_values=(0.0, 1e-14))
    text, all_pass = cmd_validate(cfg)
    assert not all_pass
    assert [line.rsplit(",", 1)[1] for line in text.splitlines()[1:]] == ["fail", "pass"]


@pytest.mark.parametrize("radius", [0.01, 0.1, 0.5])
def test_cmd_validate_passes_vacuum_from_1_m_to_1000_km(radius):
    # In vacuum both laws give the same integral to roundoff, so the one
    # rule holds at every length and pupil.
    lengths = tuple(np.geomspace(1.0, 1e6, 25))
    cfg = small_config(path_lengths=lengths, cn2_values=(0.0,), gauss_radius=radius)
    text, all_pass = cmd_validate(cfg)
    assert all_pass, text
    gaps = [abs(float(line.split(",")[5])) for line in text.splitlines()[1:]]
    assert len(gaps) == 25 and max(gaps) < 1e-13


@pytest.mark.parametrize(
    "command,overrides",
    [
        (cmd_transmissivity, dict(path_lengths=(1e3, 3e3), cn2_values=(0.0,))),
        # Three points over two workers: tasks of two points and one.
        (
            cmd_rates,
            dict(path_lengths=(10e3, 20e3, 30e3), cn2_values=(1e-14,), n_max=2, q_max=2),
        ),
        (cmd_validate, dict(path_lengths=(10e3,), cn2_values=(0.0, 1e-14))),
    ],
    ids=["transmissivity", "rates", "validate"],
)
def test_jobs_parallel_matches_serial(command, overrides):
    cfg = small_config(**overrides)
    assert command(cfg, jobs=2) == command(cfg, jobs=1)


def test_jobs_default_follows_cpu_affinity():
    args = _build_parser().parse_args(["rates"])
    assert args.jobs == len(os.sched_getaffinity(0))


def test_jobs_default_without_cpu_affinity(monkeypatch, tmp_path):
    # Python has no os.sched_getaffinity on macOS or Windows; the default
    # falls back to the CPU count.
    monkeypatch.delattr(os, "sched_getaffinity")
    assert _build_parser().parse_args(["rates"]).jobs == (os.cpu_count() or 1)
    ini = tmp_path / "run.ini"
    ini.write_text("[channel]\npath_lengths = 1 km\n[turbulence]\ncn2_values = 0\n")
    out = tmp_path / "t.csv"
    assert main(["--config", str(ini), "--out", str(out), "transmissivity"]) == 0
    assert out.read_text().startswith("L_m,cn2,")


def test_pool_gets_at_most_one_worker_per_task(monkeypatch, tmp_path):
    # A process pool forks all its workers at its first task, so 64 jobs
    # on the 12 points of single-beam.ini must ask for 12 workers.  The
    # pool here records its size and maps inline.
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    config = Path(__file__).parent / "data" / "single-beam.ini"
    out = {jobs: tmp_path / f"jobs{jobs}.csv" for jobs in (64, 1)}
    for jobs, path in out.items():
        argv = ["--jobs", str(jobs), "--config", str(config), "--out", str(path)]
        assert main(argv + ["transmissivity"]) == 0
    assert sizes == [12]
    assert out[64].read_text() == out[1].read_text()


def test_main_exit_codes_and_output(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[channel]\npath_lengths = 1 km\n[turbulence]\ncn2_values = 0\n"
    )
    out = tmp_path / "t.csv"
    rc = main(["--config", str(ini), "--out", str(out), "transmissivity"])
    assert rc == 0
    assert out.read_text().startswith("L_m,cn2,")

    rc = main(["--config", str(ini), "--jobs", "0", "transmissivity"])
    assert rc == 2
    assert "jobs" in capsys.readouterr().err

    bad = tmp_path / "bad.ini"
    bad.write_text("[channel]\nbogus = 1\n")
    rc = main(["--config", str(bad), "transmissivity"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("fsoqkd:")

    vout = tmp_path / "v.csv"
    ini2 = tmp_path / "val.ini"
    ini2.write_text("[channel]\npath_lengths = 10 km\n[turbulence]\ncn2_values = 0\n")
    rc = main(["--config", str(ini2), "--out", str(vout), "validate"])
    assert rc == 0
    assert "all points passed" in capsys.readouterr().err
    assert vout.read_text().splitlines()[1].endswith(",pass")


@pytest.mark.parametrize("command", ["transmissivity", "rates", "validate"])
def test_unwritable_output_exits_2_before_any_work(tmp_path, capsys, monkeypatch, command):
    calls = []
    for name in ("cmd_transmissivity", "cmd_rates", "cmd_validate"):
        monkeypatch.setattr(cli, name, lambda *args, name=name: calls.append(name))
    bad = tmp_path / "no" / "such" / "x.csv"
    ini = tmp_path / "run.ini"
    ini.write_text(f"[output]\npath = {bad}\n")
    for argv in (["--out", str(bad), command], ["--config", str(ini), command]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"fsoqkd: cannot write {bad}: No such file or directory\n"
    assert calls == []


def test_main_writes_config_output_path(tmp_path, monkeypatch):
    out = tmp_path / "from_config.csv"
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[channel]\npath_lengths = 1 km\n[turbulence]\ncn2_values = 0\n"
        f"[output]\npath = {out}\n"
    )
    rc = main(["--config", str(ini), "transmissivity"])
    assert rc == 0
    assert out.exists()


@pytest.mark.parametrize("value", ["", "   "], ids=["empty", "blank"])
def test_main_rejects_empty_config_output_path(tmp_path, monkeypatch, capsys, value):
    # An empty path would otherwise fall back to stdout, a key that does
    # nothing; it is an error at its line, as an empty list is.
    calls = []
    monkeypatch.setattr(cli, "cmd_transmissivity", lambda *args: calls.append(args))
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[channel]\npath_lengths = 1 km\n[turbulence]\ncn2_values = 0\n"
        f"[output]\npath ={value}\n"
    )
    assert main(["--config", str(ini), "transmissivity"]) == 2
    assert capsys.readouterr().err == f"fsoqkd: {ini}:6: output.path: empty path\n"
    assert calls == []
