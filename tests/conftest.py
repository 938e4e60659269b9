"""Shared fixtures and channel builders for the test suite."""

import logging
import math
from dataclasses import dataclass, field
from typing import List

import numpy as np
import pytest

import fsoqkd.planner as planner
from fsoqkd.channel import (
    ChannelConfig,
    HardSquare,
    SoftGaussian,
    derive,
    matched_square_side,
)

WAVELENGTH = 1.55e-6
RADIUS = 0.10


def gauss_channel(path_length: float, cn2: float = 0.0):
    return derive(
        ChannelConfig(
            wavelength=WAVELENGTH,
            path_length=path_length,
            cn2=cn2,
            pupil=SoftGaussian(radius=RADIUS),
        )
    )


def square_channel(path_length: float, cn2: float = 0.0, side: float = None):
    if side is None:
        side = matched_square_side(RADIUS)
    return derive(
        ChannelConfig(
            wavelength=WAVELENGTH,
            path_length=path_length,
            cn2=cn2,
            pupil=HardSquare(side=side),
        )
    )


def gauss_channel_for_df(df: float):
    """Gaussian-pupil channel whose Fresnel product equals ``df`` exactly."""
    area = math.pi * RADIUS * RADIUS / 2.0
    path_length = area / (WAVELENGTH * math.sqrt(df))
    ch = gauss_channel(path_length)
    assert abs(ch.fresnel_product - df) < 1e-9 * df
    return ch


@pytest.fixture(autouse=True)
def _package_log_level():
    """Restore the ``fsoqkd`` logger's level, which ``cli.main`` sets from
    ``FSO_QKD_LOG`` on every call, so no test leaks it to the next."""
    logger = logging.getLogger("fsoqkd")
    level = logger.level
    yield
    logger.setLevel(level)


@pytest.fixture(scope="session")
def ch_gauss_10km():
    return gauss_channel(10e3)


@pytest.fixture(scope="session")
def ch_square_10km():
    return square_channel(10e3)


@dataclass
class KernelWork:
    """Work counts of the power optimizer: ``_optimize`` calls, rate-kernel
    calls by name in call order, the elements those calls evaluate, and
    the most elements of one call."""

    optimize: int = 0
    calls: List[str] = field(default_factory=list)
    elements: int = 0
    largest: int = 0


@pytest.fixture
def kernel_work(monkeypatch):
    """A :class:`KernelWork` that counts through the ``planner`` globals
    for the rest of the test."""
    work = KernelWork()
    for name in ("rate_per_pulse", "rate_and_slopes"):
        kernel = getattr(planner, name)

        def counted(*args, _kernel=kernel, _name=name):
            out = _kernel(*args)
            work.calls.append(_name)
            size = np.size(out[0] if isinstance(out, tuple) else out)
            work.elements += size
            work.largest = max(work.largest, size)
            return out

        monkeypatch.setattr(planner, name, counted)
    optimize = planner._optimize

    def counted_optimize(*args):
        work.optimize += 1
        return optimize(*args)

    monkeypatch.setattr(planner, "_optimize", counted_optimize)
    return work
