"""Free-space optical channels and multimode decoy-state QKD planning.

The package computes average power transmissivities and cross-talk of
Laguerre-Gauss and flat-top focused-beam mode sets over vacuum and
turbulent line-of-sight channels, and optimizes decoy-state BB84 key
rates over per-mode power allocations and mode-set configurations.
"""

from .channel import (
    ChannelConfig,
    DerivedChannel,
    HardSquare,
    SoftGaussian,
    cn2_for_coherence_length,
    derive,
    matched_square_side,
)
from .numerics import QuadratureError, lg_hg_unitary
from .planner import (
    OptimizerOptions,
    PowerAllocation,
    RatePoint,
    ScanGeometry,
    ScanRow,
    fb_envelope,
    lg_envelope,
    optimize_allocation,
    orbit_classes,
    scan,
    total_rate,
)
from .qkd import QkdSystemParams
from .turbulence import (
    StructureFunctionKind,
    fb_turb_eta,
    fb_turb_matrix,
    gaussian_pib_53,
    gaussian_pib_turb,
    hg_second_moments,
    lg_turb_matrix,
    structure_fn,
)
from .vacuum import (
    CouplingMatrix,
    FBPixel,
    LGMode,
    fb_vacuum_matrix,
    lg_vacuum_capacity,
    lg_vacuum_eta,
    lg_vacuum_matrix,
    qkd_capacity,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelConfig",
    "DerivedChannel",
    "HardSquare",
    "SoftGaussian",
    "cn2_for_coherence_length",
    "derive",
    "matched_square_side",
    "QuadratureError",
    "lg_hg_unitary",
    "OptimizerOptions",
    "PowerAllocation",
    "RatePoint",
    "ScanGeometry",
    "ScanRow",
    "fb_envelope",
    "lg_envelope",
    "optimize_allocation",
    "orbit_classes",
    "scan",
    "total_rate",
    "QkdSystemParams",
    "StructureFunctionKind",
    "fb_turb_eta",
    "fb_turb_matrix",
    "gaussian_pib_53",
    "gaussian_pib_turb",
    "hg_second_moments",
    "lg_turb_matrix",
    "structure_fn",
    "CouplingMatrix",
    "FBPixel",
    "LGMode",
    "fb_vacuum_matrix",
    "lg_vacuum_capacity",
    "lg_vacuum_eta",
    "lg_vacuum_matrix",
    "qkd_capacity",
    "__version__",
]
