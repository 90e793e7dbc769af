"""Numerical laboratory for kinetic Fokker-Planck equations with rough
coefficients: geometry, coefficient fields, an operator-split solver, and
probes that measure the constants appearing in the regularity theory.
"""

__version__ = "0.1.0"

from .fields import CoefficientField, EllipticityBounds, certify_field, sample_field
from .geometry import (
    Cylinder,
    CylinderShape,
    GalileanTransform,
    KineticPoint,
    Paraboloid,
    scale_point,
    verify_covering,
)
from .landau import LandauParams, MomentBounds, VelocityGrid, VelocityGridFunction, moments
from .solver import SolverConfig, solve, step
from .trajectory import PhaseGrid, PhaseGridFunction, Trajectory

__all__ = [
    "CoefficientField",
    "Cylinder",
    "CylinderShape",
    "EllipticityBounds",
    "GalileanTransform",
    "KineticPoint",
    "LandauParams",
    "MomentBounds",
    "Paraboloid",
    "PhaseGrid",
    "PhaseGridFunction",
    "SolverConfig",
    "Trajectory",
    "VelocityGrid",
    "VelocityGridFunction",
    "certify_field",
    "moments",
    "sample_field",
    "scale_point",
    "solve",
    "step",
    "verify_covering",
]
