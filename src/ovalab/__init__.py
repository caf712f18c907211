"""Numerical laboratory for rotationally symmetric convex mean curvature flow.

The package simulates the renormalized flow of SO(2)-symmetric convex
hypersurfaces in R^4 (bubble-sheet ovals), extracts Gaussian spectral
data, and checks the quantitative structures that govern them: the
inward quadratic normal form, the quadratic mode dynamics, collar and
tip-soliton behavior, and the recentering maps that put a flow into
normal position.
"""

from .grid import (
    PolarGrid,
    ScalarField,
    build_grid,
    inner_product_H,
    load_field,
    norm_H,
    save_field,
)

__all__ = [
    "PolarGrid",
    "ScalarField",
    "build_grid",
    "inner_product_H",
    "load_field",
    "norm_H",
    "save_field",
]

__version__ = "0.1.0"
