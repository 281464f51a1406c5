"""Rotation-invariant Spherical Harmonic Descriptor (section 5.3).

For each of the 32 spherical shells, the occupied directions define a
function on the sphere.  Projecting it onto the spherical harmonics
``Y_lm`` and recording only the per-degree energies
``e_l = sqrt(sum_m |c_lm|^2)`` yields a rotation-invariant signature
(Kazhdan et al. 2003) — rotations mix the ``m`` components within a
degree ``l`` but preserve their norms.  Degrees 0..16 per shell give the
paper's ``32 x 17 = 544``-dimensional descriptor.

Implementation note: projecting every point sample against every
``Y_lm`` directly would cost ~300 scipy calls per shell.  Instead the
harmonic basis is evaluated once on a fixed latitude/longitude grid
(with solid-angle quadrature weights folded in); each shell is then
rasterized onto the grid and all 289 coefficients come from one matrix
multiply.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, List, Tuple

import numpy as np

from .voxelize import NUM_SHELLS

__all__ = ["MAX_ORDER", "SHAPE_DIM", "HarmonicBasis", "shd_descriptor"]

MAX_ORDER = 16  # spherical harmonic degrees 0..16
SHAPE_DIM = NUM_SHELLS * (MAX_ORDER + 1)  # 544

_GRID_THETA = 48  # latitude cells
_GRID_PHI = 96  # longitude cells


@lru_cache(maxsize=1)
def _resolve_sph_harm() -> Callable[[int, int, np.ndarray, np.ndarray], np.ndarray]:
    """Bind the installed SciPy's harmonic to ``(m, l, phi, theta)`` order.

    SciPy is imported on the first call, not at module load, so a process
    that only serves stored signatures never pays for it.
    """
    import scipy.special

    sph_harm_y = getattr(scipy.special, "sph_harm_y", None)
    if sph_harm_y is not None:  # scipy >= 1.15: sph_harm_y(l, m, theta_polar, phi_azimuth)
        return lambda m, degree, phi, theta: sph_harm_y(degree, m, theta, phi)
    sph_harm = scipy.special.sph_harm  # older scipy: sph_harm(m, l, phi_azimuth, theta_polar)
    return lambda m, degree, phi, theta: sph_harm(m, degree, phi, theta)


def _sph_harm(m: int, degree: int, phi: np.ndarray, theta: np.ndarray) -> np.ndarray:
    return _resolve_sph_harm()(m, degree, phi, theta)


class HarmonicBasis:
    """Precomputed conjugate-harmonic quadrature matrix on a sphere grid.

    ``project(density_grid)`` returns all coefficients ``c_lm`` of the
    gridded density in one matmul; ``energies`` folds them into the
    per-degree rotation-invariant norms.
    """

    def __init__(
        self,
        max_order: int = MAX_ORDER,
        n_theta: int = _GRID_THETA,
        n_phi: int = _GRID_PHI,
    ) -> None:
        self.max_order = max_order
        self.n_theta = n_theta
        self.n_phi = n_phi
        # Cell centers.
        theta = (np.arange(n_theta) + 0.5) * np.pi / n_theta
        phi = (np.arange(n_phi) + 0.5) * 2.0 * np.pi / n_phi
        tt, pp = np.meshgrid(theta, phi, indexing="ij")
        # Point-mass (Monte-Carlo) projection: with the shell's samples
        # treated as unit point masses, c_lm = (1/n) sum_i conj(Y_lm(w_i)).
        # Gridding only snaps each sample to its cell center, so the
        # basis matrix is plain conj(Y) at cell centers — no solid-angle
        # factor (that would weight samples by their cell's area and
        # destroy rotation invariance).
        rows = []
        self.degree_of_row = []
        for degree in range(max_order + 1):
            for m in range(-degree, degree + 1):
                y = _sph_harm(m, degree, pp.ravel(), tt.ravel())
                rows.append(np.conj(y))
                self.degree_of_row.append(degree)
        self.matrix = np.stack(rows)  # (num_coeffs, n_cells) complex
        self.degree_of_row = np.asarray(self.degree_of_row)

    def rasterize(self, directions: np.ndarray) -> np.ndarray:
        """Histogram unit directions onto the grid as a density."""
        x, y, z = directions[:, 0], directions[:, 1], directions[:, 2]
        theta = np.arccos(np.clip(z, -1.0, 1.0))
        phi = np.mod(np.arctan2(y, x), 2.0 * np.pi)
        ti = np.clip((theta / np.pi * self.n_theta).astype(int), 0, self.n_theta - 1)
        pi = np.clip(
            (phi / (2.0 * np.pi) * self.n_phi).astype(int), 0, self.n_phi - 1
        )
        grid = np.zeros((self.n_theta, self.n_phi))
        np.add.at(grid, (ti, pi), 1.0)
        return grid

    def energies(self, directions: np.ndarray) -> np.ndarray:
        """Per-degree harmonic energies of one shell's direction samples."""
        out = np.zeros(self.max_order + 1)
        if len(directions) == 0:
            return out
        density = self.rasterize(directions).ravel() / len(directions)
        coeffs = self.matrix.dot(density)
        power = np.abs(coeffs) ** 2
        for degree in range(self.max_order + 1):
            out[degree] = np.sqrt(power[self.degree_of_row == degree].sum())
        return out


@lru_cache(maxsize=4)
def _shared_basis(max_order: int) -> HarmonicBasis:
    return HarmonicBasis(max_order)


def shd_descriptor(
    shells: List[np.ndarray], max_order: int = MAX_ORDER
) -> np.ndarray:
    """Concatenate per-shell harmonic energies into the 544-dim SHD.

    Each shell's energies are scaled by sqrt(shell occupancy) — "values
    within each of the 32 spherical shells ... are scaled by the
    square-root of the corresponding area" — times the shell radius, so
    both *where* surface mass sits radially and its angular distribution
    enter the signature.
    """
    basis = _shared_basis(max_order)
    num_shells = len(shells)
    descriptor = np.empty(num_shells * (max_order + 1))
    for s, directions in enumerate(shells):
        radius = (s + 0.5) / num_shells
        energies = basis.energies(directions)
        occupancy = np.sqrt(len(directions))
        descriptor[s * (max_order + 1) : (s + 1) * (max_order + 1)] = (
            energies * occupancy * radius
        )
    return descriptor
