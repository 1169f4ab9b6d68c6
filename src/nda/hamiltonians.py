"""Hamiltonians (atomic units) and local energies.

Two families:

* ``coulomb_atom(Z, ee)``: fixed nucleus of charge Z at the origin,
  -Z/r_i attraction for each electron, optional 1/r_ij repulsion.
* ``harmonic_pair(omega, g0)``: two particles in an isotropic harmonic
  well, optional inverse-distance coupling g0/r_12.

``local_energy`` evaluates (H psi)/psi analytically and refuses to do so
within float noise of the node, where the ratio is meaningless.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .wavefunctions import WaveFunction, _as_batch, _norms, _row_sums, off_node

__all__ = [
    "HamiltonianSpec",
    "coulomb_atom",
    "harmonic_pair",
    "potential_batch",
    "local_energy",
    "NodeProximityError",
    "SingularPointError",
]

_MIN_DISTANCE = 1e-300


class SingularPointError(ValueError):
    """Configuration sits on a potential singularity (coincident charges)."""


class NodeProximityError(ValueError):
    """Local energy requested too close to the nodal set for float arithmetic."""


@dataclass(frozen=True)
class HamiltonianSpec:
    family: str  # "coulomb_atom" | "harmonic_pair"
    Z: float = 0.0
    ee: bool = True
    omega: float = 0.0
    g0: float = 0.0

    def __post_init__(self):
        if self.family not in ("coulomb_atom", "harmonic_pair"):
            raise ValueError(f"unknown hamiltonian family {self.family!r}")


def coulomb_atom(Z: float, ee: bool = True) -> HamiltonianSpec:
    if Z <= 0:
        raise ValueError("Z must be positive")
    return HamiltonianSpec(family="coulomb_atom", Z=float(Z), ee=bool(ee))


def harmonic_pair(omega: float, g0: float = 0.0) -> HamiltonianSpec:
    if omega <= 0:
        raise ValueError("omega must be positive")
    return HamiltonianSpec(family="harmonic_pair", omega=float(omega), g0=float(g0))


def potential_batch(h: HamiltonianSpec, x: np.ndarray) -> np.ndarray:
    """Potential energy for an (m, 3N) batch.

    A singular row (an electron within 1e-300 of the nucleus, or two
    particles that close to each other) is inf; the other rows are
    unaffected, so a sampler can reject and count the singular ones.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] % 3 != 0:
        raise ValueError("batch must have shape (m, 3N)")
    n = x.shape[1] // 3
    pos = x.reshape(x.shape[0], n, 3)
    bad = []  # row masks of singular rows

    def safe(d):
        # d with distances below _MIN_DISTANCE set to 1, their rows kept in bad
        near = d < _MIN_DISTANCE
        if not near.any():
            return d
        bad.append(near.any(axis=1) if near.ndim > 1 else near)
        return np.where(near, 1.0, d)

    if h.family == "coulomb_atom":
        v = np.zeros(x.shape[0])
        v -= h.Z * _row_sums(1.0 / safe(_norms(pos)))
        if h.ee and n > 1:
            # the pairs (i, j), i < j, in the order of combinations(range(n), 2)
            d = np.concatenate([pos[:, i:i + 1] - pos[:, i + 1:] for i in range(n - 1)],
                               axis=1)
            inv = 1.0 / safe(_norms(d))
            for k in range(inv.shape[1]):
                v += inv[:, k]
    else:
        if n != 2:
            raise ValueError("harmonic_pair is a two-particle hamiltonian")
        v = 0.5 * h.omega ** 2 * _row_sums(x * x)
        if h.g0 != 0.0:
            v += h.g0 / safe(_norms(pos[:, 0] - pos[:, 1]))
    for rows in bad:
        v[rows] = np.inf
    return v


def local_energy(h: HamiltonianSpec, model: WaveFunction, R) -> float:
    """(H psi)/psi = -lap(psi)/(2 psi) + V, guarded against node contamination:
    NodeProximityError unless off_node, |psi| > 1e-14 |x| |grad psi|, a test
    free of the length scale (it holds at any Z) that rejects the origin.
    SingularPointError at coincident charges, where V is not finite."""
    x = _as_batch(model, R)
    v, g, lap = model.evaluate(x, grad=True, lap=True)
    psi = float(v[0])
    if not off_node(x, v, g)[0]:
        raise NodeProximityError(
            "configuration is within float noise of the nodal set "
            f"(|psi| = {abs(psi):.3e}, |grad psi| = {np.linalg.norm(g[0]):.3e})"
        )
    V = float(potential_batch(h, x)[0])
    if not np.isfinite(V):
        raise SingularPointError("configuration sits on a potential singularity "
                                 "(electron at the nucleus or coincident particles)")
    return -0.5 * float(lap[0]) / psi + V
