"""Deterministic quadrature for states that reduce to few dimensions.

After factoring the angular parts analytically (or integrating them with
dedicated panels split at the |.| kinks), every supported integral is a
composite Gauss-Legendre quadrature in at most three variables, accurate to
well below the 1e-8 target.

Supported reductions (target: pot_nda, kin_nda, abs_norm):

* ``2P_2p``           radial moments of exp(-Z r / 2)
* ``3S_1s2s``         radial 2D with a triangle split at r1 = r2
* ``1S_1s2_2s2``      the 3S_1s2s reduction squared / doubled
* ``3P_1s2p``         angular integral in closed form G(c, d), radial 2D
                      (pot_nda and abs_norm; the node surface itself is not
                      low-dimensional, so kin_nda raises)
* ``3P_2p2 / 1S_2p2 / 1D_2p2``  radial moments plus angular panels
* ``1S_1s2_2p2``      channel-vector magnitude |v| integrated in closed form
                      over the mutual angle (pot_nda and abs_norm)
* ``harmonic_*``      center-of-mass / relative Gaussian factorization

The double integral of |a u - b v| over the unit square and the integral of
sqrt(a^2 + b^2 - 2 a b c) over c in [-1, 1] reduce to the same elementary
expression G(a, b) = 2 max + (2/3) min^2 / max, used in two places below.
"""

from __future__ import annotations

from math import pi, sqrt
from typing import Callable

import numpy as np

from .catalog import StateSpec

__all__ = ["quadrature_oracle", "NotReducibleError"]

TARGETS = ("pot_nda", "kin_nda", "abs_norm")


class NotReducibleError(ValueError):
    """State/target pair has no low-dimensional quadrature reduction."""


# --------------------------------------------------------------------------
# composite Gauss-Legendre helpers

def _gauss_legendre(f: Callable, edges: np.ndarray, n_pts: int) -> float:
    """n_pts-point Gauss-Legendre rule on every panel between edges."""
    x0, w0 = np.polynomial.legendre.leggauss(n_pts)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        total += half * np.sum(w0 * f(mid + half * x0))
    return float(total)


def _panels(f: Callable, a: float, b: float, n_panels: int, n_pts: int) -> float:
    return _gauss_legendre(f, np.linspace(a, b, n_panels + 1), n_pts)


def _radial(f: Callable, L: float, n_panels: int = 24, n_pts: int = 16) -> float:
    # graded panels: geometric refinement toward 0 picks up the r^k behavior
    return _gauss_legendre(f, L * (np.linspace(0.0, 1.0, n_panels + 1) ** 2),
                           n_pts)


def _moment(k: int, c: float, L: float) -> float:
    """integral of r^k exp(-c r) on [0, L ~ infinity) by quadrature."""
    return _radial(lambda r: r ** k * np.exp(-c * r), L)


def _gfun(a, b):
    """G(a,b) = integral over [-1,1]^2 of |a u - b v| / ... see module docstring."""
    a, b = np.abs(a), np.abs(b)
    hi = np.maximum(a, b)
    lo = np.minimum(a, b)
    safe = np.maximum(hi, 1e-300)
    return np.where(hi > 0.0, 2.0 * hi + (2.0 / 3.0) * lo * lo / safe, 0.0)


def _triangle_2d(f: Callable, L: float, n_out: int = 30, n_in: int = 20,
                 n_pts: int = 14) -> float:
    """integral over {0 < r2 < r1 < L} of f(r1, r2), graded panels both axes.

    f must be vectorized over same-shape arrays.
    """
    x0, w0 = np.polynomial.legendre.leggauss(n_pts)
    oedges = L * (np.linspace(0.0, 1.0, n_out + 1) ** 2)
    total = 0.0
    for lo_, hi_ in zip(oedges[:-1], oedges[1:]):
        mid, half = 0.5 * (hi_ + lo_), 0.5 * (hi_ - lo_)
        r1 = mid + half * x0                      # (n_pts,)
        w1 = half * w0
        # inner integral on [0, r1] with graded panels
        iedges = np.linspace(0.0, 1.0, n_in + 1) ** 2   # fractions of r1
        inner = np.zeros_like(r1)
        for flo, fhi in zip(iedges[:-1], iedges[1:]):
            m2 = 0.5 * (fhi + flo) * r1[:, None]
            h2 = 0.5 * (fhi - flo) * r1[:, None]
            r2 = m2 + h2 * x0[None, :]            # (n_pts, n_pts)
            inner += np.sum(h2 * w0[None, :] * f(r1[:, None], r2), axis=1)
        total += float(np.sum(w1 * inner))
    return total


# --------------------------------------------------------------------------
# per-state reductions


def _orb_1s(Z, r):
    return np.exp(-Z * r)


def _orb_2s(Z, r):
    return (1.0 - 0.5 * Z * r) * np.exp(-0.5 * Z * r)


def _det_1s2s(Z, r1, r2):
    return _orb_1s(Z, r1) * _orb_2s(Z, r2) - _orb_2s(Z, r1) * _orb_1s(Z, r2)


def _2p_radial_span(Z):
    return 120.0 / Z


def _2P_2p(Z: float, target: str) -> float:
    L = _2p_radial_span(Z)
    i2 = _moment(2, 0.5 * Z, L)
    i3 = _moment(3, 0.5 * Z, L)
    if target == "pot_nda":
        return -Z * i2 / i3
    if target == "kin_nda":
        # node surface z=0: 2 pi * integral s exp(-Z s/2) ds over the plane
        num = 2.0 * pi * _moment(1, 0.5 * Z, L)
        return num / (2.0 * pi * i3 * _abs_cos_angular())
    # abs_norm: |z| rho = r |cos theta| rho
    return 2.0 * pi * i3 * _abs_cos_angular()


def _abs_cos_angular() -> float:
    # integral of |cos t| sin t dt on [0, pi], panels split at the kink
    left = _panels(lambda t: np.cos(t) * np.sin(t), 0.0, 0.5 * pi, 8, 16)
    right = _panels(lambda t: -np.cos(t) * np.sin(t), 0.5 * pi, pi, 8, 16)
    return left + right


def _sin_sq_angular() -> float:
    return _panels(lambda t: np.sin(t) ** 2, 0.0, pi, 8, 16)


def _abs_sin_azimuthal() -> float:
    # (1/(2 pi)) integral over [0,2pi]^2 of |sin(p2 - p1)| = integral |sin u| du
    return (_panels(np.sin, 0.0, pi, 8, 16)
            + _panels(lambda u: -np.sin(u), pi, 2.0 * pi, 8, 16))


def _3S_1s2s(Z: float, target: str) -> float:
    L = _2p_radial_span(Z)

    def absdet(r1, r2):
        return np.abs(_det_1s2s(Z, r1, r2)) * r1 ** 2 * r2 ** 2

    j0 = 2.0 * _triangle_2d(absdet, L)
    if target == "abs_norm":
        return (4.0 * pi) ** 2 * j0
    if target == "pot_nda":
        def vint(r1, r2):
            return absdet(r1, r2) * (1.0 / r1 + 1.0 / r2)
        return -Z * 2.0 * _triangle_2d(vint, L) / j0
    # kin_nda: |grad| on the r1=r2 sheet is sqrt(2)|W(r)|, measure sqrt(2) r^4
    num = 2.0 * _radial(lambda r: r ** 4 * (0.25 * Z * Z * r)
                        * np.exp(-1.5 * Z * r), L)
    return num / j0


def _3P_1s2p(Z: float, target: str) -> float:
    if target == "kin_nda":
        raise NotReducibleError(
            "3P_1s2p kin_nda has no low-dimensional reduction; "
            "use the surface or shell estimator")
    L = _2p_radial_span(Z)

    def gfun_r(r1, r2):
        c = _orb_1s(Z, r1) * np.exp(-0.5 * Z * r2) * r2
        d = _orb_1s(Z, r2) * np.exp(-0.5 * Z * r1) * r1
        return _gfun(c, d) * r1 ** 2 * r2 ** 2

    j0 = 2.0 * _triangle_2d(gfun_r, L)
    if target == "abs_norm":
        return (2.0 * pi) ** 2 * j0

    def vint(r1, r2):
        return gfun_r(r1, r2) * (1.0 / r1 + 1.0 / r2)

    return -Z * 2.0 * _triangle_2d(vint, L) / j0


def _1S_1s2_2s2(Z: float, target: str) -> float:
    if target == "abs_norm":
        return _3S_1s2s(Z, "abs_norm") ** 2
    return 2.0 * _3S_1s2s(Z, target)


def _trio_2p2(Z: float, coupling: str, target: str) -> float:
    L = _2p_radial_span(Z)
    i1 = _moment(1, 0.5 * Z, L)
    i2 = _moment(2, 0.5 * Z, L)
    i3 = _moment(3, 0.5 * Z, L)
    if target == "pot_nda":
        return -2.0 * Z * i2 / i3
    if target == "kin_nda":
        return 2.0 * i1 / i3
    if coupling == "dot":
        # |r1.r2|: angular 4pi * 2pi * integral |c| dc
        ang = _panels(lambda c: np.abs(c), -1.0, 0.0, 4, 16) \
            + _panels(lambda c: np.abs(c), 0.0, 1.0, 4, 16)
        return (4.0 * pi) * (2.0 * pi) * ang * i3 ** 2
    # cross/plus: s1 s2 |sin(phi2 -+ phi1)|
    return 2.0 * pi * _abs_sin_azimuthal() * (i3 * _sin_sq_angular()) ** 2


def _1S_1s2_2p2(Z: float, target: str) -> float:
    if target == "kin_nda":
        raise NotReducibleError(
            "1S_1s2_2p2 kin_nda has no low-dimensional reduction; "
            "use the surface or shell estimator")
    L = _2p_radial_span(Z)

    def vmag(r1, r2):
        # angular integral of the channel-vector magnitude |v(r1, r2)|
        alpha = _orb_1s(Z, r2) * np.exp(-0.5 * Z * r1) * r1
        beta = _orb_1s(Z, r1) * np.exp(-0.5 * Z * r2) * r2
        return _gfun(alpha, beta) * r1 ** 2 * r2 ** 2

    k0 = 2.0 * _triangle_2d(vmag, L)
    if target == "abs_norm":
        # E|cos| between two independent uniform directions contributes 1/2
        return 0.5 * ((4.0 * pi) * (2.0 * pi) * k0) ** 2

    def vint(r1, r2):
        return vmag(r1, r2) * (1.0 / r1 + 1.0 / r2)

    k1 = 2.0 * _triangle_2d(vint, L)
    return 2.0 * (-Z) * k1 / k0


def _harmonic(omega: float, g0: float, correlated: bool, target: str,
              beta: float) -> float:
    Lu = sqrt(120.0 / omega)

    def jfac(u):
        return 1.0 + beta * sqrt(2.0) * u if correlated else np.ones_like(u)

    def um(k, extra=None):
        def f(u):
            e = np.exp(-0.5 * omega * u * u) * jfac(u)
            if extra is not None:
                e = e * extra(u)
            return u ** k * e
        return _radial(f, Lu)

    # relative-coordinate moments with the sqrt(2)|u_z| factor:
    # integral |u_z| f(u) d3u = 2 pi * int u^3 f(u) du * int |c| dc = 2 pi u3
    u3 = um(3)
    u5 = um(5)
    u2_over = um(2)  # for the 1/(sqrt2 u) interaction: u^3 / u -> u^2
    w0 = (2.0 * pi / omega) ** 1.5
    w2 = 4.0 * pi * _radial(lambda w: w ** 4 * np.exp(-0.5 * omega * w * w), Lu)
    absint = sqrt(2.0) * 2.0 * pi * u3 * w0   # integral |Psi| d6R
    if target == "abs_norm":
        return absint
    if target == "pot_nda":
        # V = omega^2 (u^2 + w^2)/2 + g0 / (sqrt(2) u)
        num = sqrt(2.0) * 2.0 * pi * (
            w0 * (0.5 * omega ** 2 * u5)
            + u3 * 0.5 * omega ** 2 * w2
            + w0 * g0 * u2_over / sqrt(2.0))
        return num / absint
    # kin_nda: node z1 = z2; |grad Psi| = sqrt(2) G J on the node,
    # measure sqrt(2) -> numerator 2 * int G J over the 5 node parameters.
    # (x1,y1,x2,y2) -> rotated pair coords: t (2D Gaussian), v (2D with J,
    # since the in-plane separation |p - q| equals sqrt(2)|v|)
    t2 = 2.0 * pi / omega
    v2 = 2.0 * pi * _radial(
        lambda v: v * np.exp(-0.5 * omega * v * v) * jfac(v), Lu)
    zint = _panels(lambda z: np.exp(-omega * z * z), -Lu, Lu, 32, 16)
    num = 2.0 * t2 * v2 * zint
    return num / absint


_COULOMB_REDUCTIONS = {"2P_2p": _2P_2p, "3S_1s2s": _3S_1s2s, "3P_1s2p": _3P_1s2p,
                       "1S_1s2_2s2": _1S_1s2_2s2, "1S_1s2_2p2": _1S_1s2_2p2}
_TRIO_COUPLINGS = {"3P_2p2": "cross", "1S_2p2": "dot", "1D_2p2": "plus"}


def quadrature_oracle(state: StateSpec, target: str) -> float:
    """Deterministic value of pot_nda, kin_nda, or abs_norm for reducible states."""
    if target not in TARGETS:
        raise ValueError(f"target must be one of {TARGETS}")
    name, h = state.name, state.hamiltonian()
    if h.family == "harmonic_pair":
        return _harmonic(h.omega, h.g0, state.model.correlated, target,
                         state.model.beta)
    if name in _TRIO_COUPLINGS:
        return _trio_2p2(h.Z, _TRIO_COUPLINGS[name], target)
    if name not in _COULOMB_REDUCTIONS:
        raise NotReducibleError(f"no quadrature reduction for state {name!r}")
    return _COULOMB_REDUCTIONS[name](h.Z, target)
