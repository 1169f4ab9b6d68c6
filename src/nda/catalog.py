"""Named catalog states: models, exact reference values, node parametrizations.

Each :class:`StateSpec` bundles a wave-function model with

* exact reference values (rationals where they exist, kept as
  :class:`fractions.Fraction` so identities can be checked exactly),
* the Hamiltonian it is an eigenstate of (noninteracting Coulomb atoms for
  the atomic entries; the harmonic pair for the trap entries),
* a normalized reference density ``g`` derived from the model, which the
  ratio and shell estimators sample and the Metropolis walks start from, and
* where the node is known analytically, a :class:`NodeParametrization`
  that draws surface parameters and maps them onto the node with the exact
  surface measure of that geometry.

Surface parameters (n is a unit vector, drawn uniformly on the sphere) and
the measure factor dS/dparams.  Each geometry draws its parameters in the
order listed, from a proposal declared once as a tuple of independent
factors.  The test-suite checks every geometry's points against the node
and its surface estimate against the exact energy (kin_nda + pot_nda = E):

==================  =========================================================
kind                parameters; measure in those parameters
==================  =========================================================
coordinate_plane    (s, phi) polar in the z=0 plane; dS = s ds dphi
equal_radii         (r, n1, n2); dS = sqrt(2) r^4 dr dn1 dn2
relative_plane      (x1, y1, x2, y2, z); dS = sqrt(2) dx1 dy1 dx2 dy2 dz
azimuth_lock        (branch, r1, r2, theta1, theta2, alpha): both azimuths
                    locked to alpha; dS = sqrt(s1^2+s2^2) r1 r2 dr1 dr2
                    dtheta1 dtheta2 dalpha with s = r sin(theta)
perpendicular       1S_2p2: (r1, r2, n2, chi), rhat1 at angle chi on the
(2 electrons)       circle orthogonal to n2; dS = sqrt(r1^2+r2^2) r1 r2
                    dr1 dr2 dn2 dchi
perpendicular       1S_1s2_2p2: (r1, r2, r3, r4, n1, n2, nf, chi), one
(4 electrons)       down-channel direction solved onto a circle at angle chi;
                    dS = |grad Psi| / slope (r1 r2 r3 r4)^2 dr1 dr2 dr3
                    dr4 dn1 dn2 dnf dchi (coarea factor)
paired_radial       (branch, r, na, nb, rs1, rs2, ns1, ns2): an equal-radii
                    sheet in one spin channel, the other channel's electrons
                    rs ns free spectators; dS = sqrt(2) r^4 rs1^2 rs2^2 dr
                    dna dnb drs1 drs2 dns1 dns2 (the spectators' volume
                    elements in polar coordinates)
implicit_graph      (r1, n1, s2, phi2): electron 1 spherical, (x2, y2) polar,
                    node solved for z2; dS = |grad Psi| / |dPsi/dz2| r1^2 s2
                    dr1 dn1 ds2 dphi2 (graph surface measure)
determinant_zero    implicit marker, no parametrization
==================  =========================================================
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from math import lgamma, log, pi, sqrt
from typing import Callable, Optional

import numpy as np

from . import wavefunctions as wf
from .hamiltonians import HamiltonianSpec, coulomb_atom, harmonic_pair
from .reference import SubshellParams, subshell_kin_nda, subshell_pot_nda, \
    subshell_total, harmonic_reference

__all__ = [
    "ReferenceDensity",
    "NodeParametrization",
    "StateSpec",
    "catalog_list",
    "get_state",
    "subshell_family",
    "node_parametrization",
    "catalog_to_json",
]


# --------------------------------------------------------------------------
# reference densities (exactly normalized; used by ratio and shell estimators)


def _check_normalization(form: str, base: float, power: float,
                         factor: float = 1.0, n: int = 1) -> None:
    """ValueError unless (factor * base ** power) ** n is a finite positive float."""
    with np.errstate(over="ignore", under="ignore"):
        norm = float((factor * np.float64(base) ** power) ** n)
    if not 0.0 < norm < float("inf"):
        raise ValueError(f"reference density normalization {form} is {norm!r}, "
                         "not a finite positive float")


@dataclass(frozen=True)
class ReferenceDensity:
    """Normalized product density g of a model (:meth:`of`).

    Coulomb: each electron's radius comes from the equal-weight mixture of
    Gamma(3, n / Z), r^2 exp(-Z r / n), over the model's distinct orbital
    decay lengths n / Z (``Orbital.radial_scale``); its direction is
    uniform.  So each electron's factor is finite and positive at the origin
    and decays like the slowest orbital: |Psi| / g and |grad Psi| / g grow
    at most polynomially in the radii, and every moment of the ratio and
    shell weights is finite, with no tempering or defensive component.
    Harmonic: the Gaussian exp(-omega r^2 / 2) at the model's omega.

    ``sample(rng, n)`` draws, for Coulomb, the (n, N) mixture components
    (with two or more decay lengths), then the (n, N) gamma radii, then the
    (n, N, 3) normal directions, one RNG call each; for harmonic, a normal
    draw per particle in particle order into one (n, N, 3) buffer.  It
    normalizes and scales all particles in a few column-wise passes; ``pdf``
    scores the (n, N, 3) layout the same way, with no norm over a length-3
    axis and no inner-axis sum.  Both treat rows independently.
    """

    family: str
    n_particles: int
    scales: tuple = ()   # Coulomb: the distinct radial decay lengths n / Z
    omega: float = 0.0

    @classmethod
    def of(cls, model: wf.WaveFunction) -> "ReferenceDensity":
        """g of a model; scales in order.

        A ValueError when an N-electron normalization, (8 pi s^3)^N of a
        decay length s or (omega / 2 pi)^(3N/2), is not a finite positive
        float: an extreme Z or omega would otherwise overflow or underflow
        mid-run, in g's pdf, the product of the N electrons' factors.
        """
        N = model.n_particles
        if isinstance(model, wf.HarmonicPair):
            _check_normalization(f"(omega / 2 pi)^(3N/2) at omega = {model.omega!r}",
                                 model.omega / (2.0 * pi), 1.5 * N)
            return cls("harmonic", N, omega=model.omega)
        scales = dict.fromkeys(o.radial_scale() for t in model.terms
                               for b in t.blocks for o in b.orbitals)
        for s in scales:
            _check_normalization(f"(8 pi s^3)^N at s = {s!r}, N = {N}",
                                 s, 3.0, 8.0 * pi, N)
        return cls("coulomb", N, scales=tuple(scales))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        N = self.n_particles
        if self.family == "coulomb":
            s = np.array(self.scales)
            s = s[rng.integers(len(s), size=(n, N))] if len(s) > 1 else s[0]
            r = rng.standard_gamma(3.0, size=(n, N)) * s
            out = rng.standard_normal((n, N, 3))
            out /= wf._norms(out)[..., None]
            out *= r[..., None]
        else:
            out = np.empty((n, N, 3))
            for i in range(N):
                out[:, i] = rng.standard_normal((n, 3))
            out /= sqrt(self.omega)
        return out.reshape(n, 3 * N)

    def pdf(self, x: np.ndarray) -> np.ndarray:
        if self.family == "coulomb":
            r = wf._norms(x.reshape(x.shape[0], self.n_particles, 3))
            g1 = 0.0  # one electron's factor: Gamma(3, s) radial pdf / (4 pi r^2)
            for s in self.scales:
                g1 = g1 + np.exp(-r / s) / (8.0 * pi * s ** 3 * len(self.scales))
            p = g1[:, 0]
            for i in range(1, self.n_particles):
                p = p * g1[:, i]
            return p
        c = (self.omega / (2.0 * pi)) ** (1.5 * self.n_particles)
        return c * np.exp(-0.5 * self.omega * wf._row_sums(x * x))


# --------------------------------------------------------------------------
# node parametrizations


@dataclass(frozen=True)
class Gamma:
    """A radius drawn from Gamma(shape, scale): one column."""

    shape: float
    scale: float
    width = 1

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.gamma(self.shape, self.scale, size=n)[:, None]

    def pdf(self, x: np.ndarray) -> np.ndarray:
        r = x[:, 0]
        return np.exp((self.shape - 1) * np.log(r) - r / self.scale
                      - lgamma(self.shape) - self.shape * log(self.scale))


@dataclass(frozen=True)
class Uniform:
    """A value drawn uniformly on [lo, hi): one column."""

    lo: float
    hi: float
    width = 1

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size=n)[:, None]

    def pdf(self, x: np.ndarray) -> float:
        return 1.0 / (self.hi - self.lo)


@dataclass(frozen=True)
class Sphere:
    """A direction drawn uniformly on the unit sphere: three columns."""

    width = 3

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        v = rng.standard_normal((n, 3))
        return v / np.linalg.norm(v, axis=1, keepdims=True)

    def pdf(self, x: np.ndarray) -> float:
        return 1.0 / (4.0 * pi)


@dataclass(frozen=True)
class Branch:
    """A branch 0 or 1 with equal odds, stored as a float: one column."""

    width = 1

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.integers(0, 2, size=n).astype(float)[:, None]

    def pdf(self, x: np.ndarray) -> float:
        return 0.5


@dataclass(frozen=True)
class Normal:
    """width independent standard normals divided by s: width columns."""

    width: int
    s: float

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.standard_normal((n, self.width)) / self.s

    def pdf(self, x: np.ndarray) -> np.ndarray:
        s2 = self.s * self.s
        return ((s2 / (2.0 * pi)) ** (0.5 * self.width)
                * np.exp(-0.5 * s2 * np.sum(x * x, axis=1)))


@dataclass(frozen=True)
class NodeParametrization:
    """Exact parametrization of the nodal set.

    Each geometry declares its proposal once, as a tuple of independent
    factors (Gamma, Uniform, Sphere, Branch, Normal) in the order they are
    drawn; the surface parameters are their columns side by side.  From it:

    * ``draw_params(rng, m)`` draws an (m, total factor width) array,
      factor by factor;
    * ``proposal_pdf(params)`` is the product of the factor densities.

    ``measure_map(params)`` maps parameters to configurations (m, 3N) on the
    node together with the local surface measure factor dS/dparams and
    |grad Psi| at the configurations, or None for the last item when the
    map does not evaluate the model.  ``model`` names the wave function
    whose gradient the map evaluates (None for purely geometric maps).  All
    of these treat rows independently.

    ``sample(rng, m)`` returns importance points (coords, w) with
    w = dS/dparams / proposal_pdf, so that mean(w * h(R)) estimates the
    surface integral of h.  Unless given, it is derived from the above.
    """

    kind: str
    description: str
    proposal: tuple = ()
    measure_map: Optional[Callable] = None
    sample: Optional[Callable] = None
    model: Optional[wf.WaveFunction] = None

    def __post_init__(self):
        if self.sample is not None or self.measure_map is None:
            return

        def sample(rng, m):
            params = self.draw_params(rng, m)
            coords, dS, _ = self.measure_map(params)
            return coords, dS / self.proposal_pdf(params)

        object.__setattr__(self, "sample", sample)

    def draw_params(self, rng: np.random.Generator, m: int) -> np.ndarray:
        return np.concatenate([f.draw(rng, m) for f in self.proposal], axis=1)

    def proposal_pdf(self, params: np.ndarray) -> np.ndarray:
        pdf, i = 1.0, 0
        for f in self.proposal:
            pdf = pdf * f.pdf(params[:, i:i + f.width])
            i += f.width
        return pdf


IMPLICIT_MARKER = NodeParametrization(
    kind="determinant_zero",
    description="node known only implicitly as the zero set of the model",
)


def node_parametrization(state: "StateSpec") -> NodeParametrization:
    """The state's analytic node parametrization, or the implicit marker."""
    if state.node_param is not None:
        return state.node_param
    return IMPLICIT_MARKER


def _plane_param(Z: float) -> NodeParametrization:
    # single electron, node z = 0; params (s, phi) polar in the plane
    def measure_map(params):
        s, phi = params[:, 0], params[:, 1]
        coords = np.stack([s * np.cos(phi), s * np.sin(phi), np.zeros_like(s)], axis=1)
        return coords, s, None

    return NodeParametrization(
        kind="coordinate_plane",
        description="z = 0 plane in polar coordinates (s, phi); dS = s ds dphi",
        proposal=(Gamma(2.0, 2.0 / Z), Uniform(0.0, 2.0 * pi)),
        measure_map=measure_map,
    )


def _equal_radii_param(Z: float) -> NodeParametrization:
    # two s-orbital electrons, node r1 = r2; params (r, n1, n2), n unit vectors
    def measure_map(params):
        return params[:, 1:7] * params[:, :1], sqrt(2.0) * params[:, 0] ** 4, None

    return NodeParametrization(
        kind="equal_radii",
        description="r1 = r2 sheet; dS = sqrt(2) r^4 dr dn1 dn2",
        proposal=(Gamma(6.0, 2.0 / (3.0 * Z)), Sphere(), Sphere()),
        measure_map=measure_map,
    )


def _relative_plane_param(omega: float) -> NodeParametrization:
    # harmonic pair, node z1 = z2; params (x1, y1, x2, y2, z)
    def measure_map(params):
        x1, y1, x2, y2, z = (params[:, i] for i in range(5))
        coords = np.stack([x1, y1, z, x2, y2, z], axis=1)
        return coords, np.full(len(z), sqrt(2.0)), None

    return NodeParametrization(
        kind="relative_plane",
        description="z1 = z2 plane; dS = sqrt(2) dx1 dy1 dx2 dy2 dz",
        proposal=(Normal(4, sqrt(omega)), Normal(1, sqrt(2.0 * omega))),
        measure_map=measure_map,
    )


def _azimuth_lock_param(Z: float, coupling: str) -> NodeParametrization:
    # two 2p electrons; cross form (x1 y2 - x2 y1) vanishes when the azimuths
    # coincide mod pi, plus form (x1 y2 + x2 y1) when phi2 = -phi1 mod pi.
    # params: (branch, r1, r2, theta1, theta2, alpha)
    def measure_map(params):
        b, r1, r2, t1, t2, alpha = (params[:, i] for i in range(6))
        s1, z1 = r1 * np.sin(t1), r1 * np.cos(t1)
        s2, z2 = r2 * np.sin(t2), r2 * np.cos(t2)
        phi2 = alpha + b * pi if coupling == "cross" else -alpha + b * pi
        coords = np.stack([s1 * np.cos(alpha), s1 * np.sin(alpha), z1,
                           s2 * np.cos(phi2), s2 * np.sin(phi2), z2], axis=1)
        # dS in (s, z) coordinates is sqrt(s1^2+s2^2); polar substitution
        # (s,z) -> (r,theta) contributes r1 r2
        return coords, np.sqrt(s1 ** 2 + s2 ** 2) * r1 * r2, None

    radius, polar = Gamma(3.0, 2.0 / Z), Uniform(0.0, pi)
    return NodeParametrization(
        kind="azimuth_lock",
        description="azimuths locked (two branches); dS = sqrt(s1^2+s2^2) "
                    "ds1 dz1 ds2 dz2 dalpha",
        proposal=(Branch(), radius, radius, polar, polar, Uniform(0.0, 2.0 * pi)),
        measure_map=measure_map,
    )


def _orthonormal_frame(u: np.ndarray):
    """Two unit vectors spanning the plane orthogonal to each row of u."""
    ref = np.where((np.abs(u[:, 2]) < 0.9)[:, None],
                   np.tile([0.0, 0.0, 1.0], (len(u), 1)),
                   np.tile([1.0, 0.0, 0.0], (len(u), 1)))
    e1 = ref - np.sum(ref * u, axis=1, keepdims=True) * u
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    e2 = np.cross(u, e1)
    return e1, e2


def _perpendicular_param_2e(Z: float) -> NodeParametrization:
    # 1S_2p2: node is rhat1 . rhat2 = 0; params (r1, r2, n2, chi), n2 a unit
    # vector and chi the angle of rhat1 on the circle orthogonal to it
    def measure_map(params):
        r1, r2, n2, chi = params[:, 0], params[:, 1], params[:, 2:5], params[:, 5]
        e1, e2 = _orthonormal_frame(n2)
        n1 = np.cos(chi)[:, None] * e1 + np.sin(chi)[:, None] * e2
        coords = np.concatenate([n1 * r1[:, None], n2 * r2[:, None]], axis=1)
        # coarea: |grad(r1.r2)| / slope * volume jacobian
        return coords, np.sqrt(r1 ** 2 + r2 ** 2) * r1 * r2, None

    radius = Gamma(3.0, 2.0 / Z)
    return NodeParametrization(
        kind="perpendicular_directions",
        description="rhat1 . rhat2 = 0; dS = sqrt(r1^2+r2^2) r1 r2 "
                    "dr1 dr2 dn2 dchi",
        proposal=(radius, radius, Sphere(), Uniform(0.0, 2.0 * pi)),
        measure_map=measure_map,
    )


def _pair_vector(Z: float, ra, na, rb, nb):
    """v = phi_1s(ra) rho(rb) rb nb - phi_1s(rb) rho(ra) ra na  (each row 3-vec)."""
    beta = np.exp(-Z * ra - 0.5 * Z * rb) * rb
    alpha = np.exp(-Z * rb - 0.5 * Z * ra) * ra
    return beta[:, None] * nb - alpha[:, None] * na


def _perpendicular_param_4e(Z: float, model: wf.WaveFunction) -> NodeParametrization:
    # 1S_1s2_2p2: Psi = v_up . v_down with v as in _pair_vector; the node is
    # where the two channel vectors are orthogonal.  One down-channel
    # direction is solved onto the circle n . u = c -- always the one whose
    # radial coefficient (gamma for electron 3, delta for electron 4) is
    # larger, so |c| <= 1 holds for every draw and, crucially, the coarea
    # divisor max(gamma, delta) * |v_up| never carries the exponentially
    # small coefficient.  Solving a fixed electron instead makes the
    # importance weight grow like exp(+Z r / 2) in the opposite channel's
    # tail and the estimator's variance diverges.
    # params: (r1, r2, r3, r4, n1, n2, nf, chi), n unit vectors; nf is the
    # free down-channel direction, chi the angle on the solved circle
    def measure_map(params):
        m = len(params)
        r1, r2, r3, r4 = (params[:, i] for i in range(4))
        n1, n2, nf, chi = params[:, 4:7], params[:, 7:10], params[:, 10:13], params[:, 13]
        v_up = _pair_vector(Z, r1, n1, r2, n2)
        vu = np.linalg.norm(v_up, axis=1)
        ok = vu > 1e-290
        u = np.where(ok[:, None], v_up / np.maximum(vu, 1e-290)[:, None],
                     np.tile([0.0, 0.0, 1.0], (m, 1)))
        gamma = np.exp(-Z * r4 - 0.5 * Z * r3) * r3
        delta = np.exp(-Z * r3 - 0.5 * Z * r4) * r4
        hi = np.maximum(gamma, delta)
        c = np.minimum(gamma, delta) * np.sum(nf * u, axis=1) \
            / np.maximum(hi, 1e-290)
        e1, e2 = _orthonormal_frame(u)
        sin_t = np.sqrt(np.maximum(1.0 - c * c, 0.0))
        ns = (c[:, None] * u
              + sin_t[:, None] * (np.cos(chi)[:, None] * e1
                                  + np.sin(chi)[:, None] * e2))
        solve3 = (gamma >= delta)[:, None]
        n3 = np.where(solve3, ns, nf)
        n4 = np.where(solve3, nf, ns)
        coords = np.concatenate([n1 * r1[:, None], n2 * r2[:, None],
                                 n3 * r3[:, None], n4 * r4[:, None]], axis=1)
        grad_norm = np.linalg.norm(model.gradients(coords), axis=1)
        slope = hi * vu  # |d(Psi)/d(cos angle between the solved dir and u)|
        jac = (r1 * r2 * r3 * r4) ** 2
        dS = np.where(ok, grad_norm / np.maximum(slope, 1e-290) * jac, 0.0)
        return coords, dS, grad_norm

    return NodeParametrization(
        kind="perpendicular_directions",
        description="channel vectors orthogonal: v_up . v_down = 0; the "
                    "down-channel direction with the larger radial "
                    "coefficient is solved onto the circle n . u = c, so "
                    "every fiber meets the node exactly once",
        proposal=(Gamma(3.0, 2.0 / Z),) * 4 + (Sphere(),) * 3
        + (Uniform(0.0, 2.0 * pi),),
        measure_map=measure_map,
        model=model,
    )


def _paired_radial_param(Z: float) -> NodeParametrization:
    # 1S_1s2_2s2: Psi = D(r1,r2) D(r3,r4) with radial 1s/2s determinants;
    # node = {r1 = r2} union {r3 = r4}; the off-sheet pair are spectators.
    # params: (branch, r, na, nb, rs1, rs2, ns1, ns2), n unit vectors; the
    # spectators (rs, ns) are polar coordinates, so their volume element
    # rs^2 drs dns enters dS
    def measure_map(params):
        sheet = params[:, 2:8] * params[:, 1:2]
        spect = np.concatenate([params[:, 10:13] * params[:, 8:9],
                                params[:, 13:16] * params[:, 9:10]], axis=1)
        coords = np.where((params[:, 0] < 0.5)[:, None],
                          np.concatenate([sheet, spect], axis=1),
                          np.concatenate([spect, sheet], axis=1))
        rs1, rs2 = params[:, 8], params[:, 9]
        return coords, sqrt(2.0) * params[:, 1] ** 4 * rs1 ** 2 * rs2 ** 2, None

    spectator = Gamma(3.0, 2.0 / Z)
    return NodeParametrization(
        kind="paired_radial_sheets",
        description="two equal-radii sheets (one per spin channel), "
                    "dS = sqrt(2) r^4 rs1^2 rs2^2 dr dna dnb drs1 drs2 dns1 "
                    "dns2 each",
        proposal=(Branch(), Gamma(6.0, 2.0 / (3.0 * Z)), Sphere(), Sphere(),
                  spectator, spectator, Sphere(), Sphere()),
        measure_map=measure_map,
    )


def _implicit_graph_param(Z: float, model: wf.WaveFunction) -> NodeParametrization:
    # 3P_1s2p: phi_1s(r1) rho(r2) z2 = phi_1s(r2) rho(r1) z1.  Multiplying by
    # exp(Z(r1+r2)) the node reads h(z2) = z2 exp(Z r2 / 2) = z1 exp(Z r1 / 2),
    # and h is strictly increasing in z2, so the node is a global graph
    # z2 = zeta(x1, y1, z1, x2, y2).
    # params: (r1, n1, s2, phi2), electron 1 in spherical and (x2, y2) in
    # polar coordinates
    def _solve_z2(x1, y1, z1, x2, y2):
        r1 = np.sqrt(x1 ** 2 + y1 ** 2 + z1 ** 2)
        s2sq = x2 ** 2 + y2 ** 2
        K = np.clip(z1 * np.exp(0.5 * Z * r1), -1e300, 1e300)
        # |root| <= min(|K|, (2/Z) log(1+|K|) + 1): h(b) >= b(1+|K|) >= |K|
        # for b >= 1, so the tighter bound still brackets without overflow
        b = np.minimum(np.abs(K), (2.0 / Z) * np.log1p(np.abs(K)) + 1.0)
        lo = np.where(K < 0.0, -b, 0.0)
        hi = np.where(K < 0.0, 0.0, b)
        for _ in range(90):  # bisection: deterministic, vectorized
            mid = 0.5 * (lo + hi)
            h = mid * np.exp(0.5 * Z * np.sqrt(s2sq + mid * mid))
            take_hi = h < K
            lo = np.where(take_hi, mid, lo)
            hi = np.where(take_hi, hi, mid)
        return 0.5 * (lo + hi)

    def measure_map(params):
        r1, s2, p2 = params[:, 0], params[:, 4], params[:, 5]
        x1 = params[:, 1:4] * params[:, :1]
        x2, y2 = s2 * np.cos(p2), s2 * np.sin(p2)
        z2 = _solve_z2(x1[:, 0], x1[:, 1], x1[:, 2], x2, y2)
        coords = np.stack([x1[:, 0], x1[:, 1], x1[:, 2], x2, y2, z2], axis=1)
        grads = model.gradients(coords)
        grad_norm = np.linalg.norm(grads, axis=1)
        factor = grad_norm / np.maximum(np.abs(grads[:, 5]), 1e-290)
        return coords, factor * (r1 ** 2 * s2), grad_norm

    return NodeParametrization(
        kind="implicit_graph",
        description="node solved for z2 (monotone 1D root); "
                    "dS = |grad Psi|/|dPsi/dz2| dx1 dy1 dz1 dx2 dy2",
        proposal=(Gamma(3.0, 2.0 / Z), Sphere(), Gamma(2.0, 2.0 / Z),
                  Uniform(0.0, 2.0 * pi)),
        measure_map=measure_map,
        model=model,
    )


# --------------------------------------------------------------------------
# state specifications


@dataclass(frozen=True)
class StateSpec:
    """A named catalog entry with exact references where known."""

    name: str
    model: Optional[wf.WaveFunction]
    parameters: dict
    exact_total_energy: Optional[Fraction | float]
    exact_nda: Optional[dict]        # {"kin": ..., "pot": ...}
    node_param: Optional[NodeParametrization]
    exact_standard: Optional[dict] = None   # {"kin": ..., "pot": ...}

    @property
    def reference_density(self) -> ReferenceDensity:
        return ReferenceDensity.of(self.model)  # derived on each access

    def hamiltonian(self) -> HamiltonianSpec:
        """The Hamiltonian this state is catalogued with: noninteracting
        Coulomb atom for atomic entries; harmonic pair with the catalogued
        g0 for trap entries (harmonic_mixed pairs the noninteracting state
        with the interacting Hamiltonian on purpose).  The one place that
        reads Z, omega and g0 from parameters."""
        if "Z" in self.parameters:
            return coulomb_atom(float(self.parameters["Z"]))
        return harmonic_pair(float(self.parameters["omega"]),
                             float(self.parameters.get("g0", 0.0)))


def _zsq(coef: Fraction, Z) -> Fraction | float:
    if isinstance(Z, (int, Fraction)):
        return coef * Fraction(Z) ** 2
    return float(coef) * Z ** 2


def _orb(kind, Z, **kw):
    return wf.Orbital(kind=kind, scale=float(Z), **kw)


def _product_state(n, terms):
    """Coulomb SlaterProduct of n electrons with unit coefficients; each term
    is a tuple of determinant blocks, each block an (orbitals, electrons) pair."""
    return wf.SlaterProduct(
        [wf.Term(coeff=1.0, blocks=tuple(wf.DetBlock(orbitals=o, electrons=e)
                                         for o, e in t)) for t in terms],
        n_particles=n)


def _det_state(orbitals, electrons):
    return _product_state(len(electrons), [((orbitals, electrons),)])


def _2p2_model(Z, coupling):
    """Two 2p electrons with rho(r) = exp(-Z r / 2):

    "cross": (x1 y2 - x2 y1) rho rho, one 2x2 determinant (triplet P)
    "plus" : (x1 y2 + x2 y1) rho rho, two products (a singlet D component)
    "dot"  : (r1 . r2) rho rho, three products (singlet S)
    """
    p = {a: (_orb("hydrogenic_2p", Z, axis=a),) for a in "xyz"}
    if coupling == "cross":
        return _det_state(p["x"] + p["y"], (0, 1))
    pairs = ("xy", "yx") if coupling == "plus" else ("xx", "yy", "zz")
    return _product_state(2, [((p[a], (0,)), (p[b], (1,))) for a, b in pairs])


def _build_2P_2p(Z):
    model = _det_state((_orb("hydrogenic_2p", Z, axis="z"),), (0,))
    return StateSpec(
        name="2P_2p", model=model, parameters={"Z": Z},
        exact_total_energy=_zsq(Fraction(-1, 8), Z),
        exact_nda={"kin": _zsq(Fraction(1, 24), Z), "pot": _zsq(Fraction(-1, 6), Z)},
        exact_standard={"kin": _zsq(Fraction(1, 8), Z), "pot": _zsq(Fraction(-1, 4), Z)},
        node_param=_plane_param(float(Z)),
    )


def _build_3S_1s2s(Z):
    model = _det_state((_orb("hydrogenic_1s", Z), _orb("hydrogenic_2s", Z)), (0, 1))
    return StateSpec(
        name="3S_1s2s", model=model, parameters={"Z": Z},
        exact_total_energy=_zsq(Fraction(-5, 8), Z),
        exact_nda={"kin": _zsq(Fraction(10, 221), Z),
                   "pot": _zsq(Fraction(-1185, 1768), Z)},
        exact_standard={"kin": _zsq(Fraction(5, 8), Z), "pot": _zsq(Fraction(-5, 4), Z)},
        node_param=_equal_radii_param(float(Z)),
    )


def _build_3P_1s2p(Z):
    model = _det_state((_orb("hydrogenic_1s", Z),
                        _orb("hydrogenic_2p", Z, axis="z")), (0, 1))
    return StateSpec(
        name="3P_1s2p", model=model, parameters={"Z": Z},
        exact_total_energy=_zsq(Fraction(-5, 8), Z),
        exact_nda={"kin": _zsq(Fraction(1, 20), Z), "pot": _zsq(Fraction(-27, 40), Z)},
        exact_standard={"kin": _zsq(Fraction(5, 8), Z), "pot": _zsq(Fraction(-5, 4), Z)},
        node_param=_implicit_graph_param(float(Z), model),
    )


def _build_1S_1s2_2s2(Z):
    orbs = (_orb("hydrogenic_1s", Z), _orb("hydrogenic_2s", Z))
    model = _product_state(4, [((orbs, (0, 1)), (orbs, (2, 3)))])
    return StateSpec(
        name="1S_1s2_2s2", model=model, parameters={"Z": Z},
        exact_total_energy=_zsq(Fraction(-5, 4), Z),
        exact_nda={"kin": _zsq(Fraction(20, 221), Z),
                   "pot": _zsq(Fraction(-1185, 884), Z)},
        exact_standard={"kin": _zsq(Fraction(5, 4), Z), "pot": _zsq(Fraction(-5, 2), Z)},
        node_param=_paired_radial_param(float(Z)),
    )


def _build_1S_1s2_2p2(Z):
    terms = []
    for axis in ("x", "y", "z"):
        orbs = (_orb("hydrogenic_1s", Z), _orb("hydrogenic_2p", Z, axis=axis))
        terms.append(((orbs, (0, 1)), (orbs, (2, 3))))
    model = _product_state(4, terms)
    return StateSpec(
        name="1S_1s2_2p2", model=model, parameters={"Z": Z},
        exact_total_energy=_zsq(Fraction(-5, 4), Z),
        exact_nda={"kin": _zsq(Fraction(1, 10), Z), "pot": _zsq(Fraction(-27, 20), Z)},
        exact_standard={"kin": _zsq(Fraction(5, 4), Z), "pot": _zsq(Fraction(-5, 2), Z)},
        node_param=_perpendicular_param_4e(float(Z), model),
    )


def _build_2p2(Z, coupling, name):
    model = _2p2_model(Z, coupling)
    node = (_perpendicular_param_2e(float(Z)) if coupling == "dot"
            else _azimuth_lock_param(float(Z), coupling))
    return StateSpec(
        name=name, model=model, parameters={"Z": Z},
        exact_total_energy=_zsq(Fraction(-1, 4), Z),
        exact_nda={"kin": _zsq(Fraction(1, 12), Z), "pot": _zsq(Fraction(-1, 3), Z)},
        exact_standard={"kin": _zsq(Fraction(1, 4), Z), "pot": _zsq(Fraction(-1, 2), Z)},
        node_param=node,
    )


def _build_harmonic(omega, which):
    om = float(omega)
    if which == "noninteracting":
        model = wf.HarmonicPair(omega=om, correlated=False)
        kin = omega / 2 if isinstance(omega, Fraction) else om / 2
        pot = 7 * omega / 2 if isinstance(omega, Fraction) else 3.5 * om
        return StateSpec(
            name="harmonic_noninteracting", model=model,
            parameters={"omega": omega, "g0": 0},
            exact_total_energy=4 * omega,
            exact_nda={"kin": kin, "pot": pot},
            exact_standard={"kin": 2 * omega, "pot": 2 * omega},
            node_param=_relative_plane_param(om),
        )
    if which == "exact":
        if abs(om - 0.25) > 1e-12:
            raise ValueError("harmonic_exact is catalogued at omega = 1/4, g0 = 1")
        model = wf.HarmonicPair(omega=om, correlated=True)
        ref = harmonic_reference("b_exact", om, 1.0)
        return StateSpec(
            name="harmonic_exact", model=model,
            parameters={"omega": omega, "g0": 1},
            exact_total_energy=Fraction(5, 4),
            exact_nda={"kin": ref["kin_nda"], "pot": ref["pot_nda"]},
            node_param=_relative_plane_param(om),
        )
    # mixed: the noninteracting state paired with the interacting Hamiltonian
    if abs(om - 0.25) > 1e-12:
        raise ValueError("harmonic_mixed is catalogued at omega = 1/4, g0 = 1")
    model = wf.HarmonicPair(omega=om, correlated=False)
    ref = harmonic_reference("c_mixed", om, 1.0)
    return StateSpec(
        name="harmonic_mixed", model=model,
        parameters={"omega": omega, "g0": 1},
        exact_total_energy=None,   # not an eigenstate of the paired Hamiltonian
        exact_nda={"kin": ref["kin_nda"], "pot": ref["pot_nda"]},
        node_param=_relative_plane_param(om),
    )


_ATOMIC_BUILDERS = {
    "2P_2p": _build_2P_2p,
    "3S_1s2s": _build_3S_1s2s,
    "3P_1s2p": _build_3P_1s2p,
    "1S_1s2_2s2": _build_1S_1s2_2s2,
    "1S_1s2_2p2": _build_1S_1s2_2p2,
    "3P_2p2": lambda Z: _build_2p2(Z, "cross", "3P_2p2"),
    "1S_2p2": lambda Z: _build_2p2(Z, "dot", "1S_2p2"),
    "1D_2p2": lambda Z: _build_2p2(Z, "plus", "1D_2p2"),
}

_HARMONIC_NAMES = ("harmonic_noninteracting", "harmonic_exact", "harmonic_mixed")


def get_state(name: str, Z=Fraction(1), omega=Fraction(1, 4)) -> StateSpec:
    """Build a catalog state by name (Z for atomic states, omega for traps)."""
    if name in _ATOMIC_BUILDERS:
        return _ATOMIC_BUILDERS[name](Z)
    if name in _HARMONIC_NAMES:
        return _build_harmonic(omega, name.split("_", 1)[1])
    m = re.fullmatch(r"subshell_k(\d+)_l(\d+)", name)
    if m:
        return subshell_family(int(m.group(1)), int(m.group(2)), Z)
    raise KeyError(f"unknown catalog state {name!r}")


def catalog_list() -> list:
    """All named catalog states (subshell entries come from subshell_family)."""
    return [get_state(name) for name in (*_ATOMIC_BUILDERS, *_HARMONIC_NAMES)]


def subshell_family(k: int, l: int, Z=Fraction(1)) -> StateSpec:
    """k electrons filling the l = n-1 subshell.

    Reference values are exact rationals for every (k, l); an evaluable model
    is attached for the cases the sampled estimators actually exercise
    (k = 1 with l <= 2, and the k = 2, l = 1 pair, which is the 3P_2p2 form).
    Higher-l entries are reference-only.
    """
    p = SubshellParams(k=k, l=l, Z=Fraction(Z))
    model = None
    node = None
    if k == 1 and l <= 2:
        model = _det_state((_orb("hydrogenic_general", Z, n=l + 1),), (0,))
    elif k == 2 and l == 1:
        model = _2p2_model(Z, "cross")
        node = _azimuth_lock_param(float(Z), "cross")
    return StateSpec(
        name=f"subshell_k{k}_l{l}", model=model, parameters={"Z": Z, "k": k, "l": l},
        exact_total_energy=subshell_total(p),
        exact_nda={"kin": subshell_kin_nda(p), "pot": subshell_pot_nda(p)},
        exact_standard={"kin": Fraction(k, 2 * (l + 1) ** 2) * Fraction(Z) ** 2,
                        "pot": Fraction(-k, (l + 1) ** 2) * Fraction(Z) ** 2},
        node_param=node,
    )


def _ref_str(v) -> str:
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return repr(float(v))


def catalog_to_json(states=None) -> str:
    """Export the catalog (names, parameters, references as "p/q" strings)."""
    states = catalog_list() if states is None else states
    out = []
    for s in states:
        entry = {
            "name": s.name,
            "parameters": {key: _ref_str(v) for key, v in s.parameters.items()},
            "exact_total_energy": None if s.exact_total_energy is None
            else _ref_str(s.exact_total_energy),
            "exact_nda": None if s.exact_nda is None
            else {key: _ref_str(v) for key, v in s.exact_nda.items()},
            "exact_standard": None if s.exact_standard is None
            else {key: _ref_str(v) for key, v in s.exact_standard.items()},
            "node_kind": node_parametrization(s).kind,
        }
        out.append(entry)
    return json.dumps(out, indent=2)
