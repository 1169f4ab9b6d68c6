"""Wave-function models: orbitals, Slater-determinant products, the harmonic pair.

Two models cover the catalog.  :class:`SlaterProduct` holds every Coulomb
state, the 2p^2 couplings included, as a sum of products of per-channel
determinants of hydrogenic orbitals; :class:`HarmonicPair` is the trap pair.
Each evaluates through one ``_evaluate(x, want_grad, want_lap)``, which
computes the shared parts once per call.  All models expose a batched API
(``values``, ``gradients``, ``laplacians`` and the fused ``vgl``, which
returns all three for the same points) over arrays of shape ``(m, 3N)``
plus the scalar convenience operations :func:`evaluate`, :func:`gradient`,
:func:`laplacian` acting on a single :class:`Configuration`.

Radial factors are kept unnormalized (e.g. the 2p radial part is
``exp(-Z r / 2)``): every quantity computed downstream is a ratio of
integrals, so overall normalization cancels.  Derivatives are analytic
throughout; nothing is differentiated numerically at runtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Configuration",
    "Orbital",
    "WaveFunction",
    "DetBlock",
    "Term",
    "SlaterProduct",
    "HarmonicPair",
    "Scaled",
    "evaluate",
    "gradient",
    "laplacian",
]


# --------------------------------------------------------------------------
# configurations


@dataclass(frozen=True)
class Configuration:
    """Positions of N particles as a flat length-3N coordinate vector (Bohr)."""

    coords: np.ndarray
    n_particles: int

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float).reshape(-1)
        if coords.size != 3 * self.n_particles:
            raise ValueError(
                f"coords has length {coords.size}, expected {3 * self.n_particles}"
            )
        if not np.all(np.isfinite(coords)):
            raise ValueError("configuration coordinates must be finite")
        object.__setattr__(self, "coords", coords)


def _as_batch(model: "WaveFunction", R) -> np.ndarray:
    if isinstance(R, Configuration):
        if R.n_particles != model.n_particles:
            raise ValueError(
                f"configuration has {R.n_particles} particles, "
                f"model expects {model.n_particles}"
            )
        x = R.coords
    else:
        x = np.asarray(R, dtype=float).reshape(-1)
        if x.size != 3 * model.n_particles:
            raise ValueError(
                f"coordinate vector has length {x.size}, "
                f"expected {3 * model.n_particles}"
            )
        if not np.all(np.isfinite(x)):
            raise ValueError("coordinates must be finite")
    return x[None, :]


# --------------------------------------------------------------------------
# orbitals
#
# Every orbital is a harmonic polynomial P(x) of degree l times a radial
# factor f(r), so
#
#   value     = P f
#   gradient  = f grad(P) + P f'(r) rhat
#   laplacian = P [ f'' + 2 (l+1) f' / r ]
#
# which follows from grad(P).r = l P (Euler) and laplacian(P) = 0.

_AXES = {"x": 0, "y": 1, "z": 2}

# real solid harmonics through l=2, as (poly, grad) closures over points in
# component-major layout: p is (3, m), p[0] the x coordinates, and the
# gradient is (3, m) too, so every operation runs along the m points
def _sh_1(p):
    return np.ones(p.shape[1])


def _sh_1_grad(p):
    return np.zeros_like(p)


def _make_axis_poly(axis: int):
    def poly(p):
        return p[axis]

    def grad(p):
        g = np.zeros_like(p)
        g[axis] = 1.0
        return g

    return poly, grad


def _sh2_table():
    # m -> (polynomial, gradient), all harmonic, unnormalized
    def xy(p):
        return p[0] * p[1]

    def xy_g(p):
        g = np.zeros_like(p)
        g[0] = p[1]
        g[1] = p[0]
        return g

    def yz(p):
        return p[1] * p[2]

    def yz_g(p):
        g = np.zeros_like(p)
        g[1] = p[2]
        g[2] = p[1]
        return g

    def zsq(p):
        return 2.0 * p[2] ** 2 - p[0] ** 2 - p[1] ** 2

    def zsq_g(p):
        g = np.empty_like(p)
        g[0] = -2.0 * p[0]
        g[1] = -2.0 * p[1]
        g[2] = 4.0 * p[2]
        return g

    def zx(p):
        return p[2] * p[0]

    def zx_g(p):
        g = np.zeros_like(p)
        g[0] = p[2]
        g[2] = p[0]
        return g

    def xxyy(p):
        return p[0] ** 2 - p[1] ** 2

    def xxyy_g(p):
        g = np.zeros_like(p)
        g[0] = 2.0 * p[0]
        g[1] = -2.0 * p[1]
        return g

    return {-2: (xy, xy_g), -1: (yz, yz_g), 0: (zsq, zsq_g), 1: (zx, zx_g), 2: (xxyy, xxyy_g)}


_SH2 = _sh2_table()

_ORBITAL_KINDS = (
    "hydrogenic_1s",
    "hydrogenic_2s",
    "hydrogenic_2p",
    "hydrogenic_general",
    "gaussian_s",
    "gaussian_p",
)


@dataclass(frozen=True)
class Orbital:
    """One-particle orbital; ``scale`` is Z for hydrogenic kinds, omega for gaussian."""

    kind: str
    scale: float
    axis: Optional[str] = None
    n: Optional[int] = None
    l: Optional[int] = None
    m: Optional[int] = None

    def __post_init__(self):
        if self.kind not in _ORBITAL_KINDS:
            raise ValueError(f"unknown orbital kind {self.kind!r}")
        if self.scale <= 0:
            raise ValueError("orbital scale must be positive")
        if self.kind in ("hydrogenic_2p", "gaussian_p") and self.axis not in _AXES:
            raise ValueError("p orbital needs axis 'x', 'y' or 'z'")
        if self.kind == "hydrogenic_general":
            if self.n is None or self.l is None or self.m is None:
                raise ValueError("hydrogenic_general needs (n, l, m)")
            if self.l != self.n - 1:
                raise ValueError("hydrogenic_general is restricted to l = n - 1")
            if abs(self.m) > self.l:
                raise ValueError("|m| must not exceed l")
            if self.l > 2:
                raise ValueError(
                    "evaluable orbitals stop at l = 2; higher subshells are "
                    "reference-only (see reference.subshell_kin_nda)"
                )

    # radial factor and, with derivs, its first two derivatives over r
    def _radial(self, r, derivs: bool = True):
        s = self.scale
        if self.kind == "hydrogenic_1s":
            f = np.exp(-s * r)
            return (f, -s * f, s * s * f) if derivs else (f,)
        if self.kind == "hydrogenic_2s":
            e = np.exp(-0.5 * s * r)
            f = (1.0 - 0.5 * s * r) * e
            if not derivs:
                return (f,)
            fp = -s * (1.0 - 0.25 * s * r) * e
            fpp = s * s * (0.75 - 0.125 * s * r) * e
            return f, fp, fpp
        if self.kind in ("hydrogenic_2p",):
            f = np.exp(-0.5 * s * r)
            return (f, -0.5 * s * f, 0.25 * s * s * f) if derivs else (f,)
        if self.kind == "hydrogenic_general":
            a = s / self.n
            f = np.exp(-a * r)
            return (f, -a * f, a * a * f) if derivs else (f,)
        if self.kind in ("gaussian_s", "gaussian_p"):
            f = np.exp(-0.5 * s * r * r)
            if not derivs:
                return (f,)
            fp = -s * r * f
            fpp = (s * s * r * r - s) * f
            return f, fp, fpp
        raise AssertionError(self.kind)

    def _radial_key(self):
        # orbitals with equal keys share one radial factor f(r)
        kind = "gaussian" if self.kind.startswith("gaussian") else self.kind
        return kind, self.scale, self.n

    def _poly(self):
        if self.kind in ("hydrogenic_1s", "hydrogenic_2s", "gaussian_s"):
            return _sh_1, _sh_1_grad, 0
        if self.kind in ("hydrogenic_2p", "gaussian_p"):
            p, g = _make_axis_poly(_AXES[self.axis])
            return p, g, 1
        if self.kind == "hydrogenic_general":
            if self.l == 0:
                return _sh_1, _sh_1_grad, 0
            if self.l == 1:
                axis = {-1: 1, 0: 2, 1: 0}[self.m]
                p, g = _make_axis_poly(axis)
                return p, g, 1
            p, g = _SH2[self.m]
            return p, g, 2
        raise AssertionError(self.kind)

    def value(self, xyz: np.ndarray) -> np.ndarray:
        r = np.linalg.norm(xyz, axis=1)
        poly, _, _ = self._poly()
        f, _, _ = self._radial(r)
        return poly(xyz.T) * f

    def grad(self, xyz: np.ndarray) -> np.ndarray:
        r = np.linalg.norm(xyz, axis=1)
        poly, polyg, _ = self._poly()
        f, fp, _ = self._radial(r)
        rinv = np.where(r > 0.0, 1.0 / np.maximum(r, 1e-300), 0.0)
        p = xyz.T
        rhat = p * rinv
        return np.ascontiguousarray((f * polyg(p) + (poly(p) * fp) * rhat).T)

    def lap(self, xyz: np.ndarray) -> np.ndarray:
        r = np.linalg.norm(xyz, axis=1)
        poly, _, l = self._poly()
        f, fp, fpp = self._radial(r)
        rinv = np.where(r > 0.0, 1.0 / np.maximum(r, 1e-300), 0.0)
        return poly(xyz.T) * (fpp + 2.0 * (l + 1) * fp * rinv)


# --------------------------------------------------------------------------
# model base class


class WaveFunction:
    """Base class; subclasses fill in the batched evaluators."""

    n_particles: int
    family: str  # "coulomb" | "harmonic"
    parameters: dict

    def values(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def gradients(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def laplacians(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def vgl(self, x: np.ndarray):
        """(values, gradients, laplacians) at the same points."""
        raise NotImplementedError


def evaluate(model: WaveFunction, R) -> float:
    """Amplitude of the model at one configuration (zero is legal: point on node)."""
    return float(model.values(_as_batch(model, R))[0])


def gradient(model: WaveFunction, R) -> np.ndarray:
    """Analytic gradient, flat length-3N vector."""
    return model.gradients(_as_batch(model, R))[0]


def laplacian(model: WaveFunction, R) -> float:
    """Analytic Laplacian (sum of all 3N second partials)."""
    return float(model.laplacians(_as_batch(model, R))[0])


# --------------------------------------------------------------------------
# determinant-assembled models


@dataclass(frozen=True)
class DetBlock:
    """One spin channel: orbitals occupied by the listed electron indices."""

    orbitals: Tuple[Orbital, ...]
    electrons: Tuple[int, ...]

    def __post_init__(self):
        if len(self.orbitals) != len(self.electrons):
            raise ValueError("block needs as many orbitals as electrons")


@dataclass(frozen=True)
class Term:
    coeff: float
    blocks: Tuple[DetBlock, ...]


def _stack(A) -> np.ndarray:
    """(m, n, n) matrices from rows of columns A[i][j], each of shape (m,)."""
    return np.stack([np.stack(row, axis=1) for row in A], axis=1)


def _det(A) -> np.ndarray:
    """Determinant of a square block given as rows of columns, A[i][j] (m,)."""
    n = len(A)
    if n == 1:
        return A[0][0]
    if n == 2:
        # explicit form keeps row swaps exact sign flips in floating point
        return A[0][0] * A[1][1] - A[0][1] * A[1][0]
    return np.linalg.det(_stack(A))


def _cofactors(A) -> list:
    """C[i][j] = d det / d A[i][j]; stable at the node (no matrix inverse)."""
    n = len(A)
    if n == 1:
        return [[np.ones(A[0][0].shape[0])]]
    if n == 2:
        return [[A[1][1], -A[1][0]], [-A[0][1], A[0][0]]]
    M = _stack(A)
    rows = np.arange(n)
    return [[(-1.0) ** (i + j) * np.linalg.det(M[:, rows != i][:, :, rows != j])
             for j in range(n)] for i in range(n)]


class SlaterProduct(WaveFunction):
    """Sum of products of per-channel determinants over disjoint electron sets.

    Covers everything from a single orbital (1x1 determinant) through
    det-up x det-down products and their symmetry-coupled sums.

    Every evaluation builds one orbital table: |r| and 1/r once per
    electron, the radial factor once per (electron, radial kind), each
    orbital's value (gradient, Laplacian) once per (electron, orbital), and
    each distinct block's determinant and cofactors once, shared by every
    term that holds the block.  The index plan behind the table is fixed at
    construction.
    """

    def __init__(self, terms: Sequence[Term], n_particles: int, family: str,
                 parameters: Optional[dict] = None):
        for t in terms:
            seen = [e for b in t.blocks for e in b.electrons]
            if len(set(seen)) != len(seen):
                raise ValueError("blocks within a term must use disjoint electrons")
            if any(e < 0 or e >= n_particles for e in seen):
                raise ValueError("electron index out of range")
        self.terms = tuple(terms)
        self.n_particles = n_particles
        self.family = family
        self.parameters = dict(parameters or {})

        # index plan: one table slot per distinct (electron, orbital) pair,
        # slots grouped per electron by radial factor, blocks as slot matrices
        slots = {}
        radial = {}  # electron -> {radial key: (orbital, members)}
        blocks = {}  # slot matrix -> block index
        self._blocks = []  # (electrons, slot matrix)
        self._term_blocks = []  # (coeff, block indices)
        for t in self.terms:
            bids = []
            for b in t.blocks:
                idx = []
                for e in b.electrons:
                    row = []
                    for orb in b.orbitals:
                        k = slots.get((e, orb))
                        if k is None:
                            k = slots[(e, orb)] = len(slots)
                            groups = radial.setdefault(e, {})
                            members = groups.setdefault(orb._radial_key(), (orb, []))[1]
                            members.append((k, *orb._poly()))
                        row.append(k)
                    idx.append(tuple(row))
                idx = tuple(idx)
                if idx not in blocks:
                    blocks[idx] = len(self._blocks)
                    self._blocks.append((b.electrons, idx))
                bids.append(blocks[idx])
            self._term_blocks.append((t.coeff, tuple(bids)))
        self._n_slots = len(slots)
        self._electrons = [(e, [(orb, tuple(members)) for orb, members in groups.values()])
                           for e, groups in radial.items()]

    def _table(self, xt: np.ndarray, want_grad: bool, want_lap: bool):
        """Per slot: the orbital value and, as asked, its (3, m) gradient and
        its Laplacian, for points xt in component-major layout (3N, m).

        Same expressions as Orbital.value/grad/lap; a constant polynomial
        (l = 0) is left out of the products, which is exact.
        """
        derivs = want_grad or want_lap
        val = [None] * self._n_slots
        grad = [None] * self._n_slots
        lap = [None] * self._n_slots
        for e, groups in self._electrons:
            p = xt[3 * e : 3 * e + 3]
            r = np.linalg.norm(p, axis=0)
            if derivs:
                rinv = np.where(r > 0.0, 1.0 / np.maximum(r, 1e-300), 0.0)
            if want_grad:
                rhat = p * rinv
            for orb, members in groups:
                rad = orb._radial(r, derivs)
                f = rad[0]
                lapfac = {}
                for k, poly, polyg, l in members:
                    P = None if l == 0 else poly(p)
                    val[k] = f if P is None else P * f
                    if not derivs:
                        continue
                    fp, fpp = rad[1], rad[2]
                    if want_grad:
                        grad[k] = f * polyg(p) + (fp if P is None else P * fp) * rhat
                    if want_lap:
                        if l not in lapfac:
                            lapfac[l] = fpp + 2.0 * (l + 1) * fp * rinv
                        lap[k] = lapfac[l] if P is None else P * lapfac[l]
        return val, grad, lap

    def _evaluate(self, x: np.ndarray, want_grad: bool, want_lap: bool):
        """(values, gradients, laplacians), None for a part not asked for."""
        m = x.shape[0]
        derivs = want_grad or want_lap
        val, tgrad, tlap = self._table(np.ascontiguousarray(x.T), want_grad, want_lap)
        dets, rows, laps = [], [], []
        for electrons, idx in self._blocks:
            A = [[val[k] for k in row] for row in idx]
            dets.append(_det(A))
            if not derivs:
                continue
            C = _cofactors(A)
            if want_grad:
                brows = []
                for i, slots in enumerate(idx):
                    row = np.zeros((3, m))
                    for j, k in enumerate(slots):
                        row += C[i][j] * tgrad[k]
                    brows.append(row)
                rows.append(brows)
            if want_lap:
                lap_b = np.zeros(m)
                for i, slots in enumerate(idx):
                    for j, k in enumerate(slots):
                        lap_b += C[i][j] * tlap[k]
                laps.append(lap_b)

        v = np.zeros(m)
        gt = np.zeros((3 * self.n_particles, m)) if want_grad else None
        lap = np.zeros(m) if want_lap else None
        for coeff, bids in self._term_blocks:
            prod = np.full(m, coeff)
            for bi in bids:
                prod = prod * dets[bi]
            v = v + prod
            if not derivs:
                continue
            for pos, bi in enumerate(bids):
                other = np.full(m, coeff)
                for pos2, bj in enumerate(bids):
                    if pos2 != pos:
                        other = other * dets[bj]
                if want_grad:
                    for e, row in zip(self._blocks[bi][0], rows[bi]):
                        gt[3 * e : 3 * e + 3] += other * row
                if want_lap:
                    lap += other * laps[bi]
        # row-major (m, 3N) as before: numpy's sum over a row (np.linalg.norm)
        # adds in a layout-dependent order
        g = np.ascontiguousarray(gt.T) if want_grad else None
        return v, g, lap

    def values(self, x: np.ndarray) -> np.ndarray:
        return self._evaluate(x, False, False)[0]

    def gradients(self, x: np.ndarray) -> np.ndarray:
        return self._evaluate(x, True, False)[1]

    def laplacians(self, x: np.ndarray) -> np.ndarray:
        return self._evaluate(x, False, True)[2]

    def vgl(self, x: np.ndarray):
        return self._evaluate(x, True, True)


# --------------------------------------------------------------------------
# explicit two-particle form


class HarmonicPair(WaveFunction):
    """Harmonically confined pair: Gaussian * (z1 - z2), optionally * (1 + beta r12).

    With beta = 1/4 and omega = 1/4 the correlated form is the interacting
    pair's exact eigenstate with energy 5/4.
    """

    family = "harmonic"
    n_particles = 2

    def __init__(self, omega: float = 0.25, correlated: bool = False, beta: float = 0.25):
        if omega <= 0:
            raise ValueError("omega must be positive")
        self.omega = float(omega)
        self.correlated = bool(correlated)
        self.beta = float(beta)
        self.parameters = {"omega": self.omega, "correlated": correlated, "beta": beta}

    def _evaluate(self, x: np.ndarray, want_grad: bool, want_lap: bool):
        """(values, gradients, laplacians), None for a part not asked for."""
        S = np.sum(x * x, axis=1)
        G = np.exp(-0.5 * self.omega * S)
        B = x[:, 2] - x[:, 5]
        GB = G * B
        v, g, lap = GB, None, None
        if self.correlated:
            d = x[:, 0:3] - x[:, 3:6]
            r12 = np.linalg.norm(d, axis=1)
            J = 1.0 + self.beta * r12
            v = v * J
        if not (want_grad or want_lap):
            return v, g, lap
        g0 = -self.omega * x * GB[:, None]
        g0[:, 2] += G
        g0[:, 5] -= G
        if self.correlated:
            ri = np.where(r12 > 0, 1.0 / np.maximum(r12, 1e-300), 0.0)
            gJ = np.concatenate([d * ri[:, None], -d * ri[:, None]], axis=1) * self.beta
        if want_grad:
            g = g0 * J[:, None] + GB[:, None] * gJ if self.correlated else g0
        if want_lap:
            lap = GB * (self.omega ** 2 * S - 8.0 * self.omega)
            if self.correlated:
                lap = lap * J + 2.0 * np.sum(g0 * gJ, axis=1) + GB * (4.0 * self.beta * ri)
        return v, g, lap

    def values(self, x: np.ndarray) -> np.ndarray:
        return self._evaluate(x, False, False)[0]

    def gradients(self, x: np.ndarray) -> np.ndarray:
        return self._evaluate(x, True, False)[1]

    def laplacians(self, x: np.ndarray) -> np.ndarray:
        return self._evaluate(x, False, True)[2]

    def vgl(self, x: np.ndarray):
        return self._evaluate(x, True, True)


class Scaled(WaveFunction):
    """Constant multiple of a base model (nda quantities are ratios)."""

    def __init__(self, c: float, base: WaveFunction):
        if c == 0:
            raise ValueError("scale must be nonzero")
        self.c = float(c)
        self.base = base
        self.n_particles = base.n_particles
        self.family = base.family
        self.parameters = dict(base.parameters)

    def values(self, x):
        return self.c * self.base.values(x)

    def gradients(self, x):
        return self.c * self.base.gradients(x)

    def laplacians(self, x):
        return self.c * self.base.laplacians(x)

    def vgl(self, x):
        v, g, lap = self.base.vgl(x)
        return self.c * v, self.c * g, self.c * lap
