"""Wave-function models: orbitals, Slater-determinant products, the harmonic pair.

Two models cover the catalog.  :class:`SlaterProduct` holds every Coulomb
state, the 2p^2 couplings included, as a sum of products of spin-channel
determinants, each of one or two electrons.  Every term splits the
electrons into the same channels, and the orbitals are hydrogenic 1s, 2s,
2p along an axis, or circular (l = n - 1, m = l) of any n.  Each orbital's
angular factor is held as the unit normals of its nodal planes
(``Orbital.planes``), whose linear forms multiply to it, and one code path
evaluates every degree l from them.
:class:`HarmonicPair` is the trap pair.

Each model evaluates through one public ``evaluate(x, grad=False,
lap=False, radial=False)`` over arrays of shape ``(m, 3N)``.  It returns
``(values, gradients, laplacians)``, None for a part not asked for, and
computes the parts they share once per call; with ``radial`` its gradient
part is each electron's radial derivative x_i . grad_i Psi, an ``(m, N)``
array.  ``values`` and ``gradients`` restate ``evaluate(x)[0]`` and
``evaluate(x, grad=True)[1]``.

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
    "Orbital",
    "WaveFunction",
    "DetBlock",
    "Term",
    "SlaterProduct",
    "HarmonicPair",
    "off_node",
]


def _norms(p: np.ndarray) -> np.ndarray:
    """|p| over a last axis of length 3, with x^2 + y^2 + z^2 added in order:
    the bits of np.linalg.norm(p, axis=-1), in three column-wise passes."""
    s = p * p
    return np.sqrt(s[..., 0] + s[..., 1] + s[..., 2])


def _row_sums(a: np.ndarray) -> np.ndarray:
    """a summed over its last axis one column at a time, in order: the bits
    of np.sum(a, axis=-1) on fewer than eight columns of nonnegative terms."""
    s = a[..., 0]
    for j in range(1, a.shape[-1]):
        s = s + a[..., j]
    return s


def _as_batch(model: "WaveFunction", R) -> np.ndarray:
    x = np.asarray(R, dtype=float).reshape(-1)
    if x.size != 3 * model.n_particles:
        raise ValueError(
            f"coordinate vector has length {x.size}, "
            f"expected {3 * model.n_particles}"
        )
    if not np.all(np.isfinite(x)):
        raise ValueError("coordinates must be finite")
    return x[None, :]


def off_node(x: np.ndarray, v: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """Rows whose Psi is not rounding noise: |Psi| > 1e-14 |x| |grad Psi|.

    x, v and grads are the (m, 3N) rows, their values and their gradients.
    The test is free of the length scale (it holds at any Z) and rejects the
    origin; the standard expectations, the local energy and the topology
    module's sign tests share it.
    """
    return (np.abs(v) > 1e-14 * np.linalg.norm(x, axis=1)
            * np.linalg.norm(grads, axis=1))


# --------------------------------------------------------------------------
# orbitals
#
# Every orbital is a harmonic polynomial P(x) of degree l times a radial
# factor f(r), and P is a product of the linear forms n_k . x of its l
# nodal planes through the nucleus (unit normals n_k), times 2^(l-1)
# for l >= 1.  So
#
#   value     = P f
#   gradient  = P f'(r) rhat + f grad(P),  grad(P) by the product rule
#   laplacian = P [ f'' + 2 (l+1) f' / r ]
#
# which follows from grad(P).r = l P (Euler) and laplacian(P) = 0.

_AXES = ("x", "y", "z")


def _mul(a, b, out=None):
    """a * b, where a factor None stands for 1 and is left out: the other
    factor itself (a view stays a view), or its copy into out."""
    if a is None:
        a, b = b, a
    if b is None:
        if out is None:
            return a
        np.copyto(out, a)
        return out
    return np.multiply(a, b, out=out)


def _prod(factors):
    out = None
    for a in factors:
        out = _mul(out, a)
    return out


def _recipe(planes: tuple):
    """planes' forms as ((c, w), ...) over each normal's nonzero components,
    the scale 2^(l-1), and grad(P)'s nonzero components as (c, ((k, w),
    ...)) over the planes k whose normal has a component c; a weight or
    scale 1.0 is None, so it is never multiplied in."""
    def w(a):
        return None if a == 1.0 else a

    forms = tuple(tuple((c, w(a)) for c, a in enumerate(n) if a) for n in planes)
    grads = tuple((c, tuple((k, w(n[c])) for k, n in enumerate(planes) if n[c]))
                  for c in range(3) if any(n[c] for n in planes))
    return forms, w(2.0 ** max(len(planes) - 1, 0)), grads


def _forms(forms, p) -> list:
    """The plane forms n . x at the points p (..., 3, ...), coordinate c at
    p[:, c], over the nonzero components of n only: an axis normal's form
    is its coordinate itself, a view."""
    out = []
    for form in forms:
        s = None
        for c, a in form:
            t = _mul(a, p[:, c])
            s = t if s is None else s + t
        out.append(s)
    return out


def _harmonic(recipe, p, grad: bool = False):
    """(P, dP): P = 2^(l-1) prod_k (n_k . x) at the points p (as _forms), None
    (1) for l = 0, and with grad the nonzero components of grad(P) as
    (c, dP_c) pairs (none without), by the product rule.  An axis orbital's
    P is a view of its coordinate and its dP_c None."""
    forms, scale, grads = recipe
    F = _forms(forms, p)
    P = _mul(_prod(F), scale)
    if not grad:
        return P, ()
    dP = []
    for c, ks in grads:
        terms = [_mul(a, _prod(F[:k] + F[k + 1:])) for k, a in ks]
        dP.append((c, _mul(sum(terms[1:], terms[0]), scale)))
    return P, dP


_ORBITAL_KINDS = (
    "hydrogenic_1s",
    "hydrogenic_2s",
    "hydrogenic_2p",
    "hydrogenic_general",
)


@dataclass(frozen=True)
class Orbital:
    """One-particle hydrogenic orbital; ``scale`` is the nuclear charge Z.

    ``hydrogenic_general`` is the circular orbital of principal number n:
    l = n - 1 and m = l, so r^l exp(-Z r / n) times Re(x + iy)^l.
    """

    kind: str
    scale: float
    axis: Optional[str] = None
    n: Optional[int] = None

    def __post_init__(self):
        if self.kind not in _ORBITAL_KINDS:
            raise ValueError(f"unknown orbital kind {self.kind!r}")
        if self.scale <= 0:
            raise ValueError("orbital scale must be positive")
        if self.kind == "hydrogenic_2p" and self.axis not in _AXES:
            raise ValueError("p orbital needs axis 'x', 'y' or 'z'")
        if self.kind == "hydrogenic_general" and (self.n is None or self.n < 1):
            raise ValueError("hydrogenic_general needs n >= 1")

    @property
    def planes(self) -> tuple:
        """Unit normals of the nodal planes through the nucleus, whose forms
        n_k . x times 2^(l-1) make the angular factor: none for 1s and 2s,
        the axis for 2p, and for the circular orbital of degree l the l
        planes through the z axis at theta_k = (k + 1/2) pi / l - pi / 2,
        since Re(x + iy)^l = 2^(l-1) prod_k (x cos theta_k + y sin theta_k)."""
        if self.kind == "hydrogenic_2p":
            return (tuple(float(a == self.axis) for a in _AXES),)
        if self.kind != "hydrogenic_general":
            return ()
        l = self.n - 1
        return tuple((float(np.cos(t)), float(np.sin(t)), 0.0)
                     for t in ((k + 0.5) * np.pi / l - np.pi / 2 for k in range(l)))

    def forms(self, xyz: np.ndarray) -> list:
        """The plane forms n_k . x at the points xyz (m, 3), one per plane."""
        return _forms(_recipe(self.planes)[0], xyz)

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
        if self.kind == "hydrogenic_2p":
            f = np.exp(-0.5 * s * r)
            return (f, -0.5 * s * f, 0.25 * s * s * f) if derivs else (f,)
        a = s / self.n  # hydrogenic_general
        f = np.exp(-a * r)
        return (f, -a * f, a * a * f) if derivs else (f,)

    def _radial_key(self):
        # orbitals with equal keys share one radial factor f(r)
        return self.kind, self.scale, self.n

    def radial_scale(self) -> float:
        """n / Z: the orbital's decay length, exp(-Z r / n) = exp(-r / scale)."""
        n = self.n if self.kind == "hydrogenic_general" else int(self.kind[-2])
        return n / self.scale


# --------------------------------------------------------------------------
# model base class


class WaveFunction:
    """Base class; subclasses fill in evaluate."""

    n_particles: int
    family: str  # "coulomb" | "harmonic"
    parameters: dict

    def evaluate(self, x: np.ndarray, grad: bool = False, lap: bool = False,
                 radial: bool = False):
        """(values, gradients, laplacians) at the rows x (m, 3N), None for
        a part not asked for; with radial the gradients are
        x_i . grad_i Psi, (m, N)."""
        raise NotImplementedError


# --------------------------------------------------------------------------
# determinant-assembled models


@dataclass(frozen=True)
class DetBlock:
    """One spin channel: orbitals occupied by the listed electron indices
    (one or two electrons in a SlaterProduct)."""

    orbitals: Tuple[Orbital, ...]
    electrons: Tuple[int, ...]

    def __post_init__(self):
        if len(self.orbitals) != len(self.electrons):
            raise ValueError("block needs as many orbitals as electrons")


@dataclass(frozen=True)
class Term:
    coeff: float
    blocks: Tuple[DetBlock, ...]


def _det(m: list):
    """Determinant of a k x k matrix given as a list of rows, each a list of
    arrays, by cofactor expansion along the first row: a * d - b * c for
    k = 2, so a row swap is an exact sign flip in floating point."""
    if len(m) == 1:
        return m[0][0]
    det = None
    for j, a in enumerate(m[0]):
        term = a * _det([row[:j] + row[j + 1:] for row in m[1:]])
        det = term if det is None else det - term if j % 2 else det + term
    return det


def _cofactors(A) -> list:
    """C[i][j] = d det / d A[i][j] of a 2x2 block; stable at the node (no
    matrix inverse)."""
    return [[A[1][1], -A[1][0]], [-A[0][1], A[0][0]]]


def _key(idx):
    """A flat index list as a slice where it steps evenly upward (indexing
    with it is a view), else as an integer array (a gather)."""
    idx = np.asarray(idx, dtype=np.intp).ravel()
    step = int(idx[1] - idx[0]) if idx.size > 1 else 1
    if step > 0 and np.array_equal(idx, idx[0] + step * np.arange(idx.size)):
        return slice(int(idx[0]), int(idx[-1]) + 1, step)
    return idx


def _ordered_sum(a: np.ndarray) -> np.ndarray:
    """a summed over its first axis in index order, up to the sign of a zero
    result.  numpy's reduce adds fewer than eight terms in order but may
    pair the terms of a longer run, so those are added one by one."""
    if len(a) < 8:
        return np.add.reduce(a)
    s = a[0] + a[1]
    for t in a[2:]:
        s += t
    return s


def _cat(parts: list) -> np.ndarray:
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


class SlaterProduct(WaveFunction):
    """Sum of products of spin-channel determinants.

    Covers everything from a single orbital (1x1 determinant) through
    det-up x det-down products and their symmetry-coupled sums.  The blocks
    are the spin channels: every term splits the electrons 0..N-1 into the
    same blocks, in the same order, and a block holds one or two electrons,
    the most any catalog state puts in one channel.  Anything else is a
    ValueError.  The orbitals are hydrogenic 1s, 2s, 2p along an axis, or
    circular (``Orbital``).

    The plan, fixed at construction, holds the model as index arrays, and a
    call makes a few whole-array passes over the points, laid out (N, 3, m):

    * |r| of all electrons at once, each radial kind once over the stacked
      electrons that use it;
    * a table of values, gradients and Laplacians with a row per
      (electron, harmonic) of each radial kind, a harmonic being one set
      of nodal planes; a harmonic's rows over the kind's electrons are one
      slice, filled by one pass of the product rule;
    * the distinct blocks grouped by size: a gather (a slice where the rows
      step evenly) per size and matrix position for the entries, gradients
      and Laplacians, then determinants, cofactors, gradient
      rows and Laplacians of all 2x2 blocks at once; a 1x1 block is its
      table row;
    * the terms as a (terms, blocks) index array: the products, the
      products over the other blocks, and each electron's gradient
      contribution, one per term, in term order.

    Each output element has the bits of the orbital-by-orbital form
    (``_reference_vgl`` in tests/test_wavefunctions.py): every product and
    sum runs in its order, and a sum that form starts from 0.0 is the
    ordered sum plus 0.0 (the start only turns -0.0 into +0.0).
    """

    family = "coulomb"

    def __init__(self, terms: Sequence[Term], n_particles: int,
                 parameters: Optional[dict] = None):
        partition = tuple(b.electrons for b in terms[0].blocks)
        if any(len(e) > 2 for e in partition):
            raise ValueError("a determinant block holds at most two electrons")
        if sorted(e for block in partition for e in block) != list(range(n_particles)):
            raise ValueError(f"the blocks must split the electrons 0..{n_particles - 1}")
        if any(tuple(b.electrons for b in t.blocks) != partition for t in terms):
            raise ValueError("every term must split the electrons into the same blocks")
        self.terms = tuple(terms)
        self.n_particles = n_particles
        self.parameters = dict(parameters or {})

        # radial kinds, each with the electrons and harmonics (plane sets)
        # that use it; rows harmonic-major, so a harmonic's rows over the
        # kind's electrons are one slice
        kinds = {}
        for t in self.terms:
            for b in t.blocks:
                for orb in b.orbitals:
                    kind = kinds.setdefault(orb._radial_key(), (orb, set(), {}))
                    kind[1].update(b.electrons)
                    kind[2].setdefault(orb.planes, None)
        row = {}  # (electron, radial key, planes) -> table row
        self._kinds = []  # (orbital, electrons, ((rows, recipe, l), ...))
        n_rows = 0
        for key, (orb, electrons, harmonics) in kinds.items():
            electrons = sorted(electrons)
            E = len(electrons)
            plan = []
            for planes in harmonics:
                plan.append((slice(n_rows, n_rows + E), _recipe(planes), len(planes)))
                for i, e in enumerate(electrons):
                    row[e, key, planes] = n_rows + i
                n_rows += E
            self._kinds.append((orb, _key(electrons), tuple(plan)))
        self._n_rows = n_rows

        # distinct blocks as table-row matrices, grouped by size; a size's
        # gradient rows come as (n, blocks): row i of its block k at
        # base + i * blocks + k
        blocks = {}
        for t in self.terms:
            for b in t.blocks:
                blocks[b.electrons, b.orbitals] = tuple(
                    tuple(row[e, o._radial_key(), o.planes] for o in b.orbitals)
                    for e in b.electrons)
        ids, first_row = {}, {}
        self._sizes = []  # (n, key of the (n, n, blocks) rows, (i, j) keys)
        base = 0
        for n in sorted({len(e) for e, _ in blocks}):
            group = sorted((rows, b) for b, rows in blocks.items() if len(b[0]) == n)
            for k, (_, b) in enumerate(group):
                ids[b] = len(ids)
                first_row[b] = (base + k, len(group))
            base += n * len(group)
            mats = np.array([rows for rows, _ in group], dtype=np.intp)
            self._sizes.append((n, _key(mats.transpose(1, 2, 0)),
                                [[_key(mats[:, i, j]) for j in range(n)] for i in range(n)]))

        # the terms' blocks (term, block position), whose factor t * K + k
        # is the row of B.ravel(), and each electron's gradient contribution
        # (factor, block row) in every term
        K = len(partition)
        B = np.array([[ids[b.electrons, b.orbitals] for b in t.blocks]
                      for t in self.terms], dtype=np.intp)
        self._terms = tuple(_key(B[:, k]) for k in range(K))
        coeff = np.array([[t.coeff] for t in self.terms])
        self._coeff = None if np.all(coeff == 1.0) else coeff
        self._factors = _key(B.ravel())
        grid = np.empty((len(self.terms), n_particles, 2), dtype=np.intp)
        for t, term in enumerate(self.terms):
            for k, b in enumerate(term.blocks):
                first, stride = first_row[b.electrons, b.orbitals]
                for i, e in enumerate(b.electrons):
                    grid[t, e] = t * K + k, first + i * stride
        self._contrib = (_key(grid[..., 0]), _key(grid[..., 1]))

    def _table(self, x: np.ndarray, want_grad: bool, want_lap: bool,
               radial: bool = False):
        """Table values (rows, m) and, as asked, gradients (rows, 3, m) and
        Laplacians (rows, m) at the points x (m, 3N), one pass per radial
        kind and harmonic over the kind's electrons.  With radial the
        gradient axis has width 1 and holds x . grad(P f) = P r f' + l P f.

        The expressions of the orbital-by-orbital reference
        (tests/test_wavefunctions.py), with the same operations in the same
        order, so every entry has its bits.
        """
        m = x.shape[0]
        derivs = want_grad or want_lap
        xt = np.ascontiguousarray(x.T)
        pos = xt.reshape(self.n_particles, 3, m)
        r = np.sqrt(np.add.reduce((xt * xt).reshape(pos.shape), axis=1))
        if want_lap or (want_grad and not radial):
            rinv = np.where(r > 0.0, 1.0 / np.maximum(r, 1e-300), 0.0)
        if want_grad:
            # rhat, or for the radial derivative x . rhat = r
            rhat = r[:, None] if radial else pos * rinv[:, None]
        T = np.empty((self._n_rows, m))
        G = np.empty((self._n_rows, 1 if radial else 3, m)) if want_grad else None
        L = np.empty((self._n_rows, m)) if want_lap else None
        for orb, es, harmonics in self._kinds:
            f, *fd = orb._radial(r[es], derivs)
            p = pos[es]  # (E, 3, m)
            if want_grad:
                rh = rhat[es]
            if want_lap:
                ri = rinv[es]
                lap_f = {}  # degree -> f'' + 2 (l+1) f' / r
            for s, recipe, l in harmonics:
                P, dP = _harmonic(recipe, p, want_grad and not radial)
                _mul(P, f, out=T[s])
                if want_grad:
                    g = G[s]
                    np.multiply(_mul(P, fd[0])[:, None], rh, out=g)
                    if radial and l:  # x . grad(P) = l P
                        g[:, 0] += _mul(f, P if l == 1 else l * P)
                    for c, d in dP:
                        g[:, c] += _mul(f, d)
                if want_lap:
                    if l not in lap_f:  # l = 0 is one harmonic: fill its rows
                        lap_f[l] = np.add(fd[1], 2.0 * (l + 1) * fd[0] * ri,
                                          out=None if l else L[s])
                    if l:
                        np.multiply(P, lap_f[l], out=L[s])
        return T, G, L

    def _blocks(self, x: np.ndarray, want_grad: bool, want_lap: bool,
                radial: bool = False):
        """Determinants (blocks, m) and, as asked, gradient rows (rows, 3, m;
        rows, 1, m with radial) and Laplacians (blocks, m) of the distinct
        blocks, in plan order."""
        T, G, L = self._table(x, want_grad, want_lap, radial)
        dets, rows, laps = [], [], []
        for n, key, keys in self._sizes:
            M = T[key].reshape(n, n, -1, T.shape[1])
            A = [[M[i, j] for j in range(n)] for i in range(n)]
            dets.append(_det(A))
            if n == 1:
                if want_grad:
                    rows.append(G[key])
                if want_lap:
                    laps.append(L[key])
                continue
            if not (want_grad or want_lap):
                continue
            C = _cofactors(A)
            if want_grad:
                for i in range(n):
                    row = C[i][0][:, None] * G[keys[i][0]]
                    for j in range(1, n):
                        row += C[i][j][:, None] * G[keys[i][j]]
                    rows.append(row)
            if want_lap:
                ij = [(i, j) for i in range(n) for j in range(n)]
                lap = C[0][0] * L[keys[0][0]]
                for i, j in ij[1:]:
                    lap += C[i][j] * L[keys[i][j]]
                laps.append(lap)
        return (_cat(dets), _cat(rows) if want_grad else None,
                _cat(laps) if want_lap else None)

    def evaluate(self, x: np.ndarray, grad: bool = False, lap: bool = False,
                 radial: bool = False):
        """(values, gradients, laplacians) at the rows x (m, 3N), None for a
        part not asked for; with radial the gradients are x_i . grad_i Psi,
        (m, N).  A determinant's x_i . grad_i is its cofactors times the
        orbitals' x . grad, so the radial table runs through the same block
        and term passes with one component for three."""
        m = x.shape[0]
        D, R, LB = self._blocks(x, grad, lap, radial)
        coeff = self._coeff
        prod = D[self._terms[0]] if coeff is None else coeff * D[self._terms[0]]
        for k in self._terms[1:]:
            prod = prod * D[k]
        v = _ordered_sum(prod) + 0.0
        if not (grad or lap):
            return v, None, None

        # per factor, coeff times the determinants of the term's other blocks
        other = None
        K = len(self._terms)
        if K > 1 or coeff is not None:
            parts = []
            for k in range(K):
                rest = [self._terms[j] for j in range(K) if j != k]
                if not rest:
                    parts.append(np.broadcast_to(coeff, (len(coeff), m)))
                    continue
                o = D[rest[0]] if coeff is None else coeff * D[rest[0]]
                for j in rest[1:]:
                    o = o * D[j]
                parts.append(o)
            other = np.stack(parts, axis=1).reshape(len(self.terms) * K, m)
        grads = laps = None
        if lap:
            c = LB[self._factors]
            laps = _ordered_sum(c if other is None else other * c) + 0.0
        if grad:
            n = self.n_particles
            cf, cr = self._contrib
            c = R[cr]
            if other is not None:  # in place unless c is a view of R
                c = np.multiply(other[cf][:, None], c,
                                out=None if isinstance(cr, slice) else c)
            d = R.shape[1]  # 3, or 1 with radial
            gt = _ordered_sum(c.reshape(len(self.terms), n, d, m))
            # row-major (m, 3N): numpy's sum over a row (np.linalg.norm)
            # adds in a layout-dependent order
            grads = np.add(gt.reshape(d * n, m).T, 0.0, out=np.empty((m, d * n)))
        return v, grads, laps

    # values and gradients restate evaluate.  perfbench/spans.py wraps these
    # two names on each model class, and its per-layer model rows count the
    # library calls made through them; they go once it wraps evaluate.
    def values(self, x: np.ndarray) -> np.ndarray:
        return self.evaluate(x)[0]

    def gradients(self, x: np.ndarray) -> np.ndarray:
        return self.evaluate(x, grad=True)[1]


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

    def evaluate(self, x: np.ndarray, grad: bool = False, lap: bool = False,
                 radial: bool = False):
        """(values, gradients, laplacians) at the rows x (m, 6), None for a
        part not asked for; with radial the gradients are x_i . grad_i Psi,
        (m, 2), taken from the gradient."""
        S = np.sum(x * x, axis=1)
        G = np.exp(-0.5 * self.omega * S)
        B = x[:, 2] - x[:, 5]
        GB = G * B
        v, grads, laps = GB, None, None
        if self.correlated:
            d = x[:, 0:3] - x[:, 3:6]
            r12 = np.linalg.norm(d, axis=1)
            J = 1.0 + self.beta * r12
            v = v * J
        if not (grad or lap):
            return v, grads, laps
        g0 = -self.omega * x * GB[:, None]
        g0[:, 2] += G
        g0[:, 5] -= G
        if self.correlated:
            ri = np.where(r12 > 0, 1.0 / np.maximum(r12, 1e-300), 0.0)
            gJ = np.concatenate([d * ri[:, None], -d * ri[:, None]], axis=1) * self.beta
        if grad:
            grads = g0 * J[:, None] + GB[:, None] * gJ if self.correlated else g0
            if radial:
                grads = _row_sums((x * grads).reshape(-1, 2, 3))
        if lap:
            laps = GB * (self.omega ** 2 * S - 8.0 * self.omega)
            if self.correlated:
                laps = laps * J + 2.0 * np.sum(g0 * gJ, axis=1) + GB * (4.0 * self.beta * ri)
        return v, grads, laps

    # as on SlaterProduct: the two names perfbench/spans.py wraps
    def values(self, x: np.ndarray) -> np.ndarray:
        return self.evaluate(x)[0]

    def gradients(self, x: np.ndarray) -> np.ndarray:
        return self.evaluate(x, grad=True)[1]
