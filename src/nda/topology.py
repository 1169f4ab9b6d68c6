"""Nodal-domain counting and node-equivalence tests.

Both operations work on sign information only: domains are connected
components of the same-label neighbour graph of the sample points (a label
is sign(Psi), or for a one-term product the signs of its blocks, a block
with one electron in an orbital with nodal planes signed by each plane
(Orbital.planes) and any other block by its determinant; each point is
joined to a fixed number, _K_NEIGHBORS, of its nearest neighbours of its
own label where a fixed number, _SEGMENT_CHECKS, of points of the segment
between them keep that label), and equivalence of two nodes is falsified
by a single robust sign disagreement under the candidate coordinate
transformation.  The points are metropolis_samples, a Psi^2 Metropolis
walk on a stream of its own, and a sign is robust off the node by the rule
of the local energy (wavefunctions.off_node).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import permutations, product
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import coo_matrix
from scipy.spatial import cKDTree

from .catalog import StateSpec
from .estimators import SamplerConfig, metropolis_samples
from .wavefunctions import SlaterProduct, off_node

__all__ = [
    "TransformSpec",
    "DomainReport",
    "count_nodal_domains",
    "test_node_equivalence",
    "find_block_transform",
]

_ORTHO_TOL = 1e-12

# Same-label nearest neighbours paired with each point.  At 2 or fewer the
# graph falls apart into many small components and the count reads far
# above the true one (1 179 to 1 515 domains at 1); 3 can still over-count.
_K_NEIGHBORS = 12
# Interior points of each pair's segment that must carry the pair's label.
# 1, 2, 4, 8 and 16 read the same counts on 2P_2p, 1S_1s2_2s2, 3P_2p2,
# 1S_1s2_2p2 and subshell_k1_l2 at 5 000 points (seed 1).
_SEGMENT_CHECKS = 16
# Chains of the Psi^2 walk that draws the points (_sample_points).
_WALK_CHAINS = 128


# --------------------------------------------------------------------------
# block-orthogonal coordinate transformations


@dataclass(frozen=True)
class TransformSpec:
    """Orthogonal transformation with per-particle block structure.

    The matrix acts on flat configurations (3N,); it is restricted to a
    particle permutation combined with one orthogonal 3x3 block per
    particle, so nodes map to nodes of transformed arguments exactly.
    """

    matrix: np.ndarray
    determinant: int = field(init=False, default=1)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 3:
            raise ValueError("matrix must be square with side 3N")
        if np.max(np.abs(m @ m.T - np.eye(m.shape[0]))) > _ORTHO_TOL:
            raise ValueError("matrix is not orthogonal to 1e-12")
        n = m.shape[0] // 3
        blocks = m.reshape(n, 3, n, 3).transpose(0, 2, 1, 3)
        occupied = np.abs(blocks).max(axis=(2, 3)) > _ORTHO_TOL
        if not (np.all(occupied.sum(axis=0) == 1)
                and np.all(occupied.sum(axis=1) == 1)):
            raise ValueError("matrix must be a particle permutation of "
                             "3x3 orthogonal blocks")
        object.__setattr__(self, "matrix", m)
        det = float(np.linalg.det(m))
        object.__setattr__(self, "determinant", int(round(det)))

    @property
    def n_particles(self) -> int:
        return self.matrix.shape[0] // 3

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return x @ self.matrix.T

    @staticmethod
    def identity(n_particles: int) -> "TransformSpec":
        return TransformSpec(np.eye(3 * n_particles))

    @staticmethod
    def axis_flip(n_particles: int, axis: int, particle: int) -> "TransformSpec":
        """Reflection of one coordinate component, e.g. x_2 -> -x_2."""
        if not 0 <= axis < 3:
            raise ValueError("axis must be 0 (x), 1 (y) or 2 (z)")
        if not 0 <= particle < n_particles:
            raise ValueError("particle index out of range")
        m = np.eye(3 * n_particles)
        i = 3 * particle + axis
        m[i, i] = -1.0
        return TransformSpec(m)

    @staticmethod
    def from_blocks(blocks: Sequence[np.ndarray],
                    permutation: Optional[Sequence[int]] = None) -> "TransformSpec":
        """Per-particle 3x3 blocks; permutation[i] = source particle of slot i."""
        n = len(blocks)
        perm = list(permutation) if permutation is not None else list(range(n))
        if sorted(perm) != list(range(n)):
            raise ValueError("permutation must reorder all particles")
        m = np.zeros((3 * n, 3 * n))
        for i, src in enumerate(perm):
            m[3 * i:3 * i + 3, 3 * src:3 * src + 3] = blocks[i]
        return TransformSpec(m)


# --------------------------------------------------------------------------
# nodal-domain counting


@dataclass(frozen=True)
class DomainReport:
    """The result of count_nodal_domains.

    n_domains is the number of connected components of the same-label
    neighbour graph, n_points the number of sample points, n_edges_tested
    the number of distinct same-label pairs given the segment test, and
    confidence_note states the condition under which n_domains bounds the
    true count from above.
    """

    n_domains: int
    n_points: int
    n_edges_tested: int
    confidence_note: str


def _sample_points(state: StateSpec, n_points: int, seed: int,
                   thin: int = 10) -> np.ndarray:
    """n_points decorrelated Psi^2-distributed configurations, from
    _WALK_CHAINS chains."""
    per_chain = (n_points + _WALK_CHAINS - 1) // _WALK_CHAINS
    steps = per_chain * thin
    burn = max(steps // 10, 50)
    cfg = SamplerConfig(n_chains=_WALK_CHAINS, steps_per_chain=steps + burn,
                        burn_in=burn, seed=seed)
    pts = metropolis_samples(state, cfg, thin=thin)
    return pts[:n_points]


def _labels(model, x: np.ndarray) -> np.ndarray:
    """(m, K) sign labels of the points x.  A one-term SlaterProduct gets
    a label per block: the signs of the plane forms of a one-electron
    block whose orbital has nodal planes (its radial factor is positive),
    else the sign of the block's determinant.  Other models get sign(Psi)
    (K = 1)."""
    if not (isinstance(model, SlaterProduct) and len(model.terms) == 1):
        return np.sign(model.values(x))[:, None]
    dets, cols = None, []
    for k, b in enumerate(model.terms[0].blocks):
        if len(b.electrons) == 1 and b.orbitals[0].planes:
            e = 3 * b.electrons[0]
            cols += b.orbitals[0].forms(x[:, e:e + 3])
        else:
            if dets is None:
                dets = model._blocks(x, False, False)[0]
            cols.append(dets[model._terms[k]][0])
    return np.sign(np.stack(cols, axis=1))


def count_nodal_domains(state: StateSpec, n_points: int = 20_000,
                        seed: int = 20260801) -> DomainReport:
    """The number of nodal domains from sampled sign regions.

    Samples follow Psi^2.  Each point with a nonzero label (_labels) is
    paired with its _K_NEIGHBORS nearest neighbours among the points of the
    same label (all of them, less itself, in a class of _K_NEIGHBORS or
    fewer), found on one cKDTree per label class; every unordered pair is
    tested once, and it becomes an edge when all _SEGMENT_CHECKS interior
    points of the straight segment carry that label too.  Connected
    components of the graph are counted with
    scipy.sparse.csgraph.connected_components; n_edges_tested is the number
    of distinct pairs tested.  A far-tail point whose nearest neighbours in
    space sit across a nodal sheet still gets _K_NEIGHBORS candidates of its
    own label, and a pair counts whichever of its ends found the other.

    The count is an upper bound, falling to the true domain count as the
    sampling is refined, wherever every label region is one domain, since
    then no edge joins two domains.  That holds for a one-term product
    whose determinant blocks each have two connected sign regions (the
    one-term catalog states 3S_1s2s, 3P_1s2p, 3P_2p2 and 1S_1s2_2s2, whose
    four domains are the sign pairs of its two determinants) and whose
    one-electron blocks are signed by their planes, whose sign regions are
    convex wedges (2P_2p; the circular orbital of degree l, 2l wedges, as
    subshell_k1_l2's four quadrants of x^2 - y^2), and for a state with two
    domains, one per sign of Psi (1S_2p2, 1D_2p2 and the harmonic pairs).
    On a sum of terms with more than two domains, an edge can cross the
    node twice between two checks, keep its label and join two domains,
    so the count can fall below the true one.  The report's
    confidence_note states that condition for the state's labels.
    """
    model = state.model
    if model is None:
        raise ValueError(f"state {state.name!r} has no evaluable model")
    if n_points < 1000:
        raise ValueError("n_points must be at least 1000")
    pts = _sample_points(state, n_points, seed)
    n_points = pts.shape[0]
    labels = _labels(model, pts)
    signs = np.prod(labels, axis=1)   # sign(Psi), up to one global sign

    minority = min(np.sum(signs > 0), np.sum(signs < 0)) / n_points
    notes = []
    if minority < 0.1:
        notes.append(f"unbalanced signs: minority fraction {minority:.3f} < 0.1")

    # one k-d tree per label class: every point's _K_NEIGHBORS nearest
    # neighbours of its own nonzero label, each unordered pair once
    _, cls = np.unique(labels, axis=0, return_inverse=True)
    cls = cls.reshape(-1)
    pairs = [np.zeros(0, dtype=np.intp)]
    for c in range(cls.max() + 1):
        idx = np.flatnonzero(cls == c)
        if idx.size < 2 or not np.all(labels[idx[0]]):
            continue
        k = min(_K_NEIGHBORS, idx.size - 1)
        _, nbr = cKDTree(pts[idx]).query(pts[idx], k=k + 1)
        src, dst = np.repeat(idx, k), idx[nbr[:, 1:]].reshape(-1)
        pairs.append(np.minimum(src, dst) * n_points + np.maximum(src, dst))
    src, dst = np.divmod(np.unique(np.concatenate(pairs)), n_points)

    # the segment test: every interior check carries the label of src
    frac = np.arange(1, _SEGMENT_CHECKS + 1) / (_SEGMENT_CHECKS + 1.0)
    dim = pts.shape[1]
    chunk = max(1, 1_000_000 // (_SEGMENT_CHECKS * dim))
    good = np.empty(src.size, dtype=bool)
    for lo in range(0, src.size, chunk):
        ii, jj = src[lo:lo + chunk], dst[lo:lo + chunk]
        a, b = pts[ii, None], pts[jj, None]
        v = _labels(model, (a + frac[:, None] * (b - a)).reshape(-1, dim))
        good[lo:lo + chunk] = np.all(
            v.reshape(ii.size, _SEGMENT_CHECKS, -1) * labels[ii, None] > 0,
            axis=(1, 2))

    # imported here: scipy.sparse.csgraph pulls in scipy.sparse.linalg,
    # which would add about 50 ms to every import of nda
    from scipy.sparse.csgraph import connected_components
    adj = coo_matrix((np.ones(int(good.sum()), dtype=bool),
                      (src[good], dst[good])), shape=(n_points, n_points))
    n_domains, _ = connected_components(adj, directed=False)

    # more labels than blocks: some block is labelled by two or more planes
    regions = ("sign of Psi" if labels.shape[1] == 1
               else "sign pattern of the block determinants"
               if labels.shape[1] == len(model.terms[0].blocks)
               else "sign pattern of the nodal planes and block determinants")
    notes.append(f"count is an upper bound, which can only decrease under "
                 f"refinement of n_points, if every "
                 f"{regions} holds one domain; where one holds several, the "
                 f"count can fall below the true one")
    return DomainReport(
        n_domains=n_domains,
        n_points=n_points,
        n_edges_tested=int(src.size),
        confidence_note="; ".join(notes),
    )


# --------------------------------------------------------------------------
# node equivalence


def _sign_off_node(model, x: np.ndarray):
    """sign(Psi) at x and the mask of the rows off the node (off_node),
    from one value-and-gradient evaluation."""
    v, grads, _ = model.evaluate(x, grad=True)
    return np.sign(v), off_node(x, v, grads)


def test_node_equivalence(state_a: StateSpec, state_b: StateSpec,
                          t: TransformSpec, n_points: int = 100_000,
                          seed: int = 20260801) -> dict:
    """Sign-agreement test for node equivalence under the transformation t.

    Draws Psi_a^2 samples, evaluates s_i = sign(Psi_a(R_i)) *
    sign(Psi_b(t(R_i))), and declares equivalence only if every s_i agrees
    (one global sign flip is permitted).  Samples within float noise of
    either node (not off_node: |Psi| <= 1e-14 |R| |grad Psi|) are discarded
    and redrawn from the tail of the sample stream.  ValueError when no
    sample is off both nodes.
    """
    ma, mb = state_a.model, state_b.model
    if ma is None or mb is None:
        raise ValueError("both states need evaluable models")
    if ma.n_particles != mb.n_particles:
        raise ValueError("states have different particle counts")
    if t.n_particles != ma.n_particles:
        raise ValueError("transformation size does not match the states")
    if n_points < 1:
        raise ValueError("n_points must be at least 1")

    oversample = int(1.05 * n_points) + 64
    pts = _sample_points(state_a, oversample, seed, thin=4)
    sa, oka = _sign_off_node(ma, pts)
    sb, okb = _sign_off_node(mb, t.apply(pts))
    ok = oka & okb
    resampled = int(np.sum(~ok[:n_points]))
    # the first n_points that survive, or all of them in a degenerate overlap
    s = (sa * sb)[ok][:n_points]
    if s.size == 0:
        raise ValueError("no sampled point is off both nodes: the signs "
                         "cannot be compared")
    n_plus = int(np.sum(s > 0))
    n_minus = int(np.sum(s < 0))
    total = s.size
    agreement = max(n_plus, n_minus) / total

    out = {
        "verdict": "equivalent" if max(n_plus, n_minus) == total else "inequivalent",
        "agreement_fraction": float(agreement),
        "n_points": int(total),
        "resampled": resampled,
    }
    if resampled > 0.01 * n_points:
        out["warning"] = (f"degenerate sampling: {resampled} of {n_points} "
                          "points fell within float noise of a node")
    return out


def _signed_permutations() -> List[np.ndarray]:
    mats = []
    for perm in permutations(range(3)):
        for signs in product((1.0, -1.0), repeat=3):
            m = np.zeros((3, 3))
            for row, (col, sgn) in enumerate(zip(perm, signs)):
                m[row, col] = sgn
            mats.append(m)
    return mats


def find_block_transform(state_a: StateSpec, state_b: StateSpec,
                         seed: int = 20260801) -> Optional[TransformSpec]:
    """Search signed-permutation block transforms mapping node(a) onto node(b).

    Candidates are all per-particle signed coordinate permutations combined
    with particle reorderings, 48^N * N! for N particles: 48 for one and
    4 608 for two.  A candidate is screened on 512 probe points and
    confirmed on 20 000 (test_node_equivalence); returns the first
    confirmed TransformSpec, or None when every candidate shows a robust
    sign disagreement.

    More than two particles is a ValueError, raised before any sampling.
    The search is exhaustive, and at N = 4 it would screen 127 401 984
    candidates: screening one for 1S_1s2_2s2 onto 1S_1s2_2p2 took 0.74 ms
    on a 2-core VM, so an inequivalent pair would run for about 26 hours.
    """
    ma, mb = state_a.model, state_b.model
    if ma is None or mb is None:
        raise ValueError("both states need evaluable models")
    n = ma.n_particles
    if mb.n_particles != n:
        raise ValueError("states have different particle counts")
    if n > 2:
        raise ValueError(
            f"an exhaustive search over {48 ** n * math.factorial(n):,} "
            f"candidate transforms (48^N N!, N = {n}); only N <= 2 is searched")

    probe = _sample_points(state_a, 512, seed, thin=4)
    sa, keep = _sign_off_node(ma, probe)
    probe, sa = probe[keep], sa[keep]

    blocks48 = _signed_permutations()
    for perm in permutations(range(n)):
        for combo in product(range(len(blocks48)), repeat=n):
            t = TransformSpec.from_blocks([blocks48[i] for i in combo], perm)
            sb, ok = _sign_off_node(mb, t.apply(probe))
            if not np.any(ok):
                continue
            s = sa[ok] * sb[ok]
            if np.all(s == s[0]):
                confirm = test_node_equivalence(
                    state_a, state_b, t, n_points=20_000, seed=seed + 1)
                if confirm["verdict"] == "equivalent":
                    return t
    return None
