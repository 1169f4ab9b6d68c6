"""Monte Carlo estimators for the nodal-surface energy decomposition.

Shared conventions:

* every estimator call and every Metropolis walk owns one RNG stream,
  seeded from (seed, stream tag), so results depend only on the seed and
  the chain count.  An i.i.d. call draws _CHUNK rows at a time and passes
  each block on with its rows' indices r in the stream.  Row r is draw
  r % n of chain r // n, so the chains are disjoint runs of one stream;
  _Blocks alone maps a row to its chain and block.  One worker thread
  draws the call's next block while the current one is evaluated
  (_iid_stream); it alone draws from the stream, in stream order, so no
  result depends on it.  A walk draws its chains' starting points in one
  call, then one array of uniforms per step.  Memory is bounded by _CHUNK
  (two blocks in flight) and the chain count, not by the sample budget;
* the standard expectations <T> and <V>, pot_nda (the ratio of the
  integrals of V |Psi| and |Psi|) and the integral of |Psi| are
  importance ratios on i.i.d. draws from the state's reference density g,
  whose weights |Psi| / g and Psi^2 / g have every moment finite; each
  controlled ratio is that of pooled means (_Blocks with control
  columns).  burn_in only sizes the draws of pot and std: a pot chain
  draws steps_per_chain - burn_in rows, a std chain one per
  _STEPS_PER_STD_DRAW of those.  The node surface draws its own
  parameters;
* one Metropolis law remains: metropolis_samples walks Psi^2 for the
  topology module's points, one plain loop of steps that moves every
  chain with one model call.  The walk sets its proposal width during
  burn-in, updating it every _ADAPT steps toward acceptance 0.5 from its
  start at half the RMS coordinate of its starting points; the kept steps
  use the width burn-in ends with;
* every estimator adds per-row arrays, one per estimate, and a mask of
  the rows it keeps (None keeps all) by their stream indices into one
  _Blocks accumulator, which splits each chain's draws into 50 blocks,
  counts the rejected rows and gives the NdaEstimates.  _iid_average adds
  integrand(x) -> (ok, values) on each block of draws, and the shell adds
  the blocks of _iid_stream after its pilot;
* the delta shell selects by the node-distance proxy |Psi| / |grad Psi|;
  the zero-width intercept of the line in eps^2 through its rung averages
  is a fixed combination of them, so its kin is one pooled ratio; its
  pilot draws set the ladder and then count like the others;
* chains are combined by a plain mean (a ratio: the ratio of the pooled
  means, with the delta-method stderr); at every chain count the quoted
  stderr is the scatter of the n_chains x 50 block means of the integrand,
  or of a ratio's residual (_block_stderr; Flyvbjerg & Petersen 1989);
* the standard expectations and pot_nda carry two zero-variance control
  columns each (Assaraf & Caffarel 1999; ZV-MCMC, Mira, Solgi & Imparato
  2013).  For a field F, the integral of div(rho F) is 0 for rho = Psi^2
  and for rho = |Psi|, which is continuous and vanishes on the node, so
  rho (div F + F . grad ln rho) integrates to 0.  F = sum_i x_i / r_i and
  F = x give rho c_rad and rho c_lin from the radial derivatives
  x_i . grad_i Psi, with no division by Psi (_control_columns); over g
  they are columns of mean 0 under g.  A controlled _Blocks estimate is
  always a ratio on the weight: it fits the integrand on the regressors
  (the weight and the columns) leave one chain out by a k x k Cramer solve
  (_loo_betas), subtracts the columns' terms before the chain means and
  the stderr, and floors the controlled stderr at the float rounding of
  the sums.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass, replace
from itertools import chain, islice
from typing import Callable, Iterator, Optional

import numpy as np

from . import wavefunctions as wf
from .catalog import StateSpec
from .hamiltonians import potential_batch
from .quadrature import quadrature_oracle

__all__ = [
    "SamplerConfig",
    "NdaEstimate",
    "estimate_pot_nda",
    "estimate_kin_nda_surface",
    "estimate_kin_nda_shell",
    "estimate_abs_norm",
    "estimate_standard_expectations",
    "quadrature_estimate",
    "metropolis_samples",
]

_CHUNK = 2048   # i.i.d. draws per block
_BLOCKS = 50
_STEPS_PER_STD_DRAW = 4  # post-burn-in steps per i.i.d. draw of std
_ADAPT = 16    # burn-in steps per Metropolis proposal-width update
_MASK64 = (1 << 64) - 1
_UNIT_ROUNDOFF = np.finfo(float).eps / 2

# stream tags keep the estimators' random streams disjoint for a given seed
_TAG_POT = 11
_TAG_STD = 12
_TAG_ABS = 13
_TAG_SURFACE = 14
_TAG_SHELL = 15
_TAG_TOPOLOGY = 16


@dataclass(frozen=True)
class SamplerConfig:
    """Monte Carlo budget and reproducibility knobs.

    burn_in defaults to 10% of steps_per_chain.  It sizes the i.i.d.
    draws of pot and std, which need no burn-in (steps_per_chain - burn_in
    per chain for pot, one per _STEPS_PER_STD_DRAW of those for std), and
    is the burn-in of the topology walk (metropolis_samples), which adapts
    its proposal width only during burn-in: burn_in=0 keeps the starting
    width.  No CLI flag sets it; the topology module sizes its own walk.
    """

    n_chains: int = 8
    steps_per_chain: int = 200_000
    burn_in: Optional[int] = None
    seed: int = 20260801

    def __post_init__(self):
        if self.n_chains < 1:
            raise ValueError("n_chains must be >= 1")
        if self.steps_per_chain < 2:
            raise ValueError("steps_per_chain must be >= 2")
        if self.burn_in is not None and not (
                0 <= self.burn_in < self.steps_per_chain):
            raise ValueError("burn_in must satisfy 0 <= burn_in < steps_per_chain")

    def resolved_burn_in(self) -> int:
        if self.burn_in is not None:
            return self.burn_in
        return self.steps_per_chain // 10


@dataclass(frozen=True)
class NdaEstimate:
    """One scalar estimate.  status is "ok", "warning: ...", or "unconverged".

    n_rejected counts the samples an estimator dropped (a singular
    potential, or an electron at the nucleus, where a control column is
    not finite); they are not in n_samples.  stderr_uncontrolled is the
    stderr of the controlled estimators (the standard expectations kin_std
    and pot_std, and pot_nda) before their control variates were
    subtracted; None for the other methods.
    """

    mean: float
    stderr: float
    n_samples: int
    n_chains: int
    seed: int
    method: str
    status: str = "ok"
    n_rejected: int = 0
    stderr_uncontrolled: Optional[float] = None


# --------------------------------------------------------------------------
# chain streams and errors


def _stream(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed & _MASK64, tag)))


def _block_stderr(block_sums: np.ndarray, block_counts: np.ndarray) -> float:
    """The stderr of a mean by blocking: the scatter of the nonempty
    (chain, block) means over the square root of their number (Flyvbjerg &
    Petersen 1989), 0 below two blocks.

    The means are divided by the power of two at their largest magnitude
    before np.std and the result multiplied back: the squared deviations
    then neither overflow nor underflow at any scale of the state (an
    extreme Z), and the scaling is exact, so every other stderr keeps its
    bits.
    """
    ok = block_counts > 0
    means = block_sums[ok] / block_counts[ok]
    if means.size < 2:
        return 0.0
    exponent = np.frexp(np.max(np.abs(means)))[1]
    scaled = np.ldexp(means, -exponent)
    return float(np.ldexp(np.std(scaled, ddof=1) / np.sqrt(means.size), exponent))


def _model(state: StateSpec):
    if state.model is None:
        raise ValueError(f"state {state.name!r} has no evaluable model")
    return state.model


class _Blocks:
    """Per-(chain, block) sums of n_values integrands, with their counts.

    Rows are added by their index r in the call's stream, row r being draw
    r % n_per_chain of chain r // n_per_chain, and each chain's draws are
    split into _BLOCKS blocks: row r lands in cell r * _BLOCKS //
    n_per_chain of the chain-major (chain, block) cells, which is block
    (r % n_per_chain) * _BLOCKS // n_per_chain of chain r // n_per_chain.
    np.add.at adds in index order, so every block sums its rows in the
    order they are added, and the estimators add them in stream order.

    The added arrays are the n_values integrands and, with n_controls
    control columns, a weight w and then the columns, of known mean 0.  An
    estimate is the mean of the chain means of an integrand or, with
    control columns, the controlled ratio of its pooled mean to w's
    (_controlled, _reduce); add then also sums each chain's |term| of
    every array, in row order, for the rounding floor.
    """

    def __init__(self, n_chains: int, n_per_chain: int, n_values: int = 1,
                 n_controls: int = 0):
        self.n_per_chain = n_per_chain
        self.n_values = n_values
        self.n_controls = n_controls
        n_arrays = n_values + (1 + n_controls if n_controls else 0)
        self.sums = np.zeros((n_arrays, n_chains, _BLOCKS))
        self.counts = np.zeros((n_chains, _BLOCKS), dtype=np.int64)
        self.rejected = 0
        if n_controls:
            self.magnitudes = np.zeros((n_arrays, n_chains))

    def add(self, rows: np.ndarray, values: tuple,
            ok: Optional[np.ndarray] = None) -> None:
        """Add values at the stream indices rows; rows outside the mask ok
        are counted as rejected."""
        flat = rows * _BLOCKS // self.n_per_chain
        if ok is None:
            np.add.at(self.counts.reshape(-1), flat, 1)
        else:
            np.add.at(self.counts.reshape(-1), flat, ok)
            self.rejected += flat.size - int(np.count_nonzero(ok))
            values = [np.where(ok, w, 0.0) for w in values]
        for bsum, w in zip(self.sums, values):
            np.add.at(bsum.reshape(-1), flat, w)
        if self.n_controls:
            chains = flat // _BLOCKS
            for mag, w in zip(self.magnitudes, values):
                np.add.at(mag, chains, np.abs(w))

    def _chain_counts(self) -> np.ndarray:
        counts = self.counts.sum(axis=1)
        if (counts == 0).any():
            raise RuntimeError("a chain collected no valid samples")
        return counts

    def _controlled(self) -> tuple:
        """(block sums, floors) of the integrands less their control terms.

        The regressors are the arrays after the integrands: the weight w
        and the control columns.  Chain c's coefficients beta_c are the
        weighted least-squares slopes (with an intercept) of the integrand's
        count-weighted (chain, block) means on the regressors' means over
        the other chains' blocks (_loo_betas), so that no chain's own noise
        enters its coefficients; beta = 0 with one chain.  Each integrand's block sums become sums - beta_c . (the
        control columns' block sums); w is fitted too, so that the columns'
        slopes are those of the ratio's residual, but its term stays.  Its
        floor bounds the float rounding of those sums: a chain's mean of n
        terms t is a recursive sum, off by at most (n - 1) u sum |t| / n <
        u sum |t| (u the unit roundoff), and the floor is that bound
        averaged over the chains, with sum |t| <= sum |integrand| +
        |beta_c| . sum |column|.
        """
        n = self.n_values
        ys, xs = self.sums[:n], self.sums[n:]
        beta = _loo_betas(ys, xs, self.counts)          # (n_values, C, k)
        controlled, mags = ys, self.magnitudes[:n]
        for j in range(1, len(xs)):
            controlled = controlled - beta[..., j, None] * xs[j]
            mags = mags + np.abs(beta[..., j]) * self.magnitudes[n + j]
        return controlled, _UNIT_ROUNDOFF * mags.mean(axis=1)

    def _reduce(self, sums: np.ndarray, floor: Optional[float] = None) -> tuple:
        """(mean, stderr) of one integrand's block sums (C, B), the stderr
        floored at floor if one is given.

        The mean is the mean of the chain means.  With control columns it
        is the ratio of the pooled means
        r = sum_c mean_c(y) / sum_c mean_c(w), not the mean of per-chain
        ratios, whose bias is O(1 / draws per chain); its stderr is the
        delta-method one, that of the residual (y - r w) / mean_c(w), and
        the floor becomes (floor + |r| u sum |w|) / mean_c(w), the rounding
        of the residual's two sums.
        """
        counts = self._chain_counts()
        means = sums.sum(axis=1) / counts
        if not self.n_controls:
            mean = means.mean()
            stderr = _block_stderr(sums, self.counts)
        else:
            w_sums = self.sums[self.n_values]
            w = w_sums.sum(axis=1) / counts
            mean, w_mean = means.sum() / w.sum(), w.mean()
            stderr = _block_stderr((sums - mean * w_sums) / w_mean, self.counts)
            if floor is not None:
                w_mag = self.magnitudes[self.n_values].mean()
                floor = (floor + abs(mean) * _UNIT_ROUNDOFF * w_mag) / w_mean
        return float(mean), stderr if floor is None else max(stderr, floor)

    def estimates(self, cfg: SamplerConfig, method: str) -> list:
        """One NdaEstimate per integrand, controlled when the blocks hold
        control columns; stderr_uncontrolled is then the stderr without
        them."""
        n = self.n_values
        sums, floors, raw = self.sums[:n], [None] * n, [None] * n
        if self.n_controls:
            raw = [self._reduce(y)[1] for y in sums]
            sums, floors = self._controlled()
        out = []
        for y, floor, raw_stderr in zip(sums, floors, raw):
            mean, stderr = self._reduce(y, floor)
            out.append(NdaEstimate(
                mean=mean,
                stderr=stderr,
                n_samples=int(self.counts.sum()),
                n_chains=cfg.n_chains,
                seed=cfg.seed,
                method=method,
                n_rejected=self.rejected,
                stderr_uncontrolled=raw_stderr,
            ))
        return out


def _loo_betas(ys: np.ndarray, xs: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """(n_values, C, k) leave-one-chain-out regression coefficients.

    ys (n_values, C, B) and the k regressors xs (k, C, B) are block sums
    and counts (C, B) their row counts.  Per chain, the weighted moments of
    the block means (weights the counts) are the sums over blocks of n,
    S_i and S_i S_j / n; chain c's fit takes the totals over the chains
    less its own, centres them and solves the k x k normal equations by
    Cramer's rule.  A chain whose fit is degenerate (one chain, or
    regressors without spread) gets beta = 0.  Every row of ys and xs is
    first divided by the power of two at its largest magnitude and beta
    multiplied back: the squares then stay in the float range at any scale
    of the state (an extreme Z), and the scaling is exact, so every other
    beta keeps its bits.
    """
    C, k = counts.shape[0], len(xs)
    beta = np.zeros(ys.shape[:2] + (k,))
    if C < 2:
        return beta
    ys, ey = _scaled_rows(ys)
    xs, ex = _scaled_rows(xs)
    w = np.maximum(counts, 1)
    pairs = [(i, j) for i in range(k) for j in range(i, k)]

    def moments(*rows):
        """each row summed over blocks, every chain's total less its own"""
        m = np.stack(rows).sum(axis=2)
        return m.sum(axis=1, keepdims=True) - m

    n, *mom = moments(counts.astype(float), *xs,
                      *(xs[i] * xs[j] / w for i, j in pairs))
    s, q = mom[:k], dict(zip(pairs, mom[k:]))
    A = [[None] * k for _ in range(k)]
    for i, j in pairs:
        A[i][j] = A[j][i] = q[i, j] - s[i] * s[j] / n
    det = wf._det(A)
    good = np.isfinite(det) & (det > 0.0)
    for v, y in enumerate(ys):
        sy, *rhs = moments(y, *(x * y / w for x in xs))
        rhs = [r - si * sy / n for r, si in zip(rhs, s)]
        for j in range(k):
            Aj = [row[:j] + [r] + row[j + 1:] for row, r in zip(A, rhs)]
            beta[v, good, j] = wf._det(Aj)[good] / det[good]
    return np.ldexp(beta, (ey[:, None] - ex)[:, None, :])


def _scaled_rows(a: np.ndarray) -> tuple:
    """a (rows, C, B) with each row divided by 2^e, e the exponent of its
    largest magnitude (frexp), and the exponents e."""
    e = np.frexp(np.max(np.abs(a), axis=(1, 2)))[1]
    return np.ldexp(a, -e[:, None, None]), e


# --------------------------------------------------------------------------
# Metropolis walk (the topology module's points)


def metropolis_samples(state: StateSpec, cfg: SamplerConfig,
                       thin: int = 1) -> np.ndarray:
    """Thinned Psi^2-distributed configurations of a Metropolis walk of
    n_chains chains, the topology module's points.

    Returns an (n_kept_total, 3N) array: every thin-th post-burn-in step
    of chain 0, then of chain 1, and so on.  The walk is on the stream of
    _TAG_TOPOLOGY: the n_chains starting points (one density.sample call),
    then per step one (n_chains, 3N + 1) array of uniforms, every chain's
    3N proposal uniforms and its acceptance uniform.  A step moves every
    chain with one model call.

    The walk proposes uniform(-w, w) moves in every coordinate.  Its
    half-width w starts at half the RMS coordinate of its starting points,
    and after every _ADAPT-th burn-in step j it becomes
    w exp(3 (rate - 0.5) / sqrt(j / _ADAPT)), rate being the acceptance
    over those _ADAPT steps and all the chains (a Robbins-Monro step toward
    acceptance 0.5; Andrieu & Thoms 2008).  The kept steps share the width
    burn-in ends with, so the kept chain is a Metropolis chain with a fixed
    kernel.
    """
    if thin < 1:
        raise ValueError("thin must be a positive integer")
    model = _model(state)
    dim = 3 * model.n_particles
    C, steps = cfg.n_chains, cfg.steps_per_chain
    burn = cfg.resolved_burn_in()
    out = np.empty((C, (steps - burn + thin - 1) // thin, dim))
    rng = _stream(cfg.seed, _TAG_TOPOLOGY)
    x = state.reference_density.sample(rng, C)
    width = 0.5 * float(np.sqrt(np.mean(x * x)))
    log_width, accepted = math.log(width), 0
    v = model.values(x)
    t = v * v   # acceptance densities Psi^2
    for j in range(steps):
        u = rng.random((C, dim + 1))
        xp = x + (u[:, :dim] * (2 * width) - width)
        vp = model.values(xp)
        tp = vp * vp
        acc = u[:, dim] * t < tp
        x = np.where(acc[:, None], xp, x)
        t = np.where(acc, tp, t)
        if j < burn:
            accepted += int(np.count_nonzero(acc))
            if (j + 1) % _ADAPT == 0:
                rate = accepted / (_ADAPT * C)
                log_width += 3.0 * (rate - 0.5) / math.sqrt((j + 1) // _ADAPT)
                width, accepted = math.exp(log_width), 0
        elif (j - burn) % thin == 0:
            out[:, (j - burn) // thin] = x
    return out.reshape(-1, dim)


# --------------------------------------------------------------------------
# reference-ratio (independent-sample) estimators


def _iid_stream(cfg: SamplerConfig, tag: int, draw: Callable,
                n: int) -> Iterator[tuple]:
    """The call's n_chains * n i.i.d. draws as one stream.

    Draws draw(rng, m) in blocks of m <= _CHUNK rows from the stream of
    tag, and yields (rows, x) per block, rows the block's indices r in the
    stream; row r is draw r % n of chain r // n, a layout that _Blocks
    alone decodes.

    The stream draws one block ahead: a single worker thread draws block
    k + 1 while the caller evaluates block k (numpy's generator and ufunc
    loops release the GIL).  The worker is the only thread that touches
    rng and draws the blocks in stream order, so every result is the same
    as a serial draw's, bit for bit; two blocks are in flight at a time.
    The worker is joined when the stream ends, when the caller closes it,
    or when draw raises, whose exception reaches the caller.  The stream
    owns that thread, so a caller holds it in contextlib.closing: a stream
    left open, say in a local that a held traceback keeps, keeps its
    worker alive.
    """
    total = cfg.n_chains * n
    rng = _stream(cfg.seed, tag)

    def block(r0):
        rows = np.arange(r0, min(r0 + _CHUNK, total))
        return rows, draw(rng, rows.size)

    with ThreadPoolExecutor(1) as worker:
        ahead = worker.submit(block, 0)
        for r0 in range(_CHUNK, total, _CHUNK):
            current, ahead = ahead.result(), worker.submit(block, r0)
            yield current
        yield ahead.result()


def _iid_average(cfg: SamplerConfig, tag: int, draw: Callable,
                 integrand: Callable, n: Optional[int] = None,
                 **layout) -> _Blocks:
    """Block sums of integrand(rows) -> (ok, per-row arrays) over n draws
    per chain (steps_per_chain if None); layout is _Blocks' n_values and
    n_controls.  Fewer than two draws in all raise ValueError before the
    first: one block mean has no scatter to give a stderr."""
    n = n or cfg.steps_per_chain
    if cfg.n_chains * n < 2:
        raise ValueError(f"{cfg.n_chains} chains x {n} draws per chain = 1 "
                         "draw; an estimate needs at least 2")
    acc = _Blocks(cfg.n_chains, n, **layout)
    with closing(_iid_stream(cfg, tag, draw, n)) as blocks:
        for rows, x in blocks:
            ok, values = integrand(x)
            acc.add(rows, values, ok)
    return acc


def estimate_abs_norm(state: StateSpec,
                      cfg: Optional[SamplerConfig] = None) -> NdaEstimate:
    """Integral of |Psi| by importance ratio against the reference density g."""
    cfg = cfg or SamplerConfig()
    model, g = _model(state), state.reference_density

    def weight(x):
        return None, (np.abs(model.values(x)) / g.pdf(x),)

    return _iid_average(cfg, _TAG_ABS, g.sample, weight).estimates(
        cfg, "reference_ratio")[0]


def _control_columns(x: np.ndarray, a: np.ndarray, b: np.ndarray,
                     xg: np.ndarray) -> tuple:
    """rho c_rad and rho c_lin of the density rho = |Psi|^p at rows x, from
    a = rho, b = p |Psi|^(p - 1) sign(Psi) (Psi^2 and 2 Psi for p = 2,
    |Psi| and sign(Psi) for p = 1) and the radial derivatives xg (m, N),
    xg[:, i] = x_i . grad_i Psi.

    rho c_rad = sum_i (2 a + b x_i . grad_i Psi) / r_i and
    rho c_lin = 3N a + b x . grad Psi are rho (div F + F . grad ln rho)
    for F = sum_i x_i / r_i and F = x, whose integrals are 0; divided by
    g they have mean 0 under g.  No division by Psi; the first is not
    finite where an r_i is 0.
    """
    n_particles = xg.shape[1]
    r = wf._norms(x.reshape(-1, n_particles, 3))
    with np.errstate(divide="ignore", invalid="ignore"):
        rad = wf._row_sums((2.0 * a[:, None] + b[:, None] * xg) / r)
    return rad, 3.0 * n_particles * a + b * wf._row_sums(xg)


def estimate_standard_expectations(state: StateSpec,
                                   cfg: Optional[SamplerConfig] = None) -> dict:
    """Standard quantum expectations <T> and <V> over the density Psi^2,
    controlled importance ratios on i.i.d. draws from the reference
    density g (method "reference_ratio").

    Each draw x gives the weight w = Psi(x)^2 / g(x) and the numerators
    -Psi lap(Psi) / (2 g), w times the local kinetic energy
    -lap(Psi) / (2 Psi), and V w.  Every chain draws
    ceil((steps_per_chain - burn_in) / _STEPS_PER_STD_DRAW) rows, a
    quarter of pot's, since a row costs a Laplacian; an i.i.d. draw needs
    no burn-in and has no start-up bias.

    Control variates.  For a field F with Psi^2 F decaying at infinity the
    integral of div(Psi^2 F) is 0, so Psi^2 div F + 2 Psi F . grad Psi
    over g is a column of mean 0 under g.  One evaluation of the values,
    radial derivatives x_i . grad_i Psi and Laplacians gives two:
    w c_rad = sum_i (2 Psi^2 + 2 Psi x_i . grad_i Psi) / (r_i g)
    (F = x_i / r_i for every electron) and
    w c_lin = (3N Psi^2 + 2 Psi x . grad Psi) / g (F = x).  Nothing
    divides by Psi, so no row near the node is dropped; a row with an
    r_i = 0 (and any non-finite potential: coincident particles) is
    rejected and counted.  For a hydrogenic orbital r^l exp(-a r) both
    the local kinetic energy and the nuclear potential are affine in
    c_rad, and a harmonic potential in c_lin.

    As for pot_nda, each numerator is regressed on (w, w c_rad, w c_lin)
    per chain, leave one chain out (_Blocks._controlled); the two column
    terms are subtracted and the estimate is the ratio of the pooled means
    of the controlled numerator and of w, with the delta-method stderr of
    the controlled residual, floored at the float rounding of its sums: on
    seven model states (2P_2p, the 2p^2 trio, harmonic_noninteracting,
    subshell_k1_l1 and subshell_k1_l2) the controlled ratios are exact and
    their scatter is rounding.  stderr_uncontrolled keeps the stderr
    without the columns; with one chain the two agree.
    """
    cfg = cfg or SamplerConfig()
    model, g, h = _model(state), state.reference_density, state.hamiltonian()

    def integrand(x):
        v, xg, lap = model.evaluate(x, grad=True, lap=True, radial=True)
        dens = g.pdf(x)
        w = v * v / dens
        rad, lin = (c / dens for c in _control_columns(x, v * v, 2.0 * v, xg))
        V = potential_batch(h, x)
        ok = np.isfinite(V) & np.isfinite(rad) & np.isfinite(lin)
        return ok, (-0.5 * v * lap / dens, V * w, w, rad, lin)

    kept = cfg.steps_per_chain - cfg.resolved_burn_in()
    acc = _iid_average(cfg, _TAG_STD, g.sample, integrand,
                       -(-kept // _STEPS_PER_STD_DRAW),
                       n_values=2, n_controls=2)
    kin, pot = acc.estimates(cfg, "reference_ratio")
    return {"kin": kin, "pot": pot}


def estimate_pot_nda(state: StateSpec,
                     cfg: Optional[SamplerConfig] = None) -> NdaEstimate:
    """E_pot^nda = integral V |Psi| / integral |Psi|, a controlled
    importance ratio on i.i.d. draws from the reference density g.

    Each draw x gives the weight w = |Psi(x)| / g(x) and V(x) w; g is
    normalized exactly and w has every moment finite.  Every chain draws
    steps_per_chain - burn_in rows, as many as a Metropolis walk of the
    same config keeps: an i.i.d. draw needs no burn-in.

    Control variates.  |Psi| is continuous and vanishes on the node, so
    for a field F with |Psi| F decaying at infinity the integral of
    div(|Psi| F) is 0 over every nodal domain, with no surface term, and
    div F + F . grad ln|Psi| has mean 0 under |Psi|.  Times w, that is a
    column of mean 0 under g.  One radial-derivative evaluation
    (x_i . grad_i Psi per electron) gives two:
    w c'_rad = sum_i (2 |Psi| + sign(Psi) x_i . grad_i Psi) / (r_i g)
    (F = x_i / r_i for every electron) and
    w c'_lin = (3N |Psi| + sign(Psi) x . grad Psi) / g (F = x).  Neither
    divides by Psi, so no row near the node is dropped; a row with an
    r_i = 0 (and any non-finite potential: coincident particles) is
    rejected and counted.  For a hydrogenic orbital r^l exp(-a r) the
    nuclear potential is affine in c'_rad, and a harmonic one in c'_lin.

    The fit regresses V w on (w, w c'_rad, w c'_lin) per chain, leave one
    chain out (_Blocks._controlled), subtracts the two column terms, and
    takes the ratio of the pooled means of the controlled V w and of w.
    The stderr is the delta-method one of the controlled residual, floored
    at the float rounding of its sums: on seven model states (2P_2p, the
    2p^2 trio, harmonic_noninteracting, subshell_k1_l1 and subshell_k1_l2)
    the controlled ratio is exact and its scatter is rounding.
    stderr_uncontrolled keeps the stderr without the columns; with one
    chain there is nothing to fit on and the two agree.
    """
    cfg = cfg or SamplerConfig()
    model, g, h = _model(state), state.reference_density, state.hamiltonian()

    def integrand(x):
        v, xg, _ = model.evaluate(x, grad=True, radial=True)
        dens = g.pdf(x)
        w = np.abs(v) / dens
        rad, lin = (c / dens for c in
                    _control_columns(x, np.abs(v), np.sign(v), xg))
        V = potential_batch(h, x)
        ok = np.isfinite(V) & np.isfinite(rad) & np.isfinite(lin)
        return ok, (V * w, w, rad, lin)

    acc = _iid_average(cfg, _TAG_POT, g.sample, integrand,
                       cfg.steps_per_chain - cfg.resolved_burn_in(),
                       n_controls=2)
    return acc.estimates(cfg, "reference_ratio")[0]


# --------------------------------------------------------------------------
# kinetic estimators


def estimate_kin_nda_surface(state: StateSpec,
                             cfg: Optional[SamplerConfig] = None) -> NdaEstimate:
    """E_kin^nda from the parametrized node: surface integral / volume integral.

    The numerator draws importance samples directly on the nodal set using
    the state's exact NodeParametrization; the denominator reuses
    estimate_abs_norm.  Errors combine in quadrature.
    """
    cfg = cfg or SamplerConfig()
    model = _model(state)
    param = state.node_param
    if param is None:
        raise ValueError(
            f"state {state.name!r} has no explicit node parametrization; "
            "use the delta-shell estimator")

    def weight(params):
        coords, dS, grad_norm = param.measure_map(params)
        w = dS / param.proposal_pdf(params)
        if grad_norm is None or param.model is not model:
            grad_norm = np.linalg.norm(model.gradients(coords), axis=1)
        return None, (w * grad_norm,)

    num = _iid_average(cfg, _TAG_SURFACE, param.draw_params,
                       weight).estimates(cfg, "surface_param")[0]
    den = estimate_abs_norm(state, cfg)
    if not np.isfinite(den.mean) or den.mean <= 0.0:
        raise ValueError("zero denominator: integral of |Psi| estimated <= 0")

    mean = num.mean / den.mean
    rel = np.hypot(num.stderr / num.mean if num.mean != 0.0 else 0.0,
                   den.stderr / den.mean)
    return replace(num, mean=mean, stderr=abs(mean) * float(rel),
                   n_samples=num.n_samples + den.n_samples)


def estimate_kin_nda_shell(state: StateSpec,
                           cfg: Optional[SamplerConfig] = None) -> NdaEstimate:
    """E_kin^nda from a thin shell about the node, extrapolated to zero width.

    Samples are drawn iid from the reference density g, and the shell is
    selected by the node-distance proxy d = |Psi| / |grad Psi|.  For each
    ladder epsilon_k the surface integral is the g-average of
    1{d < eps_k} |grad Psi| / (2 eps_k g).  The least-squares intercept in
    eps^2 of the K = 4 rung averages is the fixed combination sum_k c_k of
    them, c_k = 1/K - xbar (x_k - xbar) / sum_j (x_j - xbar)^2 with
    x_k = (eps_k / eps_0)^2 = 4^-k, so kin is the ratio of the pooled
    means of y = (|grad Psi| / g) sum_k c_k 1{d < eps_k} / (2 eps_k), which
    is 0 outside the widest rung, and of |Psi| / g, with the delta-method
    stderr of the residual y - kin |Psi| / g (_block_stderr).  Fewer than
    100 hits in the narrowest rung mark the estimate "unconverged".  The
    pilot, the stream's first n_chains * min(_CHUNK, steps_per_chain)
    draws, is evaluated first and sets the ladder eps_0 2^-k, k = 0..3,
    eps_0 the 1 % quantile of its d.  Its rows then enter the averages like
    any other.
    """
    cfg = cfg or SamplerConfig()
    model, g = _model(state), state.reference_density

    def evaluate(x):
        v, grads, _ = model.evaluate(x, grad=True)
        av, dens = np.abs(v), g.pdf(x)
        gn = np.sqrt(np.einsum("ij,ij->i", grads, grads))
        return av / np.maximum(gn, 1e-300), gn / dens, av / dens

    with closing(_iid_stream(cfg, _TAG_SHELL, g.sample,
                             cfg.steps_per_chain)) as blocks:
        stream = ((rows, evaluate(x)) for rows, x in blocks)
        pilot = list(islice(stream, cfg.n_chains))  # blocks of _CHUNK draws
        d0 = np.concatenate([p[1][0] for p in pilot])
        eps0 = float(np.quantile(d0, 0.01))
        if eps0 <= 0.0:
            raise RuntimeError("could not scale the epsilon ladder: node "
                               "distance quantile vanished")
        ladder = eps0 * 0.5 ** np.arange(4)
        xs = 0.25 ** np.arange(ladder.size)
        dx = xs - xs.mean()
        rung_weights = ((1.0 / xs.size - xs.mean() * dx / np.sum(dx * dx))
                        / (2.0 * ladder))
        # every draw adds |Psi| / g; y and the narrowest rung's hits are
        # zero outside the widest rung, so only its rows are added
        acc = _Blocks(cfg.n_chains, cfg.steps_per_chain)
        shell = _Blocks(cfg.n_chains, cfg.steps_per_chain, 2)
        for rows, (d, gw, aw) in chain(pilot, stream):
            acc.add(rows, (aw,))
            hit = np.flatnonzero(d < ladder[0])
            inside = d[hit] < ladder[:, None]               # (rungs, hit)
            shell.add(rows[hit], (gw[hit] * (rung_weights @ inside), inside[-1]))
    (w,), (y, narrow) = acc.sums, shell.sums
    kin = y.sum() / w.sum()
    w_mean = w.sum() / acc.counts.sum()
    return NdaEstimate(
        mean=float(kin),
        stderr=float(_block_stderr(y - kin * w, acc.counts) / w_mean),
        n_samples=int(acc.counts.sum()),
        n_chains=cfg.n_chains,
        seed=cfg.seed,
        method="delta_shell",
        status="ok" if narrow.sum() >= 100 else "unconverged",
    )


# --------------------------------------------------------------------------
# deterministic wrapper


def quadrature_estimate(state: StateSpec, target: str) -> NdaEstimate:
    """quadrature_oracle result wrapped as a zero-error NdaEstimate."""
    value = quadrature_oracle(state, target)
    return NdaEstimate(
        mean=float(value), stderr=0.0, n_samples=0, n_chains=0, seed=0,
        method="quadrature",
    )
