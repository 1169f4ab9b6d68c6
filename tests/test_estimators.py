"""Sampler correctness, reproducibility, and failure modes.

The statistical assertions run at small budgets with fixed seeds, so they are
deterministic; the 3-sigma margins quoted in comments were checked once at
much larger budgets.
"""

import dataclasses
import math
import threading
import tracemalloc

import numpy as np
import pytest

import nda.estimators as estimators
import nda.wavefunctions as wf
from nda.catalog import ReferenceDensity, catalog_list, get_state
from nda.estimators import (SamplerConfig, estimate_abs_norm,
                            estimate_kin_nda_shell, estimate_kin_nda_surface,
                            estimate_pot_nda, estimate_standard_expectations,
                            metropolis_samples, quadrature_estimate)
from nda.quadrature import quadrature_oracle

FAST = SamplerConfig(n_chains=4, steps_per_chain=20_000, seed=7)
MODEL_STATES = ([s.name for s in catalog_list() if s.model]
                + ["subshell_k1_l1", "subshell_k1_l2"])


# ---------------------------------------------------------------- config


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(n_chains=0)
    with pytest.raises(ValueError):
        SamplerConfig(steps_per_chain=1)
    with pytest.raises(ValueError):
        SamplerConfig(burn_in=20_000, steps_per_chain=20_000)


def test_burn_in_default_is_ten_percent():
    assert SamplerConfig(steps_per_chain=50_000).resolved_burn_in() == 5_000
    assert SamplerConfig(steps_per_chain=50_000, burn_in=123).resolved_burn_in() == 123


# ----------------------------------------------------- determinism


def test_same_seed_bitwise_identical():
    st = get_state("3P_2p2")
    a = estimate_pot_nda(st, cfg=FAST)
    b = estimate_pot_nda(st, cfg=FAST)
    assert a.mean == b.mean and a.stderr == b.stderr


def test_different_seeds_differ():
    st = get_state("2P_2p")
    a = estimate_pot_nda(st, cfg=FAST)
    b = estimate_pot_nda(st, cfg=dataclasses.replace(FAST, seed=8))
    assert a.mean != b.mean


def _rescaled(st, c):
    """The state with its model times c: every term coefficient times c."""
    m = st.model
    terms = [wf.Term(coeff=c * t.coeff, blocks=t.blocks) for t in m.terms]
    return dataclasses.replace(
        st, model=wf.SlaterProduct(terms, m.n_particles, m.parameters))


def test_constant_rescaling_is_exact():
    """nda components are scale-free; abs_norm scales by |c| to the bit."""
    st = get_state("3S_1s2s")
    for c in (4.0, -4.0):  # powers of two keep float arithmetic exact
        sc = _rescaled(st, c)
        assert estimate_pot_nda(st, cfg=FAST).mean == estimate_pot_nda(sc, cfg=FAST).mean
        assert (estimate_kin_nda_surface(st, cfg=FAST).mean
                == estimate_kin_nda_surface(sc, cfg=FAST).mean)
        assert (estimate_kin_nda_shell(st, cfg=FAST).mean
                == estimate_kin_nda_shell(sc, cfg=FAST).mean)
        a, b = estimate_abs_norm(st, cfg=FAST), estimate_abs_norm(sc, cfg=FAST)
        assert abs(c) * a.mean == b.mean


# ----------------------------------------------------- accuracy (small budget)


def test_pot_nda_hits_exact_value():
    st = get_state("2P_2p")
    est = estimate_pot_nda(st, cfg=FAST)
    assert est.status == "ok"
    assert abs(est.mean - (-1.0 / 6.0)) < 3 * est.stderr


def test_standard_expectations_hit_exact_values():
    st = get_state("2P_2p")
    out = estimate_standard_expectations(st, cfg=FAST)
    assert abs(out["kin"].mean - 0.125) < 3 * out["kin"].stderr
    assert abs(out["pot"].mean - (-0.25)) < 3 * out["pot"].stderr
    assert out["kin"].method == "reference_ratio"


def test_abs_norm_matches_quadrature():
    st = get_state("3S_1s2s")
    est = estimate_abs_norm(st, cfg=FAST)
    exact = quadrature_oracle(st, "abs_norm")
    assert abs(est.mean - exact) < 3 * est.stderr
    assert est.method == "reference_ratio"


def test_surface_and_shell_agree():
    st = get_state("2P_2p")
    surf = estimate_kin_nda_surface(st, cfg=FAST)
    shell = estimate_kin_nda_shell(st, cfg=FAST)
    tol = 3 * np.hypot(surf.stderr, shell.stderr)
    assert abs(surf.mean - shell.mean) < tol
    assert surf.method == "surface_param" and shell.method == "delta_shell"


def test_quadrature_estimate_wrapper():
    est = quadrature_estimate(get_state("3P_2p2"), "kin_nda")
    assert est.stderr == 0.0 and est.method == "quadrature"
    assert abs(est.mean - 1.0 / 12.0) < 1e-8


# ----------------------------------------------------- failure modes


def test_surface_requires_a_parametrization():
    st = dataclasses.replace(get_state("2P_2p"), node_param=None)
    with pytest.raises(ValueError):
        estimate_kin_nda_surface(st, cfg=FAST)


def test_shell_needs_two_chains():
    st = get_state("2P_2p")
    with pytest.raises(ValueError):
        estimate_kin_nda_shell(st, cfg=SamplerConfig(n_chains=1, steps_per_chain=1000))


def test_shell_flags_starved_ladder_as_unconverged():
    st = get_state("2P_2p")
    cfg = SamplerConfig(n_chains=2, steps_per_chain=500, seed=1)
    est = estimate_kin_nda_shell(st, cfg=cfg)
    assert est.status == "unconverged"


@pytest.mark.parametrize("name", [s.name for s in catalog_list() if s.model]
                         + ["subshell_k1_l1", "subshell_k1_l2"])
def test_adapted_walks_accept_half_and_hit_exact_values(name):
    """On every model state, the subshell models included, the topology
    walk started at half the RMS starting coordinate accepts 0.45 to 0.55
    of its kept moves (a uniform proposal never moves a chain by exactly
    0, so a move is accepted where a kept step differs from the one
    before), and pot_nda, kin_std and pot_std lie within the t_15 quantile
    for p = 1e-4 (5.24 stderr) of their exact values."""
    st = get_state(name)
    cfg = SamplerConfig(n_chains=16, steps_per_chain=20_000)
    walk = metropolis_samples(st, SamplerConfig(n_chains=16, steps_per_chain=4000))
    walk = walk.reshape(16, -1, walk.shape[-1])
    rate = np.mean(np.any(walk[:, 1:] != walk[:, :-1], axis=2))
    assert 0.45 <= rate <= 0.55, rate
    std = estimate_standard_expectations(st, cfg=cfg)
    got = {"pot_nda": estimate_pot_nda(st, cfg=cfg),
           "kin_std": std["kin"], "pot_std": std["pot"]}
    exact = {"pot_nda": st.exact_nda["pot"]}
    if st.exact_standard is not None:
        exact.update(kin_std=st.exact_standard["kin"],
                     pot_std=st.exact_standard["pot"])
    for key, value in exact.items():
        est = got[key]
        assert est.status == "ok", key
        assert abs(est.mean - float(value)) < 5.24 * est.stderr, (key, est)


def test_missing_model_rejected():
    from nda.catalog import subshell_family
    st = subshell_family(1, 30)  # reference-only, no evaluable model
    with pytest.raises(ValueError):
        estimate_pot_nda(st, cfg=FAST)


def _stream(seed, tag):
    """The generator of one walk or one i.i.d. call, built independently of
    the engine."""
    return np.random.default_rng(np.random.SeedSequence((seed & (2 ** 64 - 1), tag)))


def _reference_walk(state, cfg, thin, tag):
    """The Psi^2 Metropolis walk drawn one step at a time: the stream gives the
    chains' starting points, then per step one (chains, 3N + 1) array of
    uniforms, the proposal noise and then the acceptance uniform of every
    chain.  The half-width starts at half the RMS starting coordinate;
    after burn-in step j, j a multiple of 16, its log moves by
    3 (rate - 0.5) / sqrt(j / 16), rate being the acceptance of the last
    16 steps.  Yields the chains' x at every thin-th kept step."""
    model = state.model
    dim = 3 * model.n_particles
    steps, burn = cfg.steps_per_chain, cfg.resolved_burn_in()
    rng = _stream(cfg.seed, tag)
    x = state.reference_density.sample(rng, cfg.n_chains)
    step = 0.5 * float(np.sqrt(np.mean(x * x)))
    log_step, n_accepted = math.log(step), 0
    v = model.values(x)
    t = v * v
    for j in range(steps):
        u = rng.random((cfg.n_chains, dim + 1))
        xp = x + (-step + 2 * step * u[:, :dim])
        vp = model.values(xp)
        tp = vp * vp
        acc = u[:, dim] * t < tp
        x = np.where(acc[:, None], xp, x)
        t = np.where(acc, tp, t)
        n_accepted += int(acc.sum())
        if j + 1 <= burn and (j + 1) % 16 == 0:
            rate = n_accepted / (16 * cfg.n_chains)
            log_step += 3.0 * (rate - 0.5) / math.sqrt((j + 1) // 16)
            step, n_accepted = math.exp(log_step), 0
        if j >= burn and (j - burn) % thin == 0:
            yield x


def _reference_metropolis_samples(state, cfg, thin, tag):
    kept = list(_reference_walk(state, cfg, thin, tag))
    return np.stack(kept, axis=1).reshape(-1, kept[0].shape[1])


def _reference_reduce(bsum, bcnt, rejected):
    counts = bcnt.sum(axis=1)
    chain_means = bsum.sum(axis=1) / counts
    return (float(chain_means.mean()),
            estimators._stderr_from_chains(chain_means, bsum, bcnt),
            int(counts.sum()), int(rejected.sum()), None)


def _pot_rows(state):
    """x -> (V w, w, w c'_rad, w c'_lin) per row, w = |Psi| / g, from the
    radial derivatives x_i . grad_i Psi."""
    g, model, h = state.reference_density, state.model, state.hamiltonian()
    N = model.n_particles

    def rows(x):
        v, xg, _ = model.evaluate(x, grad=True, radial=True)
        dens, av, sign = g.pdf(x), np.abs(v), np.sign(v)
        with np.errstate(divide="ignore", invalid="ignore"):
            rad = [(2.0 * av + sign * xg[:, i])
                   / np.linalg.norm(x[:, 3 * i:3 * i + 3], axis=1)
                   for i in range(N)]
        c_rad, c_lin = rad[0], xg[:, 0]
        for i in range(1, N):
            c_rad, c_lin = c_rad + rad[i], c_lin + xg[:, i]
        w = av / dens
        return np.stack([estimators.potential_batch(h, x) * w, w,
                         c_rad / dens, (3.0 * N * av + sign * c_lin) / dens], 1)
    return rows


def _std_rows(state):
    """x -> (-Psi lap(Psi) / (2 g), V w, w, w c_rad, w c_lin) per row,
    w = Psi^2 / g, from one evaluation of the values, radial derivatives
    x_i . grad_i Psi and Laplacians."""
    g, model, h = state.reference_density, state.model, state.hamiltonian()
    N = model.n_particles

    def rows(x):
        v, xg, lap = model.evaluate(x, grad=True, lap=True, radial=True)
        dens, v2 = g.pdf(x), v * v
        with np.errstate(divide="ignore", invalid="ignore"):
            rad = [(2.0 * v2 + 2.0 * v * xg[:, i])
                   / np.linalg.norm(x[:, 3 * i:3 * i + 3], axis=1)
                   for i in range(N)]
        c_rad, c_lin = rad[0], xg[:, 0]
        for i in range(1, N):
            c_rad, c_lin = c_rad + rad[i], c_lin + xg[:, i]
        w = v2 / dens
        return np.stack([-0.5 * v * lap / dens,
                         estimators.potential_batch(h, x) * w, w,
                         c_rad / dens, (3.0 * N * v2 + 2.0 * v * c_lin) / dens], 1)
    return rows


def _ratio_blocks(state, cfg, tag, n, rows):
    """The stream of tag's n_chains * n draws, drawn in _CHUNK-row blocks
    (row r is draw r % n of chain r // n) and added one at a time: block
    sums (k, C, B) of the k arrays of rows(x), counts (C, B), the chains'
    sums of |term| (k, C) and the rejected rows (a non-finite entry)."""
    g, C, B = state.reference_density, cfg.n_chains, estimators._BLOCKS
    rng = _stream(cfg.seed, tag)
    total = C * n
    bsum = bcnt = mags = None
    rejected = 0
    for r0 in range(0, total, estimators._CHUNK):
        block = rows(g.sample(rng, min(estimators._CHUNK, total - r0)))
        if bsum is None:
            k = block.shape[1]
            bsum, mags = np.zeros((k, C, B)), np.zeros((k, C))
            bcnt = np.zeros((C, B), dtype=np.int64)
        for r, row in enumerate(block, r0):
            c, j = divmod(r, n)
            if not np.all(np.isfinite(row)):
                rejected += 1
                continue
            bsum[:, c, j * B // n] += row
            bcnt[c, j * B // n] += 1
            mags[:, c] += np.abs(row)
    return bsum, bcnt, mags, rejected


def _pot_blocks(state, cfg):
    return _ratio_blocks(state, cfg, estimators._TAG_POT,
                         cfg.steps_per_chain - cfg.resolved_burn_in(),
                         _pot_rows(state))


def _std_draws(cfg):
    """ceil((steps_per_chain - burn_in) / 4): std's draws per chain."""
    return -(-(cfg.steps_per_chain - cfg.resolved_burn_in()) // 4)


def _reference_betas(y, cols, bcnt):
    """(C, k) coefficients: chain c's weighted least squares of the block
    means of y (C, B) on those of the k regressors cols (k, C, B) over the
    other chains' blocks (each chain's moments summed over its blocks; the
    other chains' moments the total less chain c's), solved by Cramer's
    rule with determinants expanded along the first row; 0 for one chain
    or a fit without spread."""
    C, k = bcnt.shape[0], len(cols)
    w = np.maximum(bcnt, 1)
    pairs = [(i, j) for i in range(k) for j in range(i, k)]
    own = np.array([[bcnt[c].astype(float).sum()]
                    + [cols[i, c].sum() for i in range(k)]
                    + [(cols[i, c] * cols[j, c] / w[c]).sum() for i, j in pairs]
                    + [y[c].sum()] + [(cols[i, c] * y[c] / w[c]).sum()
                                      for i in range(k)]
                    for c in range(C)]).T.copy()   # rows summed in memory order
    total = own.sum(axis=1)

    def det(m):
        out = m[0][0] if len(m) == 1 else m[0][0] * det([r[1:] for r in m[1:]])
        for j in range(1, len(m)):
            t = m[0][j] * det([r[:j] + r[j + 1:] for r in m[1:]])
            out = out - t if j % 2 else out + t
        return out

    beta = np.zeros((C, k))
    for c in range(C if C > 1 else 0):
        m = total - own[:, c]
        n, s, q = m[0], m[1:k + 1], dict(zip(pairs, m[k + 1:-k - 1]))
        sy, rhs = m[-k - 1], m[-k:]
        A = [[q[min(i, j), max(i, j)] - s[min(i, j)] * s[max(i, j)] / n
              for j in range(k)] for i in range(k)]
        rhs = [rhs[i] - s[i] * sy / n for i in range(k)]
        d = det(A)
        if np.isfinite(d) and d > 0.0:
            beta[c] = [det([r[:j] + [b] + r[j + 1:] for r, b in zip(A, rhs)]) / d
                       for j in range(k)]
    return beta


def _reference_ratios(bsum, bcnt, mags, rejected, n_values):
    """The controlled ratio estimates of blocks with n_values numerators y,
    then the weight w and the columns (w c_rad, w c_lin): each y less
    chain c's beta_c . (w c_rad, w c_lin), fitted on (w, w c_rad,
    w c_lin); the ratio of the pooled means of it and of w, the stderr of
    the residual (controlled y - ratio w) / (mean of the chain means of
    w), floored at the unit roundoff times (the chains' mean of
    sum |y| + |beta_c| . sum |column| + |ratio| sum w) / that mean of w;
    the uncontrolled stderr likewise, from y."""
    u = np.finfo(float).eps / 2
    counts = bcnt.sum(axis=1)
    ws, cols = bsum[n_values], bsum[n_values + 1:]
    w = ws.sum(axis=1) / counts
    out = []
    for v in range(n_values):
        beta = _reference_betas(bsum[v], bsum[n_values:], bcnt)
        controlled = (bsum[v] - beta[:, 1, None] * cols[0]
                      - beta[:, 2, None] * cols[1])
        floors = (mags[v] + np.abs(beta[:, 1]) * mags[n_values + 1]
                  + np.abs(beta[:, 2]) * mags[n_values + 2])

        def reduce(y):
            means = y.sum(axis=1) / counts
            ratio, w_mean = means.sum() / w.sum(), w.mean()
            stderr = estimators._stderr_from_chains(
                (means - ratio * w) / w_mean, (y - ratio * ws) / w_mean, bcnt)
            return ratio, stderr, (u * floors.mean()
                                   + abs(ratio) * u * mags[n_values].mean()) / w_mean

        ratio, stderr, floor = reduce(controlled)
        out.append((float(ratio), max(stderr, floor), int(counts.sum()),
                    rejected, reduce(bsum[v])[1]))
    return out


def _reference_pot(state, cfg):
    """estimate_pot_nda adding one draw at a time to its block."""
    return _reference_ratios(*_pot_blocks(state, cfg), 1)[0]


def _reference_std(state, cfg):
    """estimate_standard_expectations adding one draw at a time to its
    block: kin and pot from the numerators -Psi lap(Psi) / (2 g) and V w."""
    blocks = _ratio_blocks(state, cfg, estimators._TAG_STD, _std_draws(cfg),
                           _std_rows(state))
    return dict(zip(("kin", "pot"), _reference_ratios(*blocks, 2)))


def _fields(est):
    return (est.mean, est.stderr, est.n_samples, est.n_rejected,
            est.stderr_uncontrolled)


@pytest.mark.parametrize("n_chains", [1, 3, 8])
def test_kept_step_blocks_match_per_step_collectors(n_chains):
    """pot's and std's _CHUNK-row blocks of draws (a partial last one
    here: 2085 steps keep 1877 pot draws and 470 std draws per chain) give
    their per-draw reductions bit for bit; on 2P_2p the controlled
    integrands are exact and, past one chain, their stderr is the rounding
    floor."""
    cfg = SamplerConfig(n_chains=n_chains,
                        steps_per_chain=estimators._CHUNK + 37, seed=5)
    for name in ("3S_1s2s", "2P_2p"):
        st = get_state(name)
        assert _fields(estimate_pot_nda(st, cfg=cfg)) == _reference_pot(st, cfg)
        got = estimate_standard_expectations(st, cfg=cfg)
        assert ({k: _fields(e) for k, e in got.items()}
                == _reference_std(st, cfg)), name


@pytest.mark.parametrize("steps,burn_in", [(2100, None), (500, 0), (500, 499),
                                           (estimators._CHUNK + 37, 777)])
def test_pot_draws_the_kept_steps_of_a_walk(steps, burn_in):
    """pot draws n_chains * (steps_per_chain - burn_in) rows, as many as a
    walk of the same config keeps, down to one draw per chain."""
    cfg = SamplerConfig(n_chains=3, steps_per_chain=steps, burn_in=burn_in,
                        seed=5)
    est = estimate_pot_nda(get_state("3S_1s2s"), cfg)
    assert (est.n_samples + est.n_rejected
            == cfg.n_chains * (steps - cfg.resolved_burn_in()))
    assert est.method == "reference_ratio"


@pytest.mark.parametrize("steps,burn_in", [(2100, None), (500, 0), (500, 499),
                                           (estimators._CHUNK + 37, 777)])
def test_std_draws_one_row_per_four_kept_steps(steps, burn_in):
    """std draws ceil((steps_per_chain - burn_in) / 4) rows per chain, a
    quarter of pot's rounded up, down to one draw per chain."""
    cfg = SamplerConfig(n_chains=3, steps_per_chain=steps, burn_in=burn_in,
                        seed=5)
    for est in estimate_standard_expectations(get_state("3S_1s2s"), cfg).values():
        assert est.n_samples + est.n_rejected == cfg.n_chains * _std_draws(cfg)
        assert est.method == "reference_ratio"


def test_std_runs_at_one_chain_and_two_steps():
    """The smallest config, 1 x 2, draws one row and gives finite
    estimates and stderrs."""
    for est in estimate_standard_expectations(
            get_state("3S_1s2s"), SamplerConfig(n_chains=1, steps_per_chain=2)).values():
        assert est.n_samples == 1
        assert np.isfinite(est.mean) and np.isfinite(est.stderr)


def test_std_has_no_start_up_bias():
    """At 64 x 1000 over seeds 201-220, the std deviations of 1S_1s2_2s2
    from its exact kin and pot, averaged over the seeds, stay within 3 of
    their across-seed standard errors.  A Psi^2 walk with 100 burn-in
    steps, which leave its chains short of equilibrium, reads -4.4 here."""
    st = get_state("1S_1s2_2s2")
    runs = [estimate_standard_expectations(
        st, SamplerConfig(n_chains=64, steps_per_chain=1000, seed=seed))
        for seed in range(201, 221)]
    for key, exact in st.exact_standard.items():
        dev = np.array([r[key].mean for r in runs]) - float(exact)
        bias = dev.mean() / (np.std(dev, ddof=1) / np.sqrt(dev.size))
        assert abs(bias) < 3.0, (key, bias)


@pytest.mark.parametrize("n_chains", [1, 3])
def test_pot_stderr_below_eight_chains(n_chains):
    """Below 8 chains the pot stderr blocks the residual: one chain (nda
    compute --chains 1) and three (the seeded digest's) give a finite,
    positive stderr that covers the deviation from the exact value."""
    st = get_state("3S_1s2s")
    est = estimate_pot_nda(st, SamplerConfig(n_chains=n_chains,
                                             steps_per_chain=5000, seed=5))
    assert np.isfinite(est.stderr) and est.stderr > 0.0
    assert abs(est.mean - float(st.exact_nda["pot"])) < 4.0 * est.stderr


def test_pot_is_the_ratio_of_the_pooled_means():
    """At 112 draws per chain (table2_wide's shape for 3S_1s2s), pot is
    sum(controlled V w) / sum(w) over every draw, not the mean of the
    chains' ratios, whose bias is O(1 / 112)."""
    st = get_state("3S_1s2s")
    cfg = SamplerConfig(n_chains=64, steps_per_chain=124, burn_in=12, seed=3)
    bsum, bcnt, _, _ = _pot_blocks(st, cfg)
    beta = _reference_betas(bsum[0], bsum[1:], bcnt)
    controlled = (bsum[0] - beta[:, 1, None] * bsum[2]
                  - beta[:, 2, None] * bsum[3]).sum(axis=1)
    w = bsum[1].sum(axis=1)
    est = estimate_pot_nda(st, cfg)
    assert est.mean == pytest.approx(controlled.sum() / w.sum(), rel=1e-12, abs=0.0)
    assert est.mean != pytest.approx(np.mean(controlled / w), rel=1e-6, abs=0.0)


@pytest.mark.parametrize("n_chains", [3, 8])
def test_iid_blocks_match_per_draw_reduction(n_chains):
    """estimate_abs_norm equals drawing the call's one stream in _CHUNK-row
    blocks, giving row r to draw r % n of chain r // n, and adding every
    draw to its block one at a time, bit for bit."""
    st = get_state("3S_1s2s")
    g, model = st.reference_density, st.model
    cfg = SamplerConfig(n_chains=n_chains,
                        steps_per_chain=estimators._CHUNK + 37, seed=5)
    n, B = cfg.steps_per_chain, estimators._BLOCKS
    bsum, bcnt = np.zeros((n_chains, B)), np.zeros((n_chains, B), dtype=np.int64)
    rng = _stream(cfg.seed, estimators._TAG_ABS)
    total = n_chains * n
    for r0 in range(0, total, estimators._CHUNK):
        x = g.sample(rng, min(estimators._CHUNK, total - r0))
        for r, w in enumerate(np.abs(model.values(x)) / g.pdf(x), r0):
            c, j = divmod(r, n)
            bsum[c, j * B // n] += w
            bcnt[c, j * B // n] += 1
    ref = _reference_reduce(bsum, bcnt, np.zeros(n_chains, dtype=np.int64))
    assert _fields(estimate_abs_norm(st, cfg)) == ref


@pytest.mark.parametrize("name", MODEL_STATES)
def test_walk_matches_the_reference_walk(name):
    """metropolis_samples walks the chains exactly as _reference_walk does,
    byte for byte: at the default burn-in (20 of 200 steps, one width
    update), none and all but the last step (twelve updates), kept at
    every step, every 4th and every 10th, topology's thinnings."""
    st = get_state(name)
    for burn_in in (None, 0, 199):
        cfg = SamplerConfig(n_chains=3, steps_per_chain=200, burn_in=burn_in,
                            seed=5)
        for thin in (1, 4, 10):
            got = metropolis_samples(st, cfg, thin=thin)
            ref = _reference_metropolis_samples(st, cfg, thin=thin,
                                                tag=estimators._TAG_TOPOLOGY)
            assert got.tobytes() == ref.tobytes(), (burn_in, thin)


def test_sampling_memory_is_bounded_by_the_batch():
    """At 512 chains the walk holds one step of every chain's noise and its
    thinned points, and the i.i.d. draws of pot and std one _CHUNK of
    rows, not the 2085 steps' worth (60 MB of the walk's uniforms)."""
    st = get_state("3S_1s2s")
    cfg = SamplerConfig(n_chains=512, steps_per_chain=estimators._CHUNK + 37,
                        seed=5)
    for estimate in (estimate_pot_nda, estimate_standard_expectations,
                     lambda st, cfg: metropolis_samples(st, cfg, thin=64)):
        tracemalloc.start()
        try:
            estimate(st, cfg=cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24e6, estimate.__name__


# ----------------------------------------------------- control variates

# the states whose local kinetic energy and potential are both linear in
# c_rad and c_lin, so that the controlled std integrands are constant
ZERO_VARIANCE = ["2P_2p", "3P_2p2", "1S_2p2", "1D_2p2",
                 "harmonic_noninteracting", "subshell_k1_l1", "subshell_k1_l2"]


def _column_z_scores(name, a, b):
    """100 000 i.i.d. draws from g: the z-scores of the means of the
    columns rho c_rad / g and rho c_lin / g, from a = rho and b at the
    values v (_control_columns), and of rho c_rad / g with a wrong
    divergence term, 1 / r_i for 2 / r_i."""
    st = get_state(name)
    g = st.reference_density
    x = g.sample(np.random.default_rng(3), 100_000)
    v, xg, _ = st.model.evaluate(x, grad=True, radial=True)
    dens = g.pdf(x)
    rad, lin = estimators._control_columns(x, a(v), b(v), xg)
    r = np.linalg.norm(x.reshape(len(x), -1, 3), axis=2)
    wrong = rad - np.sum(a(v)[:, None] / r, axis=1)

    def z(col):
        col = col / dens
        return np.mean(col) / (np.std(col) / np.sqrt(col.size))
    return z(rad), z(lin), z(wrong)


@pytest.mark.parametrize("name", MODEL_STATES)
def test_control_columns_have_mean_zero_under_psi_squared(name):
    """The means of std's weighted columns w c_rad and w c_lin
    (Psi^2 c / g) lie within 4 stderr of 0 under g, while a wrong
    divergence term lies beyond."""
    rad, lin, wrong = _column_z_scores(name, lambda v: v * v, lambda v: 2.0 * v)
    assert abs(rad) < 4.0 and abs(lin) < 4.0, (rad, lin)
    assert abs(wrong) > 4.0, wrong


@pytest.mark.parametrize("name", MODEL_STATES)
def test_abs_control_columns_have_mean_zero_under_g(name):
    """The means of pot's weighted columns w c'_rad and w c'_lin
    (|Psi| c' / g) lie within 4 stderr of 0 under g, while a wrong
    divergence term lies beyond."""
    rad, lin, wrong = _column_z_scores(name, np.abs, np.sign)
    assert abs(rad) < 4.0 and abs(lin) < 4.0, (rad, lin)
    assert abs(wrong) > 4.0, wrong


@pytest.mark.parametrize("name", ZERO_VARIANCE)
def test_zero_variance_states_hit_the_exact_pot(name):
    """At 8 x 2000 the controlled pot_nda equals the exact value within
    1e-12 relative; the stderr, floored at the rounding of the sums, is
    positive and at most 1e-9 of the uncontrolled one."""
    st = get_state(name)
    est = estimate_pot_nda(st, SamplerConfig(n_chains=8, steps_per_chain=2000,
                                             seed=5))
    exact = float(st.exact_nda["pot"])
    assert est.mean == pytest.approx(exact, rel=1e-12, abs=0.0)
    assert 0.0 < est.stderr <= 1e-9 * est.stderr_uncontrolled


@pytest.mark.parametrize("Z", [1e-30, 1e30])
@pytest.mark.parametrize("name", ["2P_2p", "1D_2p2"])
def test_extreme_z_pot_stays_controlled(name, Z):
    """At Z = 1e+-30 the weights' squares leave the float range; the fit
    scales every row of sums by a power of two first, so pot stays exact
    to rounding, as at Z = 1, instead of falling back to beta = 0."""
    st = get_state(name, Z=Z)
    est = estimate_pot_nda(st, SamplerConfig(n_chains=8, steps_per_chain=2000,
                                             seed=5))
    assert est.mean == pytest.approx(float(st.exact_nda["pot"]), rel=1e-12, abs=0.0)
    assert 0.0 < est.stderr <= 1e-9 * est.stderr_uncontrolled


def test_pot_fit_bias_is_far_below_the_stderr():
    """At 3 x 200 (180 draws per chain) over seeds 1-20, on the six states
    whose controlled pot is not exact: the mean deviation from the exact
    value, in units of the state's RMS stderr and averaged over the states,
    stays below 0.3 (its seed noise is about 0.08).  The ratio of means
    and the fitted coefficients each carry an O(1 / n) bias; this bounds
    their sum where n is small."""
    biases = []
    for name in ("3S_1s2s", "3P_1s2p", "1S_1s2_2s2", "1S_1s2_2p2",
                 "harmonic_exact", "harmonic_mixed"):
        st = get_state(name)
        runs = [estimate_pot_nda(st, SamplerConfig(n_chains=3, steps_per_chain=200,
                                                   seed=seed))
                for seed in range(1, 21)]
        dev = np.mean([e.mean for e in runs]) - float(st.exact_nda["pot"])
        biases.append(dev / np.sqrt(np.mean([e.stderr ** 2 for e in runs])))
    assert abs(np.mean(biases)) < 0.3, biases


@pytest.mark.parametrize("name", ZERO_VARIANCE)
def test_zero_variance_states_hit_the_exact_values(name):
    """At 2 x 2000, 8 x 2000 and 64 x 200 the controlled kin_std and
    pot_std equal the exact values within 1e-12 relative; the stderr,
    floored at the rounding of the sums, is positive, at most 1e-9 of
    the uncontrolled one, and covers the deviation."""
    st = get_state(name)
    for chains, steps in ((2, 2000), (8, 2000), (64, 200)):
        got = estimate_standard_expectations(
            st, SamplerConfig(n_chains=chains, steps_per_chain=steps, seed=5))
        for key, est in got.items():
            exact = float(st.exact_standard[key])
            assert est.mean == pytest.approx(exact, rel=1e-12, abs=0.0), (chains, key)
            assert 0.0 < est.stderr < 1e-9 * est.stderr_uncontrolled, (chains, key)
            assert abs(est.mean - exact) <= est.stderr, (chains, key)


def test_one_chain_is_not_controlled(monkeypatch):
    """With one chain there are no other chains to fit beta on: the
    estimate is the uncontrolled one, field for field the estimate with
    both columns zeroed."""
    st = get_state("3S_1s2s")
    cfg = SamplerConfig(n_chains=1, steps_per_chain=3000, seed=5)
    got = estimate_standard_expectations(st, cfg)
    assert all(e.stderr == e.stderr_uncontrolled for e in got.values())
    columns = estimators._control_columns
    monkeypatch.setattr(estimators, "_control_columns",
                        lambda *args: [0.0 * c for c in columns(*args)])
    assert got == estimate_standard_expectations(st, cfg)


def test_controlled_stderr_is_smaller_and_recorded():
    """The control variates cut the std stderr (by 4x or more at this
    config on 3S_1s2s) and the pot stderr, and the estimates record the
    uncontrolled one; the other estimators record none."""
    st = get_state("3S_1s2s")
    cfg = SamplerConfig(n_chains=8, steps_per_chain=3000, seed=5)
    pot = estimate_pot_nda(st, cfg)
    assert 0.0 < pot.stderr < pot.stderr_uncontrolled
    for key, est in estimate_standard_expectations(st, cfg).items():
        assert 0.0 < 4.0 * est.stderr < est.stderr_uncontrolled, key
    assert estimate_abs_norm(st, cfg).stderr_uncontrolled is None


@pytest.mark.parametrize("name", ["2P_2p", "3S_1s2s", "3P_1s2p", "1S_1s2_2s2",
                                  "1S_1s2_2p2"])
def test_surface_evaluates_one_gradient_row_per_draw(name, monkeypatch):
    st = get_state(name)
    rows = []
    evaluate = st.model.evaluate

    def counted(x, **parts):
        if parts.get("grad"):
            rows.append(len(x))
        return evaluate(x, **parts)
    monkeypatch.setattr(st.model, "evaluate", counted)
    cfg = SamplerConfig(n_chains=4, steps_per_chain=1000, seed=3)
    estimate_kin_nda_surface(st, cfg)
    assert sum(rows) == cfg.n_chains * cfg.steps_per_chain


def test_surface_gradient_belongs_to_the_state_model():
    """A node map reports |grad Psi| of the model it was built for; a
    rescaled state model gets its own gradient, so the ratio stays exact."""
    st = get_state("3P_1s2p")
    cfg = SamplerConfig(n_chains=4, steps_per_chain=1000, seed=3)
    sc = _rescaled(st, 4.0)
    assert (estimate_kin_nda_surface(st, cfg).mean
            == estimate_kin_nda_surface(sc, cfg).mean)


def test_singular_point_is_rejected_and_counted(monkeypatch):
    """An electron on the nucleus at one draw drops that one sample from
    the potential and standard estimators instead of aborting them."""
    st = get_state("3S_1s2s")
    cfg = SamplerConfig(n_chains=4, steps_per_chain=400, seed=7)
    potential_batch = estimators.potential_batch
    seen = {}

    def one_at_nucleus(h, x):
        r = seen["target"] - seen["rows"]
        seen["rows"] += len(x)
        if 0 <= r < len(x):
            x = x.copy()
            x[r, 3:6] = 0.0
        return potential_batch(h, x)
    monkeypatch.setattr(estimators, "potential_batch", one_at_nucleus)

    # pot's rows reach potential_batch in stream order: row r is draw
    # r % kept of chain r // kept; move electron 1 of chain 2 at draw 29
    kept = cfg.steps_per_chain - cfg.resolved_burn_in()
    seen.update(target=2 * kept + 29, rows=0)
    pot = estimate_pot_nda(st, cfg=cfg)
    assert pot.n_rejected == 1 and pot.n_samples == cfg.n_chains * kept - 1
    assert np.isfinite(pot.mean) and np.isfinite(pot.stderr)

    # std's likewise, with _std_draws(cfg) draws per chain: move electron
    # 1 of chain 2 at draw 29
    n = _std_draws(cfg)
    seen.update(target=2 * n + 29, rows=0)
    std = estimate_standard_expectations(st, cfg=cfg)
    for est in std.values():
        assert est.n_rejected == 1 and est.n_samples == cfg.n_chains * n - 1
        assert np.isfinite(est.mean) and np.isfinite(est.stderr)


def _reference_shell(state, cfg):
    """The proxy delta-shell estimator as a retained-array reduction: the
    call's stream drawn in _CHUNK-row blocks and kept whole as (chains,
    draws) arrays of d = |Psi| / |grad Psi|, |grad Psi| / g and |Psi| / g;
    the ladder from the 1 % quantile of d over the stream's first
    n_chains * min(_CHUNK, n) draws; one line per chain."""
    model, g = state.model, state.reference_density
    C, n, chunk = cfg.n_chains, cfg.steps_per_chain, estimators._CHUNK
    rng = _stream(cfg.seed, estimators._TAG_SHELL)
    x = np.concatenate([g.sample(rng, min(chunk, C * n - r0))
                        for r0 in range(0, C * n, chunk)])
    dens, av = g.pdf(x), np.abs(model.values(x))
    gn = np.linalg.norm(model.gradients(x), axis=1)
    d = av / gn
    ladder = np.quantile(d[:C * min(chunk, n)], 0.01) * 0.5 ** np.arange(4)
    d, shell_w, ratio_w = (a.reshape(C, n) for a in (d, gn / dens, av / dens))
    xs = ladder ** 2
    kin = np.empty(C)
    for c in range(C):
        ys = np.array([np.sum(shell_w[c][d[c] < eps]) / (2.0 * eps * n)
                       for eps in ladder])
        slope = (np.sum((xs - xs.mean()) * (ys - ys.mean()))
                 / np.sum((xs - xs.mean()) ** 2))
        kin[c] = (ys.mean() - slope * xs.mean()) / np.mean(ratio_w[c])
    hits = int(np.count_nonzero(d < ladder[-1]))
    return (kin.mean(), np.std(kin, ddof=1) / np.sqrt(C),
            "ok" if hits >= 100 else "unconverged")


@pytest.mark.parametrize("name", ["2P_2p", "1S_1s2_2p2"])
@pytest.mark.parametrize("steps", [estimators._CHUNK, estimators._CHUNK + 37])
def test_shell_matches_retained_array_reduction(name, steps):
    """The pilot is the stream's first n_chains * min(_CHUNK, n) draws: up
    to one chunk per chain that is every draw, past it a prefix.  Either
    way the block sums give the retained-array fit to rounding."""
    st = get_state(name)
    cfg = SamplerConfig(n_chains=3, steps_per_chain=steps, seed=5)
    est = estimate_kin_nda_shell(st, cfg)
    mean, stderr, status = _reference_shell(st, cfg)
    assert est.mean == pytest.approx(mean, rel=1e-12, abs=0.0)
    assert est.stderr == pytest.approx(stderr, rel=1e-12, abs=0.0)
    assert est.status == status
    assert est.n_samples == cfg.n_chains * steps


def test_shell_memory_does_not_grow_with_the_draws():
    """1.6M draws: three retained (chains, draws) arrays alone are 38 MB."""
    st = get_state("2P_2p")
    cfg = SamplerConfig(n_chains=16, steps_per_chain=100_000, seed=5)
    tracemalloc.start()
    try:
        estimate_kin_nda_shell(st, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def _count_draws(monkeypatch):
    """Rows of every ReferenceDensity.sample call, in call order."""
    rows = []
    sample = ReferenceDensity.sample

    def counted(self, rng, n):
        rows.append(n)
        return sample(self, rng, n)
    monkeypatch.setattr(ReferenceDensity, "sample", counted)
    return rows


def test_one_stream_per_walk_and_per_iid_call(monkeypatch):
    """The Metropolis walk draws its starting points in one density.sample
    call; an i.i.d. call draws its n_chains * n draws in _CHUNK-row blocks,
    n = steps_per_chain for abs_norm, steps_per_chain - burn_in for pot and
    a quarter of that, rounded up, for std."""
    st = get_state("3S_1s2s")
    drawn = _count_draws(monkeypatch)
    cfg = SamplerConfig(n_chains=5, steps_per_chain=2100, seed=7)
    drawn.clear()
    metropolis_samples(st, cfg)
    assert drawn == [cfg.n_chains]
    for run, n in ((estimate_abs_norm, cfg.steps_per_chain),
                   (estimate_pot_nda, cfg.steps_per_chain - cfg.resolved_burn_in()),
                   (estimate_standard_expectations, _std_draws(cfg))):
        drawn.clear()
        run(st, cfg)
        total = cfg.n_chains * n
        assert len(drawn) == -(-total // estimators._CHUNK), run.__name__
        assert sum(drawn) == total and max(drawn) == estimators._CHUNK


@pytest.mark.parametrize("steps", [1000, estimators._CHUNK + 37])
def test_shell_evaluates_every_draw_once(steps, monkeypatch):
    """The pilot's draws enter the averages: every draw of the stream is
    drawn once and evaluated once, below one chunk per chain and past it."""
    st = get_state("1S_1s2_2p2")
    drawn = _count_draws(monkeypatch)
    evaluated = []
    evaluate = st.model.evaluate

    def counted(x, **parts):
        evaluated.append(len(x))
        return evaluate(x, **parts)
    monkeypatch.setattr(st.model, "evaluate", counted)
    cfg = SamplerConfig(n_chains=4, steps_per_chain=steps, seed=3)
    est = estimate_kin_nda_shell(st, cfg)
    total = cfg.n_chains * steps
    assert sum(drawn) == sum(evaluated) == est.n_samples == total
    assert len(drawn) == len(evaluated) == -(-total // estimators._CHUNK)


def test_shell_with_an_empty_ladder_stays_finite():
    """Of the 200 draws, the 2 below the ladder's widest rung (their 1 %
    quantile) both fall in chain 1 at this seed, and neither below its
    narrowest: every rung of chain 0 is empty, and the narrowest rung of
    both chains."""
    st = get_state("2P_2p")
    cfg = SamplerConfig(n_chains=2, steps_per_chain=100, seed=1)
    est = estimate_kin_nda_shell(st, cfg)
    assert np.isfinite(est.mean) and np.isfinite(est.stderr)
    assert est.status == "unconverged"


# ----------------------------------------------------- draw-ahead stream

# 3 x 2085 draws: three full _CHUNK-row blocks and a ragged one of 111
AHEAD = SamplerConfig(n_chains=3, steps_per_chain=estimators._CHUNK + 37,
                      seed=5)


def _serial_stream(cfg, tag, draw, n):
    """_iid_stream's blocks drawn one after another on the calling thread."""
    rng, total = _stream(cfg.seed, tag), cfg.n_chains * n
    for r0 in range(0, total, estimators._CHUNK):
        rows = np.arange(r0, min(r0 + estimators._CHUNK, total))
        yield rows, draw(rng, rows.size)


@pytest.mark.parametrize("draw", ["sample", "draw_params"])
def test_draw_ahead_matches_a_serial_stream(draw):
    """The worker draws the blocks in stream order with the same sizes, so
    the stream yields the serial (rows, x) blocks bit for bit:
    g.sample on 3S_1s2s, and the node parameters of 3P_1s2p."""
    st = get_state("3S_1s2s" if draw == "sample" else "3P_1s2p")
    fn = (st.reference_density.sample if draw == "sample"
          else st.node_param.draw_params)
    n = AHEAD.steps_per_chain
    got = list(estimators._iid_stream(AHEAD, estimators._TAG_SURFACE, fn, n))
    ref = list(_serial_stream(AHEAD, estimators._TAG_SURFACE, fn, n))
    assert [len(b[1]) for b in got] == [len(b[1]) for b in ref] == [2048] * 3 + [111]
    for block, serial in zip(got, ref):
        for a, b in zip(block, serial):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_draw_ahead_worker_is_joined():
    """No worker outlives its stream: after a finished estimator call,
    after a stream closed after its first block (the worker is alive until
    then), after an integrand or the shell's ladder that raises while the
    traceback is still held, and after a draw that raises, whose exception
    reaches the caller."""
    st = get_state("3S_1s2s")
    g, n = st.reference_density, AHEAD.steps_per_chain
    before = threading.active_count()
    estimate_abs_norm(st, AHEAD)
    assert threading.active_count() == before

    stream = estimators._iid_stream(AHEAD, estimators._TAG_ABS, g.sample, n)
    next(stream)
    assert threading.active_count() == before + 1
    stream.close()
    assert threading.active_count() == before

    def bad_integrand(x):
        raise ValueError("integrand failed")
    with pytest.raises(ValueError, match="integrand failed") as held:
        estimators._iid_average(AHEAD, estimators._TAG_ABS, g.sample,
                                bad_integrand)
    assert held.tb is not None and threading.active_count() == before

    # Psi = 0 on every pilot draw: the ladder's quantile vanishes
    shell = dataclasses.replace(AHEAD, steps_per_chain=3 * estimators._CHUNK)
    with pytest.raises(RuntimeError, match="quantile vanished") as held:
        estimate_kin_nda_shell(_rescaled(st, 0.0), shell)
    assert held.tb is not None and threading.active_count() == before

    calls = []

    def failing(rng, m):
        calls.append(m)
        if len(calls) == 2:
            raise RuntimeError("draw failed")
        return g.sample(rng, m)
    with pytest.raises(RuntimeError, match="draw failed"):
        estimators._iid_average(AHEAD, estimators._TAG_ABS, failing,
                                lambda x: (None, (x[:, 0],)))
    assert threading.active_count() == before


# ----------------------------------------------------- topology sampler


def test_metropolis_samples_shape_and_support():
    st = get_state("3P_2p2")
    x = metropolis_samples(st, SamplerConfig(n_chains=4, steps_per_chain=2_000, seed=3),
                           thin=10)
    assert x.shape[1] == 6
    assert x.shape[0] == 4 * ((2_000 - 200) // 10)
    v = np.abs(st.model.values(x))
    assert np.all(v > 0.0)  # Metropolis on psi^2 never lands exactly on the node


@pytest.mark.parametrize("bad", [{"thin": 0}, {"thin": -3}])
def test_metropolis_samples_rejects_bad_input(bad, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampling started")
    monkeypatch.setattr(estimators, "_stream", no_sampling)
    with pytest.raises(ValueError):
        metropolis_samples(get_state("2P_2p"), FAST, **bad)
