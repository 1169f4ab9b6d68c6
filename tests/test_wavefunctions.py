"""Finite-difference and symmetry checks for the wave function models.

Gradients are validated with central differences at h = 1e-6 (relative error
~1e-9 away from nodes).  Laplacians use h = 1e-4: the second-difference
roundoff floor is eps / h^2, so h = 1e-6 would drown the signal at ~2e-4
relative error while h = 1e-4 keeps it near 1e-7.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import nda.wavefunctions as wf
from nda.catalog import catalog_list, get_state, subshell_family


def _fd_gradient(model, x, h=1e-6):
    g = np.empty_like(x)
    for j in range(x.shape[1]):
        xp = x.copy(); xp[:, j] += h
        xm = x.copy(); xm[:, j] -= h
        g[:, j] = (model.values(xp) - model.values(xm)) / (2 * h)
    return g


def _fd_laplacian(model, x, h=1e-4):
    v0 = model.values(x)
    lap = np.zeros(x.shape[0])
    for j in range(x.shape[1]):
        xp = x.copy(); xp[:, j] += h
        xm = x.copy(); xm[:, j] -= h
        lap += (model.values(xp) - 2 * v0 + model.values(xm)) / h**2
    return lap


def _test_points(n_particles, n=40, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(scale=1.5, size=(n, 3 * n_particles))
    # keep points away from coordinate-origin cusps of the orbitals
    r = np.linalg.norm(x.reshape(n, n_particles, 3), axis=2)
    return x[np.min(r, axis=1) > 0.3]


# the catalog models, and the circular orbital of degree 3, which no catalog
# state uses: it has three nodal planes
_FD_MODELS = [s.name for s in catalog_list() if s.model] + ["circular_l3"]


@pytest.mark.parametrize("name", _FD_MODELS)
def test_gradients_match_finite_differences(name):
    model = _circular(3) if name == "circular_l3" else get_state(name).model
    x = _test_points(model.n_particles, seed=hash(name) % 1000)
    v = model.values(x)
    keep = np.abs(v) > 1e-6
    x = x[keep]
    g = model.gradients(x)
    g_fd = _fd_gradient(model, x)
    scale = np.maximum(np.max(np.abs(g), axis=1, keepdims=True), 1e-12)
    assert np.max(np.abs(g - g_fd) / scale) < 5e-7


@pytest.mark.parametrize("name", _FD_MODELS)
def test_laplacians_match_finite_differences(name):
    model = _circular(3) if name == "circular_l3" else get_state(name).model
    x = _test_points(model.n_particles, seed=hash(name) % 1000 + 7)
    v = model.values(x)
    keep = np.abs(v) > 1e-6
    x = x[keep]
    lap = model.evaluate(x, lap=True)[2]
    lap_fd = _fd_laplacian(model, x)
    scale = np.maximum(np.abs(lap), 1.0)
    assert np.max(np.abs(lap - lap_fd) / scale) < 1e-5


def test_antisymmetry_of_determinantal_states():
    # swapping two identical-spin electrons must flip the sign bitwise
    for name, (i, j) in [("3S_1s2s", (0, 1)), ("3P_2p2", (0, 1)),
                         ("1S_1s2_2s2", (0, 1)), ("1S_1s2_2s2", (2, 3)),
                         ("1S_1s2_2p2", (0, 1)), ("1S_1s2_2p2", (2, 3))]:
        model = get_state(name).model
        rng = np.random.default_rng(3)
        x = rng.normal(scale=2.0, size=(10_000, 3 * model.n_particles))
        xs = x.copy()
        xs[:, 3 * i:3 * i + 3] = x[:, 3 * j:3 * j + 3]
        xs[:, 3 * j:3 * j + 3] = x[:, 3 * i:3 * i + 3]
        v, vs = model.values(x), model.values(xs)
        assert np.array_equal(v, -vs), name


@pytest.mark.parametrize("method", ["values", "vgl"])
@pytest.mark.parametrize("name", [s.name for s in catalog_list() if s.model])
def test_values_vectorized_consistent_with_rowwise(name, method):
    """A row's result does not depend on its batch neighbours, bit for bit:
    each row alone, the rows together and the rows inside a larger batch
    (behind and between other points) agree.  Lock-step Metropolis walks
    and chain batching rely on this."""
    model = get_state(name).model
    evaluate = (model.values if method == "values"
                else lambda x: model.evaluate(x, grad=True, lap=True))
    x = _test_points(model.n_particles, n=8, seed=5)
    others = _test_points(model.n_particles, n=300, seed=6)
    at = np.arange(len(x)) * 3 + 17                # rows of x in the big batch
    big = np.insert(others, at - np.arange(len(x)), x, axis=0)
    assert np.array_equal(big[at], x)

    def parts(out):
        return out if isinstance(out, tuple) else (out,)

    batch = parts(evaluate(x))
    inside = parts(evaluate(big))
    for i, row in enumerate(x):
        alone = parts(evaluate(row[None, :]))
        for a, b, c in zip(alone, batch, inside):
            assert np.array_equal(a[0], b[i]) and np.array_equal(a[0], c[at[i]])


def test_origin_is_finite():
    # orbital cusps must not produce nan/inf when an electron sits at r = 0
    for name in ["2P_2p", "3S_1s2s", "1S_1s2_2p2"]:
        model = get_state(name).model
        x = np.zeros((1, 3 * model.n_particles))
        x[0, 3:] = 1.0  # park the other electrons off-origin
        for part in model.evaluate(x, grad=True, lap=True):
            assert np.isfinite(part).all()


def test_harmonic_pair_jastrow_factor():
    corr = wf.HarmonicPair(omega=0.25, correlated=True, beta=0.25)
    plain = wf.HarmonicPair(omega=0.25, correlated=False)
    rng = np.random.default_rng(11)
    x = rng.normal(scale=1.0, size=(200, 6))
    u = np.linalg.norm(x[:, :3] - x[:, 3:], axis=1) / np.sqrt(2.0)
    ratio = corr.values(x) / plain.values(x)
    assert np.allclose(ratio, 1.0 + 0.25 * np.sqrt(2.0) * u, rtol=1e-12)


def _assert_parts_match(model, x, full):
    """Every smaller call has the bits of the parts of full, the three
    parts of evaluate(x, grad=True, lap=True): evaluate(x),
    evaluate(x, grad=True), evaluate(x, lap=True), values and gradients,
    each with None for the parts it does not ask for."""
    v, g, lap = full
    for grad, want_lap in ((False, False), (True, False), (False, True)):
        got = model.evaluate(x, grad=grad, lap=want_lap)
        want = (v, g if grad else None, lap if want_lap else None)
        for a, b in zip(got, want):
            assert a is None if b is None else a.tobytes() == b.tobytes()
    assert model.values(x).tobytes() == v.tobytes()
    assert model.gradients(x).tobytes() == g.tobytes()


def test_harmonic_pair_vgl_is_the_three_methods():
    # both branches of the fused evaluation; the last row has r12 = 0
    x = _test_points(2, seed=4)
    x = np.concatenate([x, x[:1, [0, 1, 2, 0, 1, 2]]])
    for name in ("harmonic_noninteracting", "harmonic_exact"):
        model = get_state(name).model
        _assert_parts_match(model, x, model.evaluate(x, grad=True, lap=True))


# ------------------------------------------- fused SlaterProduct evaluation


# _reference_vgl's orbital evaluators: one orbital at the points xyz (m, 3),
# by the expressions in the comment above wavefunctions.Orbital
def _orbital_value(orb, xyz):
    r = np.linalg.norm(xyz, axis=1)
    return wf._mul(wf._harmonic(wf._recipe(orb.planes), xyz)[0],
                   orb._radial(r, False)[0])


def _orbital_grad(orb, xyz):
    r = np.linalg.norm(xyz, axis=1)
    f, fp, _ = orb._radial(r)
    rinv = np.where(r > 0.0, 1.0 / np.maximum(r, 1e-300), 0.0)
    P, dP = wf._harmonic(wf._recipe(orb.planes), xyz, grad=True)
    g = wf._mul(P, fp)[:, None] * (xyz * rinv[:, None])
    for c, d in dP:
        g[:, c] += wf._mul(f, d)
    return g


def _orbital_lap(orb, xyz):
    r = np.linalg.norm(xyz, axis=1)
    f, fp, fpp = orb._radial(r)
    rinv = np.where(r > 0.0, 1.0 / np.maximum(r, 1e-300), 0.0)
    planes = orb.planes
    return wf._mul(wf._harmonic(wf._recipe(planes), xyz)[0],
                   fpp + 2.0 * (len(planes) + 1) * fp * rinv)


def _cofactors(A):
    """C[i][j] = d det / d A[i][j] of a 1x1 or 2x2 block."""
    if len(A) == 1:
        return [[np.ones(A[0][0].shape[0])]]
    return wf._cofactors(A)


def _reference_vgl(model, x):
    """SlaterProduct evaluated orbital by orbital: every block matrix is
    rebuilt per term from _orbital_value, and gradients and Laplacians
    come from _orbital_grad and _orbital_lap, accumulated in the model's
    order."""
    m = x.shape[0]

    def block(b):
        return [[_orbital_value(orb, x[:, 3 * e:3 * e + 3]) for orb in b.orbitals]
                for e in b.electrons]

    v = np.zeros(m)
    g = np.zeros((m, 3 * model.n_particles))
    lap = np.zeros(m)
    for t in model.terms:
        prod = np.full(m, t.coeff)
        for b in t.blocks:
            prod = prod * wf._det(block(b))
        v = v + prod
    for t in model.terms:
        mats = [block(b) for b in t.blocks]
        dets = [wf._det(A) for A in mats]
        for bi, b in enumerate(t.blocks):
            other = np.full(m, t.coeff)
            for bj, d in enumerate(dets):
                if bj != bi:
                    other = other * d
            C = _cofactors(mats[bi])
            lap_b = np.zeros(m)
            for i, e in enumerate(b.electrons):
                xyz = x[:, 3 * e:3 * e + 3]
                row = np.zeros((m, 3))
                for j, orb in enumerate(b.orbitals):
                    row += C[i][j][:, None] * _orbital_grad(orb, xyz)
                    lap_b += C[i][j] * _orbital_lap(orb, xyz)
                g[:, 3 * e:3 * e + 3] += other[:, None] * row
            lap += other * lap_b
    return v, g, lap


_SLATER_STATES = ("2P_2p", "3S_1s2s", "3P_1s2p", "1S_1s2_2s2", "1S_1s2_2p2",
                  "3P_2p2", "1S_2p2", "1D_2p2")


def _circular(l, Z=1.0):
    """The one-electron model of the circular orbital of degree l."""
    orb = wf.Orbital("hydrogenic_general", Z, n=l + 1)
    return wf.SlaterProduct([wf.Term(coeff=1.0, blocks=(wf.DetBlock((orb,), (0,)),))],
                            n_particles=1)


def _slater_model(name, Z):
    if name == "mixed":
        # every shape of the plan: 1x1 and 2x2 blocks over 5 electrons,
        # split (0,), (1, 2), (3, 4) in both terms; 1s on the unevenly
        # spaced electrons 0, 3 and 4 (a gather), the l = 2 rows on 3 and 4;
        # a second term with coefficient -0.5 and other orbitals
        def term(coeff, *orbitals):
            return wf.Term(coeff=coeff, blocks=tuple(
                wf.DetBlock(o, e) for o, e in zip(orbitals, ((0,), (1, 2), (3, 4)))))

        s1, s2, d = (wf.Orbital("hydrogenic_1s", Z), wf.Orbital("hydrogenic_2s", Z),
                     wf.Orbital("hydrogenic_general", Z, n=3))
        px, py = (wf.Orbital("hydrogenic_2p", Z, axis=a) for a in "xy")
        terms = [term(1.0, (s1,), (s2, px), (d, s1)),
                 term(-0.5, (py,), (px, s2), (s2, d))]
        return wf.SlaterProduct(terms, n_particles=5)
    if name.startswith("circular_l"):
        return _circular(int(name[-1]), Z)
    if name.startswith("subshell"):
        return subshell_family(1, int(name[-1]), Z).model
    return get_state(name, Z=Z).model


# coordinates away from the float underflow of 1/r, plus exact zeros
_COORD = st.floats(1e-3, 6.0) | st.floats(-6.0, -1e-3) | st.just(0.0)


def _draw_points(data, n_particles):
    x = data.draw(arrays(np.float64, (6, 3 * n_particles), elements=_COORD))
    # two more rows with one electron at the origin
    e = data.draw(st.integers(0, n_particles - 1))
    at_origin = x[:2].copy()
    at_origin[:, 3 * e:3 * e + 3] = 0.0
    return np.concatenate([x, at_origin])


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(_SLATER_STATES + ("subshell_l1", "subshell_l2", "circular_l3",
                                              "mixed")),
       Z=st.floats(0.3, 4.0), data=st.data())
def test_fused_table_matches_orbital_loops_bitwise(name, Z, data):
    model = _slater_model(name, Z)
    x = _draw_points(data, model.n_particles)
    # rows of signed zeros: -0.0 x and +0.0 y coordinates; electron 0 at
    # (-0.0, -0.0, -0.0)
    zeros = x[:2].copy()
    zeros[0, 0::3], zeros[0, 1::3] = -0.0, 0.0
    zeros[1, :3] = -0.0
    x = np.concatenate([x, zeros])
    ref = _reference_vgl(model, x)
    fused = model.evaluate(x, grad=True, lap=True)
    for r, f in zip(ref, fused):
        assert r.tobytes() == f.tobytes()
    _assert_parts_match(model, x, fused)


@pytest.mark.parametrize("name", [s.name for s in catalog_list() if s.model]
                         + ["subshell_k1_l1", "subshell_k1_l2", "circular_l3", "mixed"])
def test_radial_mode_is_x_dot_gradient_per_electron(name):
    """evaluate(x, grad=True, radial=True) gives each electron's
    x_i . grad_i Psi, (m, N), and the same values: the per-electron sum of
    x times the gradients to 1e-12 of |Psi| + sum |x_k dPsi/dx_k| (the
    rounding scale of that sum, whose terms cancel near a node), on
    Gaussian points, a row of signed zeros and a row with an electron at
    the origin."""
    model = (_slater_model(name, 1.3) if name in ("mixed", "circular_l3")
             else get_state(name).model)
    N = model.n_particles
    x = np.random.default_rng(4).normal(scale=2.0, size=(500, 3 * N))
    x[0, 0::3], x[0, 1::3] = -0.0, 0.0
    x[1, :3] = 0.0
    v, g, _ = model.evaluate(x, grad=True)
    v_rad, xg, lap = model.evaluate(x, grad=True, radial=True)
    assert xg.shape == (len(x), N) and lap is None
    assert v_rad.tobytes() == v.tobytes()
    terms = (x * g).reshape(-1, N, 3)
    scale = np.abs(v)[:, None] + np.abs(terms).sum(axis=2)
    assert np.all(np.abs(xg - terms.sum(axis=2)) <= 1e-12 * scale)


def test_terms_must_share_one_partition():
    """The blocks are spin channels: every term splits electrons 0..N-1
    into the same blocks, or the model is a ValueError."""
    s1, s2 = wf.Orbital("hydrogenic_1s", 1.0), wf.Orbital("hydrogenic_2s", 1.0)
    pair = wf.Term(coeff=1.0, blocks=(wf.DetBlock((s1, s2), (0, 1)),))
    split = wf.Term(coeff=1.0, blocks=(wf.DetBlock((s1,), (0,)), wf.DetBlock((s2,), (1,))))
    with pytest.raises(ValueError, match="same blocks"):
        wf.SlaterProduct([pair, split], n_particles=2)
    with pytest.raises(ValueError, match="split the electrons"):
        wf.SlaterProduct([pair], n_particles=3)
    assert wf.SlaterProduct([split, split], n_particles=2).n_particles == 2


def test_circular_orbitals_are_re_x_plus_iy_to_the_l():
    """The product of the l plane forms carries the factor 2^(l-1) that
    makes it Re(x + iy)^l itself, at every l."""
    d = wf.Orbital("hydrogenic_general", 1.0, n=3)
    x = np.array([[1.0, 0.5, 0.25]])
    assert _orbital_value(d, x)[0] == pytest.approx(
        0.75 * np.exp(-np.linalg.norm(x) / 3.0), rel=1e-15)
    x = np.random.default_rng(2).normal(scale=2.0, size=(200, 3))
    r = np.linalg.norm(x, axis=1)
    for l in range(1, 9):
        orb = wf.Orbital("hydrogenic_general", 1.0, n=l + 1)
        assert len(orb.planes) == l
        expect = ((x[:, 0] + 1j * x[:, 1]) ** l).real * np.exp(-r / (l + 1))
        # to rounding of the l-term product, on the scale |x + iy|^l
        scale = np.hypot(x[:, 0], x[:, 1]) ** l * np.exp(-r / (l + 1))
        err = np.abs(_orbital_value(orb, x) - expect)
        assert np.all(err <= 1e-14 * scale), l


def test_a_block_of_three_electrons_is_rejected():
    orbs = (wf.Orbital("hydrogenic_1s", 1.0), wf.Orbital("hydrogenic_2s", 1.0),
            wf.Orbital("hydrogenic_2p", 1.0, axis="x"))
    term = wf.Term(coeff=1.0, blocks=(wf.DetBlock(orbs, (0, 1, 2)),))
    with pytest.raises(ValueError, match="at most two electrons"):
        wf.SlaterProduct([term], n_particles=3)


@settings(max_examples=60, deadline=None)
@given(pair=st.sampled_from([("3S_1s2s", 0, 1), ("3P_1s2p", 0, 1), ("3P_2p2", 0, 1),
                             ("1S_1s2_2s2", 0, 1), ("1S_1s2_2s2", 2, 3),
                             ("1S_1s2_2p2", 0, 1), ("1S_1s2_2p2", 2, 3)]),
       Z=st.floats(0.3, 4.0), data=st.data())
def test_same_spin_swap_negates_vgl(pair, Z, data):
    """Values and per-electron gradient blocks are exact under the swap."""
    name, i, j = pair
    model = _slater_model(name, Z)
    x = _draw_points(data, model.n_particles)
    bi, bj = slice(3 * i, 3 * i + 3), slice(3 * j, 3 * j + 3)
    xs = x.copy()
    xs[:, bi], xs[:, bj] = x[:, bj], x[:, bi]
    v, g, lap = model.evaluate(x, grad=True, lap=True)
    vs, gs, laps = model.evaluate(xs, grad=True, lap=True)
    assert np.array_equal(vs, -v)
    expect = -g
    expect[:, bi], expect[:, bj] = -g[:, bj], -g[:, bi]
    assert np.array_equal(gs, expect)
    # the Laplacian sums over both electrons, in an order the swap permutes
    assert np.allclose(laps, -lap, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("Z", [1.0, 2.5])
def test_2p2_couplings_match_closed_forms(Z):
    """The 2p^2 SlaterProducts are the explicit forms times rho(r1) rho(r2),
    with rho(r) = exp(-Z r / 2), to 1e-12 of |r1| |r2| rho rho (the forms
    are sums of terms that cancel near the node)."""
    rng = np.random.default_rng(8)
    x = rng.normal(scale=2.0, size=(500, 6))
    a, b = x[:, :3], x[:, 3:]
    r1, r2 = np.linalg.norm(a, axis=1), np.linalg.norm(b, axis=1)
    rho = np.exp(-0.5 * Z * (r1 + r2))
    cross = (a[:, 0] * b[:, 1] - b[:, 0] * a[:, 1]) * rho
    forms = {"3P_2p2": cross, "subshell_k2_l1": cross,
             "1D_2p2": (a[:, 0] * b[:, 1] + b[:, 0] * a[:, 1]) * rho,
             "1S_2p2": np.sum(a * b, axis=1) * rho}
    for name, expect in forms.items():
        model = get_state(name, Z=Z).model
        err = np.abs(model.values(x) - expect)
        assert np.all(err <= 1e-12 * r1 * r2 * rho), name
