import json
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import dblquad, quad
from scipy.special import gamma as gamma_fn, gammaln

from nda.catalog import (Branch, Gamma, Normal, Sphere, Uniform, catalog_list,
                         catalog_to_json, get_state, node_parametrization,
                         subshell_family)
from nda.reference import SubshellParams, subshell_kin_nda, subshell_pot_nda

ALL = catalog_list()


def test_decomposition_sums_to_total_exactly():
    for s in ALL:
        if s.exact_total_energy is None or not s.exact_nda:
            continue
        total = Fraction(s.exact_total_energy)
        assert Fraction(s.exact_nda["kin"]) + Fraction(s.exact_nda["pot"]) == total, s.name
        if s.exact_standard:
            got = Fraction(s.exact_standard["kin"]) + Fraction(s.exact_standard["pot"])
            assert got == total, s.name


def test_standard_virial_pattern_for_coulomb_states():
    # pot = -2 kin for every Coulomb eigenstate's standard expectations
    for s in ALL:
        if s.exact_standard and s.model is not None and s.model.family == "coulomb":
            assert Fraction(s.exact_standard["pot"]) == -2 * Fraction(s.exact_standard["kin"]), s.name


@pytest.mark.parametrize("name", [s.name for s in ALL if s.node_param and s.node_param.sample])
def test_sampled_node_points_lie_on_the_node(name):
    """|psi| on parametrized points must vanish to float precision.

    Rows with w = 0 mark empty fibers of the parametrization (draws whose
    surface slice does not intersect the node); their coordinates are
    placeholders and are excluded on purpose.
    """
    s = get_state(name)
    rng = np.random.default_rng(123)
    coords, w = s.node_param.sample(rng, 10_000)
    assert np.all(w >= 0.0)
    live = w > 0.0
    assert live.sum() > 1000, "parametrization produced too few live rows"
    v = np.abs(s.model.values(coords[live]))
    g = np.linalg.norm(s.model.gradients(coords[live]), axis=1)
    assert np.max(v / np.maximum(g, 1e-300)) < 1e-10


@pytest.mark.parametrize("name", [s.name for s in ALL if s.node_param and s.node_param.sample])
def test_node_geometry_treats_rows_independently(name):
    """Parameters drawn from two streams and mapped in one call give the
    same (coords, w) bit for bit as two separate sample calls, which is
    what lets the surface estimator batch its chains."""
    s = get_state(name)
    p = s.node_param
    draws = ((1, 300), (2, 77))
    params = np.concatenate([p.draw_params(np.random.default_rng(seed), m)
                             for seed, m in draws])
    assert params.shape == (377, sum(f.width for f in p.proposal))
    coords, dS, _ = p.measure_map(params)
    w = dS / p.proposal_pdf(params)
    assert coords.shape == (377, 3 * s.model.n_particles)
    assert np.all(dS >= 0.0) and np.all(np.isfinite(w))
    parts = [p.sample(np.random.default_rng(seed), m) for seed, m in draws]
    assert coords.tobytes() == np.concatenate([c for c, _ in parts]).tobytes()
    assert w.tobytes() == np.concatenate([v for _, v in parts]).tobytes()


def test_implicit_marker_for_states_without_closed_node():
    s = get_state("3P_1s2p")
    # this node is the zero set of a radial determinant; the catalog still
    # provides a sampler for it (graph over the angular variables)
    assert s.node_param.kind == "implicit_graph"
    assert s.node_param.sample is not None
    assert node_parametrization(s) is s.node_param


def test_get_state_unknown_name():
    with pytest.raises(KeyError):
        get_state("9Z_nope")


def test_z_parameter_rescales_exact_values():
    base = get_state("2P_2p")
    z3 = get_state("2P_2p", Z=3)
    assert Fraction(z3.exact_nda["kin"]) == 9 * Fraction(base.exact_nda["kin"])
    assert Fraction(z3.exact_total_energy) == 9 * Fraction(base.exact_total_energy)
    # and the model itself contracts: peak of |psi| moves inward
    rng = np.random.default_rng(0)
    x = rng.normal(size=(5, 3))
    assert not np.allclose(base.model.values(x), z3.model.values(x))


def test_subshell_family_agrees_with_reference_formulas():
    for (k, l) in [(1, 1), (1, 2), (1, 60), (2, 1), (6, 1)]:
        s = subshell_family(k, l)
        p = SubshellParams(k=k, l=l)
        assert Fraction(s.exact_nda["kin"]) == subshell_kin_nda(p)
        assert Fraction(s.exact_nda["pot"]) == subshell_pot_nda(p)
    assert subshell_family(1, 60).model is None  # reference-only entry


def test_catalog_json_export():
    blob = catalog_to_json(ALL)
    data = json.loads(blob)
    names = {d["name"] for d in data}
    assert {"2P_2p", "3S_1s2s", "harmonic_exact"} <= names
    for d in data:
        if d.get("exact_nda"):
            # exact values survive as strings with full precision
            Fraction(d["exact_nda"]["pot"])


MODEL_STATES = ALL + [get_state("subshell_k1_l1"), get_state("subshell_k1_l2")]
COULOMB = [s for s in MODEL_STATES if s.model.family == "coulomb"]


def test_reference_density_pdf_matches_sampler():
    # E_g[h/g] = 1 for any normalized h supported where g > 0; h is the
    # isotropic Gaussian of g's own coordinate variance s2, so that h/g has
    # finite variance under the harmonic g too (it would not for s2 > 2/omega)
    rng = np.random.default_rng(77)
    for st in MODEL_STATES:
        g = st.reference_density
        x = g.sample(rng, 40_000)
        dim, s2 = x.shape[1], np.mean(x * x)
        h = np.exp(-0.5 * np.sum(x * x, axis=1) / s2) / (2 * np.pi * s2) ** (dim / 2)
        ratio = h / g.pdf(x)
        assert abs(ratio.mean() - 1.0) < 5e-2, st.name


def test_reference_density_scales_are_the_orbitals():
    """Each orbital (n, l) gives the decay length n / Z, once per distinct
    length, in order of first occurrence; the harmonic pair keeps its
    omega."""
    scales = {"2P_2p": [2.0], "3S_1s2s": [1.0, 2.0], "3P_1s2p": [1.0, 2.0],
              "1S_1s2_2s2": [1.0, 2.0], "1S_1s2_2p2": [1.0, 2.0], "3P_2p2": [2.0],
              "1S_2p2": [2.0], "1D_2p2": [2.0],
              "subshell_k1_l1": [2.0], "subshell_k1_l2": [3.0]}
    for st in MODEL_STATES:
        g = st.reference_density
        assert g.n_particles == st.model.n_particles
        if st.model.family == "coulomb":
            assert (g.family, list(g.scales)) == ("coulomb", scales[st.name]), st.name
        else:
            assert (g.family, g.omega) == ("harmonic", 0.25), st.name
    g3 = get_state("3P_1s2p", Z=3).reference_density
    assert g3.scales == (1.0 / 3.0, 2.0 / 3.0)


@pytest.mark.parametrize("name,params", [
    ("2P_2p", dict(Z=Fraction(1, 10 ** 300))), ("2P_2p", dict(Z=10 ** 300)),
    ("3P_1s2p", dict(Z=10 ** 300)),
    ("harmonic_noninteracting", dict(omega=10 ** 300)),
    ("harmonic_noninteracting", dict(omega=Fraction(1, 10 ** 300)))])
def test_reference_density_refuses_an_unnormalizable_state(name, params):
    """A decay length s whose 8 pi s^3, or an omega whose
    (omega / 2 pi)^(3N/2), overflows or underflows raises ValueError when g
    is built, before any draw; moderate values build."""
    st = get_state(name, **params)
    with pytest.raises(ValueError, match="normalization"):
        st.reference_density
    key = next(iter(params))
    g = get_state(name, **{key: 3}).reference_density
    assert g.pdf(g.sample(np.random.default_rng(1), 4)).min() > 0.0


@pytest.mark.parametrize("name", [s.name for s in MODEL_STATES])
def test_reference_radii_follow_the_mixture_law(name):
    """Every electron's sampled radius, against the equal-weight mixture of
    Gamma(3, s) over g's decay lengths s (Coulomb) or omega^(-1/2) chi_3
    (harmonic): KS test."""
    g = get_state(name).reference_density
    x = g.sample(np.random.default_rng(11), 4000)
    radii = np.linalg.norm(x.reshape(len(x), g.n_particles, 3), axis=2)

    def cdf(r):
        if g.family == "coulomb":
            return np.mean([stats.gamma.cdf(r, 3, scale=s) for s in g.scales], axis=0)
        return stats.chi.cdf(r * np.sqrt(g.omega), 3)

    for i in range(g.n_particles):
        assert stats.kstest(radii[:, i], cdf).pvalue > 1e-3, (name, i)


@pytest.mark.parametrize("name", [s.name for s in COULOMB])
def test_reference_density_matches_the_model(name):
    """Kish ESS (sum w)^2 / (n sum w^2) of w = |Psi| / g at 2^15 draws:
    0.19 to 0.57 on these states (0.19 on 1S_1s2_2s2)."""
    st = get_state(name)
    g = st.reference_density
    x = g.sample(np.random.default_rng(5), 2 ** 15)
    w = np.abs(st.model.values(x)) / g.pdf(x)
    assert w.sum() ** 2 / (w.size * np.sum(w * w)) >= 0.15


# ------------------------------------- stacked reference draws stay bitwise


def _reference_sample(g, rng, n):
    """ReferenceDensity.sample particle by particle (Coulomb: the (n, N)
    mixture components, with two or more decay lengths, the (n, N) radii
    from rng.standard_gamma and the (n, N, 3) normal directions, one call
    each, then each particle's direction normalized by np.linalg.norm and
    scaled by its radius; harmonic: a scaled normal draw per particle),
    concatenated along the coordinates."""
    N = g.n_particles
    if g.family == "coulomb":
        scales = np.array(g.scales)
        k = (rng.integers(len(scales), size=(n, N)) if len(scales) > 1
             else np.zeros((n, N), dtype=int))
        r = rng.standard_gamma(3.0, size=(n, N)) * scales[k]
        v = rng.standard_normal((n, N, 3))
        return np.concatenate([v[:, i] / np.linalg.norm(v[:, i], axis=1, keepdims=True)
                               * r[:, i, None] for i in range(N)], axis=1)
    return np.concatenate([rng.standard_normal((n, 3)) / np.sqrt(g.omega)
                           for _ in range(N)], axis=1)


def _reference_pdf(g, x):
    """ReferenceDensity.pdf particle by particle: each electron's mixture
    of Gamma(3, s) radial pdfs over 4 pi r^2, its decay lengths added in
    order, and the electrons' factors multiplied in order (Coulomb)."""
    pos = x.reshape(x.shape[0], g.n_particles, 3)
    if g.family == "coulomb":
        p = np.ones(len(x))
        for i in range(g.n_particles):
            r = np.linalg.norm(pos[:, i], axis=1)
            g1 = 0.0
            for s in g.scales:
                g1 = g1 + np.exp(-r / s) / (8.0 * np.pi * s ** 3 * len(g.scales))
            p = p * g1
        return p
    c = (g.omega / (2.0 * np.pi)) ** (1.5 * g.n_particles)
    return c * np.exp(-0.5 * g.omega * np.sum(x * x, axis=1))


@pytest.mark.parametrize("name", [s.name for s in MODEL_STATES])
@pytest.mark.parametrize("n", [1, 37, 2048])
def test_reference_density_matches_particle_loop_bitwise(name, n):
    g = get_state(name).reference_density
    x = g.sample(np.random.default_rng(n), n)
    assert x.tobytes() == _reference_sample(g, np.random.default_rng(n), n).tobytes()
    # rows with an electron at the origin and with signed-zero coordinates
    pts = np.concatenate([x, x[:1] * 0.0, -(x[:1] * 0.0)])
    pts[-1, 3:] = x[0, 3:]
    assert g.pdf(pts).tobytes() == _reference_pdf(g, pts).tobytes()


# ------------------------ declared node proposals match the hand-written pairs


def _gamma_pdf(r, shape, scale):
    return np.exp((shape - 1) * np.log(r) - r / scale
                  - gammaln(shape) - shape * np.log(scale))


def _sphere(rng, n):
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _plane(Z):
    def draw(rng, n):
        s = rng.gamma(2.0, 2.0 / Z, size=n)
        phi = rng.uniform(0.0, 2.0 * np.pi, size=n)
        return np.stack([s, phi], axis=1)

    return draw, lambda p: _gamma_pdf(p[:, 0], 2.0, 2.0 / Z) / (2.0 * np.pi)


def _equal_radii(Z):
    def draw(rng, n):
        r = rng.gamma(6.0, 2.0 / (3.0 * Z), size=n)
        return np.column_stack([r, _sphere(rng, n), _sphere(rng, n)])

    return draw, lambda p: _gamma_pdf(p[:, 0], 6.0, 2.0 / (3.0 * Z)) / (4.0 * np.pi) ** 2


def _relative_plane(omega):
    def draw(rng, n):
        xy = rng.standard_normal((n, 4)) / np.sqrt(omega)
        z = rng.standard_normal(n) / np.sqrt(2.0 * omega)
        return np.concatenate([xy, z[:, None]], axis=1)

    def pdf(p):
        xy, z = p[:, :4], p[:, 4]
        return ((omega / (2.0 * np.pi)) ** 2 * np.sqrt(omega / np.pi)
                * np.exp(-0.5 * omega * np.sum(xy * xy, axis=1) - omega * z * z))

    return draw, pdf


def _azimuth_lock(Z):
    # columns (branch, r1, theta1, r2, theta2, alpha)
    def draw(rng, n):
        b = rng.integers(0, 2, size=n).astype(float)
        r1 = rng.gamma(3.0, 2.0 / Z, size=n)
        r2 = rng.gamma(3.0, 2.0 / Z, size=n)
        t1 = rng.uniform(0.0, np.pi, size=n)
        t2 = rng.uniform(0.0, np.pi, size=n)
        alpha = rng.uniform(0.0, 2.0 * np.pi, size=n)
        return np.stack([b, r1, t1, r2, t2, alpha], axis=1)

    def pdf(p):
        return (0.5 * _gamma_pdf(p[:, 1], 3.0, 2.0 / Z) * _gamma_pdf(p[:, 3], 3.0, 2.0 / Z)
                / (np.pi * np.pi * 2.0 * np.pi))

    return draw, pdf


def _azimuth_lock_map(coupling):
    def measure_map(params):
        b, r1, t1, r2, t2, alpha = (params[:, i] for i in range(6))
        s1, z1 = r1 * np.sin(t1), r1 * np.cos(t1)
        s2, z2 = r2 * np.sin(t2), r2 * np.cos(t2)
        phi2 = alpha + b * np.pi if coupling == "cross" else -alpha + b * np.pi
        coords = np.stack([s1 * np.cos(alpha), s1 * np.sin(alpha), z1,
                           s2 * np.cos(phi2), s2 * np.sin(phi2), z2], axis=1)
        return coords, np.sqrt(s1 ** 2 + s2 ** 2) * r1 * r2

    return measure_map


def _perpendicular_2e(Z):
    def draw(rng, n):
        r1 = rng.gamma(3.0, 2.0 / Z, size=n)
        r2 = rng.gamma(3.0, 2.0 / Z, size=n)
        n2 = _sphere(rng, n)
        chi = rng.uniform(0.0, 2.0 * np.pi, size=n)
        return np.column_stack([r1, r2, n2, chi])

    def pdf(p):
        return (_gamma_pdf(p[:, 0], 3.0, 2.0 / Z) * _gamma_pdf(p[:, 1], 3.0, 2.0 / Z)
                / (4.0 * np.pi * 2.0 * np.pi))

    return draw, pdf


def _perpendicular_4e(Z):
    def draw(rng, n):
        r = [rng.gamma(3.0, 2.0 / Z, size=n) for _ in range(4)]
        dirs = [_sphere(rng, n) for _ in range(3)]
        chi = rng.uniform(0.0, 2.0 * np.pi, size=n)
        return np.column_stack(r + dirs + [chi])

    def pdf(p):
        return np.prod([_gamma_pdf(p[:, i], 3.0, 2.0 / Z) for i in range(4)],
                       axis=0) / ((4.0 * np.pi) ** 3 * 2.0 * np.pi)

    return draw, pdf


def _paired_radial(Z):
    def draw(rng, n):
        b = rng.integers(0, 2, size=n).astype(float)
        r = rng.gamma(6.0, 2.0 / (3.0 * Z), size=n)
        na, nb = _sphere(rng, n), _sphere(rng, n)
        rs = [rng.gamma(3.0, 2.0 / Z, size=n) for _ in range(2)]
        ns = [_sphere(rng, n) for _ in range(2)]
        return np.column_stack([b, r, na, nb] + rs + ns)

    def pdf(p):
        # a spectator's density in space is gamma_pdf(rs) / (4 pi rs^2)
        r, rs1, rs2 = p[:, 1], p[:, 8], p[:, 9]
        return (0.5 * _gamma_pdf(r, 6.0, 2.0 / (3.0 * Z)) / (4.0 * np.pi) ** 2
                * _gamma_pdf(rs1, 3.0, 2.0 / Z) / (4.0 * np.pi * rs1 ** 2)
                * _gamma_pdf(rs2, 3.0, 2.0 / Z) / (4.0 * np.pi * rs2 ** 2))

    return draw, pdf


def _implicit_graph(Z):
    def draw(rng, n):
        r1 = rng.gamma(3.0, 2.0 / Z, size=n)
        n1 = _sphere(rng, n)
        s2 = rng.gamma(2.0, 2.0 / Z, size=n)
        p2 = rng.uniform(0.0, 2.0 * np.pi, size=n)
        return np.column_stack([r1, n1, s2, p2])

    def pdf(p):
        return (_gamma_pdf(p[:, 0], 3.0, 2.0 / Z) * _gamma_pdf(p[:, 4], 2.0, 2.0 / Z)
                / (4.0 * np.pi * 2.0 * np.pi))

    return draw, pdf


_REFERENCE_PROPOSALS = {
    "2P_2p": _plane, "3S_1s2s": _equal_radii, "3P_1s2p": _implicit_graph,
    "1S_1s2_2s2": _paired_radial, "1S_1s2_2p2": _perpendicular_4e,
    "3P_2p2": _azimuth_lock, "1S_2p2": _perpendicular_2e, "1D_2p2": _azimuth_lock,
    "harmonic_noninteracting": _relative_plane, "harmonic_exact": _relative_plane,
    "harmonic_mixed": _relative_plane,
}


def _reference_surface_points(s, params):
    """coords and dS of the geometry before its proposal was declared as
    factors: the azimuth lock took (branch, r1, theta1, r2, theta2, alpha),
    and the paired-radial dS left the spectators' rs^2 to the pdf."""
    if s.name in ("3P_2p2", "1D_2p2"):
        return _azimuth_lock_map("cross" if s.name == "3P_2p2" else "plus")(params)
    coords, dS, _ = s.node_param.measure_map(params)
    if s.name == "1S_1s2_2s2":
        dS = np.sqrt(2.0) * params[:, 1] ** 4
    return coords, dS


def test_reference_proposals_cover_every_parametrized_state():
    assert set(_REFERENCE_PROPOSALS) == {s.name for s in ALL if s.node_param}


@pytest.mark.parametrize("name", sorted(_REFERENCE_PROPOSALS))
@pytest.mark.parametrize("n", [1, 37, 2048])
def test_declared_proposal_matches_hand_written_pair(name, n):
    """Draws and mapped points bitwise, weights dS / pdf within 1e-14."""
    s = get_state(name)
    p = s.node_param
    scale = float(s.parameters["omega"] if "omega" in s.parameters else s.parameters["Z"])
    draw, pdf = _REFERENCE_PROPOSALS[name](scale)
    old = draw(np.random.default_rng(n), n)
    params = p.draw_params(np.random.default_rng(n), n)
    order = [0, 1, 3, 2, 4, 5] if p.kind == "azimuth_lock" else slice(None)
    assert params.tobytes() == old[:, order].tobytes()
    coords, dS, _ = p.measure_map(params)
    ref_coords, ref_dS = _reference_surface_points(s, old)
    assert coords.tobytes() == ref_coords.tobytes()
    np.testing.assert_allclose(dS / p.proposal_pdf(params), ref_dS / pdf(old),
                               rtol=1e-14, atol=0.0)


def _at(factor, *cols):
    return factor.pdf(np.array([cols], dtype=float))


@pytest.mark.parametrize("factor", [Gamma(2.0, 2.0), Gamma(6.0, 2.0 / 3.0),
                                    Gamma(3.0, 0.5)], ids=repr)
def test_gamma_factor_pdf_integrates_to_one(factor):
    total, _ = quad(lambda r: _at(factor, r)[0], 0.0, np.inf)
    assert abs(total - 1.0) < 1e-10


@pytest.mark.parametrize("factor", [Uniform(0.0, np.pi), Uniform(0.0, 2.0 * np.pi)],
                         ids=repr)
def test_uniform_factor_pdf_integrates_to_one(factor):
    total, _ = quad(lambda t: _at(factor, t), factor.lo, factor.hi)
    assert abs(total - 1.0) < 1e-12


@pytest.mark.parametrize("factor", [Normal(1, np.sqrt(0.5)), Normal(4, 0.5)], ids=repr)
def test_normal_factor_pdf_integrates_to_one(factor):
    # isotropic in its k columns: integrate over radius times the area of
    # the unit (k-1)-sphere
    k = factor.width
    area = 2.0 * np.pi ** (k / 2) / gamma_fn(k / 2)
    total, _ = quad(lambda r: _at(factor, r, *[0.0] * (k - 1))[0] * area * r ** (k - 1),
                    0.0, np.inf)
    assert abs(total - 1.0) < 1e-10


def test_sphere_and_branch_factor_pdfs_sum_to_one():
    sphere = Sphere()

    def on_sphere(phi, theta):
        d = (np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta))
        return _at(sphere, *d) * np.sin(theta)

    total, _ = dblquad(on_sphere, 0.0, np.pi, 0.0, 2.0 * np.pi)
    assert abs(total - 1.0) < 1e-12
    assert _at(Branch(), 0.0) + _at(Branch(), 1.0) == 1.0
