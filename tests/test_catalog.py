import json
from fractions import Fraction

import numpy as np
import pytest

from nda.catalog import (catalog_list, catalog_to_json, get_state,
                         node_parametrization, subshell_family)
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
    assert params.shape == (377, p.n_params)
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


def test_reference_density_pdf_matches_sampler():
    # E_g[h/g] = 1 for any normalized h supported where g > 0
    rng = np.random.default_rng(77)
    for name in ["2P_2p", "3S_1s2s", "1S_1s2_2p2", "harmonic_exact"]:
        g = get_state(name).reference_density
        x = g.sample(rng, 40_000)
        dim = x.shape[1]
        h = np.exp(-0.5 * np.sum((x / 3.0) ** 2, axis=1)) / (2 * np.pi * 9.0) ** (dim / 2)
        ratio = h / g.pdf(x)
        assert abs(ratio.mean() - 1.0) < 5e-2, name


def test_proposal_steps_are_tuned_per_state():
    for s in ALL:
        if s.model is not None:
            assert s.proposal_step > 0.0
    # heavier states take shorter steps
    assert get_state("1S_1s2_2s2").proposal_step < get_state("2P_2p").proposal_step


# ------------------------------------- stacked reference draws stay bitwise


def _reference_sample(g, rng, n):
    """ReferenceDensity.sample particle by particle: a gamma radius and a
    normal direction normalized by np.linalg.norm (Coulomb), or a scaled
    normal draw (harmonic), concatenated along the coordinates."""
    cols = []
    for _ in range(g.n_particles):
        if g.family == "coulomb":
            r = rng.gamma(3.0, 1.0 / g.a, size=n)
            v = rng.standard_normal((n, 3))
            cols.append(v / np.linalg.norm(v, axis=1, keepdims=True) * r[:, None])
        else:
            cols.append(rng.standard_normal((n, 3)) / np.sqrt(g.omega))
    return np.concatenate(cols, axis=1)


def _reference_pdf(g, x):
    pos = x.reshape(x.shape[0], g.n_particles, 3)
    if g.family == "coulomb":
        r = np.linalg.norm(pos, axis=2)
        c = (g.a ** 3 / (8.0 * np.pi)) ** g.n_particles
        return c * np.exp(-g.a * np.sum(r, axis=1))
    c = (g.omega / (2.0 * np.pi)) ** (1.5 * g.n_particles)
    return c * np.exp(-0.5 * g.omega * np.sum(x * x, axis=1))


@pytest.mark.parametrize("name", [s.name for s in ALL if s.reference_density])
@pytest.mark.parametrize("n", [1, 37, 2048])
def test_reference_density_matches_particle_loop_bitwise(name, n):
    g = get_state(name).reference_density
    x = g.sample(np.random.default_rng(n), n)
    assert x.tobytes() == _reference_sample(g, np.random.default_rng(n), n).tobytes()
    # rows with an electron at the origin and with signed-zero coordinates
    pts = np.concatenate([x, x[:1] * 0.0, -(x[:1] * 0.0)])
    pts[-1, 3:] = x[0, 3:]
    assert g.pdf(pts).tobytes() == _reference_pdf(g, pts).tobytes()
