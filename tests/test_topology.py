import unittest
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from scipy.spatial import cKDTree

from nda import estimators, topology
from nda import wavefunctions as wf
from nda.catalog import catalog_list, get_state, subshell_family
from nda.topology import (DomainReport, TransformSpec, count_nodal_domains,
                          find_block_transform, _sample_points)
from nda.topology import test_node_equivalence as node_equivalence


class TestTransformSpec(unittest.TestCase):
    def test_identity(self):
        t = TransformSpec.identity(2)
        self.assertEqual(t.matrix.shape, (6, 6))
        self.assertEqual(t.determinant, 1)
        x = np.arange(12.0).reshape(2, 6)
        self.assertTrue(np.array_equal(t.apply(x), x))

    def test_axis_flip(self):
        t = TransformSpec.axis_flip(2, axis=0, particle=1)
        x = np.arange(6.0)[None, :]
        y = t.apply(x)
        expect = x.copy()
        expect[0, 3] = -expect[0, 3]
        self.assertTrue(np.array_equal(y, expect))
        self.assertEqual(t.determinant, -1)

    def test_rejects_non_orthogonal(self):
        m = np.eye(6)
        m[0, 1] = 0.5
        with self.assertRaises(ValueError):
            TransformSpec(matrix=m)

    def test_rejects_block_structure_violation(self):
        # a rotation mixing coordinates of different particles is not
        # a per-particle block transform
        m = np.eye(6)
        c, s = np.cos(0.3), np.sin(0.3)
        m[0, 0], m[0, 3], m[3, 0], m[3, 3] = c, -s, s, c
        with self.assertRaises(ValueError):
            TransformSpec(matrix=m)


class TestDomainCount(unittest.TestCase):
    def test_single_plane_node_two_domains(self):
        rep = count_nodal_domains(get_state("2P_2p"), n_points=4000, seed=5)
        self.assertIsInstance(rep, DomainReport)
        self.assertEqual(rep.n_domains, 2)
        self.assertEqual(rep.n_points, 4000)

    def test_two_electron_states_two_domains(self):
        for name in ["3P_2p2", "1S_2p2"]:
            rep = count_nodal_domains(get_state(name), n_points=4000, seed=5)
            self.assertEqual(rep.n_domains, 2, name)

    def test_four_domain_orbital_stays_four(self):
        # the l=2, m=2 real orbital's node is two intersecting planes; the
        # same-label neighbour graph must not glue genuinely distinct domains;
        # likewise the l = 3 orbital's three planes and six wedges
        rep = count_nodal_domains(subshell_family(1, 2))
        self.assertEqual(rep.n_domains, 4)
        self.assertEqual(count_nodal_domains(_circular(3)).n_domains, 6)

    def test_product_of_two_determinants_four_domains(self):
        # Psi = D(r1, r2) D(r3, r4): one sign of Psi holds two domains, so
        # sign(Psi) alone reads 2; the pair of determinant signs reads 4
        rep = count_nodal_domains(get_state("1S_1s2_2s2"), n_points=5000)
        self.assertEqual(rep.n_domains, 4)

    def test_product_of_two_determinants_four_domains_across_seeds(self):
        # at 5 000 points a domain splits in two on these seeds unless every
        # same-label neighbour pair is kept
        for seed in (1, 2, 3):
            rep = count_nodal_domains(get_state("1S_1s2_2s2"), n_points=5000,
                                      seed=seed)
            self.assertEqual(rep.n_domains, 4, seed)

    def test_edges_tested_are_the_distinct_same_label_pairs(self):
        # each point's k nearest neighbours among the points of its own
        # label, every unordered pair counted once
        k = topology._K_NEIGHBORS
        for name in ("2P_2p", "1S_1s2_2s2"):
            st = get_state(name)
            pts = _sample_points(st, 1000, 20260801)
            labels = topology._labels(st.model, pts)
            pairs = set()
            for label in {tuple(row) for row in labels}:
                idx = np.flatnonzero(np.all(labels == label, axis=1))
                _, nbr = cKDTree(pts[idx]).query(pts[idx], k=k + 1)
                for i, row in zip(idx, nbr[:, 1:]):
                    pairs.update((min(i, j), max(i, j)) for j in idx[row])
            rep = count_nodal_domains(st, n_points=1000)
            self.assertEqual(rep.n_edges_tested, len(pairs), name)

    def test_note_mentions_upper_bound(self):
        rep = count_nodal_domains(get_state("2P_2p"), n_points=2000, seed=5)
        self.assertIn("upper bound", rep.confidence_note)

    def test_note_bounds_the_count_only_where_each_label_is_one_domain(self):
        # 1S_2p2 is a sum of terms, labelled by sign(Psi), which in general
        # can hold several domains, so its count can fall below the true
        # one: the note claims no unconditional bound
        rep = count_nodal_domains(get_state("1S_2p2"), n_points=1000)
        self.assertNotIn("upper bound;", rep.confidence_note)
        self.assertIn("if every sign of Psi holds one domain",
                      rep.confidence_note)
        self.assertIn("can fall below the true one", rep.confidence_note)

    def test_minimum_points_enforced(self):
        with self.assertRaises(ValueError):
            count_nodal_domains(get_state("2P_2p"), n_points=100)


def _circular(l):
    """The circular orbital of degree l as a state: subshell_family models
    l <= 2 only."""
    orb = wf.Orbital("hydrogenic_general", 1.0, n=l + 1)
    model = wf.SlaterProduct([wf.Term(coeff=1.0, blocks=(wf.DetBlock((orb,), (0,)),))],
                             n_particles=1, parameters={"Z": 1.0})
    return replace(subshell_family(1, l), name=f"circular_l{l}", model=model)


# the true domain counts: 2, but 4 where Psi is a product of two
# determinants (1S_1s2_2s2) or x^2 - y^2 (subshell_k1_l2), and 2l for the
# circular orbital of degree l
_TRUE_DOMAINS = {"1S_1s2_2s2": 4, "subshell_k1_l2": 4, "circular_l3": 6}
# 1S_1s2_2p2 reads 3 at 5 000 points on seed 2; at 10 000 points seeds
# 20260801 and 1-5 all read 2
_DOMAIN_POINTS = {"1S_1s2_2p2": 10_000}


@pytest.mark.parametrize("name", [s.name for s in catalog_list() if s.model]
                         + ["subshell_k1_l1", "subshell_k1_l2", "circular_l3"])
def test_domain_count_is_the_true_count(name):
    st = _circular(3) if name == "circular_l3" else get_state(name)
    rep = count_nodal_domains(st, n_points=_DOMAIN_POINTS.get(name, 5000))
    assert rep.n_domains == _TRUE_DOMAINS.get(name, 2)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_plane_labels_count_four_domains_on_reference_draws(seed):
    # labelled by the signs of x - y and x + y, each of x^2 - y^2's four
    # wedges is one label class; on i.i.d. draws from g, whose points
    # fill the wedges less evenly than the Psi^2 walk, sign(Psi) alone
    # read 2 or 3
    def from_g(state, n_points, seed, thin=10, n_chains=128):
        rng = estimators._stream(seed, estimators._TAG_TOPOLOGY)
        return state.reference_density.sample(rng, n_points)

    with mock.patch.object(topology, "_sample_points", from_g):
        rep = count_nodal_domains(subshell_family(1, 2), n_points=5000, seed=seed)
    assert rep.n_domains == 4


class TestEquivalence(unittest.TestCase):
    def test_self_equivalence_under_identity(self):
        st = get_state("3P_2p2")
        out = node_equivalence(st, st, TransformSpec.identity(2),
                                    n_points=20_000)
        self.assertEqual(out["verdict"], "equivalent")
        self.assertEqual(out["agreement_fraction"], 1.0)

    def test_nonpositive_point_count_rejected(self):
        st = get_state("3P_2p2")
        for n in (0, -5):
            with self.assertRaises(ValueError):
                node_equivalence(st, st, TransformSpec.identity(2), n_points=n)

    def test_singlet_triplet_flip_map(self):
        # flipping one axis of one particle carries the 1D node onto the 3P node
        t = TransformSpec.axis_flip(2, axis=0, particle=1)
        out = node_equivalence(get_state("1D_2p2"), get_state("3P_2p2"), t,
                                    n_points=20_000)
        self.assertEqual(out["verdict"], "equivalent")
        self.assertEqual(out["agreement_fraction"], 1.0)

    def test_inequivalent_nodes_detected(self):
        t = TransformSpec.identity(2)
        out = node_equivalence(get_state("1S_2p2"), get_state("3P_2p2"), t,
                                    n_points=20_000)
        self.assertEqual(out["verdict"], "inequivalent")
        self.assertLess(out["agreement_fraction"], 0.95)

    def test_one_evaluation_per_model_matches_the_three_pass_reference(self):
        # the reference evaluates values and gradients for the near-node
        # rule and values again on the kept points; the result must not move
        def off_node(model, x):
            # |Psi| > 1e-14 |x| |grad Psi|
            g = np.linalg.norm(model.gradients(x), axis=1)
            return np.abs(model.values(x)) > 1e-14 * np.linalg.norm(x, axis=1) * g

        def reference(a, b, t, n_points, seed):
            ma, mb = a.model, b.model
            pts = _sample_points(a, int(1.05 * n_points) + 64, seed, thin=4)
            ok = off_node(ma, pts) & off_node(mb, t.apply(pts))
            kept = pts[ok][:n_points]
            s = np.sign(ma.values(kept)) * np.sign(mb.values(t.apply(kept)))
            most = max(int(np.sum(s > 0)), int(np.sum(s < 0)))
            total = kept.shape[0]
            return {"verdict": "equivalent" if most == total else "inequivalent",
                    "agreement_fraction": most / total, "n_points": total,
                    "resampled": int(np.sum(~ok[:n_points]))}

        q, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(3, 3)))
        cases = [("1S_2p2", "3P_2p2", TransformSpec.identity(2)),
                 ("3S_1s2s", "3P_1s2p", TransformSpec.from_blocks([q, np.eye(3)], (1, 0)))]
        for a, b, t in cases:
            args = (get_state(a), get_state(b), t, 5_000, 11)
            self.assertEqual(node_equivalence(*args), reference(*args), (a, b))

    def test_search_finds_the_singlet_triplet_map(self):
        t = find_block_transform(get_state("1D_2p2"), get_state("3P_2p2"), seed=2)
        self.assertIsNotNone(t)
        out = node_equivalence(get_state("1D_2p2"), get_state("3P_2p2"), t,
                                    n_points=50_000)
        self.assertEqual(out["agreement_fraction"], 1.0)

    def test_extreme_z_flip_keeps_every_point(self):
        # the near-node rule is free of the length scale 1 / Z: at Z = 1e13
        # no point is within float noise of either node
        a, b = get_state("1D_2p2", Z=1e13), get_state("3P_2p2", Z=1e13)
        out = node_equivalence(a, b, TransformSpec.axis_flip(2, axis=0, particle=1),
                               n_points=5000)
        self.assertEqual(out["verdict"], "equivalent")
        self.assertEqual(out["agreement_fraction"], 1.0)
        self.assertEqual(out["n_points"], 5000)
        self.assertEqual(out["resampled"], 0)

    def test_search_finds_the_map_at_extreme_z(self):
        t = find_block_transform(get_state("1D_2p2", Z=1e13),
                                 get_state("3P_2p2", Z=1e13), seed=2)
        self.assertIsNotNone(t)

    def test_no_point_off_the_nodes_is_an_error(self):
        # every sampled point on the 2P_2p node z = 0: no sign to compare
        st = get_state("2P_2p")

        def on_node(state, n_points, seed, thin=10, n_chains=128):
            pts = np.random.default_rng(seed).normal(size=(n_points, 3))
            pts[:, 2] = 0.0
            return pts

        with mock.patch.object(topology, "_sample_points", on_node):
            with self.assertRaisesRegex(ValueError, "off both nodes"):
                node_equivalence(st, st, TransformSpec.identity(1), n_points=100)

    def test_search_honestly_fails_for_different_node_geometry(self):
        # the 1S node is a full quadric cone in the pair coordinates, the 3P
        # node a product of hyperplane factors; no signed permutation with
        # particle exchange can map one onto the other
        t = find_block_transform(get_state("1S_2p2"), get_state("3P_2p2"), seed=2)
        self.assertIsNone(t)

    def test_search_refuses_more_than_two_particles(self):
        # 48^4 4! candidates for four electrons: refused, with the count,
        # before any point is drawn
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampling started")

        with mock.patch.object(topology, "_sample_points", no_sampling):
            with self.assertRaisesRegex(ValueError, "127,401,984"):
                find_block_transform(get_state("1S_1s2_2s2"),
                                     get_state("1S_1s2_2p2"))


if __name__ == "__main__":
    unittest.main()
