import unittest
import warnings
from itertools import combinations

import numpy as np

from nda.catalog import catalog_list, get_state
from nda.hamiltonians import (HamiltonianSpec, NodeProximityError,
                              SingularPointError, coulomb_atom, harmonic_pair,
                              local_energy, potential_batch)


class TestPotential(unittest.TestCase):
    def test_coulomb_single_electron(self):
        h = coulomb_atom(Z=2, ee=False)
        # one electron at distance 2 -> V = -Z/r = -1
        self.assertAlmostEqual(potential_batch(h, np.array([[0.0, 0.0, 2.0]]))[0],
                               -1.0, places=14)

    def test_coulomb_repulsion_term(self):
        h_on = coulomb_atom(Z=1, ee=True)
        h_off = coulomb_atom(Z=1, ee=False)
        x = np.array([[1.0, 0, 0, -1.0, 0, 0]])  # r1 = r2 = 1, r12 = 2
        self.assertAlmostEqual(potential_batch(h_on, x)[0], -2.0 + 0.5, places=14)
        self.assertAlmostEqual(potential_batch(h_off, x)[0], -2.0, places=14)

    def test_harmonic_values(self):
        h = harmonic_pair(omega=0.25, g0=1.0)
        x = np.array([[1.0, 0, 0, 0, 1.0, 0]])
        expect = 0.5 * 0.25**2 * 2.0 + 1.0 / np.sqrt(2.0)
        self.assertAlmostEqual(potential_batch(h, x)[0], expect, places=14)

    def test_singularities_raise(self):
        # local_energy off the node: an electron at the nucleus (3S_1s2s),
        # and two coincident electrons where Psi does not vanish (1S_2p2)
        h = coulomb_atom(Z=1, ee=True)
        x = np.array([0.3, -0.4, 1.2, 0.7, 0.5, -0.9])
        for name, R in (("3S_1s2s", np.r_[0.0, 0.0, 0.0, x[3:]]),
                        ("1S_2p2", np.r_[x[:3], x[:3]])):
            with self.assertRaises(SingularPointError):
                local_energy(h, get_state(name).model, R)

    def test_singular_rows_are_inf_in_a_batch(self):
        rng = np.random.default_rng(5)
        for h in (coulomb_atom(Z=1, ee=True), harmonic_pair(omega=0.25, g0=1.0)):
            x = rng.normal(size=(6, 6))
            x[1, 3:6] = 0.0               # electron at the nucleus
            x[4, 3:6] = x[4, 0:3]         # coincident particles
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                V = potential_batch(h, x)
            regular = [0, 2, 3, 5]
            self.assertEqual(V[regular].tobytes(),
                             potential_batch(h, x[regular]).tobytes())
            self.assertTrue(np.isinf(V[4]))
            if h.family == "coulomb_atom":
                self.assertTrue(np.isinf(V[1]))

    def test_bad_family_rejected(self):
        with self.assertRaises(ValueError):
            HamiltonianSpec(family="lattice")
        with self.assertRaises(ValueError):
            coulomb_atom(Z=0)
        with self.assertRaises(ValueError):
            harmonic_pair(omega=-1.0)

    def test_harmonic_needs_two_particles(self):
        h = harmonic_pair(omega=0.25)
        with self.assertRaises(ValueError):
            potential_batch(h, np.zeros((1, 9)))


def _reference_potential_batch(h, x):
    """potential_batch with np.linalg.norm per electron and per pair."""
    n = x.shape[1] // 3
    pos = x.reshape(x.shape[0], n, 3)
    bad = np.zeros(x.shape[0], dtype=bool)

    def safe(d):
        near = d < 1e-300
        bad[:] |= near.any(axis=1) if near.ndim > 1 else near
        return np.where(near, 1.0, d)

    if h.family == "coulomb_atom":
        v = np.zeros(x.shape[0])
        v -= h.Z * np.sum(1.0 / safe(np.linalg.norm(pos, axis=2)), axis=1)
        if h.ee:
            for i, j in combinations(range(n), 2):
                v += 1.0 / safe(np.linalg.norm(pos[:, i] - pos[:, j], axis=1))
    else:
        v = 0.5 * h.omega ** 2 * np.sum(x * x, axis=1)
        if h.g0 != 0.0:
            v += h.g0 / safe(np.linalg.norm(pos[:, 0] - pos[:, 1], axis=1))
    v[bad] = np.inf
    return v


class TestPotentialBatchBitwise(unittest.TestCase):
    def test_matches_per_pair_loop(self):
        rng = np.random.default_rng(11)
        cases = [(coulomb_atom(Z=z, ee=ee), n) for z in (1.0, 2.5)
                 for ee in (False, True) for n in (1, 2, 3, 4)]
        cases += [(harmonic_pair(omega=0.25, g0=g0), 2) for g0 in (0.0, 1.0)]
        for h, n in cases:
            for m in (1, 37, 2048):
                x = rng.uniform(-4.0, 4.0, (m, 3 * n))
                if m > 1:
                    x[-1, :3] = 0.0                       # electron at the origin
                    if n > 1:
                        x[-2, 3:6] = x[-2, :3]            # coincident pair
                    x[0, 1::3] = -0.0                     # signed zeros
                got = potential_batch(h, x)
                self.assertEqual(got.tobytes(),
                                 _reference_potential_batch(h, x).tobytes(), (h, n, m))


class TestLocalEnergy(unittest.TestCase):
    def test_every_catalog_eigenstate_is_flat(self):
        rng = np.random.default_rng(42)
        for s in catalog_list():
            if s.model is None or s.exact_total_energy is None:
                continue
            h = s.hamiltonian()
            E = float(s.exact_total_energy)
            x = rng.normal(scale=2.0, size=(200, 3 * s.model.n_particles))
            vals = s.model.values(x)
            for row, v in zip(x, vals):
                if abs(v) < 1e-6:
                    continue
                self.assertAlmostEqual(local_energy(h, s.model, row), E,
                                       delta=5e-9, msg=s.name)

    def test_node_proximity_guard(self):
        s = get_state("2P_2p")
        h = s.hamiltonian()
        on_node = np.array([1.0, 1.0, 0.0])  # z = 0 plane
        with self.assertRaises(NodeProximityError):
            local_energy(h, s.model, on_node)

    def test_node_guard_is_scale_free(self):
        # at Z = 1e30, |psi| / |grad psi| ~ 1/Z lies far below 1e-14, yet
        # the point is off the node; 2p_z is an eigenstate with E = -Z^2/8
        Z = 1e30
        s = get_state("2P_2p", Z=Z)
        x = np.array([0.3, -0.4, 1.2]) / Z
        self.assertAlmostEqual(local_energy(s.hamiltonian(), s.model, x) / (-Z * Z / 8),
                               1.0, places=12)

    def test_mixed_state_is_not_flat(self):
        # the noninteracting state under the interacting hamiltonian
        s = get_state("harmonic_mixed")
        h = s.hamiltonian()
        self.assertEqual(h.g0, 1.0)
        rng = np.random.default_rng(1)
        x = rng.normal(scale=1.5, size=(50, 6))
        vals = [local_energy(h, s.model, row) for row in x
                if abs(s.model.values(row[None, :])[0]) > 1e-6]
        self.assertGreater(np.ptp(vals), 0.01)


if __name__ == "__main__":
    unittest.main()
