"""Print one ``label sha1`` line per seeded output of the nda program.

Each line names an output and gives the SHA-1 of its bytes (arrays) or of
the repr of its fields (estimates).  Run it in two checkouts and diff the
outputs: no difference means every listed output is bitwise unchanged.

    PYTHONPATH=src python tools/seeded_digest.py > digest.txt

For each of the 13 model states (the catalog states with a model, and
``subshell_k1_l1`` and ``subshell_k1_l2``), the outputs are:

* the model's ``evaluate`` at fixed points, 1, 37 and 2048 rows, some
  with signed-zero coordinates or an electron at the origin: all three
  parts of one call (labelled ``vgl``), ``values``, ``gradients``, the
  Laplacians alone (``laplacians``) and the radial derivatives
  x_i . grad_i Psi of ``evaluate(x, grad=True, radial=True)``;
* the reference density's ``sample`` and ``pdf`` at n = 1, 37 and 2048;
* where the node is parametrized, the node parameters ``draw_params`` and
  the importance points ``sample`` (coordinates and weights) at n = 1, 37
  and 2048;
* ``potential_batch`` of the state's Hamiltonian (and, for atoms, of the
  interacting atom) on those points, with coincident-particle rows;
* at 8 x 3000, 1024 x 60 and 3 x 5000 (chains x steps): pot, std, abs,
  surface, shell and ``metropolis_samples``;
* ``metropolis_samples`` at the topology module's own settings, 128
  chains kept at every 10th step (as ``count_nodal_domains`` at 1000
  points) and at every 4th (as ``test_node_equivalence``), and at no
  burn-in;
* on the two-domain states 2P_2p, 3P_2p2, 1S_2p2 and 1D_2p2 and on the
  four-domain 1S_1s2_2s2 (two determinants) and subshell_k1_l2 (x^2 - y^2,
  labelled by its two nodal planes), the ``count_nodal_domains`` report at
  1000 points, and on 1D_2p2 the ``test_node_equivalence`` result of the
  x_2 flip onto 3P_2p2 at 2000 points.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from nda import estimators as est
from nda import topology
from nda.catalog import catalog_list, get_state
from nda.hamiltonians import coulomb_atom, potential_batch

CONFIGS = ((8, 3000), (1024, 60), (3, 5000))
# topology's walks: (chains, steps, burn_in, thin)
WALKS = ((128, 130, 50, 10), (128, 250, 50, 4), (8, 300, 0, 1))
ROWS = (1, 37, 2048)
SUBSHELL_STATES = ("subshell_k1_l1", "subshell_k1_l2")
DOMAIN_STATES = ("2P_2p", "3P_2p2", "1S_2p2", "1D_2p2", "1S_1s2_2s2",
                 "subshell_k1_l2")


def _sha(obj) -> str:
    if isinstance(obj, np.ndarray):
        data = obj.dtype.str.encode() + repr(obj.shape).encode() + obj.tobytes()
    else:
        data = repr(obj).encode()
    return hashlib.sha1(data).hexdigest()


def _fields(value):
    """An estimate, or a dict of them, as a tuple of its exact fields: the
    (name, value) pairs of the fields that differ from their defaults, so
    that a field added with a default moves only the lines of the
    estimates that set it."""
    if isinstance(value, dict):
        return tuple((k, _fields(v)) for k, v in sorted(value.items()))
    return tuple((f.name, getattr(value, f.name)) for f in fields(value)
                 if getattr(value, f.name) != f.default)


def _points(n_particles: int, m: int, seed: int) -> np.ndarray:
    """m rows of 3N coordinates; from the fourth row on, every fourth row
    has signed-zero x (-0.0) and y (+0.0) coordinates and the last row puts
    electron 0 at the origin, and repeats it as electron 1 where there is
    one (a coincident pair)."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-4.0, 4.0, (m, 3 * n_particles))
    x[3::4, 0::3] = -0.0
    x[3::4, 1::3] = 0.0
    if m > 1:
        x[-1, 0:3] = 0.0
        if n_particles > 1:
            x[-1, 3:6] = 0.0
    return x


def digest(states: Optional[Sequence] = None,
           configs: Sequence[Tuple[int, int]] = CONFIGS,
           rows: Sequence[int] = ROWS) -> Iterator[str]:
    """Yield the ``label sha1`` lines for the given states, by default the
    13 model states."""
    states = states or catalog_list() + [get_state(n) for n in SUBSHELL_STATES]
    states = [s for s in states if s.model is not None]
    for st in states:
        model, g, n = st.model, st.reference_density, st.model.n_particles
        hams = [("h", st.hamiltonian())]
        if "Z" in st.parameters:
            hams.append(("h_ee", coulomb_atom(float(st.parameters["Z"]), ee=True)))
        for m in rows:
            x = _points(n, m, seed=m)
            vgl = model.evaluate(x, grad=True, lap=True)
            for part, a in zip(("v", "g", "lap"), vgl):
                yield f"{st.name}/vgl.{part}/m={m} {_sha(a)}"
            yield f"{st.name}/values/m={m} {_sha(model.values(x))}"
            yield f"{st.name}/gradients/m={m} {_sha(model.gradients(x))}"
            laps = model.evaluate(x, lap=True)[2]
            yield f"{st.name}/laplacians/m={m} {_sha(laps)}"
            radial = model.evaluate(x, grad=True, radial=True)[1]
            yield f"{st.name}/radial/m={m} {_sha(radial)}"
            draws = g.sample(np.random.default_rng(m), m)
            yield f"{st.name}/density.sample/n={m} {_sha(draws)}"
            yield f"{st.name}/density.pdf/n={m} {_sha(g.pdf(draws))}"
            yield f"{st.name}/density.pdf.points/m={m} {_sha(g.pdf(x))}"
            if st.node_param is not None:
                node = st.node_param
                params = node.draw_params(np.random.default_rng(m), m)
                yield f"{st.name}/node.draw_params/n={m} {_sha(params)}"
                coords, w = node.sample(np.random.default_rng(m), m)
                yield (f"{st.name}/node.sample/n={m} "
                       f"{_sha(np.column_stack([coords, w]))}")
            for label, h in hams:
                yield f"{st.name}/potential_batch.{label}/m={m} {_sha(potential_batch(h, x))}"
        for chains, steps in configs:
            cfg = est.SamplerConfig(n_chains=chains, steps_per_chain=steps)
            tag = f"{chains}x{steps}"
            runs = [("pot", lambda: est.estimate_pot_nda(st, cfg)),
                    ("std", lambda: est.estimate_standard_expectations(st, cfg)),
                    ("abs", lambda: est.estimate_abs_norm(st, cfg)),
                    ("surface", lambda: est.estimate_kin_nda_surface(st, cfg)),
                    ("shell", lambda: est.estimate_kin_nda_shell(st, cfg))]
            for name, run in runs:
                if name == "surface" and st.node_param is None:
                    continue
                if name == "shell" and chains < 2:
                    continue
                yield f"{st.name}/{name}/{tag} {_sha(_fields(run()))}"
            yield (f"{st.name}/metropolis_samples/{tag} "
                   f"{_sha(est.metropolis_samples(st, cfg))}")
        for chains, steps, burn, thin in WALKS:
            cfg = est.SamplerConfig(n_chains=chains, steps_per_chain=steps,
                                    burn_in=burn)
            yield (f"{st.name}/metropolis_samples/"
                   f"{chains}x{steps}.burn{burn}.thin{thin} "
                   f"{_sha(est.metropolis_samples(st, cfg, thin=thin))}")
        if st.name in DOMAIN_STATES:
            report = topology.count_nodal_domains(st, n_points=1000)
            yield f"{st.name}/count_nodal_domains/n=1000 {_sha(_fields(report))}"
        if st.name == "1D_2p2":
            flip = topology.TransformSpec.axis_flip(2, axis=0, particle=1)
            out = topology.test_node_equivalence(st, get_state("3P_2p2"), flip,
                                                 n_points=2000)
            yield (f"{st.name}/test_node_equivalence.3P_2p2.flip/n=2000 "
                   f"{_sha(sorted(out.items()))}")


if __name__ == "__main__":
    for line in digest():
        print(line, flush=True)
