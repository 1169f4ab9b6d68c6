"""Walk through the simplest case end to end: one electron in a 2p orbital.

The wave function psi = z * exp(-Z r / 2) vanishes on the plane z = 0, which
splits space into two nodal domains.  The usual kinetic/potential split gives
(1/8, -1/4) Z^2.  Integrating |grad psi| over the nodal plane instead, and
|psi| (not |psi|^2) over each domain, gives the alternative split
(1/24, -1/6) Z^2 -- same total, different story about where the energy lives.

This script computes both splits three ways: exact rationals, deterministic
quadrature, and Monte Carlo, and shows they all agree.
"""

import numpy as np

from nda.catalog import get_state
from nda.estimators import (SamplerConfig, estimate_kin_nda_surface,
                            estimate_pot_nda, estimate_standard_expectations)
from nda.quadrature import quadrature_oracle

state = get_state("2P_2p")
print(f"state: {state.name}   E = {state.exact_total_energy} Z^2 "
      f"= {float(state.exact_total_energy):+.6f}")
print(f"node: {state.node_param.description}")
print()

print("exact coefficients of Z^2")
print(f"  standard split: kin {state.exact_standard['kin']}, "
      f"pot {state.exact_standard['pot']}")
print(f"  domain split:   kin {state.exact_nda['kin']}, "
      f"pot {state.exact_nda['pot']}")
print()

print("deterministic quadrature (composite Gauss-Legendre on graded radial "
      "panels after angular reduction)")
for target in ["kin_nda", "pot_nda"]:
    val = quadrature_oracle(state, target)
    ex = float(state.exact_nda[target.split("_")[0]])
    print(f"  {target}: {val:+.12f}   (exact {ex:+.12f}, diff {abs(val - ex):.1e})")
print()

cfg = SamplerConfig(n_chains=8, steps_per_chain=40_000, seed=7)
print(f"Monte Carlo ({cfg.n_chains} chains x {cfg.steps_per_chain} steps)")
std = estimate_standard_expectations(state, cfg=cfg)
pot = estimate_pot_nda(state, cfg=cfg)
kin = estimate_kin_nda_surface(state, cfg=cfg)
rows = [
    ("kin (|grad psi|^2 / 2, |psi|^2 weight)", std["kin"], 1 / 8),
    ("pot (V, |psi|^2 weight)", std["pot"], -1 / 4),
    ("kin (node integral of |grad psi|)", kin, 1 / 24),
    ("pot (V, |psi| weight)", pot, -1 / 6),
]
for label, est, ex in rows:
    dev = abs(est.mean - ex) / est.stderr
    print(f"  {label:42s} {est.mean:+.6f} +- {est.stderr:.1e}  ({dev:.1f} sigma)")
print()

tot_nda = kin.mean + pot.mean
err = np.hypot(kin.stderr, pot.stderr)
print(f"sum of the alternative split: {tot_nda:+.6f} +- {err:.1e} "
      f"(eigenvalue {float(state.exact_total_energy):+.6f})")
