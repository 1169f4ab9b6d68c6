"""Reproduce the headline result tables for the two- and four-electron atoms.

For each state the script prints the standard kinetic/potential expectation
values next to the nodal-domain versions, Monte Carlo against the exact
rationals.  Use --quick for a fast smoke run, or --state to restrict to one
row.
"""

import argparse
import sys

from nda.catalog import get_state
from nda.estimators import (SamplerConfig, estimate_kin_nda_surface,
                            estimate_pot_nda, estimate_standard_expectations)

STATES = ["2P_2p", "3S_1s2s", "3P_1s2p", "1S_1s2_2s2", "1S_1s2_2p2",
          "3P_2p2", "1S_2p2", "1D_2p2"]


def run(name, cfg):
    st = get_state(name)
    std = estimate_standard_expectations(st, cfg=cfg)
    kin = estimate_kin_nda_surface(st, cfg=cfg)
    cells = [("kin", std["kin"], st.exact_standard["kin"]),
             ("pot", std["pot"], st.exact_standard["pot"]),
             ("kin_nda", kin, st.exact_nda["kin"]),
             ("pot_nda", estimate_pot_nda(st, cfg=cfg), st.exact_nda["pot"])]
    print(f"{name}  (E = {float(st.exact_total_energy):+.4f})")
    for label, est, exact in cells:
        ex = float(exact)
        dev = abs(est.mean - ex) / est.stderr if est.stderr else float("nan")
        flag = "" if dev <= 3 else "   <-- off"
        print(f"    {label:8s} {est.mean:+.6f} +- {est.stderr:.1e}   "
              f"exact {str(exact):>12s} = {ex:+.6f}   {dev:4.1f} sigma{flag}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--state", choices=STATES, help="run a single state")
    ap.add_argument("--quick", action="store_true",
                    help="small sampling budget (rough error bars)")
    ap.add_argument("--seed", type=int, default=20260801)
    args = ap.parse_args(argv)

    steps = 20_000 if args.quick else 120_000
    cfg = SamplerConfig(n_chains=8, steps_per_chain=steps, seed=args.seed)
    print(f"sampling: {cfg.n_chains} chains x {steps} steps, seed {args.seed}\n")
    for name in ([args.state] if args.state else STATES):
        run(name, cfg)
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
