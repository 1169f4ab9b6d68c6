"""How the domain-averaged split behaves as angular momentum grows.

For k noninteracting electrons filling an (l+1)p-like subshell (all radial
quantum numbers minimal), every energy in sight is an exact rational:

    kin_nda + pot_nda = -k Z^2 / (2 (l+1)^2)        (the eigenvalue)
    kin_nda / kin     = l / (l + 2)
    pot_nda / pot     = (l + 1) / (l + 2)

Both ratios climb toward 1, i.e. at high angular momentum the two ways of
splitting the energy agree -- the quasiclassical limit.  This script tabulates
the approach and optionally cross-checks one low-l member against Monte Carlo.
"""

import argparse
import sys
from fractions import Fraction

from nda.reference import (SubshellParams, quasiclassical_gap,
                           subshell_kin_nda, subshell_pot_nda, subshell_total)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lmax", type=int, default=60)
    ap.add_argument("--mc-check", action="store_true",
                    help="also sample the l=2 single-electron member")
    args = ap.parse_args(argv)

    print(" l    kin_nda/E_kin     pot_nda/E_pot     1 - pot ratio")
    for l in [1, 2, 3, 5, 8, 13, 21, 34, args.lmax]:
        if l > args.lmax:
            break
        g = quasiclassical_gap(SubshellParams(k=1, l=l))
        print(f"{l:3d}   {str(g['kin_ratio']):>10s} = {float(g['kin_ratio']):.4f}"
              f"   {str(g['pot_ratio']):>10s} = {float(g['pot_ratio']):.4f}"
              f"   {float(1 - g['pot_ratio']):.4f}")

    p = SubshellParams(k=6, l=1, Z=Fraction(2))
    print(f"\nfilled 2p shell at Z=2: kin_nda = {subshell_kin_nda(p)}, "
          f"pot_nda = {subshell_pot_nda(p)}, total = {subshell_total(p)}")

    if args.mc_check:
        from nda.catalog import get_state
        from nda.estimators import (SamplerConfig, estimate_kin_nda_shell,
                                    estimate_pot_nda)
        st = get_state("subshell_k1_l2")
        cfg = SamplerConfig(n_chains=8, steps_per_chain=60_000, seed=5)
        # no parametrized node: kin by the delta shell, as --method auto
        kin = estimate_kin_nda_shell(st, cfg=cfg)
        pot = estimate_pot_nda(st, cfg=cfg)
        ek = float(subshell_kin_nda(SubshellParams(k=1, l=2)))
        ep = float(subshell_pot_nda(SubshellParams(k=1, l=2)))
        print(f"\nMonte Carlo check, single l=2 electron:")
        print(f"  kin_nda {kin.mean:+.6f} +- {kin.stderr:.1e} (exact {ek:+.6f})")
        print(f"  pot_nda {pot.mean:+.6f} +- {pot.stderr:.1e} (exact {ep:+.6f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
