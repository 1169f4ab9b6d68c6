"""Stderr calibration: z-scores of the estimators against the exact values.

Runs the named estimators over a seed range and a set of catalog states at
one config, and scores each estimate against the catalog's exact value
(abs: the quadrature oracle's integral of |Psi|), z = (mean - exact) /
stderr.  If the quoted stderr is honest, the z-scores of an estimator at
n_chains chains follow Student's t with n_chains - 1 degrees of freedom.
It prints:

* per (state, component, estimator) cell, the z mean, s.d. and largest
  |z| over seeds, and the bias: the mean over seeds of (mean - exact)
  divided by its across-seed standard error.  Unlike the z mean, the bias
  does not move when (mean - exact) and the quoted stderr are correlated
  (a skewed estimator), so it separates a real bias from skew; and, where
  the estimator records one (pot, std), the control share: the median over
  seeds of stderr_uncontrolled / stderr, how far its control variates cut
  the stderr;
* pooled per estimator, the fraction of |z| beyond the two-sided 95 % and
  99 % t quantiles (5 % and 1 % expected) and the KS p-value of all its
  z-scores against that t law.

By default it runs the 13 model states: the catalog states with a model
and ``subshell_k1_l1`` and ``subshell_k1_l2``.  Each (seed, state) cell
runs at its own seed, derived from the seed and the state's name through
numpy's SeedSequence (cell_seed): states with the same reference density g
(1S_1s2_2s2 and 1S_1s2_2p2; 3S_1s2s and 3P_1s2p) would otherwise share
their i.i.d. draws, and their cells would not be independent.

    PYTHONPATH=src python tools/calibrate.py --estimators shell \\
        --seeds 201-210 --chains 16 --steps 50000
"""

from __future__ import annotations

import argparse
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from nda import estimators as est
from nda.catalog import StateSpec, catalog_list, get_state
from nda.quadrature import NotReducibleError, quadrature_oracle

SUBSHELL_STATES = ("subshell_k1_l1", "subshell_k1_l2")

# name -> (applies to the state, run, [(component, result key)])
ESTIMATORS = {
    "abs": (lambda st: True, est.estimate_abs_norm, [("abs_norm", None)]),
    "pot": (lambda st: True, est.estimate_pot_nda, [("pot_nda", None)]),
    "std": (lambda st: True, est.estimate_standard_expectations,
            [("kin_std", "kin"), ("pot_std", "pot")]),
    "surface": (lambda st: st.node_param is not None,
                est.estimate_kin_nda_surface, [("kin_nda", None)]),
    "shell": (lambda st: True, est.estimate_kin_nda_shell, [("kin_nda", None)]),
}


def exact_value(state: StateSpec, component: str) -> Optional[float]:
    """The catalog's exact kin_nda, pot_nda, kin_std or pot_std, or the
    quadrature oracle's abs_norm (the integral of |Psi|), if any."""
    if component == "abs_norm":
        try:
            return float(quadrature_oracle(state, "abs_norm"))
        except NotReducibleError:
            return None
    kind, table = component.split("_")
    refs = state.exact_nda if table == "nda" else state.exact_standard
    value = (refs or {}).get(kind)
    return None if value is None else float(value)


def cell_seed(seed: int, state: str) -> int:
    """The sampler seed of one (seed, state) cell: 64 bits of the
    SeedSequence of the seed and the bytes of the state's name."""
    entropy = (seed & (2 ** 64 - 1), *state.encode())
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def z_scores(names: Sequence[str], seeds: Sequence[int],
             states: Sequence[StateSpec], n_chains: int,
             steps: int) -> Iterator[Tuple[str, str, str, int, float, float,
                                           Optional[float]]]:
    """Yield (estimator, state, component, seed, z, mean - exact, share) for
    every cell with an exact value, each run at cell_seed(seed, state);
    share is stderr_uncontrolled / stderr, or None where the estimate
    records no stderr_uncontrolled."""
    for name in names:
        applies, run, parts = ESTIMATORS[name]
        for st in states:
            cells = [(comp, key, exact_value(st, comp)) for comp, key in parts]
            cells = [c for c in cells if c[2] is not None]
            if st.model is None or not cells or not applies(st):
                continue
            for seed in seeds:
                cfg = est.SamplerConfig(n_chains=n_chains, steps_per_chain=steps,
                                        seed=cell_seed(seed, st.name))
                res = run(st, cfg)
                for comp, key, exact in cells:
                    e = res if key is None else res[key]
                    z = (e.mean - exact) / e.stderr if e.stderr > 0 else np.inf
                    share = (None if e.stderr_uncontrolled is None
                             else e.stderr_uncontrolled / e.stderr)
                    yield name, st.name, comp, seed, float(z), e.mean - exact, share


def bias(deviations: Sequence[float]) -> float:
    """The mean of the deviations over its across-seed standard error (0
    for deviations all 0, infinite for equal nonzero ones)."""
    d = np.asarray(deviations)
    se = float(np.std(d, ddof=1) / np.sqrt(d.size)) if d.size > 1 else 0.0
    if se > 0.0:
        return float(d.mean() / se)
    return float(np.sign(d.mean()) * np.inf) if d.mean() else 0.0


def report(rows: Sequence[Tuple[str, str, str, int, float, float,
                                Optional[float]]],
           n_chains: int) -> List[str]:
    """The per-cell and pooled lines for the rows of z_scores."""
    from scipy import stats
    df = n_chains - 1
    q95, q99 = (float(stats.t.ppf(1.0 - p / 2.0, df)) for p in (0.05, 0.01))
    lines = [f"{'estimator':9s} {'state':24s} {'component':9s} "
             f"{'n':>4s} {'z mean':>7s} {'z s.d.':>7s} {'max |z|':>7s} "
             f"{'unc/se':>8s} {'bias/se':>7s}"]
    cells = {}
    for name, state, comp, _, z, dev, share in rows:
        cells.setdefault((name, state, comp), []).append((z, dev, share))
    for (name, state, comp), zds in cells.items():
        z = np.asarray([t[0] for t in zds])
        sd = float(np.std(z, ddof=1)) if z.size > 1 else float("nan")
        shares = [t[2] for t in zds if t[2] is not None]
        share = f"{np.median(shares):8.3g}" if shares else f"{'-':>8s}"
        lines.append(f"{name:9s} {state:24s} {comp:9s} {z.size:4d} "
                     f"{z.mean():+7.2f} {sd:7.2f} {np.abs(z).max():7.2f} "
                     f"{share} {bias([t[1] for t in zds]):+7.2f}")
    t_sd = np.sqrt(df / (df - 2.0)) if df > 2 else float("inf")
    lines.append(f"pooled, against t_{df} (s.d. {t_sd:.2f}; 5 % beyond {q95:.2f}, "
                 f"1 % beyond {q99:.2f}):")
    for name in dict.fromkeys(r[0] for r in rows):
        z = np.asarray([r[4] for r in rows if r[0] == name])
        p = float(stats.kstest(z, "t", args=(df,)).pvalue)
        sd = float(np.std(z, ddof=1)) if z.size > 1 else float("nan")
        lines.append(f"  {name:9s} n {z.size:5d}  z mean {z.mean():+.2f}  "
                     f"s.d. {sd:.2f}  beyond 95 % {np.mean(np.abs(z) > q95):.3f}  "
                     f"beyond 99 % {np.mean(np.abs(z) > q99):.3f}  KS p {p:.3g}")
    return lines


def _seeds(text: str) -> List[int]:
    """"201-210" or "7,20260801" (or a mix) as a list of seeds."""
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi) + 1)) if hi else [int(lo)]
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--estimators", default="shell",
                    help=f"comma list of {', '.join(ESTIMATORS)}")
    ap.add_argument("--seeds", default="201-210", help="e.g. 201-230 or 7,8")
    ap.add_argument("--states", default=None,
                    help="comma list of states (default: the 13 model "
                         "states)")
    ap.add_argument("--chains", type=int, default=16)
    ap.add_argument("--steps", type=int, default=50_000)
    args = ap.parse_args(argv)
    names = args.estimators.split(",")
    unknown = [n for n in names if n not in ESTIMATORS]
    if unknown:
        ap.error(f"unknown estimators {unknown}")
    if args.chains < 2:
        ap.error("--chains must be at least 2")
    states = ([get_state(s) for s in args.states.split(",")] if args.states
              else catalog_list() + [get_state(s) for s in SUBSHELL_STATES])
    rows = list(z_scores(names, _seeds(args.seeds), states, args.chains,
                         args.steps))
    for line in report(rows, args.chains):
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
