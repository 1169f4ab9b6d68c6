"""Workloads of the nda benchmark: fixed sets of operations built from a seed.

An operation ("op") is one estimator call, one `nda compute` invocation, one
topology query or one quadrature query.  Running an op returns the cells it
produced; `problems` applies the correctness rules to one cell.  The library
receives the seed only through `SamplerConfig`, `--seed` or the topology
functions' `seed` argument.

Calls go through module attributes (`estimators.estimate_pot_nda`, not a
name imported at load time) so that the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
from dataclasses import dataclass
from typing import Callable, List, Optional

from nda import catalog, cli, estimators, quadrature, topology

# Acceptance criterion 1: steps per chain at 1024 chains for the standard
# estimator, the pot_nda estimator and the surface kin_nda estimator.
CRITERION1_STEPS = {
    "3S_1s2s": dict(std=7_000, pot=2_000, surf=700),
    "3P_1s2p": dict(std=7_000, pot=2_000, surf=700),
    "1S_1s2_2s2": dict(std=21_000, pot=6_500, surf=900),
    "1S_1s2_2p2": dict(std=19_000, pot=6_200, surf=1_300),
}
STDERR_CAP = 2e-3          # criterion 1's stderr cap, the time_to_target target
P_TWO_SIDED = 1e-4         # false-alarm rate of one Student-t check

# The quadrature module has no reduction for these (state, target) pairs.
IRREDUCIBLE = {("3P_1s2p", "kin_nda"), ("1S_1s2_2p2", "kin_nda")}

# Shell cells that `estimate_kin_nda_shell` reports as "ok" although they are
# far from exact: a defect of the estimator.  On most seeds all three fail the
# checks; on a few, one of them lands inside the Student-t quantile.  They stay
# in the `nodes` workload and count in `failed`; `correct` only turns false
# when some other op fails.
KNOWN_BAD = frozenset({"shell:3P_1s2p", "shell:1S_1s2_2s2", "shell:1S_1s2_2p2"})


@dataclass(frozen=True)
class Budget:
    """Sample budgets of every workload; the defaults are the benchmark's."""

    # table2_wide: criterion 1's chains; the post-burn-in part of its step
    # budgets is scaled by wide_fraction, while the burn-in stays the
    # criterion's own 10%.  Scaling the burn-in too leaves start-up bias
    # (3S_1s2s pot_nda sits 2.5-4.2 sigma low at 1/8 scale), which would make
    # ops fail for the budget's sake rather than the program's.
    wide_chains: int = 1024
    wide_fraction: float = 1 / 16
    # catalog_narrow: `nda compute` at its default 8 chains
    narrow_steps: int = 2_000
    # nodes: criterion 6's shell budget, at which the known-bad shell cells
    # were reported; a quarter of the large shell call, of
    # count_nodal_domains' default resolution and of criterion 8's
    # equivalence points
    shell_chains: int = 16
    shell_draws: int = 50_000
    big_shell_draws: int = 250_000
    domain_points: int = 5_000
    equivalence_points: int = 25_000


@dataclass(frozen=True)
class Cell:
    """One checked number.  n_chains == 0 marks a deterministic result."""

    label: str
    value: float
    exact: Optional[float]
    stderr: float = 0.0
    n_chains: int = 0
    status: str = "ok"
    tol: float = 0.0


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], List[Cell]]
    has_target: bool = False     # counts towards time_to_target_s


ExactFn = Callable[[catalog.StateSpec, str], Optional[float]]


def catalog_exact(state: catalog.StateSpec, component: str) -> Optional[float]:
    """Exact value of kin_nda, pot_nda, kin_std or pot_std from the catalog."""
    kind, table = component.split("_")
    refs = state.exact_nda if table == "nda" else state.exact_standard
    value = (refs or {}).get(kind)
    return None if value is None else float(value)


@functools.lru_cache(maxsize=None)
def t_quantile(df: int) -> float:
    """Two-sided Student-t quantile for P_TWO_SIDED at df degrees of freedom."""
    from scipy.stats import t
    return float(t.ppf(1.0 - P_TWO_SIDED / 2.0, df))


def problems(cell: Cell) -> List[str]:
    """Every correctness rule the cell breaks (empty when it passes)."""
    if not (math.isfinite(cell.value) and math.isfinite(cell.stderr)):
        return [f"{cell.label}: non-finite result {cell.value} +- {cell.stderr}"]
    out = []
    if cell.status == "unconverged":
        out.append(f"{cell.label}: status unconverged")
    if cell.exact is None:
        return out
    dev = abs(cell.value - cell.exact)
    if cell.n_chains:
        q = t_quantile(cell.n_chains - 1)
        if dev > q * cell.stderr:
            out.append(f"{cell.label}: {cell.value:+.6g} +- {cell.stderr:.2g} is "
                       f"more than {q:.2f} stderr from exact {cell.exact:+.6g}")
        if cell.stderr > abs(cell.exact):
            out.append(f"{cell.label}: stderr {cell.stderr:.2g} exceeds "
                       f"|exact| {abs(cell.exact):.6g}")
    elif dev > cell.tol:
        out.append(f"{cell.label}: {cell.value!r} differs from exact "
                   f"{cell.exact!r} by more than {cell.tol:g}")
    return out


def target_factor(cells: List[Cell]) -> float:
    """max over the cells of (stderr / STDERR_CAP)^2."""
    return max((c.stderr / STDERR_CAP) ** 2 for c in cells)


# --------------------------------------------------------------------------
# op builders


def _estimate_cell(label, est, exact) -> Cell:
    return Cell(label, est.mean, exact, est.stderr, est.n_chains, est.status)


def _table2_wide(seed: int, budget: Budget, exact: ExactFn):
    states = [catalog.get_state(name) for name in CRITERION1_STEPS]
    ops = []
    for st in states:
        steps = CRITERION1_STEPS[st.name]

        def metropolis_cfg(full):
            burn = full // 10
            kept = max(2, round((full - burn) * budget.wide_fraction))
            return estimators.SamplerConfig(
                n_chains=budget.wide_chains, steps_per_chain=burn + kept,
                burn_in=burn, seed=seed)

        def std(st=st, cfg=metropolis_cfg(steps["std"])):
            res = estimators.estimate_standard_expectations(st, cfg=cfg)
            return [_estimate_cell(f"{st.name}.{k}_std", res[k],
                                   exact(st, f"{k}_std")) for k in ("kin", "pot")]

        def pot(st=st, cfg=metropolis_cfg(steps["pot"])):
            est = estimators.estimate_pot_nda(st, cfg=cfg)
            return [_estimate_cell(f"{st.name}.pot_nda", est, exact(st, "pot_nda"))]

        surf_cfg = estimators.SamplerConfig(
            n_chains=budget.wide_chains,
            steps_per_chain=max(2, round(steps["surf"] * budget.wide_fraction)),
            seed=seed)

        def surf(st=st, cfg=surf_cfg):
            est = estimators.estimate_kin_nda_surface(st, cfg=cfg)
            return [_estimate_cell(f"{st.name}.kin_nda", est, exact(st, "kin_nda"))]

        ops += [Op(f"std:{st.name}", std, True), Op(f"pot:{st.name}", pot, True),
                Op(f"surf:{st.name}", surf, True)]
    return ops


_COMPUTE_CELLS = (("kin", "kin_nda"), ("pot", "pot_nda"),
                  ("kin_std", "kin_std"), ("pot_std", "pot_std"))


def _catalog_narrow(seed: int, budget: Budget, exact: ExactFn):
    states = catalog.catalog_list()
    ops = []
    for st in states:
        argv = ["compute", "--state", st.name,
                "--components", ",".join(c for c, _ in _COMPUTE_CELLS),
                "--format", "json", "--steps", str(budget.narrow_steps),
                "--seed", str(seed)]

        def compute(st=st, argv=argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"nda compute exited with code {code}")
            record = json.loads(out.getvalue())["estimates"]
            return [Cell(f"{st.name}.{key}", record[comp]["mean"], exact(st, key),
                         record[comp]["stderr"], record[comp]["n_chains"],
                         record[comp]["status"])
                    for comp, key in _COMPUTE_CELLS]

        ops.append(Op(f"compute:{st.name}", compute))
    return ops


def _nodes(seed: int, budget: Budget, exact: ExactFn):
    states = catalog.catalog_list()
    by_name = {st.name: st for st in states}
    ops = []

    def shell(st, draws):
        cfg = estimators.SamplerConfig(n_chains=budget.shell_chains,
                                       steps_per_chain=draws, seed=seed)

        def run():
            est = estimators.estimate_kin_nda_shell(st, cfg=cfg)
            return [_estimate_cell(f"{st.name}.kin_nda", est, exact(st, "kin_nda"))]
        return run

    for st in states:
        if exact(st, "kin_nda") is not None:
            ops.append(Op(f"shell:{st.name}", shell(st, budget.shell_draws)))
    ops.append(Op("shell_large:2P_2p",
                  shell(by_name["2P_2p"], budget.big_shell_draws)))

    for name in ("2P_2p", "3P_2p2", "1S_2p2", "1D_2p2"):
        def domains(st=by_name[name]):
            rep = topology.count_nodal_domains(
                st, n_points=budget.domain_points, seed=seed)
            return [Cell(f"{st.name}.n_domains", rep.n_domains, 2)]
        ops.append(Op(f"domains:{name}", domains))

    def flip():
        a, b = by_name["1D_2p2"], by_name["3P_2p2"]
        out = topology.test_node_equivalence(
            a, b, topology.TransformSpec.axis_flip(2, axis=0, particle=1),
            n_points=budget.equivalence_points, seed=seed)
        return [Cell("1D_2p2->3P_2p2.equivalent",
                     float(out["verdict"] == "equivalent"), 1.0),
                Cell("1D_2p2->3P_2p2.agreement", out["agreement_fraction"], 1.0)]
    ops.append(Op("equiv:1D_2p2->3P_2p2", flip))

    for st in states:
        for target in quadrature.TARGETS:
            if (st.name, target) in IRREDUCIBLE:
                continue
            ex = None if target == "abs_norm" else exact(st, target)

            def query(st=st, target=target, ex=ex):
                value = quadrature.quadrature_oracle(st, target)
                return [Cell(f"{st.name}.{target}", value, ex, tol=1e-8)]
            ops.append(Op(f"quadrature:{st.name}:{target}", query))
    return ops


_BUILDERS = {"table2_wide": _table2_wide, "catalog_narrow": _catalog_narrow,
             "nodes": _nodes}


def build(workload: str, seed: int, budget: Budget, exact: ExactFn) -> List[Op]:
    """The workload's fixed list of ops, StateSpecs built; exact(state,
    component) supplies the reference values the ops are checked against."""
    return _BUILDERS[workload](seed, budget, exact)
