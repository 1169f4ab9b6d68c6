"""Command-line interface: estimates, table verification, topology checks.

Subcommands
    compute        estimate components for one state
    verify-tables  check every catalog state against its exact references
    domains        count nodal domains
    equiv          test node equivalence under a block transform
    catalog        list the built-in states

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 unconverged.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import asdict, dataclass, replace
from datetime import datetime, timezone
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import __version__
from .catalog import catalog_list, catalog_to_json, get_state
from .estimators import (NdaEstimate, SamplerConfig, estimate_abs_norm,
                         estimate_kin_nda_shell, estimate_kin_nda_surface,
                         estimate_pot_nda, estimate_standard_expectations,
                         quadrature_estimate)
from .quadrature import NotReducibleError
from .topology import TransformSpec, count_nodal_domains, test_node_equivalence

__all__ = ["main", "RunRecord"]


@dataclass
class RunRecord:
    """One CLI run, JSON-serializable without loss."""

    command: str
    state: str
    parameters: dict
    sampler_config: dict
    estimates: dict
    wall_time_s: float
    version: str
    timestamp: str

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "RunRecord":
        return RunRecord(**json.loads(text))


# --------------------------------------------------------------------------
# helpers


def _fmt_exact(v, digits: int = 10) -> str:
    """Small rationals as p/q; irrational closed forms (they carry sqrt(pi)
    etc.) as floats of the given significant digits."""
    f = Fraction(v)
    if f.denominator <= 10_000:
        return f"{f.numerator}/{f.denominator}"
    return f"{float(f):.{digits}g}"


def _deviation(mean: float, stderr: float, exact) -> float:
    """|mean - exact| in units of stderr; without a stderr, 0 within 1e-7
    of the exact value and infinite beyond."""
    diff = abs(mean - float(exact))
    if stderr > 0.0:
        return diff / stderr
    return 0.0 if diff <= 1e-7 else float("inf")


def _estimate_entry(est: NdaEstimate, exact=None) -> dict:
    entry = asdict(est)
    if exact is not None:
        entry["exact"] = {"rational": _fmt_exact(exact, 12),
                          "value": float(exact)}
        entry["sigma_deviation"] = _deviation(est.mean, est.stderr, exact)
    return entry


def _print_table(record: RunRecord) -> None:
    print(f"state {record.state}  ({record.command}, v{record.version}, "
          f"{record.wall_time_s:.2f}s)")
    header = f"{'component':<10} {'estimate':>14} {'stderr':>12} {'exact':>22} {'dev/sigma':>10}"
    print(header)
    print("-" * len(header))
    for comp, entry in record.estimates.items():
        exact = entry.get("exact")
        if exact is not None:
            if exact["rational"] == f"{exact['value']:.12g}":
                exact_txt = f"{exact['value']:.6g}"
            else:
                exact_txt = f"{exact['rational']} = {exact['value']:.6g}"
            dev = entry.get("sigma_deviation")
            dev_txt = f"{dev:.2f}" if dev is not None and np.isfinite(dev) else "-"
        else:
            exact_txt, dev_txt = "-", "-"
        print(f"{comp:<10} {entry['mean']:>14.6g} {entry['stderr']:>12.3g} "
              f"{exact_txt:>22} {dev_txt:>10}")
        if entry.get("status", "ok") != "ok":
            print(f"  note: {entry['status']}")


def _get_state_from_args(args) -> "StateSpec":
    """The state named by --state, built at --Z or --omega where given; a
    ValueError when a flag's value has no finite float or the flag names a
    parameter the state does not have."""
    kwargs = {key: Fraction(getattr(args, key)) for key in ("Z", "omega")
              if getattr(args, key) is not None}
    for key, value in kwargs.items():
        try:
            float(value)
        except OverflowError:
            raise ValueError(f"--{key} {getattr(args, key)} is not a finite "
                             "float") from None
    state = get_state(args.state, **kwargs)
    for key in kwargs:
        if key not in state.parameters:
            raise ValueError(f"state {state.name!r} has no parameter {key}")
    return state


def _evaluable(state):
    """state, or a ValueError when it has no model to sample or its
    reference density cannot be normalized (ReferenceDensity.of)."""
    if state.model is None:
        raise ValueError(f"state {state.name!r} has no evaluable model")
    state.reference_density
    return state


# --------------------------------------------------------------------------
# the estimate plan


class _Component(NamedTuple):
    target: Optional[str]   # quadrature_oracle target; None: always sampled
    field: Optional[str]    # StateSpec field holding the exact reference
    key: Optional[str]      # the exact value's key in that field


_COMPONENTS = {
    "pot": _Component("pot_nda", "exact_nda", "pot"),
    "kin": _Component("kin_nda", "exact_nda", "kin"),
    "abs_norm": _Component("abs_norm", None, None),
    "kin_std": _Component(None, "exact_standard", "kin"),
    "pot_std": _Component(None, "exact_standard", "pot"),
}


def _exact(state, comp: str):
    """The exact reference of a component for state, or None."""
    c = _COMPONENTS[comp]
    return c.field and (getattr(state, c.field) or {}).get(c.key)


def _plan(state, cfg: SamplerConfig, components: list,
          method: str) -> Callable[[], dict]:
    """Check every input, then return the call that estimates components.

    An empty component list, an unknown component, a state with no model to
    sample, the surface estimator on a state without a node parametrization
    and the shell estimator on fewer than 2 chains raise ValueError here,
    before any sampling.  method is "auto" (kin by surface where the state
    has a parametrization, else by shell), "surface", "shell" or
    "quadrature" (every component with a quadrature target; kin_std and
    pot_std are sampled).  The call returns {component: NdaEstimate} in the order
    given.  It runs the quadrature components first, so that a missing
    reduction raises before any sampling.
    """
    if not components:
        raise ValueError("no components given")
    for comp in components:
        if comp not in _COMPONENTS:
            raise ValueError(f"unknown component {comp!r}")
    quad = [c for c in components
            if method == "quadrature" and _COMPONENTS[c].target]
    sampled = set(components) - set(quad)
    if sampled:
        _evaluable(state)
    if "kin" in sampled:
        if method == "auto":
            method = "surface" if state.node_param is not None else "shell"
        if method == "surface" and state.node_param is None:
            raise ValueError(
                f"state {state.name!r} has no explicit node parametrization; "
                "use the delta-shell estimator")
        if method == "shell" and cfg.n_chains < 2:
            raise ValueError("delta-shell stderr needs at least 2 chains")

    def run() -> dict:
        out = {c: quadrature_estimate(state, _COMPONENTS[c].target)
               for c in quad}
        if "pot" in sampled:
            out["pot"] = estimate_pot_nda(state, cfg=cfg)
        if sampled & {"kin_std", "pot_std"}:
            mc = estimate_standard_expectations(state, cfg=cfg)
            out.update(kin_std=mc["kin"], pot_std=mc["pot"])
        if "abs_norm" in sampled:
            out["abs_norm"] = estimate_abs_norm(state, cfg)
        if "kin" in sampled:
            out["kin"] = (estimate_kin_nda_surface if method == "surface"
                          else estimate_kin_nda_shell)(state, cfg)
        return {c: out[c] for c in components}

    return run


def _combined_status(*statuses: str) -> str:
    """"unconverged" if any part is, else the first part's warning."""
    if "unconverged" in statuses:
        return "unconverged"
    return next((s for s in statuses if s != "ok"), "ok")


# --------------------------------------------------------------------------
# compute


def cmd_compute(args) -> int:
    started = time.perf_counter()
    state = _get_state_from_args(args)
    cfg = SamplerConfig(args.chains, args.steps, seed=args.seed)
    components = [c.strip() for c in args.components.split(",") if c.strip()]
    ests = _plan(state, cfg, components, args.method)()
    estimates = {c: _estimate_entry(est, _exact(state, c))
                 for c, est in ests.items()}
    if "kin" in ests and "pot" in ests:
        k, p = ests["kin"], ests["pot"]
        total = replace(k, mean=k.mean + p.mean,
                        stderr=float(np.hypot(k.stderr, p.stderr)),
                        n_samples=k.n_samples + p.n_samples,
                        n_rejected=k.n_rejected + p.n_rejected, method="sum",
                        status=_combined_status(k.status, p.status))
        estimates["sum"] = _estimate_entry(total, state.exact_total_energy)

    record = RunRecord(
        command="compute",
        state=state.name,
        parameters={k: str(v) for k, v in state.parameters.items()},
        sampler_config=asdict(cfg),
        estimates=estimates,
        wall_time_s=time.perf_counter() - started,
        version=__version__,
        timestamp=datetime.now(timezone.utc).isoformat(),
    )
    if args.format == "json":
        print(record.to_json())
    else:
        _print_table(record)
    if any(e.get("status") == "unconverged" for e in estimates.values()):
        print("warning: at least one estimator is unconverged", file=sys.stderr)
        return 3
    return 0


# --------------------------------------------------------------------------
# verify-tables


def _verify_plans(state, cfg, method: str) -> list:
    """(components, plan) of every state cell with an exact value: for
    "mc", one plan by compute's auto; for "quadrature", one per kin_nda
    and pot_nda cell, so that a cell without a reduction can be skipped
    alone."""
    if method == "quadrature":
        return [([c], _plan(state, cfg, [c], method)) for c in ("kin", "pot")
                if _exact(state, c) is not None]
    cells = [c for c in ("kin_std", "pot_std", "pot", "kin")
             if _exact(state, c) is not None]
    return [(cells, _plan(state, cfg, cells, "auto"))]


def cmd_verify_tables(args) -> int:
    cfg = SamplerConfig(args.chains, args.steps, seed=args.seed)
    names = ([n.strip() for n in args.only.split(",") if n.strip()] if args.only
             else [s.name for s in catalog_list()
                   if s.model is not None and (s.exact_nda or s.exact_standard)])
    states = [_evaluable(get_state(name)) for name in names]
    # every state's checks pass before any state is sampled
    plans = [(name, state, comps, plan) for name, state in zip(names, states)
             for comps, plan in _verify_plans(state, cfg, args.method)]
    failures = cells = skipped = 0
    for name, state, comps, plan in plans:
        try:
            ests = plan()
        except NotReducibleError:           # a quadrature cell is skipped
            for comp in comps:
                print(f"[SKIP] {name} {_COMPONENTS[comp].target or comp}: "
                      "no quadrature reduction")
            skipped += len(comps)
            continue
        for comp, est in ests.items():
            exact = _exact(state, comp)
            dev = _deviation(est.mean, est.stderr, exact)
            tag = "PASS" if dev <= 3.0 else ("MARGINAL" if dev <= 4.0 else "FAIL")
            failures += tag == "FAIL"
            cells += 1
            line = (f"[{tag}] {name:<14} {_COMPONENTS[comp].target or comp:<8} "
                    f"mean={est.mean:+.6g} stderr={est.stderr:.2g} "
                    f"exact={_fmt_exact(exact)}={float(exact):+.6g}")
            if est.stderr > 0.0:
                line += f" dev={dev:.2f} sigma"
            print(line)
    print(f"checked {cells} cells; failures: {failures}"
          + (f"; skipped {skipped}" if skipped else ""))
    return 1 if failures else 0


# --------------------------------------------------------------------------
# topology commands


def cmd_domains(args) -> int:
    state = _evaluable(_get_state_from_args(args))
    report = count_nodal_domains(state, n_points=args.points, seed=args.seed)
    if args.format == "json":
        print(json.dumps(asdict(report), indent=2, sort_keys=True))
    else:
        print(f"state {state.name}: {report.n_domains} nodal domains "
              f"(n_points={report.n_points}, edges tested={report.n_edges_tested})")
        print(f"note: {report.confidence_note}")
    return 0


def _parse_flip(text: str, n_particles: int) -> TransformSpec:
    axis_names = {"x": 0, "y": 1, "z": 2}
    try:
        axis_txt, particle_txt = text.split(":")
        axis = axis_names[axis_txt.strip().lower()]
        particle = int(particle_txt) - 1            # 1-based on the CLI
    except (ValueError, KeyError):
        raise ValueError(f"cannot parse flip spec {text!r}; expected e.g. x:2")
    return TransformSpec.axis_flip(n_particles, axis, particle)


def cmd_equiv(args) -> int:
    state_a = _evaluable(get_state(args.a))
    state_b = _evaluable(get_state(args.b))
    n = state_a.model.n_particles
    t = _parse_flip(args.flip, n) if args.flip else TransformSpec.identity(n)
    result = test_node_equivalence(state_a, state_b, t,
                                   n_points=args.points, seed=args.seed)
    if args.format == "json":
        print(json.dumps(result, indent=2, sort_keys=True))
    else:
        print(f"{args.a} vs {args.b}: {result['verdict']} "
              f"(agreement {result['agreement_fraction']:.6f} "
              f"over {result['n_points']} points)")
        if "warning" in result:
            print(f"warning: {result['warning']}")
    return 0


def cmd_catalog(args) -> int:
    states = catalog_list()
    if args.format == "json":
        print(catalog_to_json(states))
        return 0
    for s in states:
        n = s.model.n_particles if s.model is not None else 0
        family = s.model.family if s.model is not None else "-"
        refs = []
        if s.exact_total_energy is not None:
            refs.append(f"E={_fmt_exact(s.exact_total_energy)}")
        if s.exact_nda:
            pieces = [f"{key}={_fmt_exact(s.exact_nda[key])}"
                      for key in ("kin", "pot") if s.exact_nda.get(key) is not None]
            refs.append("nda[" + " ".join(pieces) + "]")
        print(f"{s.name:<24} n={n} family={family:<9} " + " ".join(refs))
    return 0


# --------------------------------------------------------------------------
# argument parsing


def _add_sampler_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--chains", type=int, default=8)
    p.add_argument("--steps", type=int, default=200_000,
                   help="sizes each chain's i.i.d. draws: pot draws steps - "
                        "steps//10, kin_std and pot_std a quarter of that "
                        "(rounded up), kin by surface steps node draws and "
                        "steps |Psi| draws, kin by shell and abs_norm steps")
    p.add_argument("--seed", type=int, default=20260801)


def _add_format_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("table", "json"), default="table")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nda",
        description="Nodal-surface and domain averages for few-electron "
                    "wave functions")
    sub = parser.add_subparsers(dest="cmd", required=True)
    # no abbreviated flags: a deleted flag such as --step must be an error,
    # not a silent --steps
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    p = add_parser("compute", help="estimate components for one state")
    p.add_argument("--state", required=True)
    p.add_argument("--Z", default=None)
    p.add_argument("--omega", default=None)
    p.add_argument("--components", default="kin,pot",
                   help="comma list: kin,pot,kin_std,pot_std,abs_norm")
    p.add_argument("--method", choices=("auto", "surface", "shell", "quadrature"),
                   default="auto")
    _add_sampler_flags(p)
    _add_format_flag(p)
    p.set_defaults(fn=cmd_compute)

    p = add_parser("verify-tables",
                   help="check catalog states against exact references")
    p.add_argument("--only", default=None)
    p.add_argument("--method", choices=("mc", "quadrature"), default="mc")
    _add_sampler_flags(p)
    p.set_defaults(fn=cmd_verify_tables)

    p = add_parser("domains", help="count nodal domains (fixed same-label "
                   "neighbour and segment-check counts)")
    p.add_argument("--state", required=True)
    p.add_argument("--Z", default=None)
    p.add_argument("--omega", default=None)
    p.add_argument("--points", type=int, default=20_000,
                   help="Psi^2 sample points, at least 1000")
    p.add_argument("--seed", type=int, default=20260801)
    _add_format_flag(p)
    p.set_defaults(fn=cmd_domains)

    p = add_parser("equiv", help="test node equivalence")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--flip", default=None,
                   help="axis:particle, e.g. x:2 (default: the identity)")
    p.add_argument("--points", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=20260801)
    _add_format_flag(p)
    p.set_defaults(fn=cmd_equiv)

    p = add_parser("catalog", help="list built-in states")
    _add_format_flag(p)
    p.set_defaults(fn=cmd_catalog)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return int(exc.code) if exc.code else 0
    try:
        return args.fn(args)
    except (KeyError, ValueError, NotReducibleError, MemoryError) as exc:
        # MemoryError: --points, --chains or --steps too large to allocate,
        # raised before any draw
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
