"""End-to-end acceptance gate.

One test per shipped guarantee; `pytest -v` therefore prints one pass/fail
line per criterion.  Each test also prints its measured numbers so a failing
run shows the margin, not just the verdict.

Budgets are sized so the whole file runs in well under ten minutes on a
laptop-class machine while leaving every statistical gate a comfortable
margin (the 3-sigma checks typically sit below 1.5 sigma).
"""

import dataclasses
import time
from fractions import Fraction
from math import pi, sqrt

import numpy as np
import pytest

import nda.wavefunctions as wf
from nda.catalog import catalog_list, get_state
from nda.estimators import (SamplerConfig, estimate_abs_norm,
                            estimate_kin_nda_shell, estimate_kin_nda_surface,
                            estimate_pot_nda, estimate_standard_expectations)
from nda.hamiltonians import local_energy, potential_batch
from nda.quadrature import NotReducibleError, quadrature_oracle
from nda.reference import (SubshellParams, harmonic_reference,
                           quasiclassical_gap, subshell_kin_nda,
                           subshell_pot_nda, subshell_total)
from nda.topology import TransformSpec, count_nodal_domains
from nda.topology import test_node_equivalence as node_equivalence

SEED = 20260801


def _sigma(mean, exact, err):
    return abs(mean - exact) / err if err > 0 else float("inf")


def test_criterion_01_table_two_monte_carlo():
    """16 MC cells at Z=1: 3 sigma, stderr <= 2e-3, wall time <= 10 min."""
    exact = {
        "3S_1s2s": dict(kin_std=Fraction(5, 8), pot_std=Fraction(-5, 4),
                        kin_nda=Fraction(10, 221), pot_nda=Fraction(-1185, 1768)),
        "3P_1s2p": dict(kin_std=Fraction(5, 8), pot_std=Fraction(-5, 4),
                        kin_nda=Fraction(1, 20), pot_nda=Fraction(-27, 40)),
        "1S_1s2_2s2": dict(kin_std=Fraction(5, 4), pot_std=Fraction(-5, 2),
                           kin_nda=Fraction(20, 221), pot_nda=Fraction(-1185, 884)),
        "1S_1s2_2p2": dict(kin_std=Fraction(5, 4), pot_std=Fraction(-5, 2),
                           kin_nda=Fraction(1, 10), pot_nda=Fraction(-27, 20)),
    }
    # Total draws per estimator, sized from measured per-sample variances so
    # every stderr lands near 1.6e-3 (cap 2e-3) well inside the time budget.
    budgets = {
        "3S_1s2s": dict(std=7_000, pot=2_000, surf=700),
        "3P_1s2p": dict(std=7_000, pot=2_000, surf=700),
        "1S_1s2_2s2": dict(std=21_000, pot=6_500, surf=900),
        "1S_1s2_2p2": dict(std=19_000, pot=6_200, surf=1_300),
    }  # steps per chain at 1024 chains
    t0 = time.monotonic()
    failures = []
    for name, cells in exact.items():
        st = get_state(name)

        def cfg(kind):
            return SamplerConfig(n_chains=1024, steps_per_chain=budgets[name][kind],
                                 seed=SEED)

        std = estimate_standard_expectations(st, cfg=cfg("std"))
        pot = estimate_pot_nda(st, cfg=cfg("pot"))
        kin = estimate_kin_nda_surface(st, cfg=cfg("surf"))
        got = {"kin_std": std["kin"], "pot_std": std["pot"],
               "pot_nda": pot, "kin_nda": kin}
        for cell, est in got.items():
            ex = float(cells[cell])
            dev = _sigma(est.mean, ex, est.stderr)
            line = (f"  {name:11s} {cell:8s} {est.mean:+.6f} ({est.stderr:.2e}) "
                    f"exact {ex:+.6f}  {dev:.2f} sigma")
            print(line)
            if dev > 3.0 or est.stderr > 2e-3:
                failures.append(line)
    wall = time.monotonic() - t0
    print(f"criterion 1: wall time {wall:.0f} s, failures: {len(failures)}")
    assert wall <= 600.0
    assert not failures, "\n".join(failures)


def test_criterion_02_table_three_trio():
    """The three 2p^2 couplings share (1/12, -1/3) and agree mutually."""
    cfg = SamplerConfig(n_chains=16, steps_per_chain=50_000, seed=SEED)
    res = {}
    for name in ["3P_2p2", "1S_2p2", "1D_2p2"]:
        st = get_state(name)
        kin = estimate_kin_nda_surface(st, cfg=cfg)
        pot = estimate_pot_nda(st, cfg=cfg)
        res[name] = (kin, pot)
        dk = _sigma(kin.mean, 1 / 12, kin.stderr)
        dp = _sigma(pot.mean, -1 / 3, pot.stderr)
        print(f"  {name}: kin {kin.mean:+.6f} ({dk:.2f}s)  pot {pot.mean:+.6f} ({dp:.2f}s)")
        assert dk <= 3.0 and dp <= 3.0
    names = list(res)
    for i in range(3):
        for j in range(i + 1, 3):
            for slot in (0, 1):
                a, b = res[names[i]][slot], res[names[j]][slot]
                gap = abs(a.mean - b.mean) / np.hypot(a.stderr, b.stderr)
                assert gap <= 3.0, (names[i], names[j], slot, gap)
    print("criterion 2: all trio cells within 3 sigma and mutually consistent")


def test_criterion_03_quadrature_oracle_exactness():
    checks = [
        ("2P_2p", "pot_nda", Fraction(-1, 6)),
        ("2P_2p", "kin_nda", Fraction(1, 24)),
        ("3S_1s2s", "pot_nda", Fraction(-1185, 1768)),
    ]
    worst = 0.0
    for name, target, ex in checks:
        got = quadrature_oracle(get_state(name), target)
        worst = max(worst, abs(got - float(ex)))
    print(f"criterion 3: worst quadrature deviation {worst:.2e} (gate 1e-8)")
    assert worst <= 1e-8


def test_criterion_04_sum_identity():
    """kin_nda + pot_nda equals the eigenvalue: MC within 3 sigma, quadrature 1e-7."""
    cfg = SamplerConfig(n_chains=8, steps_per_chain=25_000, seed=SEED)
    for s in catalog_list():
        if s.model is None or s.exact_total_energy is None:
            continue
        E = float(s.exact_total_energy)
        kin = estimate_kin_nda_surface(s, cfg=cfg)
        pot = estimate_pot_nda(s, cfg=cfg)
        err = float(np.hypot(kin.stderr, pot.stderr))
        dev = _sigma(kin.mean + pot.mean, E, err)
        print(f"  {s.name:24s} sum {kin.mean + pot.mean:+.6f} vs E {E:+.6f}: {dev:.2f} sigma")
        assert dev <= 3.0, s.name
        try:
            q = (quadrature_oracle(s, "kin_nda") + quadrature_oracle(s, "pot_nda"))
            assert abs(q - E) <= 1e-7, s.name
        except NotReducibleError:
            pass  # states whose kinetic reduction has no closed 2D form
    print("criterion 4: sum identity holds (MC 3 sigma, quadrature 1e-7)")


def test_criterion_05_harmonic_cases():
    # (a) exact decomposition of the noninteracting excited state
    a = get_state("harmonic_noninteracting")
    assert abs(quadrature_oracle(a, "pot_nda") - 7 / 8) <= 1e-8
    assert abs(quadrature_oracle(a, "kin_nda") - 1 / 8) <= 1e-8

    # (b) interacting eigenstate at the solvable point: MC decomposition
    b = get_state("harmonic_exact")
    cfg = SamplerConfig(n_chains=16, steps_per_chain=60_000, seed=SEED)
    pot = estimate_pot_nda(b, cfg=cfg)
    kin = estimate_kin_nda_surface(b, cfg=cfg)
    closed = harmonic_reference("b_exact")
    dev_pot = _sigma(pot.mean, closed["pot_nda"], pot.stderr)
    err = float(np.hypot(kin.stderr, pot.stderr))
    dev_sum = _sigma(kin.mean + pot.mean, 1.25, err)
    print(f"  case b: pot {pot.mean:+.6f} ({dev_pot:.2f}s vs closed form), "
          f"sum {kin.mean + pot.mean:+.6f} ({dev_sum:.2f}s vs 5/4)")
    assert dev_pot <= 3.0 and dev_sum <= 3.0

    # (c) non-eigenstate bookkeeping: the sum sits below 5/4 with wide margin
    c = get_state("harmonic_mixed")
    potc = estimate_pot_nda(c, cfg=cfg)
    kinc = estimate_kin_nda_surface(c, cfg=cfg)
    total = potc.mean + kinc.mean
    errc = float(np.hypot(potc.stderr, kinc.stderr))
    closed_c = harmonic_reference("c_mixed")["total"]
    margin = (1.25 - total) / errc
    print(f"  case c: sum {total:+.6f} (closed form {closed_c:.6f}), "
          f"below 5/4 by {margin:.1f} sigma")
    assert _sigma(total, closed_c, errc) <= 3.0
    assert margin >= 5.0


def test_criterion_06_surface_vs_shell():
    """Every state with a node parametrization: surface and shell agree."""
    cfg = SamplerConfig(n_chains=16, steps_per_chain=50_000, seed=SEED)
    states = [s for s in catalog_list() if s.model and s.node_param]
    assert len(states) == 11
    for st in states:
        name = st.name
        surf = estimate_kin_nda_surface(st, cfg=cfg)
        shell = estimate_kin_nda_shell(st, cfg=cfg)
        gap = abs(surf.mean - shell.mean) / np.hypot(surf.stderr, shell.stderr)
        print(f"  {name:24s} surface {surf.mean:+.6f} shell {shell.mean:+.6f} "
              f"gap {gap:.2f} sigma")
        assert shell.status == "ok", name
        assert gap <= 3.0, name
    print(f"criterion 6: both kinetic estimators agree on all {len(states)} states")


def test_criterion_07_subshell_identities():
    for l in range(1, 101):
        for k in range(1, 2 * (2 * l + 1) + 1):
            p = SubshellParams(k=k, l=l)
            assert (subshell_kin_nda(p) + subshell_pot_nda(p)
                    == Fraction(-k, 2 * (l + 1) ** 2) == subshell_total(p))
    prev = {"kin_ratio": Fraction(-1), "pot_ratio": Fraction(-1)}
    for l in range(1, 101):
        g = quasiclassical_gap(SubshellParams(k=1, l=l))
        for key in prev:
            assert prev[key] < g[key] < 1
        prev = g
    g60 = quasiclassical_gap(SubshellParams(k=1, l=60))
    assert 1 - g60["kin_ratio"] < Fraction(5, 100)
    assert 1 - g60["pot_ratio"] < Fraction(5, 100)
    print("criterion 7: exact rational identities for l = 1..100, every occupation; "
          f"gaps at l=60: kin {float(1 - g60['kin_ratio']):.4f}, "
          f"pot {float(1 - g60['pot_ratio']):.4f}")


def test_criterion_08_topology():
    for name in ["2P_2p", "3P_2p2", "1S_2p2", "1D_2p2"]:
        rep = count_nodal_domains(get_state(name))  # default resolution
        print(f"  {name}: {rep.n_domains} domains over {rep.n_points} points")
        assert rep.n_domains == 2, name

    flip = TransformSpec.axis_flip(2, axis=0, particle=1)
    out = node_equivalence(get_state("1D_2p2"), get_state("3P_2p2"), flip,
                           n_points=100_000, seed=SEED)
    print(f"  1D -> 3P under x2 -> -x2: agreement {out['agreement_fraction']}")
    assert out["verdict"] == "equivalent"
    assert out["agreement_fraction"] == 1.0
    assert out["n_points"] == 100_000

    for s in catalog_list():
        if s.model is None:
            continue
        ident = TransformSpec.identity(s.model.n_particles)
        self_out = node_equivalence(s, s, ident, n_points=20_000, seed=SEED)
        assert self_out["agreement_fraction"] == 1.0, s.name
    print("criterion 8: domain counts, flip map, and self-equivalence all exact")


def test_criterion_09_bitwise_determinism():
    """Every estimator is a function of (seed, n_chains): two runs of each
    at one config agree to the bit."""
    st = get_state("3S_1s2s")
    cfg = SamplerConfig(n_chains=8, steps_per_chain=10_000, seed=SEED)
    snapshots = []
    for _ in range(2):
        pot = estimate_pot_nda(st, cfg=cfg)
        std = estimate_standard_expectations(st, cfg=cfg)
        norm = estimate_abs_norm(st, cfg)
        surf = estimate_kin_nda_surface(st, cfg=cfg)
        shell = estimate_kin_nda_shell(st, cfg=cfg)
        snapshots.append((pot.mean, pot.stderr, std["kin"].mean, std["pot"].mean,
                          std["kin"].stderr, std["pot"].stderr,
                          norm.mean, norm.stderr, surf.mean, surf.stderr,
                          shell.mean, shell.stderr))
    assert snapshots[0] == snapshots[1]
    print("criterion 9: identical results on a repeat run "
          f"(pot = {snapshots[0][0]!r})")


def test_criterion_10_local_energy_constancy():
    rng = np.random.default_rng(SEED)

    def spread(state, n=1000):
        h = state.hamiltonian()
        x = rng.normal(scale=1.5, size=(4 * n, 3 * state.model.n_particles))
        v = state.model.values(x)
        x = x[np.abs(v) > 1e-6][:n]
        assert len(x) == n
        vals = np.array([local_energy(h, state.model, row) for row in x])
        return float(np.ptp(vals))

    b = get_state("harmonic_exact")
    s = spread(b)
    print(f"  harmonic exact state: local-energy spread {s:.2e} about 5/4")
    assert s < 1e-9

    for name in ["harmonic_noninteracting", "2P_2p", "3S_1s2s", "3P_2p2",
                 "1S_1s2_2s2", "1S_1s2_2p2"]:
        st = get_state(name)
        sp = spread(st, n=300)
        assert sp < 1e-9, (name, sp)
    print("criterion 10: eigenstates flat to < 1e-9 across random configurations")
