"""Smoke test of tools/calibrate.py, the stderr-calibration harness, at a
tiny config: it scores every estimator kind and prints the pooled lines.
It is no statistical gate; the z-scans quoted in CHANGES.md run it at
criterion budgets over many seeds."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "calibrate.py"


def _calibrate_module():
    spec = importlib.util.spec_from_file_location("calibrate", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_calibrate_scores_every_estimator(capsys):
    tool = _calibrate_module()
    code = tool.main(["--estimators", "pot,std,surface,shell,abs", "--seeds", "1-2",
                      "--states", "2P_2p,harmonic_exact", "--chains", "4",
                      "--steps", "600"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    cells = {tuple(line.split()[:3]) for line in out[1:] if not line.startswith(" ")
             and not line.startswith("pooled")}
    # harmonic_exact has no exact standard expectations, so no std cells
    assert cells == {(e, s, c) for s in ("2P_2p", "harmonic_exact")
                     for e, c in (("pot", "pot_nda"), ("std", "kin_std"),
                                  ("std", "pot_std"), ("surface", "kin_nda"),
                                  ("shell", "kin_nda"), ("abs", "abs_norm"))
                     if not (e == "std" and s == "harmonic_exact")}
    pooled = [line.split()[0] for line in out if line.startswith("  ")]
    assert pooled == ["pot", "std", "surface", "shell", "abs"]


def test_calibrate_z_scores_are_the_estimates_deviations():
    tool = _calibrate_module()
    from nda.catalog import get_state
    from nda.estimators import SamplerConfig, estimate_pot_nda
    st = get_state("2P_2p")
    rows = list(tool.z_scores(["pot"], [3], [st], 4, 600))
    e = estimate_pot_nda(st, SamplerConfig(n_chains=4, steps_per_chain=600,
                                           seed=tool.cell_seed(3, "2P_2p")))
    assert rows == [("pot", "2P_2p", "pot_nda", 3, (e.mean + 1 / 6) / e.stderr,
                     e.mean + 1 / 6, e.stderr_uncontrolled / e.stderr)]
    assert np.isfinite(rows[0][4])
    assert tool._seeds("201-203,7") == [201, 202, 203, 7]


def test_calibrate_bias_is_the_mean_deviation_in_standard_errors():
    """The bias column divides the mean of (mean - exact) over seeds by its
    across-seed standard error, whatever the z-scores: two cells with the
    same z-scores and deviations of opposite skew read +3.0 and 0.0."""
    tool = _calibrate_module()
    devs = [1.0, 2.0, 3.0, 4.0]          # mean 2.5, standard error 0.645
    assert tool.bias(devs) == pytest.approx(2.5 / (np.std(devs, ddof=1) / 2))
    assert tool.bias([-1.0, 1.0]) == 0.0
    assert tool.bias([0.0, 0.0]) == 0.0 and tool.bias([2.0, 2.0]) == np.inf
    rows = [("std", "s", "kin_std", seed, z, dev, None) for seed, (z, dev) in
            enumerate([(0.5, 1.0), (0.5, 1.0), (0.5, 2.0), (0.5, 2.0)])]
    rows += [("std", "t", "kin_std", seed, z, dev, None) for seed, (z, dev) in
             enumerate([(0.5, -1.0), (0.5, 1.0), (0.5, -1.0), (0.5, 1.0)])]
    lines = tool.report(rows, 8)
    assert lines[0].split()[-1] == "bias/se"
    cells = {line.split()[1]: line.split() for line in lines[1:3]}
    assert cells["s"][-1] == f"{1.5 / (np.std([1, 1, 2, 2], ddof=1) / 2):+.2f}"
    assert cells["t"][-1] == "+0.00"
    assert cells["s"][4:7] == cells["t"][4:7] == ["+0.50", "0.00", "0.50"]


def test_calibrate_defaults_to_the_13_model_states(monkeypatch):
    tool = _calibrate_module()
    seen = []

    def record(names, seeds, states, n_chains, steps):
        seen.extend(st.name for st in states)
        return iter([])
    monkeypatch.setattr(tool, "z_scores", record)
    monkeypatch.setattr(tool, "report", lambda rows, n_chains: [])
    assert tool.main(["--estimators", "std"]) == 0
    assert len(seen) == len(set(seen)) == 13
    assert {"subshell_k1_l1", "subshell_k1_l2", "2P_2p"} <= set(seen)


@pytest.mark.parametrize("a,b", [("1S_1s2_2s2", "1S_1s2_2p2"),
                                 ("3S_1s2s", "3P_1s2p")])
def test_states_sharing_g_get_different_streams(a, b):
    """Two states with the same reference density g draw the same points
    from one stream, so each cell runs at its own seed: at one calibration
    seed their pot and std draws differ."""
    tool = _calibrate_module()
    from nda import estimators
    from nda.catalog import get_state
    ga, gb = get_state(a).reference_density, get_state(b).reference_density
    same = [g.sample(np.random.default_rng(1), 5) for g in (ga, gb)]
    assert np.array_equal(*same)
    assert tool.cell_seed(201, a) != tool.cell_seed(201, b)
    for tag in (estimators._TAG_POT, estimators._TAG_STD):
        draws = [g.sample(estimators._stream(tool.cell_seed(201, s), tag), 5)
                 for g, s in ((ga, a), (gb, b))]
        assert not np.array_equal(*draws)
