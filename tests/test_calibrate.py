"""Smoke test of tools/calibrate.py, the stderr-calibration harness, at a
tiny config: it scores every estimator kind and prints the pooled lines.
It is no statistical gate; the z-scans quoted in CHANGES.md run it at
criterion budgets over many seeds."""

import importlib.util
from pathlib import Path

import numpy as np

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
    e = estimate_pot_nda(st, SamplerConfig(n_chains=4, steps_per_chain=600, seed=3))
    assert rows == [("pot", "2P_2p", "pot_nda", 3, (e.mean + 1 / 6) / e.stderr)]
    assert np.isfinite(rows[0][4])
    assert tool._seeds("201-203,7") == [201, 202, 203, 7]
