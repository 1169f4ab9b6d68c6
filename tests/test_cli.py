import json

import numpy as np
import pytest

from nda.cli import RunRecord, main


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_catalog_lists_every_state(capsys):
    code, out, _ = run(["catalog"], capsys)
    assert code == 0
    for name in ["2P_2p", "3S_1s2s", "1S_1s2_2p2", "harmonic_exact"]:
        assert name in out


def test_compute_json_roundtrip(capsys):
    code, out, _ = run(["compute", "--state", "2P_2p", "--components", "pot,kin",
                        "--steps", "10000", "--format", "json"], capsys)
    assert code == 0
    rec = RunRecord.from_json(out)
    assert rec.state == "2P_2p"
    assert set(rec.estimates) == {"pot", "kin", "sum"}
    pot = rec.estimates["pot"]
    assert abs(pot["mean"] - (-1 / 6)) < 4 * pot["stderr"]
    assert rec.estimates["sum"]["exact"]["rational"] == "-1/8"
    # no sample sits on a singularity or the node at this budget
    assert pot["n_rejected"] == 0 and rec.estimates["sum"]["n_rejected"] == 0
    # every estimate is i.i.d., so no entry has an acceptance rate
    assert pot["method"] == "reference_ratio"
    assert all("acceptance_rate" not in e for e in rec.estimates.values())
    # sigma_deviation is |mean - exact| / stderr
    assert pot["sigma_deviation"] == pytest.approx(
        abs(pot["mean"] + 1 / 6) / pot["stderr"])


def test_compute_quadrature_record(capsys):
    code, out, _ = run(["compute", "--state", "3P_2p2", "--components", "kin",
                        "--method", "quadrature", "--format", "json"], capsys)
    assert code == 0
    rec = RunRecord.from_json(out)
    kin = rec.estimates["kin"]
    assert rec.state == "3P_2p2" and kin["method"] == "quadrature"
    assert kin["mean"] == pytest.approx(1 / 12, abs=1e-8)
    assert kin["stderr"] == 0.0


def test_same_flags_same_output(capsys):
    argv = ["compute", "--state", "3S_1s2s", "--components", "pot",
            "--steps", "5000", "--format", "json"]
    _, out1, _ = run(argv, capsys)
    _, out2, _ = run(argv, capsys)
    a, b = json.loads(out1), json.loads(out2)
    assert a["estimates"] == b["estimates"]


def test_usage_errors_exit_2(capsys):
    assert run(["compute", "--state", "no_such_state", "--components", "pot"],
               capsys)[0] == 2
    assert run(["frobnicate"], capsys)[0] == 2
    assert run(["compute", "--state", "2P_2p", "--components", "entropy"],
               capsys)[0] == 2
    # the shell estimator needs at least two chains for its stderr
    assert run(["compute", "--state", "2P_2p", "--method", "shell",
                "--chains", "1", "--components", "kin"], capsys)[0] == 2
    # non-positive sampler budgets are rejected, not replaced by defaults
    for flags in (["--chains", "0"], ["--steps", "0"]):
        code, out, err = run(["compute", "--state", "2P_2p",
                              "--components", "pot"] + flags, capsys)
        assert code == 2 and out == "" and "error:" in err, flags
    # --step is no option (a walk sets its own width), and is not taken as
    # an abbreviation of --steps
    code, out, err = run(["compute", "--state", "2P_2p", "--step", "1"], capsys)
    assert code == 2 and out == ""
    assert "unrecognized arguments: --step" in err


def test_retired_flags_exit_2(tmp_path, capsys):
    """Every command sizes its run by --chains x --steps (or --points),
    prints a table or JSON to stdout and counts domains on fixed neighbour
    and check counts: --samples, --out, --format csv, --k and --checks are
    usage errors on every command."""
    target = tmp_path / "x.json"
    out_flag = ["--out", str(target)]
    for base in (["compute", "--state", "2P_2p", "--components", "pot"],
                 ["verify-tables", "--only", "2P_2p"],
                 ["domains", "--state", "2P_2p"],
                 ["equiv", "--a", "1D_2p2", "--b", "3P_2p2", "--flip", "x:2"],
                 ["catalog"]):
        for flags in (["--samples", "2e4"], out_flag, ["--format", "csv"],
                      ["--k", "12"], ["--checks", "16"]):
            code, out, err = run(base + flags, capsys)
            assert code == 2 and out == "" and "error:" in err, base + flags
    assert not target.exists()


@pytest.mark.parametrize("argv", [
    ["equiv", "--a", "subshell_k1_l30", "--b", "subshell_k1_l30"],
    ["equiv", "--a", "3P_2p2", "--b", "3P_2p2", "--points", "0"],
    ["equiv", "--a", "3P_2p2", "--b", "3P_2p2", "--points", "-5"],
    # --k and --checks are retired: domains counts on fixed neighbour and
    # check counts
    ["domains", "--state", "2P_2p", "--k", "0"],
    ["domains", "--state", "2P_2p", "--k", "5000", "--points", "1000"],
    ["domains", "--state", "2P_2p", "--k", "-1"],
    ["domains", "--state", "2P_2p", "--checks", "0"],
    ["domains", "--state", "2P_2p", "--checks", "-2"],
    ["compute", "--state", "2P_2p", "--components", "pot,bogus"],
    ["verify-tables", "--only", "subshell_k1_l30"],
    ["verify-tables", "--only", "2P_2p,subshell_k1_l30"],
    # each of these fails on a later component or state than the first
    ["compute", "--state", "2P_2p", "--components", "pot,kin", "--method",
     "shell", "--chains", "1", "--steps", "100000"],
    ["compute", "--state", "subshell_k1_l1", "--components", "pot,kin",
     "--method", "surface", "--steps", "100000"],
    ["compute", "--state", "3P_1s2p", "--components", "kin_std,kin",
     "--method", "quadrature", "--steps", "100000"],
    ["verify-tables", "--only", "2P_2p,subshell_k1_l1", "--chains", "1",
     "--steps", "50000"],
    # a flag naming a parameter the state does not have is an error, not
    # a knob to ignore
    ["compute", "--state", "harmonic_mixed", "--g0", "7", "--components",
     "pot", "--method", "quadrature"],
    ["domains", "--state", "harmonic_mixed", "--g0", "7"],
    ["compute", "--state", "harmonic_noninteracting", "--Z", "5",
     "--components", "pot"],
    ["compute", "--state", "2P_2p", "--omega", "3", "--components", "pot"],
    ["domains", "--state", "harmonic_exact", "--Z", "2"],
    ["compute", "--state", "2P_2p", "--components", ","],
    # a value whose float is not finite is rejected before the state is built
    ["compute", "--state", "2P_2p", "--Z", "1e400"],
    ["domains", "--state", "2P_2p", "--Z", "1e400"],
    ["compute", "--state", "harmonic_exact", "--omega=-1e400"],
    # a finite value whose reference density cannot be normalized is
    # rejected before sampling, whichever estimator runs first
    ["compute", "--state", "2P_2p", "--Z", "1e-300", "--components", "kin"],
    ["compute", "--state", "2P_2p", "--Z", "1e300", "--components", "kin_std"],
    ["domains", "--state", "2P_2p", "--Z", "1e-300"],
    # no command takes a burn-in: the estimators draw a fixed share of
    # --steps, and the topology walk sizes its own
    ["compute", "--state", "2P_2p", "--burn-in", "100"],
    ["verify-tables", "--only", "2P_2p", "--burn-in", "100"],
    # a sample size too large to allocate fails before any draw
    ["domains", "--state", "2P_2p", "--points", "1000000000000000"],
    ["equiv", "--a", "3P_2p2", "--b", "3P_2p2", "--points",
     "1000000000000000"],
    ["compute", "--state", "2P_2p", "--components", "kin_std", "--chains",
     "1000000000000", "--steps", "2"],
], ids=["equiv-no-model", "equiv-points0", "equiv-points-neg", "domains-k0",
        "domains-k-too-large", "domains-k-neg",
        "domains-checks0", "domains-checks-neg", "compute-bogus-component",
        "verify-no-model", "verify-no-model-second", "compute-shell-1-chain",
        "compute-surface-no-param", "compute-quadrature-irreducible",
        "verify-shell-1-chain", "compute-g0", "domains-g0",
        "compute-Z-on-harmonic", "compute-omega-on-atom", "domains-Z-on-harmonic",
        "compute-no-components", "compute-Z-overflow", "domains-Z-overflow",
        "compute-omega-overflow", "compute-kin-Z-tiny", "compute-std-Z-huge",
        "domains-Z-tiny", "compute-burn-in", "verify-burn-in",
        "domains-points-huge", "equiv-points-huge", "compute-chains-huge"])
def test_bad_input_exits_2_before_sampling(argv, capsys, monkeypatch):
    import nda.cli as cli
    import nda.estimators as estimators

    def no_sampling(*args, **kwargs):
        raise AssertionError("sampling started")
    monkeypatch.setattr(estimators, "_stream", no_sampling)
    monkeypatch.setattr(estimators, "_iid_stream", no_sampling)
    monkeypatch.setattr(cli, "estimate_pot_nda", no_sampling)
    code, out, err = run(argv, capsys)
    assert code == 2 and out == "" and "error:" in err


@pytest.mark.parametrize("state,flag,value", [
    ("2P_2p", "--Z", "1e-300"), ("2P_2p", "--Z", "1e300"),
    ("harmonic_noninteracting", "--omega", "1e300"),
    ("1S_1s2_2p2", "--Z", "1e30"), ("1S_1s2_2p2", "--Z", "1e-30")])
def test_extreme_parameter_exits_2_with_the_normalization(state, flag, value,
                                                          capsys, monkeypatch):
    """An extreme but finite --Z or --omega leaves the reference density
    without a finite positive normalization: a clear error and exit 2 before
    any sampling, not an OverflowError traceback or a bare math domain error
    mid-run.  At Z = 1e30 or 1e-30 each 8 pi s^3 of 1S_1s2_2p2 is finite,
    but its four-electron power is not."""
    import nda.estimators as estimators

    def no_sampling(*args, **kwargs):
        raise AssertionError("sampling started")
    monkeypatch.setattr(estimators, "_stream", no_sampling)
    monkeypatch.setattr(estimators, "_iid_stream", no_sampling)
    code, out, err = run(["compute", "--state", state, flag, value,
                          "--steps", "2000", "--chains", "4"], capsys)
    assert code == 2 and out == ""
    assert "error: reference density normalization" in err
    assert "not a finite positive float" in err


@pytest.mark.parametrize("state", ["2P_2p", "3S_1s2s"])
def test_std_at_an_extreme_z_is_scale_free(state, capsys):
    """std divides by no Psi and keeps every row at any Z: at Z = 1e30
    it hits the exact values, which scale as Z^2."""
    code, out, _ = run(["compute", "--state", state, "--Z", "1e30", "--components",
                        "kin_std,pot_std", "--steps", "2000", "--chains", "4",
                        "--format", "json"], capsys)
    assert code == 0
    for comp, entry in RunRecord.from_json(out).estimates.items():
        assert entry["sigma_deviation"] <= 4.0, comp


@pytest.mark.parametrize("state,z", [("3S_1s2s", "1e-30"), ("3S_1s2s", "1e30"),
                                     ("1S_2p2", "1e30")])
def test_extreme_z_gives_finite_stderrs(state, z, capsys):
    """At Z = 1e+-30 the squared block means leave the float range (an inf
    or 0 kin stderr, or one 1e13 times too small, before the stderr scaled
    them): every stderr is finite and positive and every deviation within
    5 of them."""
    code, out, _ = run(["compute", "--state", state, "--Z", z, "--steps", "2000",
                        "--chains", "4", "--format", "json"], capsys)
    assert code == 0
    for comp, entry in RunRecord.from_json(out).estimates.items():
        assert np.isfinite(entry["stderr"]) and entry["stderr"] > 0.0, comp
        assert abs(entry["sigma_deviation"]) <= 5.0, comp


def test_sum_status_comes_from_its_parts(capsys):
    # 1000 shell draws leave the narrowest rung starved: kin is unconverged,
    # and the sum of kin and pot carries that status rather than "ok"
    code, out, _ = run(["compute", "--state", "3S_1s2s", "--components",
                        "kin,pot", "--method", "shell", "--chains", "2",
                        "--steps", "500", "--seed", "1", "--format", "json"],
                       capsys)
    assert code == 3
    est = RunRecord.from_json(out).estimates
    assert est["pot"]["status"] == "ok"
    assert est["kin"]["status"] == "unconverged"
    assert est["sum"]["status"] == "unconverged"


def test_sum_of_quadrature_parts_claims_no_sampling(capsys):
    code, out, _ = run(["compute", "--state", "2P_2p", "--components",
                        "kin,pot", "--method", "quadrature", "--format", "json"],
                       capsys)
    assert code == 0
    est = RunRecord.from_json(out).estimates
    for key in ("n_samples", "n_chains", "seed"):
        assert est["sum"][key] == est["kin"][key] == est["pot"][key] == 0, key
    assert est["sum"]["mean"] == pytest.approx(-1 / 8, abs=1e-8)


def test_sum_status_rules():
    from nda.cli import _combined_status
    assert _combined_status("ok", "ok") == "ok"
    assert _combined_status("warning: a", "warning: b") == "warning: a"
    assert _combined_status("ok", "warning: b") == "warning: b"
    assert _combined_status("warning: a", "unconverged") == "unconverged"
    assert _combined_status("unconverged", "ok") == "unconverged"


def test_compute_calls_pot_and_std_once_each(capsys, monkeypatch):
    """pot comes from one estimate_pot_nda call and kin_std and pot_std
    from one estimate_standard_expectations call, with the entries the
    separate estimators give."""
    import nda.cli as cli
    from nda.catalog import get_state
    from nda.estimators import (SamplerConfig, estimate_pot_nda,
                                estimate_standard_expectations)

    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper
    argv = ["compute", "--state", "3S_1s2s", "--components",
            "kin,pot,kin_std,pot_std", "--chains", "4", "--steps", "1500",
            "--seed", "3", "--format", "json"]
    with monkeypatch.context() as m:
        for fn in (estimate_pot_nda, estimate_standard_expectations):
            m.setattr(cli, fn.__name__, counted(fn))
        code, out, _ = run(argv, capsys)
    assert code == 0
    assert sorted(calls) == ["estimate_pot_nda", "estimate_standard_expectations"]
    got = RunRecord.from_json(out).estimates
    st = get_state("3S_1s2s")
    cfg = SamplerConfig(n_chains=4, steps_per_chain=1500, seed=3)
    std = estimate_standard_expectations(st, cfg=cfg)
    want = {"pot": cli._estimate_entry(estimate_pot_nda(st, cfg=cfg),
                                       st.exact_nda["pot"]),
            "kin_std": cli._estimate_entry(std["kin"], st.exact_standard["kin"]),
            "pot_std": cli._estimate_entry(std["pot"], st.exact_standard["pot"])}
    assert {k: got[k] for k in want} == json.loads(json.dumps(want))


@pytest.mark.parametrize("state", ["2P_2p", "3P_2p2", "1S_2p2", "1D_2p2",
                                   "harmonic_noninteracting", "subshell_k1_l1",
                                   "subshell_k1_l2"])
def test_zero_variance_std_reports_a_finite_deviation(state, capsys):
    """Where the controlled std integrands are constant, the floored stderr
    keeps sigma_deviation finite and at most 1, and the record shows the
    uncontrolled stderr beside it."""
    code, out, _ = run(["compute", "--state", state, "--components",
                        "kin_std,pot_std", "--chains", "8", "--steps", "2000",
                        "--format", "json"], capsys)
    assert code == 0
    for comp, entry in RunRecord.from_json(out).estimates.items():
        assert np.isfinite(entry["sigma_deviation"]), comp
        assert entry["sigma_deviation"] <= 1.0, comp
        assert 0.0 < entry["stderr"] < entry["stderr_uncontrolled"], comp


def test_verify_tables_agrees_with_compute(capsys):
    """Each verify-tables line of a state quotes compute's mean, stderr and
    deviation for the same cell and sampler flags."""
    flags = ["--chains", "4", "--steps", "1500", "--seed", "3"]
    code, out, _ = run(["compute", "--state", "3S_1s2s", "--components",
                        "kin,pot,kin_std,pot_std", "--format", "json"] + flags,
                       capsys)
    assert code == 0
    est = RunRecord.from_json(out).estimates
    code, out, _ = run(["verify-tables", "--only", "3S_1s2s"] + flags, capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "checked 4 cells; failures: 0"
    cells = {"kin_std": "kin_std", "pot_std": "pot_std", "pot_nda": "pot",
             "kin_nda": "kin"}
    for line in lines[:-1]:
        fields = line.split()
        e = est[cells[fields[2]]]
        assert fields[3] == f"mean={e['mean']:+.6g}", line
        assert fields[4] == f"stderr={e['stderr']:.2g}", line
        assert fields[5].startswith(f"exact={e['exact']['rational']}="), line
        assert fields[6] == f"dev={e['sigma_deviation']:.2f}", line
    assert sorted(f.split()[2] for f in lines[:-1]) == sorted(cells)


def test_unconverged_shell_exits_3(capsys):
    code, out, _ = run(["compute", "--state", "2P_2p", "--components", "kin",
                        "--method", "shell", "--chains", "2", "--steps", "400"],
                       capsys)
    assert code == 3
    assert "unconverged" in out


def test_verify_tables_quadrature_passes(capsys):
    code, out, _ = run(["verify-tables", "--method", "quadrature"], capsys)
    assert code == 0
    assert "[PASS]" in out and "FAIL" not in out


def test_verify_tables_only_takes_a_comma_list(capsys):
    code, out, _ = run(["verify-tables", "--only", "2P_2p,3S_1s2s",
                        "--method", "quadrature"], capsys)
    assert code == 0
    assert "checked 4 cells" in out
    assert "2P_2p" in out and "3S_1s2s" in out


def test_verify_tables_names_the_cells_it_skips(capsys):
    # 3P_1s2p has no quadrature reduction for kin_nda; its pot_nda cell is
    # checked, and the skipped cell is named and counted
    code, out, _ = run(["verify-tables", "--only", "3P_1s2p,2P_2p",
                        "--method", "quadrature"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert "[SKIP] 3P_1s2p kin_nda: no quadrature reduction" in lines
    assert sum(line.startswith("[SKIP]") for line in lines) == 1
    assert lines[-1] == "checked 3 cells; failures: 0; skipped 1"


def test_verify_tables_flags_large_deviations(capsys, monkeypatch):
    # poison one exact reference value; a correct sampler must now land
    # more than 4 sigma away from it and the command must exit 1
    import dataclasses
    import nda.cli as cli
    real = cli.get_state

    def poisoned(name, **kw):
        s = real(name, **kw)
        return dataclasses.replace(s, exact_nda={"kin": s.exact_nda["kin"],
                                                 "pot": -0.5})
    monkeypatch.setattr(cli, "get_state", poisoned)
    code, out, _ = run(["verify-tables", "--only", "2P_2p", "--steps",
                        "12500"], capsys)
    assert code == 1
    assert "[FAIL]" in out


def test_domains_command(capsys):
    code, out, _ = run(["domains", "--state", "3P_2p2", "--points", "4000"],
                       capsys)
    assert code == 0
    assert "2 nodal domains" in out


def test_equiv_command_flip(capsys):
    code, out, _ = run(["equiv", "--a", "1D_2p2", "--b", "3P_2p2",
                        "--flip", "x:2", "--points", "20000"], capsys)
    assert code == 0
    assert "equivalent" in out and "1.000000" in out


def test_equiv_flip_and_transform_conflict(capsys):
    # --transform is no option of equiv: omitting --flip is the identity
    code, _, err = run(["equiv", "--a", "1D_2p2", "--b", "3P_2p2",
                        "--flip", "x:2", "--transform", "identity"], capsys)
    assert code == 2
    assert "unrecognized arguments: --transform" in err


def test_equiv_bad_flip_syntax(capsys):
    code, *_ = run(["equiv", "--a", "1D_2p2", "--b", "3P_2p2",
                    "--flip", "w:9"], capsys)
    assert code == 2


def test_z_override(capsys):
    code, out, _ = run(["compute", "--state", "2P_2p", "--Z", "2",
                        "--components", "kin", "--method", "quadrature",
                        "--format", "json"], capsys)
    assert code == 0
    kin = RunRecord.from_json(out).estimates["kin"]["mean"]
    assert kin == pytest.approx(4 / 24, abs=1e-8)
