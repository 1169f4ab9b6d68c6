"""The benchmark's span recorder (perfbench/spans.py) against the library.

The recorder wraps library names by lookup: a model method it names that a
model class no longer defines would crash `perfbench/run.py --trace 1`,
and one that the library no longer calls would read 0 rows in the
per-layer metrics.  These tests import the recorder read-only, install and
uninstall it, and run one small estimate under it.
"""

import sys
from pathlib import Path

import pytest

import nda.wavefunctions as wf
from nda import catalog, estimators
from nda.catalog import get_state
from nda.estimators import SamplerConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODELS = (wf.SlaterProduct, wf.HarmonicPair)


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    return spans


def _bindings() -> dict:
    """Every attribute of the nda modules and of the classes the recorder
    patches, keyed by (owner, name)."""
    owners = [m for n, m in sys.modules.items() if n == "nda" or n.startswith("nda.")]
    owners += [*MODELS, catalog.ReferenceDensity]
    return {(id(o), name): value for o in owners for name, value in vars(o).items()}


def _assert_restored(before: dict) -> None:
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_recorder_wraps_the_model_methods_and_restores_them(spans):
    """values and gradients are wrapped on both model classes, an abs-norm
    estimate books one values row per draw, and uninstall puts every
    original back."""
    before = _bindings()
    rec = spans.Recorder()
    rec.install()
    try:
        for cls in MODELS:
            for attr in ("values", "gradients"):
                wrapped = cls.__dict__[attr]
                assert wrapped.__wrapped__ is before[id(cls), attr], (cls, attr)
        cfg = SamplerConfig(n_chains=2, steps_per_chain=100, seed=1)
        with rec.op("abs_norm"):
            estimators.estimate_abs_norm(get_state("3S_1s2s"), cfg)
    finally:
        rec.uninstall()
    _assert_restored(before)
    metrics = rec.layer_metrics({})
    assert metrics["wavefunctions.values.rows"] == cfg.n_chains * cfg.steps_per_chain
    assert metrics["estimators.estimate_abs_norm.calls"] == 1


def test_alloc_recorder_restores_the_estimators(spans):
    before = _bindings()
    rec = spans.Recorder(alloc=True)
    rec.install()
    try:
        for name in spans.ALLOC_TRACKED:
            assert getattr(estimators, name).__wrapped__ is before[id(estimators), name]
    finally:
        rec.uninstall()
    _assert_restored(before)
