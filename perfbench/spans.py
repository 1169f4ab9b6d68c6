"""Span recorder for the traced run.

`Recorder.install()` wraps the public functions of the nda modules from
outside the package: every module attribute that is one of the wrapped
functions is replaced for the duration of the run, as are the model methods
on each WaveFunction class.  Spans (name, start, end, parent span, op) are
kept in memory and written out once the run ends.  A span's self time is its
duration minus the durations of its direct children; calls are sequential,
so the children never overlap.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

from nda import catalog, cli, estimators, hamiltonians, quadrature, topology
from nda import wavefunctions

MODEL_METHODS = ("values", "gradients", "laplacians")
ESTIMATORS = ("estimate_pot_nda", "estimate_standard_expectations",
              "estimate_kin_nda_surface", "estimate_abs_norm",
              "estimate_kin_nda_shell", "metropolis_samples")
METROPOLIS = ("estimate_pot_nda", "estimate_standard_expectations",
              "metropolis_samples")
# Estimators whose arrays grow with the sample budget (the Metropolis noise
# block, the shell's retained samples).  The surface and abs-norm loops hold
# one chunk per chain (under 2 MB); under tracemalloc their per-chain loops
# run four times slower, which would push the traced table2_wide run past
# the benchmark's time limit, so they get no peak_alloc_mb.
ALLOC_TRACKED = ("estimate_pot_nda", "estimate_standard_expectations",
                 "estimate_kin_nda_shell", "metropolis_samples")


def _rows(x) -> int:
    return int(x.shape[0])


def _chain_steps(args, kwargs) -> int:
    cfg = kwargs.get("cfg")
    if cfg is None:
        cfg = next((a for a in args if isinstance(a, estimators.SamplerConfig)),
                   None)
    cfg = cfg or estimators.SamplerConfig()
    return cfg.n_chains * cfg.steps_per_chain


@dataclasses.dataclass
class Span:
    name: str
    parent: int
    op: int
    start: int = 0               # perf_counter_ns
    end: int = 0
    rows: int = 0
    chain_steps: int = 0
    n_edges_tested: int = 0
    resampled: int = 0
    peak_alloc: int = 0          # bytes above the allocation level at entry


class Recorder:
    """Collects spans for ops run inside `op(name)`.

    With alloc=True only the ALLOC_TRACKED estimators are wrapped, and
    tracemalloc runs inside their spans to record peak allocations.
    tracemalloc slows the program several times over, so that pass gives no
    timings.
    """

    def __init__(self, alloc: bool = False):
        self.alloc = alloc
        self.spans: List[Span] = []
        self.ops: List[str] = []
        self._stack: List[int] = []
        self._alloc: List[list] = []        # [level at entry, peak seen]
        self._undo: List[tuple] = []

    # ---- recording

    def _open(self, name: str) -> Span:
        span = Span(name, self._stack[-1] if self._stack else -1,
                    len(self.ops) - 1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    @contextmanager
    def op(self, name: str):
        self.ops.append(name)
        span = self._open("op")
        span.start = time.perf_counter_ns()
        try:
            yield
        finally:
            span.end = time.perf_counter_ns()
            self._stack.pop()

    def _alloc_enter(self) -> None:
        if not self._alloc:
            tracemalloc.start()
        else:
            self._alloc[-1][1] = max(self._alloc[-1][1],
                                     tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        level = tracemalloc.get_traced_memory()[0]
        self._alloc.append([level, level])

    def _alloc_exit(self, span: Span) -> None:
        frame = self._alloc.pop()
        peak = max(frame[1], tracemalloc.get_traced_memory()[1])
        span.peak_alloc = peak - frame[0]
        if self._alloc:
            self._alloc[-1][1] = max(self._alloc[-1][1], peak)
        else:
            tracemalloc.stop()

    def wrap(self, name: str, fn: Callable, rows: Optional[Callable] = None,
             after: Optional[Callable] = None, alloc: bool = False) -> Callable:
        """fn wrapped in a span; rows(args) and after(span, args, kwargs,
        result) fill the span's counters."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            if alloc:
                self._alloc_enter()
            span.start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                if alloc:
                    self._alloc_exit(span)
                self._stack.pop()
            if rows is not None:
                span.rows = rows(args)
            if after is not None:
                after(span, args, kwargs, result)
            return result
        return wrapper

    # ---- installing the wrappers

    def _replace(self, original: Callable, wrapper: Callable) -> None:
        """Point every nda module attribute bound to original at wrapper."""
        for modname, module in list(sys.modules.items()):
            if modname != "nda" and not modname.startswith("nda."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _replace_method(self, cls, attr: str, wrapper: Callable) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self) -> None:
        if self.alloc:
            for name in ALLOC_TRACKED:
                fn = getattr(estimators, name)
                self._replace(fn, self.wrap(f"estimators.{name}", fn, alloc=True))
            return

        def chain_steps(span, args, kwargs, result):
            span.chain_steps = _chain_steps(args, kwargs)

        for name in ESTIMATORS:
            fn = getattr(estimators, name)
            self._replace(fn, self.wrap(
                f"estimators.{name}", fn,
                after=chain_steps if name in METROPOLIS else None))

        def model_classes(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from model_classes(sub)

        for cls in model_classes(wavefunctions.WaveFunction):
            for attr in MODEL_METHODS:
                if attr in cls.__dict__:
                    self._replace_method(cls, attr, self.wrap(
                        f"wavefunctions.{attr}", cls.__dict__[attr],
                        rows=lambda a: _rows(a[1])))

        self._replace(hamiltonians.potential_batch, self.wrap(
            "hamiltonians.potential_batch", hamiltonians.potential_batch,
            rows=lambda a: _rows(a[1])))

        density = catalog.ReferenceDensity
        self._replace_method(density, "sample", self.wrap(
            "catalog.reference_sample", density.sample, rows=lambda a: int(a[2])))
        self._replace_method(density, "pdf", self.wrap(
            "catalog.reference_pdf", density.pdf, rows=lambda a: _rows(a[1])))

        node_sample = lambda fn: self.wrap(  # noqa: E731
            "catalog.node_sample", fn, rows=lambda a: int(a[1]))
        original_param = catalog.node_parametrization

        @functools.wraps(original_param)
        def node_parametrization(state):
            param = original_param(state)
            if param.sample is None:
                return param
            return dataclasses.replace(param, sample=node_sample(param.sample))
        self._replace(original_param, node_parametrization)

        def domains_after(span, args, kwargs, report):
            span.n_edges_tested = report.n_edges_tested

        def equivalence_after(span, args, kwargs, out):
            span.resampled = out["resampled"]

        self._replace(topology.count_nodal_domains, self.wrap(
            "topology.count_nodal_domains", topology.count_nodal_domains,
            after=domains_after))
        self._replace(topology.test_node_equivalence, self.wrap(
            "topology.test_node_equivalence", topology.test_node_equivalence,
            after=equivalence_after))
        self._replace(quadrature.quadrature_oracle, self.wrap(
            "quadrature.quadrature_oracle", quadrature.quadrature_oracle))
        self._replace(cli.main, self.wrap("cli.main", cli.main))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ---- reductions

    def self_times_ns(self) -> List[int]:
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def op_residuals_ns(self) -> Dict[str, int]:
        """Per op: sum of its spans' self times minus the op span's duration."""
        own = self.self_times_ns()
        total = defaultdict(int)
        for s, t in zip(self.spans, own):
            total[s.op] += t
        return {self.ops[s.op]: total[s.op] - (s.end - s.start)
                for s in self.spans if s.name == "op"}

    def ops_calling(self, names) -> List[str]:
        """Names of the ops in which any of the named spans ran."""
        hit = {s.op for s in self.spans if s.name in names}
        return [self.ops[i] for i in sorted(hit)]

    def peak_alloc_mb(self) -> Dict[str, float]:
        """Largest peak allocation per span name, in MiB."""
        out: Dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name] = max(out[s.name], s.peak_alloc / 2 ** 20)
        return out

    def layer_metrics(self, peaks: Dict[str, float]) -> Dict[str, float]:
        """Per-layer metrics named <layer>.<function>.<quantity>; peaks
        comes from an alloc=True recorder's peak_alloc_mb()."""
        own = self.self_times_ns()
        agg = defaultdict(lambda: defaultdict(int))
        for s, t in zip(self.spans, own):
            a = agg[s.name]
            a["calls"] += 1
            a["self_ns"] += t
            a["rows"] += s.rows
            a["chain_steps"] += s.chain_steps
            a["n_edges_tested"] += s.n_edges_tested
            a["resampled"] += s.resampled
            # total time counts only the outermost span of a name
            if s.parent < 0 or self.spans[s.parent].name != s.name:
                a["total_ns"] += s.end - s.start

        out: Dict[str, float] = {}

        def put(name, rows=False, per_row=False):
            a = agg[name]
            out[f"{name}.calls"] = a["calls"]
            if rows:
                out[f"{name}.rows"] = a["rows"]
            out[f"{name}.self_s"] = a["self_ns"] * 1e-9
            if per_row:
                out[f"{name}.us_per_row"] = (a["self_ns"] * 1e-3 / a["rows"]
                                             if a["rows"] else 0.0)

        for attr in MODEL_METHODS:
            put(f"wavefunctions.{attr}", rows=True, per_row=True)
        put("hamiltonians.potential_batch", rows=True)
        for name in ("reference_sample", "reference_pdf", "node_sample"):
            put(f"catalog.{name}", rows=True)
        for fn in ESTIMATORS:
            name = f"estimators.{fn}"
            a = agg[name]
            put(name)
            out[f"{name}.total_s"] = a["total_ns"] * 1e-9
            if fn in ALLOC_TRACKED:
                out[f"{name}.peak_alloc_mb"] = peaks.get(name, 0.0)
            if fn in METROPOLIS:
                out[f"{name}.chain_steps_per_s"] = (
                    a["chain_steps"] / (a["total_ns"] * 1e-9) if a["total_ns"]
                    else 0.0)
        put("topology.count_nodal_domains")
        out["topology.count_nodal_domains.n_edges_tested"] = \
            agg["topology.count_nodal_domains"]["n_edges_tested"]
        put("topology.test_node_equivalence")
        out["topology.test_node_equivalence.resampled"] = \
            agg["topology.test_node_equivalence"]["resampled"]
        put("quadrature.quadrature_oracle")
        put("cli.main")
        return out

    def to_json(self) -> dict:
        return {
            "ops": self.ops,
            "span_fields": ["name", "parent", "op", "start_ns", "end_ns", "rows"],
            "spans": [[s.name, s.parent, s.op, s.start, s.end, s.rows]
                      for s in self.spans],
        }
