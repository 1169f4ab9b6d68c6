"""Benchmark of the nda package.

    python3 perfbench/run.py --workload table2_wide --seed 20260801 \
        --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  With `--trace 0` the workload's fixed set of ops runs again and
again (each pass on the same seed, so on the same inputs) until another pass
would not fit in `--seconds`, and the end-to-end metrics are medians over
the passes.  Their times are rescaled to a reference machine speed (see
speed.py); the measured times go to stderr.  With `--trace 1` three passes run whatever `--seconds` says:
an untraced one, one with spans around every layer (the per-layer metrics
and, against the untraced pass, the tracing overhead) and one with
tracemalloc inside the estimators that hold sample-sized arrays (their
peak_alloc_mb).  Every op's result is checked against the catalog's exact
values.  A human-readable report goes to stderr; the last line of stdout is
one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 4      # fresh processes timed besides this one
UNITS = {"setup_s": "s", "wall_s": "s", "time_to_target_s": "s",
         "peak_rss_mb": "MB"}


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked; nothing is measured."""


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("table2_wide", "catalog_narrow", "nodes"))
    p.add_argument("--seed", type=int, default=20260801)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def prepare_environment() -> dict:
    """Refuse NDA_THREADS, keep numeric libraries to one thread and make
    the checkout's `src/` importable.  Returns the child-process env."""
    if "NDA_THREADS" in os.environ:
        raise SetupError("NDA_THREADS is set; unset it so the benchmark "
                         "measures the library's default scheduling")
    if not (SRC / "nda" / "__init__.py").is_file():
        raise SetupError(f"no nda package under {SRC}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _check_imported_from_checkout() -> None:
    import nda
    if Path(nda.__file__).resolve().parent != SRC / "nda":
        raise SetupError(f"nda was imported from {nda.__file__}, not {SRC}")


def environment_record() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "threads": 1,
            "machine": platform.machine()}


def probe_setup(workload: str, seed: int, env: dict) -> float:
    """Set-up seconds measured in one fresh process."""
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120,
        check=True)
    return float(out.stdout.strip().splitlines()[-1])


# --------------------------------------------------------------------------
# running ops


@dataclass
class OpResult:
    op: object
    start: float            # perf_counter at the op's start
    wall: float
    cells: list
    problems: list


def run_pass(ops, recorder=None, speed=None):
    """Run every op once, timing the speed kernel between ops when given."""
    import workloads
    results = []
    for op in ops:
        if speed is not None:
            speed.sample_if_due()
        scope = recorder.op(op.name) if recorder is not None else nullcontext()
        t0 = time.perf_counter()
        try:
            with scope:
                cells = op.run()
            wall = time.perf_counter() - t0
            found = [p for c in cells for p in workloads.problems(c)]
        except Exception as exc:        # a failing op is counted, not fatal
            wall = time.perf_counter() - t0
            cells, found = [], [f"raised {type(exc).__name__}: {exc}"]
        results.append(OpResult(op, t0, wall, cells, found))
    if speed is not None:
        speed.sample()
    return results


def run_traced(ops, recorder):
    recorder.install()
    try:
        return run_pass(ops, recorder)
    finally:
        recorder.uninstall()


def pass_wall(results) -> float:
    return sum(r.wall for r in results)


def pass_time_to_target(results, walls) -> float:
    """Sum over target ops of wall x max (stderr / cap)^2; the pass wall
    time when the workload has no stderr target."""
    import workloads
    scored = [(w, r.cells) for r, w in zip(results, walls) if r.op.has_target]
    if not scored:
        return sum(walls)
    return sum(w * workloads.target_factor(cells) if cells else w
               for w, cells in scored)


def failures(passes):
    return [(r.op.name, r.problems) for results in passes
            for r in results if r.problems]


def report(workload, seed, passes, env_record, extra) -> None:
    err = sys.stderr
    print(f"perfbench {workload} seed={seed} passes={len(passes)} "
          f"env={json.dumps(env_record, sort_keys=True)}", file=err)
    for r in passes[0]:
        cell_txt = "; ".join(
            f"{c.label}={c.value:+.6g}" + (f"+-{c.stderr:.2g}" if c.n_chains else "")
            for c in r.cells)
        print(f"  {'FAIL' if r.problems else 'ok  '} {r.op.name:<34} "
              f"{r.wall:8.3f} s  {cell_txt}", file=err)
        for text in r.problems:
            print(f"         {text}", file=err)
    for key, value in extra.items():
        print(f"  {key}: {value}", file=err)


def measure(workload: str, seed: int, seconds: float, trace: bool,
            budget=None, exact=None, setup_probes: int = SETUP_PROBES) -> dict:
    """One benchmark run; returns the result object printed on stdout."""
    env = prepare_environment()
    t0 = time.perf_counter()
    import workloads
    ops = workloads.build(workload, seed, budget or workloads.Budget(),
                          exact or workloads.catalog_exact)
    setup = [(t0, time.perf_counter() - t0)]
    _check_imported_from_checkout()
    env_record = environment_record()

    if trace:
        import spans
        untraced = run_pass(ops)
        recorder = spans.Recorder()
        traced = run_traced(ops, recorder)
        heavy = set(recorder.ops_calling(
            [f"estimators.{fn}" for fn in spans.ALLOC_TRACKED]))
        alloc = spans.Recorder(alloc=True)
        run_traced([op for op in ops if op.name in heavy], alloc)
        passes = [untraced, traced]
        metrics = recorder.layer_metrics(alloc.peak_alloc_mb())
        residuals = recorder.op_residuals_ns()
        metrics["trace.untraced_wall_s"] = pass_wall(untraced)
        metrics["trace.traced_wall_s"] = pass_wall(traced)
        metrics["trace.overhead_s"] = pass_wall(traced) - pass_wall(untraced)
        metrics["trace.spans"] = len(recorder.spans)
        metrics["trace.max_self_residual_ns"] = max(
            (abs(r) for r in residuals.values()), default=0)
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"spans_{workload}_{seed}.json", "w") as fh:
            json.dump({"workload": workload, "seed": seed,
                       "environment": env_record, "metrics": metrics,
                       **recorder.to_json()}, fh)
        units = {k: _layer_unit(k) for k in metrics}
        extra = {"tracing overhead": f"{metrics['trace.overhead_s']:+.3f} s "
                 f"({pass_wall(untraced):.3f} s untraced)",
                 "max |sum of self times - op wall|":
                 f"{metrics['trace.max_self_residual_ns']} ns"}
    else:
        import speed as speed_module
        speed = speed_module.SpeedProbe()
        passes = []
        begin = time.perf_counter()
        while True:
            passes.append(run_pass(ops, speed=speed))
            elapsed = time.perf_counter() - begin
            if elapsed * (len(passes) + 1) / len(passes) > seconds:
                break
        for _ in range(setup_probes):
            speed.sample()
            setup.append((time.perf_counter(), probe_setup(workload, seed, env)))
        speed.sample()
        walls = [[speed.rescale(r.start, r.wall) for r in results]
                 for results in passes]
        metrics = {
            "setup_s": statistics.median(speed.rescale(t, s) for t, s in setup),
            "wall_s": statistics.median(sum(w) for w in walls),
            "time_to_target_s": statistics.median(
                pass_time_to_target(r, w) for r, w in zip(passes, walls)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = UNITS
        extra = {
            "setup samples, measured (s)": " ".join(f"{s:.4f}" for _, s in setup),
            "pass walls, measured (s)": " ".join(
                f"{pass_wall(r):.3f}" for r in passes),
            "pass walls, at reference speed (s)": " ".join(
                f"{sum(w):.3f}" for w in walls),
            "speed kernel (ms), median of "
            f"{len(speed.seconds)}": f"{statistics.median(speed.seconds) * 1e3:.3f}",
        }

    report(workload, seed, passes, env_record, extra)
    failed = failures(passes)
    return {
        "correct": all(name in workloads.KNOWN_BAD for name, _ in failed),
        "attempted": sum(len(r) for r in passes),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def _layer_unit(name: str) -> str:
    quantity = name.rsplit(".", 1)[-1]
    return {"calls": "count", "rows": "count", "n_edges_tested": "count",
            "resampled": "count", "spans": "count", "us_per_row": "us",
            "peak_alloc_mb": "MB", "chain_steps_per_s": "1/s",
            "max_self_residual_ns": "ns"}.get(quantity, "s")


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (SetupError, ImportError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
