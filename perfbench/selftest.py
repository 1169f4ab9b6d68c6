"""Smoke test of the benchmark at a tiny budget:  python3 perfbench/selftest.py

Checks that
* every metric named in BENCHMARK.json is emitted with its unit, for every
  workload, untraced (end-to-end metrics) and traced (per-layer metrics);
* a deliberately wrong exact value lands in `failed` and clears `correct`;
* in the traced run the self times of each op's spans sum to the op's
  traced wall time (both in integer nanoseconds, so exactly);
* the benchmark refuses to run when NDA_THREADS is set.
Exits 0 when every check holds.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import run

TINY = dict(wide_chains=16, wide_fraction=1 / 64, narrow_steps=200,
            shell_chains=4, shell_draws=2_000, big_shell_draws=4_000,
            domain_points=1_000, equivalence_points=1_000)


def main() -> int:
    run.prepare_environment()
    import workloads
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    budget = workloads.Budget(**TINY)
    errors = []

    def expect(ok, text):
        print(f"  {'ok  ' if ok else 'FAIL'} {text}")
        if not ok:
            errors.append(text)

    def measure(workload, trace, exact=None):
        return run.measure(workload, 1, 0.0, trace, budget=budget, exact=exact,
                           setup_probes=1)

    for trace, group in ((False, "end_to_end"), (True, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[group]}
        for w in spec["workloads"]:
            res = measure(w["name"], trace)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            missing = sorted(k for k in wanted if got.get(k) != wanted[k])
            expect(not missing and set(got) == set(wanted),
                   f"{w['name']} trace={int(trace)}: {group} metrics and units "
                   f"(missing or wrong: {missing}, extra: "
                   f"{sorted(set(got) - set(wanted))})")
            expect(res["attempted"] >= 1 and isinstance(res["failed"], int),
                   f"{w['name']} trace={int(trace)}: attempted and failed")
            if trace:
                expect(res["metrics"]["trace.max_self_residual_ns"]["value"] == 0,
                       f"{w['name']}: span self times sum to each op's wall time")

    def wrong(state, component):
        value = workloads.catalog_exact(state, component)
        if (state.name, component) == ("3S_1s2s", "pot_nda"):
            return value + 1.0
        return value

    right = measure("table2_wide", False)
    bad = measure("table2_wide", False, exact=wrong)
    expect(bad["failed"] == right["failed"] + 1 and not bad["correct"],
           f"a wrong exact value is counted in failed ({right['failed']} -> "
           f"{bad['failed']}) and clears correct")

    env = dict(os.environ, NDA_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(Path(run.__file__)), "--workload", "nodes"],
        env=env, capture_output=True, text=True, timeout=60)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "refuses to run with NDA_THREADS set")

    print("selftest:", "FAILED" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
