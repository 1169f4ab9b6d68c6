"""Smoke test of tools/seeded_digest.py, the bitwise battery: it covers
every output kind and prints the same lines on a repeat run."""

import importlib.util
from pathlib import Path

from nda.catalog import get_state

TOOL = Path(__file__).resolve().parent.parent / "tools" / "seeded_digest.py"


def _digest_module():
    spec = importlib.util.spec_from_file_location("seeded_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_seeded_digest_repeats_itself():
    tool = _digest_module()

    def run():
        return list(tool.digest([get_state("3S_1s2s"), get_state("1D_2p2")],
                                configs=[(3, 200)], rows=(1, 5)))

    first = run()
    assert first == run()
    labels = [line.split()[0] for line in first]
    assert len(labels) == len(set(labels))
    assert all(len(line.split()[1]) == 40 for line in first)
    kinds = {label.split("/")[1] for label in labels}
    assert kinds == {"vgl.v", "vgl.g", "vgl.lap", "values", "gradients", "laplacians",
                     "radial",
                     "density.sample", "density.pdf", "density.pdf.points",
                     "node.draw_params", "node.sample",
                     "potential_batch.h", "pot", "std",
                     "abs", "surface", "shell", "metropolis_samples",
                     "count_nodal_domains", "test_node_equivalence.3P_2p2.flip"}
