"""tests/warm_times.py loads two trees into one process: each is imported
as ``roeclass``, the name its layers import it by, and moved aside."""

import random
import sys
from pathlib import Path

import roeclass
import warm_times

REPO = Path(__file__).resolve().parent.parent


def test_two_loads_of_the_tree_agree_on_every_path():
    packages = [warm_times.load(REPO, f"roeclass_warm_{i}") for i in range(2)]
    try:
        assert packages[0] is not packages[1] and packages[0].roeops is not packages[1].roeops
        # every layer is its own tree's, under the alias, and the package
        # this process imported is back in place
        for i, package in enumerate(packages):
            assert sys.modules[f"roeclass_warm_{i}"] is package
            for layer in package._LAYERS:
                assert sys.modules[f"roeclass_warm_{i}.{layer}"] is getattr(package, layer)
        assert sys.modules["roeclass"] is roeclass
        for name, path in warm_times.paths(random.Random(0)).items():
            assert path(packages[0]) == path(packages[1]), name
    finally:
        for name in [n for n in sys.modules if n.startswith("roeclass_warm_")]:
            del sys.modules[name]
