"""Memory held by a reloaded pyramid.

A reload keeps each level's sigma/alpha as int32 arrays (a level whose
kernel keeps alpha shares the array below) and the level of every dart as
one int array, and builds no level map but the base's. A level's map, two
lists indexed by signed dart that share the base's int objects (and, where
levels share alpha, one alpha list), is built on its first read. Per-dart
dicts or frozensets on that path (level maps, dart levels, kept kernels)
cost several times as much: with them a warm seed-1 reload held 7.22 MB on
gradient-levels and 6.85 MB on sign-mosaic (tracemalloc, CPython 3.11).
The bounds hold with every level's map built too.
"""

import gc
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from combipyramid import map_core, pyramid
from combipyramid.pyramid import Pyramid
from combipyramid.segmentation import SegmentedImage

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import WORKLOADS  # noqa: E402


def seed_1_record(name: str) -> str:
    workload = WORKLOADS[name]
    return SegmentedImage(workload.raster(np.random.default_rng(1))).run(workload.threshold).pyramid.to_json()


def held_by_reload(text: str, maps: bool) -> float:
    """MB a warm reload of text holds, with every level's map built when maps."""
    Pyramid.from_json(text)  # warm: first-use allocations of numpy and the package
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        pyr = Pyramid.from_json(text)
        if maps:
            for i in range(pyr.top_level + 1):
                pyr.reconstruct_level(i)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert pyr.top_level > 0
    return held / 2**20


BOUNDS = [("gradient-levels", 4.5), ("sign-mosaic", 3.5)]


@pytest.mark.parametrize("name, bound_mb", BOUNDS)
def test_reload_holds_no_per_dart_containers(name, bound_mb):
    held = held_by_reload(seed_1_record(name), maps=False)
    assert held <= bound_mb, f"a reload holds {held:.2f} MB"


@pytest.mark.parametrize("name, bound_mb", BOUNDS)
def test_reload_with_every_level_map_built_stays_in_bounds(name, bound_mb):
    # levels that share an alpha array share its list: without that, the
    # gradient-levels maps would take the reload past 4.5 MB
    held = held_by_reload(seed_1_record(name), maps=True)
    assert held <= bound_mb, f"a reload with its maps holds {held:.2f} MB"


def test_reload_builds_only_the_base_map():
    text = seed_1_record("gradient-levels")
    calls = []
    map_of = map_core.map_of

    def counted(*args):
        calls.append(args)
        return map_of(*args)

    with mock.patch.object(map_core, "map_of", counted), mock.patch.object(pyramid, "map_of", counted):
        pyr = Pyramid.from_json(text)
        assert len(calls) == 1  # the base, from build_grid_map
        for i in range(pyr.top_level + 1):
            assert pyr.reconstruct_level(i) is pyr.reconstruct_level(i)
    assert len(calls) == pyr.top_level + 1
