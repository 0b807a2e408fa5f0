"""Memory held by a reloaded pyramid.

A reload keeps each level's sigma, alpha and turn counts as arrays over its
live darts, its int32 region array over the base's darts and the level of
every dart as one int array, and builds no map of its own. The grid
tables, the base map and level 0's record are built once per grid size and
shared, read-only, by every pyramid of that size, so a warm reload of a
size already loaded holds none of them: a warm seed-1 reload held 0.86 MB
on gradient-levels and 0.48 MB on sign-mosaic, 2.32 and 1.99 MB while
every reload built its own. A cold reload, of a size whose grid cache was
cleared, builds that base once and is bounded apart. The died list is read
into one int64 array without a Python int per entry, so a reload peaks
below what it did while json.loads decoded the list. A level's map is a
view of that level's own arrays, and its walk lists, lists of positions
with a dict from dart to position, are built on its first walk, in
proportion to the level's darts; so the first query after a reload holds
what its level needs, not what the base does. Per-dart dicts or frozensets
kept by every reload (level maps, dart levels, kept kernels) cost several
times as much: with them a warm seed-1 reload held 7.22 MB on
gradient-levels and 6.85 MB on sign-mosaic (tracemalloc, CPython 3.11).
Each mode, every level's map walked or not, has a bound of its own.
validate checks each level on its record's arrays and builds no level map,
so what it holds grows with the darts, not with levels x darts.
"""

import gc
import random
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from combipyramid import cli, map_core
from combipyramid.map_core import CombinatorialMap
from combipyramid.pyramid import Kernel, KernelState, Pyramid
from combipyramid.relations import meets_exists, rag_export
from combipyramid.segmentation import SegmentedImage

from conftest import spanning_tree

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import WORKLOADS  # noqa: E402


def seed_1_record(name: str) -> str:
    workload = WORKLOADS[name]
    return SegmentedImage(workload.raster(np.random.default_rng(1))).run(workload.threshold).pyramid.to_json()


def held_by_reload(text: str, maps: bool = False, cold: bool = False) -> tuple[float, float]:
    """MB a reload of text holds and MB it peaks at while it loads
    (tracemalloc): warm, of a size loaded before, or cold, of a size whose
    grid cache was cleared, so that it builds and holds the shared base; with
    every level's map and its walk lists built when maps, the shared base's
    built before the trace starts."""
    warm = Pyramid.from_json(text)  # warm: first-use allocations of numpy and the package
    if maps:
        assert 0 not in warm.base  # builds the shared base's walk lists
    if cold:
        map_core._grid_map.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        pyr = Pyramid.from_json(text)
        peak = tracemalloc.get_traced_memory()[1] - before
        if maps:
            for i in range(pyr.top_level + 1):
                assert 0 not in pyr.reconstruct_level(i)  # builds the map's walk lists
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert pyr.top_level > 0
    return held / 2**20, peak / 2**20


# each bound is about twice what a seed-1 reload held (tracemalloc, CPython 3.11),
# and test ids name the workload alone
NAMES = ["gradient-levels", "sign-mosaic"]


@pytest.mark.parametrize("name, bound_mb", [("gradient-levels", 1.7), ("sign-mosaic", 1.0)], ids=NAMES)
def test_reload_holds_no_per_dart_containers(name, bound_mb):
    # a warm reload held 0.86 MB on gradient-levels and 0.48 MB on sign-mosaic
    held, _ = held_by_reload(seed_1_record(name))
    assert held <= bound_mb, f"a reload holds {held:.2f} MB"


@pytest.mark.parametrize("name, bound_mb", [("gradient-levels", 4.5), ("sign-mosaic", 2.5)], ids=NAMES)
def test_reload_with_every_level_map_built_stays_in_bounds(name, bound_mb):
    # each level map's walk lists are over its own darts: a warm reload with
    # every map walked held 2.71 MB on gradient-levels and 1.70 MB on
    # sign-mosaic, the shared base excluded; 2.61 and 1.24 MB while a map
    # was two lists over the base's darts that shared one int object per
    # dart, and 4.10 and 2.75 MB while every reload built its own base
    held, _ = held_by_reload(seed_1_record(name), maps=True)
    assert held <= bound_mb, f"a reload with its maps holds {held:.2f} MB"


@pytest.mark.parametrize("name, bound_mb", [("gradient-levels", 4.6), ("sign-mosaic", 3.9)], ids=NAMES)
def test_reload_of_a_cold_size_holds_one_base(name, bound_mb):
    # the reload and the shared base of its size, which the grid cache then
    # keeps: 1.43 MB on gradient-levels and 1.05 MB on sign-mosaic; 2.29 and
    # 1.94 MB while the base kept an int object per dart and its map's lists
    held, _ = held_by_reload(seed_1_record(name), cold=True)
    assert held <= bound_mb, f"a cold reload holds {held:.2f} MB"


@pytest.mark.parametrize("name", NAMES)
def test_reload_peaks_below_a_list_of_levels_as_python_ints(name):
    # a warm reload peaked at 1.24 MB on both; 1.34 MB while json.loads read
    # the died list into a list of ints that np.fromiter then copied
    _, peak = held_by_reload(seed_1_record(name))
    assert peak <= 1.3, f"a reload peaks at {peak:.2f} MB"


def test_reload_builds_only_the_base_map():
    text = seed_1_record("gradient-levels")
    map_core._grid_map.cache_clear()  # the record's build left its size's base map cached
    calls = []
    make = CombinatorialMap._of

    def counted(*args):
        calls.append(args)
        return make(*args)

    with mock.patch.object(CombinatorialMap, "_of", counted):
        pyr = Pyramid.from_json(text)
        assert len(calls) == 1  # the base, from build_grid_map
        again = Pyramid.from_json(text)
        assert len(calls) == 1  # a second load of the size builds no map at all
        assert again.base is pyr.base
        for i in range(pyr.top_level + 1):
            assert pyr.reconstruct_level(i) is pyr.reconstruct_level(i)
    assert len(calls) == pyr.top_level + 1



def test_first_query_after_a_reload_holds_what_its_level_needs():
    # a 4x4 tiling of the seed-1 sign-mosaic raster: 263,168 base darts
    # under a top of 768. The first meets_exists on the top walks the top's
    # map and holds its walk lists alone: 6.0 MB while a level's map was
    # two lists over every base dart and level() kept a list of them
    workload = WORKLOADS["sign-mosaic"]
    raster = np.tile(workload.raster(np.random.default_rng(1)), (4, 4, 1))
    built = SegmentedImage(raster).run(workload.threshold).pyramid
    text, top = built.to_json(), built.top_level
    a, b = rag_export(built, top)[1][0]
    assert meets_exists(Pyramid.from_json(text), top, a, b)  # warm
    pyr = Pyramid.from_json(text)
    assert len(pyr.base) == 263_168 and len(pyr._levels[top].order) == 768
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert meets_exists(pyr, top, a, b)
        gc.collect()
        held = (tracemalloc.get_traced_memory()[0] - before) / 2**20
    finally:
        tracemalloc.stop()
    assert held <= 1.0, f"the first query holds {held:.2f} MB"

def test_validate_keeps_no_level_map(tmp_path):
    # one contracted edge per level: a 12x12 grid has 145 vertices, the
    # outside included, so a spanning tree makes 144 levels. Keeping every
    # level's map after validate held 7.6 MB here, against 1.1 MB for the load
    pyr = Pyramid(12, 12)
    for d in spanning_tree(pyr, random.Random(0)):
        pyr.apply_kernel(Kernel(KernelState.CK, [d, -d]))
    path = tmp_path / "tree.pyr"
    path.write_text(pyr.to_json())
    Pyramid.from_json(path.read_text())  # warm
    loaded = []
    load = cli._load_pyramid

    def kept(p):
        loaded.append(load(p))
        return loaded[-1]

    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with mock.patch.object(cli, "_load_pyramid", kept):
            assert cli.main(["validate", "--pyr", str(path)]) == 0
        gc.collect()
        held = (tracemalloc.get_traced_memory()[0] - before) / 2**20
    finally:
        tracemalloc.stop()
    assert loaded[0].top_level == 144
    assert held <= 2.5, f"the validated pyramid holds {held:.2f} MB"
