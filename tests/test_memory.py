"""Memory held by a reloaded pyramid.

A reload keeps each level's sigma, alpha and turn counts as arrays over its
live darts, its int32 region array over the base's darts and the level of
every dart as one int array, and builds no map of its own. The grid
tables, the base map and level 0's record are built once per grid size and
shared, read-only, by every pyramid of that size, so a warm reload of a
size already loaded holds none of them: a warm seed-1 reload held 0.83 MB
on gradient-levels and 0.48 MB on sign-mosaic, 2.32 and 1.99 MB while
every reload built its own. A cold reload, of a size whose grid cache was
cleared, builds that base once and is bounded apart. The died list is read
into one int64 array without a Python int per entry, so a reload peaks
below what it did while json.loads decoded the list. A level's map, two
lists indexed by signed dart that share the base's int objects, is built
on its first read from that level's own arrays. Per-dart
dicts or frozensets on that path (level maps, dart levels, kept kernels)
cost several times as much: with them a warm seed-1 reload held 7.22 MB on
gradient-levels and 6.85 MB on sign-mosaic (tracemalloc, CPython 3.11).
Each mode, every level's map built or not, has a bound of its own. validate checks each
level on its record's arrays and builds no level map, so what it holds grows
with the darts, not with levels x darts.
"""

import gc
import random
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from combipyramid import cli, map_core, pyramid
from combipyramid.pyramid import Kernel, KernelState, Pyramid
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
    every level's map built when maps."""
    Pyramid.from_json(text)  # warm: first-use allocations of numpy and the package
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
                pyr.reconstruct_level(i)
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
    # a warm reload held 0.83 MB on gradient-levels and 0.48 MB on sign-mosaic
    held, _ = held_by_reload(seed_1_record(name))
    assert held <= bound_mb, f"a reload holds {held:.2f} MB"


@pytest.mark.parametrize("name, bound_mb", [("gradient-levels", 4.5), ("sign-mosaic", 2.5)], ids=NAMES)
def test_reload_with_every_level_map_built_stays_in_bounds(name, bound_mb):
    # each level map holds its own sigma and alpha lists: a warm reload with
    # every map built held 2.61 MB on gradient-levels and 1.24 MB on
    # sign-mosaic, the shared base excluded; 4.10 and 2.75 MB while every
    # reload built its own. gradient-levels keeps its earlier 4.5 MB, which
    # is below twice its figure
    held, _ = held_by_reload(seed_1_record(name), maps=True)
    assert held <= bound_mb, f"a reload with its maps holds {held:.2f} MB"


@pytest.mark.parametrize("name, bound_mb", [("gradient-levels", 4.6), ("sign-mosaic", 3.9)], ids=NAMES)
def test_reload_of_a_cold_size_holds_one_base(name, bound_mb):
    # the reload and the shared base of its size, which the grid cache then
    # keeps: 2.29 MB on gradient-levels and 1.94 MB on sign-mosaic
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
    map_of = map_core.map_of

    def counted(*args):
        calls.append(args)
        return map_of(*args)

    with mock.patch.object(map_core, "map_of", counted), mock.patch.object(pyramid, "map_of", counted):
        pyr = Pyramid.from_json(text)
        assert len(calls) == 1  # the base, from build_grid_map
        again = Pyramid.from_json(text)
        assert len(calls) == 1  # a second load of the size builds no map at all
        assert again.base is pyr.base
        for i in range(pyr.top_level + 1):
            assert pyr.reconstruct_level(i) is pyr.reconstruct_level(i)
    assert len(calls) == pyr.top_level + 1


def test_validate_keeps_no_level_map(tmp_path):
    # one contracted edge per level: a 12x12 grid has 145 vertices, the
    # outside included, so a spanning tree makes 144 levels. Keeping every
    # level's map after validate held 7.6 MB here, against 1.1 MB for the load
    pyr = Pyramid.from_grid(12, 12)
    for d in spanning_tree(pyr, random.Random(0)):
        pyr.apply_kernel(Kernel.of(KernelState.CK, [d, -d]))
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
