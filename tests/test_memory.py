"""Memory held by a reloaded pyramid.

A reload keeps each level's map as two lists indexed by signed dart that
share the base's int objects, and the level of every dart as one int array.
Per-dart dicts or frozensets on that path (level maps, dart levels, kept
kernels) cost several times as much: with them a warm seed-1 reload held
7.22 MB on gradient-levels and 6.85 MB on sign-mosaic (tracemalloc,
CPython 3.11), against about 3.4 and 2.3 MB without.
"""

import gc
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from combipyramid.pyramid import Pyramid
from combipyramid.segmentation import SegmentedImage

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name, bound_mb", [("gradient-levels", 4.5), ("sign-mosaic", 3.5)])
def test_reload_holds_no_per_dart_containers(name, bound_mb):
    workload = WORKLOADS[name]
    text = SegmentedImage(workload.raster(np.random.default_rng(1))).run(workload.threshold).pyramid.to_json()
    Pyramid.from_json(text)  # warm: first-use allocations of numpy and the package
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        pyr = Pyramid.from_json(text)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert pyr.top_level > 0
    assert held <= bound_mb * 2**20, f"a reload holds {held / 2**20:.2f} MB"
