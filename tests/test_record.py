"""The JSON record of a pyramid.

to_json writes version 2: the grid size, the state of each kernel and the
level of each dart, and from_json loads it to the same pyramid. A record with the level of one dart or one base edge changed is
rejected, or loads levels that are valid maps. The level list is written
as one byte array, which equals json.dumps of the list. A kernel that
removes no dart loads as a level that shares the arrays below it.
"""

import gc
import json
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from combipyramid.map_core import validate
from combipyramid.pyramid import Kernel, KernelError, KernelState, Pyramid, _json_naturals

from conftest import random_pyramid, spanning_tree
from eager_oracle import eager_levels

seeds = st.integers(min_value=0, max_value=2**32 - 1)


@settings(max_examples=60, deadline=None)
@given(seeds, st.booleans())
def test_a_record_loads_to_the_pyramid(seed, touch_outside):
    pyr = random_pyramid(random.Random(seed), max_side=6, touch_outside=touch_outside)
    text = pyr.to_json()
    clone = Pyramid.from_json(text)
    assert clone.to_json() == text
    assert clone.kernels == pyr.kernels
    for i, ref in enumerate(eager_levels(pyr)):
        assert clone.reconstruct_level(i) == ref
        assert (clone._levels[i].region == pyr._levels[i].region).all()
        assert clone.redundant_darts(i) == pyr.redundant_darts(i)
        assert [clone.cached_orientation(i, d) for d in ref.darts] == [
            pyr.cached_orientation(i, d) for d in ref.darts
        ]


@settings(max_examples=80, deadline=None)
@given(seeds, st.booleans(), st.data())
def test_a_changed_level_is_rejected_or_loads_valid_levels(seed, touch_outside, data):
    pyr = random_pyramid(random.Random(seed), max_side=6, touch_outside=touch_outside)
    record = json.loads(pyr.to_json())
    died, top = record["died"], pyr.top_level
    assume(top > 0)
    # one dart, or both darts of its base edge, which sit side by side in
    # dart_order: a lone dart breaks its kernel's pairs, an edge often not
    k = data.draw(st.integers(0, len(died) - 1), label="entry")
    level = (died[k] + data.draw(st.integers(1, top), label="shift")) % (top + 1)
    for j in {k, k ^ 1} if data.draw(st.booleans(), label="edge") else {k}:
        died[j] = level
    try:
        clone = Pyramid.from_json(json.dumps(record))
    except ValueError:  # KernelError too
        return
    for i in range(clone.top_level + 1):
        assert validate(clone.reconstruct_level(i)).ok


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(st.just(0)), st.lists(st.integers(0, 9)), st.lists(st.integers(0, 2**63 - 1))))
@example([])
def test_the_level_list_writer_matches_json_dumps(values):
    assert _json_naturals(np.array(values, dtype=np.int64)) == json.dumps(values, separators=(",", ":"))


def test_a_record_with_two_digit_levels_round_trips():
    # one contracted edge per level: a 4x3 grid has 13 vertices, the
    # outside included, so a spanning tree makes 12 levels
    pyr = Pyramid.from_grid(4, 3)
    for d in spanning_tree(pyr, random.Random(0)):
        pyr.apply_kernel(Kernel.of(KernelState.CK, [d, -d]))
    text = pyr.to_json()
    record = json.loads(text)
    assert max(record["died"]) == pyr.top_level == 12
    assert text == json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
    clone = Pyramid.from_json(text)
    assert clone.to_json() == text
    for i, ref in enumerate(eager_levels(pyr)):
        assert clone.reconstruct_level(i) == ref


def held_by_load(text: str) -> tuple[Pyramid, float]:
    """A warm load of text, and the MB it holds (tracemalloc)."""
    Pyramid.from_json(text)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        pyr = Pyramid.from_json(text)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return pyr, held / 2**20


def test_empty_kernels_hold_no_arrays_of_their_own():
    # 500 kernels that remove nothing are 3 KB of JSON; a level of its own
    # arrays per kernel would hold over 100 MB at 64x64
    base = Pyramid.from_grid(64, 64).to_json()
    payload = json.loads(base)
    payload["states"] = ["CK"] * 500
    pyr, held = held_by_load(json.dumps(payload))
    assert pyr.top_level == 500 and pyr.level(1) == 501
    assert pyr.reconstruct_level(500) == pyr.reconstruct_level(0)
    assert held - held_by_load(base)[1] <= 1.0, f"500 empty kernels hold {held:.2f} MB"


def test_an_empty_double_edge_kernel_still_needs_the_loops_removed():
    pyr = Pyramid.from_grid(2, 2)
    pyr.apply_kernel(Kernel.of(KernelState.CK, [2, -2, 9, -9, 5, -5]))  # leaves empty self loops
    with pytest.raises(KernelError, match="empty self loops present"):
        pyr.apply_kernel(Kernel.of(KernelState.RKEDE, []))
    assert pyr.top_level == 1
    pyr.apply_kernel(Kernel.of(KernelState.RKESL, []))
    assert pyr.top_level == 2 and pyr.redundant_darts(2) == pyr.redundant_darts(1)
