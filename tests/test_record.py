"""The JSON record of a pyramid.

to_json writes version 2: the grid size, the state of each kernel and the
level of each dart, and from_json loads it to the same pyramid. A record with the level of one dart or one base edge changed is
rejected, or loads levels that are valid maps. The level list is written
as one byte array, which equals json.dumps of the list. A kernel that
removes no dart loads as a level that is the record below it, so it is
built, checked and validated once however many such kernels follow.
"""

import gc
import json
import random
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from combipyramid import cli, map_core, pyramid
from combipyramid.cli import main
from combipyramid.containment import contains
from combipyramid.map_core import ValidationReport, validate
from combipyramid.pyramid import Kernel, KernelError, KernelState, Pyramid, _json_naturals
from combipyramid.relations import meets_each, rag_export, region_ids, relation_report

from conftest import clean_levels, random_pyramid, spanning_tree
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


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_a_level_whose_kernel_removes_no_dart_repeats_the_level_below(seed):
    rng = random.Random(seed)
    ref = random_pyramid(rng, max_side=6)
    pyr = Pyramid.from_grid(ref.embedding.width, ref.embedding.height)
    kernels = []
    for kernel in [*ref.kernels, None]:
        while rng.random() < 0.4:
            empty = Kernel.of(rng.choice(list(KernelState)), [])
            try:
                pyr.apply_kernel(empty)
            except KernelError:  # a double-edge kernel waits for the loops to go
                assert empty.state is KernelState.RKEDE
                continue
            kernels.append(empty)
        if kernel is not None:
            pyr.apply_kernel(kernel)
            kernels.append(kernel)
    assert pyr.kernels == kernels
    text = pyr.to_json()
    assert Pyramid.from_json(text).to_json() == text
    repeats = [i for i, kernel in enumerate(kernels, start=1) if not len(kernel)]
    assert [i for i in range(1, pyr.top_level + 1) if pyr._levels[i] is pyr._levels[i - 1]] == repeats

    def answers(pyr, i, pairs):
        report = relation_report(pyr, i)
        del report["level"], report["composed_of"]
        out = [region_ids(pyr, i), pyr.pixel_labels(i), pyr.redundant_darts(i), rag_export(pyr, i), report,
               [meets_each(pyr, i, a, b) for a, b in pairs]]
        if not pyr.redundant_darts(i):
            out.append([contains(pyr, i, a, b) for a, b in pairs])
        return out

    # a fresh load, so the first reads of a repeated level fill the caches
    # of the record it shares with the level below
    pyr = Pyramid.from_json(text)
    for i in repeats:
        assert pyr.reconstruct_level(i) is pyr.reconstruct_level(i - 1)
        regions = region_ids(pyr, i)
        pairs = [tuple(rng.sample(regions, 2)) for _ in range(8)] if len(regions) > 1 else []
        assert answers(pyr, i, pairs) == answers(pyr, i - 1, pairs)
        assert all(pyr.composed_of(i, r) == {r} for r in regions)


def empty_kernel_record(each: int) -> str:
    """The record of a 64x64 grid and each kernels of every state that
    remove no dart, the states taking turns."""
    payload = json.loads(Pyramid.from_grid(64, 64).to_json())
    payload["states"] = [state.value for state in KernelState] * each
    return json.dumps(payload)


def calls_of(monkeypatch, module, name: str) -> list:
    """The argument tuples of every later call of module.name, which keeps
    doing what it did."""
    calls = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_levels_of_empty_kernels_are_built_once(monkeypatch):
    text = empty_kernel_record(200)
    map_core._grid_map.cache_clear()  # the record's build left its size's base cached
    loops = calls_of(monkeypatch, pyramid, "_empty_loops")
    # the base's map is build_grid_map's, the other levels' _map's
    base_maps, level_maps = calls_of(monkeypatch, map_core, "map_of"), calls_of(monkeypatch, pyramid, "map_of")
    pyr = Pyramid.from_json(text)
    assert pyr.top_level == 600 and len(loops) == 1
    assert len({id(pyr.reconstruct_level(i)) for i in range(601)}) == 1
    assert len(base_maps) == 1 and not level_maps
    # a second load of the size builds no map at all, and shares the base's loops
    again = Pyramid.from_json(text)
    assert again.reconstruct_level(600) is pyr.reconstruct_level(0)
    assert len(base_maps) == 1 and not level_maps and len(loops) == 1


def test_an_empty_kernel_is_checked_without_a_count_per_vertex(monkeypatch):
    pyr = Pyramid.from_json(empty_kernel_record(200))
    counts = calls_of(monkeypatch, np, "bincount")
    for state in KernelState:
        pyr.apply_kernel(Kernel.of(state, []))
    assert pyr.top_level == 603 and not counts


def test_validate_checks_the_map_of_empty_kernels_once(tmp_path, monkeypatch, capsys):
    path = tmp_path / "empty.pyr"
    path.write_text(empty_kernel_record(200), encoding="ascii")
    checks = calls_of(monkeypatch, cli, "_validate_arrays")
    assert main(["validate", "--pyr", str(path)]) == 0
    assert capsys.readouterr().out == '{"levels": 600, "ok": true, "problems": []}\n'
    assert len(checks) == 1
    # a failed check is still listed at every level that shares the map
    monkeypatch.setattr(cli, "_validate_arrays", lambda *arrays: ValidationReport([("connected", False, 1)]))
    assert main(["validate", "--pyr", str(path)]) == 1
    assert json.loads(capsys.readouterr().out)["problems"] == [f"level {i}: connected" for i in range(601)]


def test_pyramids_of_one_size_share_the_base():
    built = Pyramid.from_grid(5, 4)
    loaded = Pyramid.from_json(built.to_json())
    assert loaded.embedding is built.embedding and loaded.base is built.base
    assert loaded._levels[0] is built._levels[0]
    assert loaded._ids is built._ids and loaded._ints is built._ints and loaded._pixels is built._pixels
    assert loaded._died is not built._died


def test_shared_arrays_are_read_only():
    pyr = Pyramid.from_grid(5, 4)
    base = pyr._levels[0]
    shared = [base.sigma, base.alpha, base.turns, base.order, base.region, base.names,
              pyr._ids, pyr._ints, pyr._pixels, *pyr.embedding._grid_tables()]
    for array in shared:
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0


def shared_base_answers(pyr: Pyramid) -> list:
    return [pyr.to_json(), [pyr.pixel_labels(i) for i in range(pyr.top_level + 1)],
            [relation_report(pyr, i) for i in clean_levels(pyr)]]


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.lists(seeds, min_size=2, max_size=4), st.booleans())
def test_pyramids_of_one_size_answer_as_if_built_alone(width, height, build_seeds, touch_outside):
    # each pyramid is read after the ones before it have filled the caches
    # of the level-0 record they share
    def build(seed):
        return random_pyramid(random.Random(seed), size=(width, height), touch_outside=touch_outside)

    built = [build(seed) for seed in build_seeds]
    assert len({id(pyr._levels[0]) for pyr in built}) == 1
    answers = [shared_base_answers(pyr) for pyr in built]
    for seed, got in zip(build_seeds, answers):
        map_core._grid_map.cache_clear()
        alone = build(seed)
        assert alone._levels[0] is not built[0]._levels[0]
        assert shared_base_answers(alone) == got


def test_a_new_size_frees_the_tables_of_the_last():
    pyr = Pyramid.from_grid(7, 3)
    relation_report(pyr, 0)  # fills the caches of the shared level 0
    embedding = weakref.ref(pyr.embedding)
    del pyr
    Pyramid.from_grid(3, 7)
    gc.collect()
    assert embedding() is None
