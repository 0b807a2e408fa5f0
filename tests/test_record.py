"""The JSON record of a pyramid.

to_json writes version 2: the grid size, the state of each kernel and the
level of each dart, and from_json loads it to the same pyramid. A record with the level of one dart or one base edge changed is
rejected, or loads levels that are valid maps. The level list is written
as one byte array, which equals json.dumps of the list, and read back in
array passes from a record laid out as to_json writes it; any other text is
read by json.loads whole, and a record loads, or is rejected with the same
error, either way. A kernel that
removes no dart loads as a level that is the record below it, so it is
built, checked and validated once however many such kernels follow.
"""

import gc
import json
import random
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from combipyramid import cli, map_core, pyramid
from combipyramid.cli import main
from combipyramid.containment import contains
from combipyramid.map_core import CombinatorialMap, ValidationReport, validate
from combipyramid.pyramid import Kernel, KernelError, KernelState, Pyramid, _json_naturals
from combipyramid.relations import meets_each, rag_export, region_ids, relation_report
from combipyramid.segmentation import segment_labels

from conftest import clean_levels, random_pyramid, spanning_tree
from eager_oracle import composed_of_scan, eager_levels

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


def load_outcome(text) -> str | tuple:
    """to_json of the pyramid from_json loads from text, or the type and
    message of what it raises."""
    try:
        return Pyramid.from_json(text).to_json()
    except Exception as error:  # ValueError (KernelError too) for a bad record
        return type(error), str(error)


def json_loads_outcome(text) -> str | tuple:
    """load_outcome with _read_died declining, so that json.loads reads text whole."""
    with mock.patch.object(pyramid, "_read_died", lambda text: None):
        return load_outcome(text)


# entries that break the list's form or its range: JSON rejects some, reads
# others as a sign, a float, a bool or an int of 19 digits or more, and the
# last one exceeds CPython's digit limit for int()
ENTRIES = ["0", "1", "9", "10", "", "01", "00", "-0", "-1", "1.0", "1e0", "true", "null", " 1", "1 ", "\u0663",
           "9" * 18, "1" + "0" * 18, "9" * 19, "9" * 20, "1" * 4301]
EDITS = ["canonical", "dumps", "indent", "reordered", "duplicate", "escaped", "drop", "empty", "trailing", "bom",
         "bytes", "tail"]
TAILS = [('"version":2', '"version":2.0'), ('"version":2', '"version":3'), ('"width":', '"width":1'),
         ('"height":', '"height":-'), ('"states":[', '"states":["XX",'), ('"states":[', '"states":[[[['),
         ('"format":"', '"format":"x'), ("}\n", ""), ("}\n", "}}"), ('"format"', '"died":0,"format"')]


def seeded_record(seed: int) -> tuple[Pyramid, str, int, list[str]]:
    """A random pyramid, its record, where its died list ends and the list's entries."""
    pyr = random_pyramid(random.Random(seed), max_side=5, touch_outside=seed % 2 == 1)
    text = pyr.to_json()
    end = text.index("]")
    return pyr, text, end, text[len('{"died":[') : end].split(",")


@settings(max_examples=200, deadline=None)
@given(seeds, st.sampled_from(EDITS), st.data())
@example(0, "canonical", None)
def test_a_record_loads_or_is_rejected_as_json_loads_reads_it(seed, edit, data):
    pyr, text, end, body = seeded_record(seed)
    record = json.loads(text)
    if edit == "canonical":
        assert pyramid._read_died(text) is not None
    elif edit == "dumps":
        text = json.dumps(record)
    elif edit == "indent":
        text = json.dumps(record, indent=1)
    elif edit == "reordered":
        text = json.dumps(dict(reversed(record.items())), separators=(",", ":"))
    elif edit in ("duplicate", "escaped"):  # json.loads keeps the later list
        key = '"died"' if edit == "duplicate" else '"di\\u0065d"'
        later = data.draw(st.lists(st.integers(0, pyr.top_level), min_size=len(body), max_size=len(body)))
        text = text[:-2] + f",{key}:{json.dumps(later, separators=(',', ':'))}}}\n"
    elif edit == "drop":
        del body[data.draw(st.integers(0, len(body) - 1), label="at")]
        text = '{"died":[' + ",".join(body) + text[end:]
    elif edit == "empty":
        text = '{"died":[' + text[end:]
    elif edit == "trailing":
        text = text[:end] + "," + text[end:]
    elif edit == "bom":
        text = "\ufeff" + text
    elif edit == "bytes":
        text = text.encode("ascii")
    else:
        old, new = data.draw(st.sampled_from(TAILS), label="tail")
        text = text[:end] + text[end:].replace(old, new, 1)
    assert load_outcome(text) == json_loads_outcome(text)


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: repr(e) if len(e) < 8 else f"{e[0]!r}x{len(e)}")
@settings(max_examples=8, deadline=None)
@given(seed=seeds, data=st.data())
def test_an_entry_in_any_form_loads_or_is_rejected_as_json_loads_reads_it(entry, seed, data):
    # the entry, and maybe a level in or beyond range before or after it
    pyr, text, end, body = seeded_record(seed)
    body[data.draw(st.integers(0, len(body) - 1), label="at")] = entry
    if data.draw(st.booleans(), label="and a level"):
        body[data.draw(st.integers(0, len(body) - 1), label="at")] = str(data.draw(st.integers(0, pyr.top_level + 2)))
    text = '{"died":[' + ",".join(body) + text[end:]
    assert load_outcome(text) == json_loads_outcome(text)


def test_the_died_reader_takes_to_jsons_layout_only():
    text = random_pyramid(random.Random(5), max_side=5).to_json()
    head, end = len('{"died":['), text.index("]")
    body, rest = text[head:end], text[end + 1 :]
    # the list's form holds, and the record's own checks reject these
    for taken in [text.replace('"version":2', '"version":3'), text[: end - 2] + text[end:],
                  text[:head] + "9" * 18 + text[head + 1 : end] + text[end:]]:
        assert pyramid._read_died(taken) is not None and load_outcome(taken) == json_loads_outcome(taken)
    declined = [text.encode("ascii"), "\ufeff" + text, " " + text, text.replace(",", ", ", 1),
                text.replace(",", ",,", 1),
                text[:head] + text[end:], text[:head] + "," + text[head:], text[:end] + "," + text[end:],
                text[:head] + "0" + text[head:], text[:head] + "9" * 19 + text[head + 1 :],
                text[:head] + "-" + text[head:], text[:head] + "\u0663," + text[head:],
                text[:-2] + ',"died":[]}\n', text[:-2] + ',"di\\u0065d":[]}\n', text[:-2] + "]}\n",
                text[:-1] + "x"]
    for other in declined:
        assert pyramid._read_died(other) is None
    payload, read = pyramid._read_died(text)
    assert read.tobytes().decode("ascii") == body and payload == {**json.loads("{" + rest[1:]), "died": 0}


def test_a_reload_passes_only_the_records_tail_to_json_loads(monkeypatch):
    text = random_pyramid(random.Random(7), max_side=6).to_json()
    loads = calls_of(monkeypatch, json, "loads")
    assert Pyramid.from_json(text).to_json() == text
    assert loads == [('{"died":0' + text[text.index("]") + 1 :],)]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 10**18 - 1), min_size=1), st.integers(0, 3))
def test_the_died_reader_inverts_the_level_list_writer(values, shift):
    values = [v // 10**shift for v in values]  # fewer digits, more often
    text = '{"died":' + _json_naturals(np.array(values, dtype=np.int64)) + ',"format":"combipyramid-pyramid"}'
    _, body = pyramid._read_died(text)
    assert pyramid._naturals(body).tolist() == values


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


@pytest.mark.parametrize("first", ["contraction", "repeat"])
def test_a_shared_record_answers_composed_of_for_each_of_its_levels(first):
    # a contraction makes level i - 1's record and an empty kernel repeats it
    # at level i: the record's children index is the contraction's, and
    # level i, whose kernel merged nothing, answers each region's own,
    # whichever level is read first
    labels = np.zeros((6, 6), dtype=np.int64)
    labels[1:5, 1:5] = 1
    labels[2:4, 2:4] = 2
    ck = segment_labels(labels).pyramid.kernels[0]
    assert ck.state is KernelState.CK
    pyr = Pyramid.from_grid(6, 6).apply_kernel(ck).apply_kernel(Kernel.of(KernelState.RKESL, []))
    i = pyr.top_level
    assert i == 2 and pyr._levels[i] is pyr._levels[i - 1]
    regions = region_ids(pyr, i)
    reads = {
        "contraction": lambda: [pyr.composed_of(i - 1, r) for r in regions],
        "repeat": lambda: [pyr.composed_of(i, r) for r in regions],
    }
    got = {first: reads[first]()}
    got.update((name, read()) for name, read in reads.items() if name not in got)
    assert got["contraction"] == [composed_of_scan(pyr, i - 1, r) for r in regions]
    assert max(map(len, got["contraction"])) > 1  # the contraction merged regions
    assert got["repeat"] == [{r} for r in regions]


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
    # the one map made is build_grid_map's, the base's, on level 0's arrays
    maps = calls_of(monkeypatch, CombinatorialMap, "_of")
    pyr = Pyramid.from_json(text)
    assert pyr.top_level == 600 and len(loops) == 1
    assert len({id(pyr.reconstruct_level(i)) for i in range(601)}) == 1
    assert len(maps) == 1 and maps[0][0] is pyr._levels[0].order
    # a second load of the size builds no map at all, and shares the base's loops
    again = Pyramid.from_json(text)
    assert again.reconstruct_level(600) is pyr.reconstruct_level(0)
    assert len(maps) == 1 and len(loops) == 1


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
    assert loaded._pixels is built._pixels
    assert loaded._died is not built._died


def test_shared_arrays_are_read_only():
    pyr = Pyramid.from_grid(5, 4)
    base = pyr._levels[0]
    shared = [base.sigma, base.alpha, base.turns, base.order, base.region, base.names,
              pyr._pixels, *pyr.embedding._grid_tables()]
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
