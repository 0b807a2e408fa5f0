"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -rA` to see the verdict lines.
"""

import itertools
import random
import statistics
import time

import numpy as np
import pytest

from combipyramid import map_core
from combipyramid.boundary import sequence_orientation
from combipyramid.containment import (
    VisitCounter,
    contains,
    inside_direct,
    starting_darts,
)
from combipyramid.map_core import build_grid_map
from combipyramid.relations import meets_each
from combipyramid.segmentation import (
    RoadsignNotFound,
    SegmentedImage,
    roadsign_extract,
    segment_labels,
)

from conftest import (
    arrow_sign_raster,
    clean_levels,
    flag_sign_raster,
    random_labels,
    random_pyramid,
    shared_boundary_components,
)
from eager_oracle import eager_levels, flood_fill_contains_oracle, segment_orientation

N_PYRAMIDS = 100
N_PARTITIONS = 100


def report(line):
    print(line)


@pytest.fixture(scope="module")
def pyramid_sweep():
    rng = random.Random(0xC0FFEE)
    out = [random_pyramid(rng, max_side=8) for _ in range(N_PYRAMIDS)]
    # enclosure-heavy additions so the self-loop criteria see many loops
    for size in range(4, 9):
        arr = np.zeros((size, size), dtype=np.int64)
        arr[1:-1, 1:-1] = 1
        if size >= 6:
            arr[2:-2, 2:-2] = 2
        if size >= 8:
            arr[3:-3, 3:-3] = 3
        out.append(segment_labels(arr).pyramid)
    for blobs in range(6):
        labels = random_labels(rng, 8, 8, blobs=3)
        labels[1:7, 1:7] += labels.max() + 1  # force a surrounded block
        out.append(segment_labels(labels).pyramid)
    return out


@pytest.fixture(scope="module")
def partition_sweep():
    rng = random.Random(0xBEEF)
    out = []
    for k in range(N_PARTITIONS):
        if k < 4:
            w = h = 32
        elif k % 7 == 0:
            w, h = rng.randint(20, 32), rng.randint(20, 32)
        else:
            w, h = rng.randint(5, 16), rng.randint(5, 16)
        labels = random_labels(rng, w, h)
        out.append((labels, segment_labels(labels)))
    return out


def label_vertices(seg, labels):
    out = {}
    for v in sorted(set(labels.ravel().tolist())):
        ys, xs = np.nonzero(labels == v)
        out[v] = seg.pyramid.vertex_of_pixel(seg.pyramid.top_level, int(xs[0]), int(ys[0]))
    return out


def loop_spans(pyr, i, m, cyc):
    """Per self loop of a vertex cycle: the two complementary open spans."""
    pos = {d: k for k, d in enumerate(cyc)}
    for d in cyc:
        mate = m.alpha(d)
        if mate not in pos or pos[mate] < pos[d]:
            continue
        p1, p2 = pos[d], pos[mate]
        c1 = list(cyc[p1 + 1 : p2])
        c2 = list(cyc[p2 + 1 :]) + list(cyc[:p1])
        yield d, mate, p1, p2, c1, c2


def test_criterion_1_grid_reproduction():
    m, _ = build_grid_map(3, 3)
    assert len(m) == 48
    assert len(m.orbit(2, "sigma")) == 4
    assert len(m.orbit(-1, "phi")) == 2
    timings = []
    for _ in range(30):
        map_core._grid_map.cache_clear()  # time a build, not a cache hit
        t0 = time.perf_counter()
        build_grid_map(3, 3)
        timings.append(time.perf_counter() - t0)
    took = statistics.median(timings)
    assert took < 1e-3
    report(f"criterion 1 PASS: 3x3 grid has 48 darts, 4-cycle pixel, 2-cycle corner, built in {took * 1e6:.0f}us")


def test_criterion_2_implicit_encoding_equivalence(pyramid_sweep):
    levels = 0
    for pyr in pyramid_sweep:
        for i, ref in enumerate(eager_levels(pyr)):
            assert pyr.reconstruct_level(i) == ref
            levels += 1
    report(f"criterion 2 PASS: {len(pyramid_sweep)} pyramids, {levels} levels equal the eager oracle exactly")


def test_criterion_3_orientation_theorem(pyramid_sweep):
    cycles = 0
    for pyr in pyramid_sweep:
        for i in clean_levels(pyr):
            m = pyr.reconstruct_level(i)
            totals = [sequence_orientation(pyr, i, list(cyc), closed=True) for cyc in m.vertices()]
            assert all(t in (-4, 4) for t in totals)
            assert totals.count(4) == 1
            cycles += len(totals)
    report(f"criterion 3 PASS: {cycles} closed face cycles all at -4/+4 with one +4 per map")


def test_criterion_4_loop_span_opposition(pyramid_sweep):
    loops = 0
    for pyr in pyramid_sweep:
        for i in clean_levels(pyr):
            m = pyr.reconstruct_level(i)
            for cyc in m.vertices():
                n = len(cyc)
                for d, mate, p1, p2, c1, c2 in loop_spans(pyr, i, m, cyc):
                    or1 = sequence_orientation(pyr, i, c1, closed=True)
                    or2 = sequence_orientation(pyr, i, c2, closed=True)
                    assert or1 == -or2
                    assert {or1, or2} == {4, -4}
                    assert cyc[p1 + 1] != m.alpha(cyc[p2 - 1])
                    assert cyc[(p1 - 1) % n] != m.alpha(cyc[(p2 + 1) % n])
                    loops += 1
    assert loops > 0
    report(f"criterion 4 PASS: {loops} self loops, every span pair at opposite -4/+4, no degenerate brackets")


def test_criterion_5_constant_time_span_orientation(pyramid_sweep):
    checked = 0
    for pyr in pyramid_sweep:
        for i in clean_levels(pyr):
            m = pyr.reconstruct_level(i)
            for cyc in m.vertices():
                counter = VisitCounter()
                starts = starting_darts(pyr, i, cyc[0], counter)
                algo = {}
                for s, or_c1 in counter.loops:
                    algo[frozenset((s, m.alpha(s)))] = (s, or_c1)
                for d, mate, p1, p2, c1, c2 in loop_spans(pyr, i, m, cyc):
                    s, or_c1 = algo[frozenset((d, mate))]
                    assert or_c1 == sequence_orientation(pyr, i, c1, closed=True)
                    assert s == (d if or_c1 == 4 else mate)
                    checked += 1
    assert checked > 0
    report(f"criterion 5 PASS: stack-computed span turns equal direct evaluation for {checked} loops")


def test_criterion_6_containment_matches_flood_fill(partition_sweep):
    t0 = time.monotonic()
    pairs = 0
    for labels, seg in partition_sweep:
        pyr, top = seg.pyramid, seg.pyramid.top_level
        vertex = label_vertices(seg, labels)
        for a, b in itertools.permutations(vertex, 2):
            assert contains(pyr, top, vertex[a], vertex[b]) == flood_fill_contains_oracle(labels, a, b)
            pairs += 1
    took = time.monotonic() - t0
    assert took < 60.0
    report(f"criterion 6 PASS: {pairs} ordered pairs over {len(partition_sweep)} partitions agree with the flood fill in {took:.1f}s")


def test_criterion_7_orientation_cache(pyramid_sweep):
    darts = 0
    for pyr in pyramid_sweep:
        for i in range(pyr.top_level + 1):
            for d in pyr.reconstruct_level(i).darts:
                assert pyr.cached_orientation(i, d) == segment_orientation(pyr, i, d)
                darts += 1
    report(f"criterion 7 PASS: cached turn counts equal recomputation for {darts} dart-level pairs")


def test_criterion_8_meets_each_counts(partition_sweep):
    pairs = 0
    for labels, seg in partition_sweep[:40]:
        pyr, top = seg.pyramid, seg.pyramid.top_level
        vertex = label_vertices(seg, labels)
        values = sorted(vertex)
        for i, a in enumerate(values):
            for b in values[i + 1 :]:
                want = shared_boundary_components(labels, a, b)
                got = len(meets_each(pyr, top, vertex[a], vertex[b]))
                assert got == want
                pairs += 1
    report(f"criterion 8 PASS: boundary-piece counts match raster components for {pairs} region pairs")


def test_criterion_9_roadsign_pipeline():
    blue, white = (0.0, 0.0, 200.0), (255.0, 255.0, 255.0)
    img = arrow_sign_raster(32)
    seg = SegmentedImage(img).run(threshold=1.0)
    symbol = roadsign_extract(seg, k=5, background_color=blue, symbol_color=white)
    arrow_mask = (img[4:-4, 4:-4] == 255).all(axis=2)
    rows = seg.pyramid.pixel_labels(seg.pyramid.top_level)
    got = {
        (x, y)
        for y in range(seg.height)
        for x in range(seg.width)
        if rows[y][x] in symbol
    }
    want = {(x + 4, y + 4) for y, x in zip(*np.nonzero(arrow_mask))}
    assert got == want
    flag = SegmentedImage(flag_sign_raster(32)).run(threshold=1.0)
    with pytest.raises(RoadsignNotFound):
        roadsign_extract(flag, k=5, background_color=blue, symbol_color=white)
    report("criterion 9 PASS: arrow fixture yields exactly the symbol pixels, flag fixture reports no sign")


def test_criterion_10_work_bound(partition_sweep):
    vertices = 0
    for labels, seg in partition_sweep[:40]:
        pyr, top = seg.pyramid, seg.pyramid.top_level
        m = pyr.reconstruct_level(top)
        for cyc in m.vertices():
            counter = VisitCounter()
            inside_direct(pyr, top, cyc[0], counter)
            assert counter.visits <= 2 * len(cyc)
            vertices += 1
    report(f"criterion 10 PASS: loop search plus span sweep stayed within 2x cycle length for {vertices} vertices")
