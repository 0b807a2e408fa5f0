import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combipyramid.relations import (
    infinite_region,
    meets_each,
    meets_exists,
    rag_export,
    rag_to_dot,
    region_ids,
    relation_report,
)
from combipyramid import relations
from combipyramid.boundary import segment
from combipyramid.containment import contains, inside_all
from combipyramid.map_core import CombinatorialMap
from combipyramid.pyramid import Kernel, KernelState, Pyramid
from combipyramid.segmentation import segment_labels

from conftest import (
    arrow_sign_raster,
    borderless_outside_pyramid,
    clean_levels,
    connected_components,
    flag_sign_raster,
    random_labels,
    random_pyramid,
    ringed_labels,
    shared_boundary_components,
)
from eager_oracle import (
    BoundaryOracle,
    _pieces,
    composed_of_scan,
    enclosed_regions,
    rag_export_by_cycles,
    region_ids_by_cycles,
    relation_report_by_darts,
)


def label_vertex(seg, labels, value):
    ys, xs = np.nonzero(labels == value)
    return seg.pyramid.vertex_of_pixel(seg.pyramid.top_level, int(xs[0]), int(ys[0]))


def rgb_labels(img):
    flat = img.reshape(-1, img.shape[2])
    colors = {tuple(c) for c in flat.tolist()}
    order = {c: k for k, c in enumerate(sorted(colors))}
    out = np.array([[order[tuple(px)] for px in row] for row in img.tolist()])
    from conftest import connected_components

    return connected_components(out)


def test_non_adjacent_regions_do_not_meet():
    arr = np.zeros((5, 9), dtype=np.int64)
    arr[1:4, 1:3] = 1
    arr[1:4, 6:8] = 2
    seg = segment_labels(arr)
    pyr, top = seg.pyramid, seg.pyramid.top_level
    a, b = label_vertex(seg, arr, 1), label_vertex(seg, arr, 2)
    assert meets_each(pyr, top, a, b) == []
    assert not meets_exists(pyr, top, a, b)


def test_single_boundary_gives_one_segment():
    arr = np.zeros((5, 5), dtype=np.int64)
    arr[1:4, 1:4] = 1
    seg = segment_labels(arr)
    pyr, top = seg.pyramid, seg.pyramid.top_level
    a, b = label_vertex(seg, arr, 0), label_vertex(seg, arr, 1)
    segs = meets_each(pyr, top, a, b)
    assert len(segs) == 1
    assert len(segs[0].cracks.moves) == 12  # the blob's whole perimeter


def test_c_shaped_wrap_gives_two_segments():
    # a C-shaped region whose two arm tips rest on a bar touches it along
    # two separate borders
    arr = np.zeros((7, 7), dtype=np.int64)
    arr[1, 1:5] = 1            # top arm
    arr[5, 1:5] = 1            # bottom arm
    arr[1:6, 1] = 1            # spine
    arr[2:5, 3] = 2            # the bar between the arm tips
    seg = segment_labels(arr)
    pyr, top = seg.pyramid, seg.pyramid.top_level
    a = label_vertex(seg, arr, 1)
    b = label_vertex(seg, arr, 2)
    segs = meets_each(pyr, top, a, b)
    assert len(segs) == 2
    assert all(len(s.cracks.moves) == 1 for s in segs)
    assert shared_boundary_components(arr, 1, 2) == 2


def test_meets_each_counts_match_raster_components():
    rng = random.Random(2718)
    for _ in range(15):
        labels = random_labels(rng, rng.randint(4, 10), rng.randint(4, 10))
        seg = segment_labels(labels)
        pyr, top = seg.pyramid, seg.pyramid.top_level
        values = sorted(set(labels.ravel().tolist()))
        for i, a in enumerate(values):
            for b in values[i + 1 :]:
                va, vb = label_vertex(seg, labels, a), label_vertex(seg, labels, b)
                assert len(meets_each(pyr, top, va, vb)) == shared_boundary_components(labels, a, b)


def test_rag_of_single_region_level():
    arr = np.zeros((3, 3), dtype=np.int64)
    seg = segment_labels(arr)
    pyr, top = seg.pyramid, seg.pyramid.top_level
    regions, edges = rag_export(pyr, top)
    assert len(regions) == 2  # the region and the outside
    assert len(edges) == 1


def test_rag_collapses_multi_edges():
    rng = random.Random(4)
    labels = random_labels(rng, 8, 8)
    seg = segment_labels(labels)
    pyr, top = seg.pyramid, seg.pyramid.top_level
    m = pyr.reconstruct_level(top)
    regions, edges = rag_export(pyr, top)
    assert len(edges) <= len(m.edges())
    assert len({tuple(e) for e in edges}) == len(edges)


def test_two_road_signs_share_one_rag():
    # the framed arrow sign and the striped flag have different containment
    # but the same region adjacency graph
    def finite_path(img):
        labels = rgb_labels(img)
        seg = segment_labels(labels)
        pyr, top = seg.pyramid, seg.pyramid.top_level
        regions, edges = rag_export(pyr, top)
        out = infinite_region(pyr, top)
        finite = [r for r in regions if r != out]
        fedges = [e for e in edges if out not in e]
        return len(finite), len(fedges), sorted(
            sum(1 for e in fedges if r in e) for r in finite
        )

    arrow = finite_path(arrow_sign_raster(24))
    flag = finite_path(flag_sign_raster(24))
    assert arrow == flag == (3, 2, [1, 1, 2])


def test_relation_report_road_sign():
    labels = rgb_labels(arrow_sign_raster(24))
    seg = segment_labels(labels)
    pyr, top = seg.pyramid, seg.pyramid.top_level
    report = relation_report(pyr, top)
    assert report["warnings"] == []
    border = label_vertex(seg, labels, int(labels[0, 0]))
    back = label_vertex(seg, labels, int(labels[12, 4]))
    arrow = label_vertex(seg, labels, int(labels[12, 12]))
    contains = {tuple(p) for p in report["contains"]}
    assert (border, back) in contains and (border, arrow) in contains
    assert (back, arrow) in contains
    assert (arrow, back) not in contains
    inside = {tuple(p) for p in report["inside"]}
    assert (arrow, back) in inside
    # asymmetric and transitive
    for a, b in contains:
        assert (b, a) not in contains
    for a, b in contains:
        for c, d in contains:
            if b == c:
                assert (a, d) in contains
    assert json.dumps(report)  # serializable


def test_relation_report_level_zero_and_filter():
    arr = np.zeros((3, 3), dtype=np.int64)
    arr[1, 1] = 1
    seg = segment_labels(arr)
    pyr = seg.pyramid
    report = relation_report(pyr, 0)
    assert report["contains"] == []
    assert all(len(e["children"]) >= 1 for e in report.get("composed_of", []))
    center = label_vertex(seg, arr, 1)
    top = pyr.top_level
    full = relation_report(pyr, top)
    only = relation_report(pyr, top, region=center)
    assert all(center in (e["a"], e["b"]) for e in only["meets"])
    assert len(only["meets"]) <= len(full["meets"])


def assert_filtered_reports_restrict_the_whole(pyr):
    for i in clean_levels(pyr):
        whole = relation_report(pyr, i)
        m = pyr.reconstruct_level(i)
        for r in whole["regions"]:
            only = relation_report(pyr, i, region=m.sigma(r))  # any dart names its region
            assert only == dict(
                whole,
                meets=[e for e in whole["meets"] if r in (e["a"], e["b"])],
                contains=[p for p in whole["contains"] if r in p],
                inside=[p for p in whole["inside"] if r in p],
                composed_of=[e for e in whole["composed_of"] if e["parent"] == r],
            )


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_filtered_report_is_the_whole_report_restricted(seed):
    assert_filtered_reports_restrict_the_whole(random_pyramid(random.Random(seed), max_side=6, always_clean=True))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_filtered_report_is_the_whole_report_restricted_on_random_partitions(seed):
    # rings drawn over the partition give enclosers several deep
    rng = random.Random(seed)
    labels = ringed_labels(rng, rng.randint(3, 12), rng.randint(3, 12))
    assert_filtered_reports_restrict_the_whole(segment_labels(labels).pyramid)


def test_relation_report_warns_on_dirty_level():
    pyr = Pyramid.from_grid(2, 2)
    pyr.apply_kernel(Kernel.of(KernelState.CK, [2, -2]))
    report = relation_report(pyr, 1)
    assert report["warnings"]
    assert report["contains"] == []


def test_rag_dot_deterministic():
    arr = np.zeros((4, 4), dtype=np.int64)
    arr[1:3, 1:3] = 1
    seg = segment_labels(arr)
    pyr, top = seg.pyramid, seg.pyramid.top_level
    assert rag_to_dot(pyr, top) == rag_to_dot(pyr, top)
    assert "doublecircle" in rag_to_dot(pyr, top)


def test_outside_without_border_darts():
    # contractions through the outside can leave it no dart on the image
    # border; it is still the region of base dart 1
    pyr = borderless_outside_pyramid()
    assert [infinite_region(pyr, i) for i in range(4)] == [1, 1, 6, 7]
    assert 1 in pyr.composed_of(2, 6)
    assert relation_report(pyr, 2)["infinite_region"] == 6
    assert '"r6" [shape=doublecircle]' in rag_to_dot(pyr, 2)


def test_region_ids_are_stable():
    arr = np.zeros((4, 4), dtype=np.int64)
    arr[1:3, 1:3] = 1
    seg = segment_labels(arr)
    pyr, top = seg.pyramid, seg.pyramid.top_level
    assert region_ids(pyr, top) == region_ids(pyr, top)


@st.composite
def label_rasters(draw):
    """Small partitions painted as overlapping rectangles, some with a core
    of another label, so regions nest, wrap around each other and touch the
    border."""
    w, h = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    arr = np.zeros((h, w), dtype=np.int64)
    for _ in range(draw(st.integers(0, 6))):
        ring = w >= 3 and h >= 3 and draw(st.booleans())
        x0, y0 = draw(st.integers(0, w - 1 - 2 * ring)), draw(st.integers(0, h - 1 - 2 * ring))
        x1, y1 = draw(st.integers(x0 + 2 * ring, w - 1)), draw(st.integers(y0 + 2 * ring, h - 1))
        arr[y0 : y1 + 1, x0 : x1 + 1] = draw(st.integers(0, 3))
        if ring:
            arr[y0 + 1 : y1, x0 + 1 : x1] = draw(st.integers(0, 3))
    return connected_components(arr)


@settings(max_examples=150, deadline=None)
@given(label_rasters())
def test_relation_report_matches_pixel_oracles(labels):
    pyr = segment_labels(labels).pyramid
    levels = []  # per level: the region of every pixel, and the outside region
    for i in range(pyr.top_level + 1):
        raster = np.array(pyr.pixel_labels(i), dtype=np.int64)
        (outside,) = set(region_ids(pyr, i)) - {int(v) for v in np.unique(raster)}
        levels.append((raster, outside))
    for i in clean_levels(pyr):
        raster, outside = levels[i]
        inner = {int(v) for v in np.unique(raster)}
        report = relation_report(pyr, i)
        assert report["warnings"] == []
        assert sorted(report["regions"]) == sorted(inner | {outside})
        assert report["infinite_region"] == outside
        boundary = BoundaryOracle(raster, outside)
        meets = {frozenset((e["a"], e["b"])): e["segments"] for e in report["meets"]}
        assert meets == {frozenset(p): boundary.shared(*p)[1] for p in boundary.adjacent_pairs()}
        pairs = {(a, b) for a in inner for b in enclosed_regions(raster, a)}
        assert {tuple(p) for p in report["contains"]} == pairs
        assert {tuple(p) for p in report["inside"]} == {(b, a) for a, b in pairs}
        if i == 0:
            assert report["composed_of"] == []
            continue
        below, below_outside = levels[i - 1]
        composed = {r: set() for r in report["regions"]}
        composed[outside].add(below_outside)
        for u, v in zip(below.ravel().tolist(), raster.ravel().tolist()):
            composed[v].add(u)
        assert {e["parent"]: set(e["children"]) for e in report["composed_of"]} == composed


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_report_agrees_with_single_queries(seed):
    pyr = random_pyramid(random.Random(seed), max_side=6)
    for i in range(pyr.top_level + 1):
        report = relation_report(pyr, i)
        for e in report["meets"]:
            assert e["segments"] == len(meets_each(pyr, i, e["a"], e["b"]))
        if i == 0:
            continue
        composed = {e["parent"]: frozenset(e["children"]) for e in report["composed_of"]}
        for r in region_ids(pyr, i):
            assert pyr.composed_of(i, r) == composed_of_scan(pyr, i, r) == composed[r]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
def test_report_equals_the_per_dart_reference(seed, touch_outside):
    # levels that keep redundant darts included: only the enclosure entries
    # are dropped there
    pyr = random_pyramid(random.Random(seed), max_side=6, touch_outside=touch_outside)
    for i in range(pyr.top_level + 1):
        assert relation_report(pyr, i) == relation_report_by_darts(pyr, i)
        m = pyr.reconstruct_level(i)
        for r in region_ids(pyr, i):
            assert relation_report(pyr, i, m.sigma(r)) == relation_report_by_darts(pyr, i, m.sigma(r))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
def test_meets_exists_is_whether_meets_each_finds_a_piece(seed, touch_outside):
    pyr = random_pyramid(random.Random(seed), max_side=6, touch_outside=touch_outside)
    for i in range(pyr.top_level + 1):
        m = pyr.reconstruct_level(i)
        regions = region_ids(pyr, i)
        for a in regions:
            for b in regions:
                if a == b:
                    with pytest.raises(ValueError, match="two distinct regions"):
                        meets_exists(pyr, i, a, m.sigma(b))
                else:
                    assert meets_exists(pyr, i, a, b) is bool(meets_each(pyr, i, a, b))


def test_report_rebuilds_no_level_per_pair(monkeypatch):
    # the first report of a level, which builds its enclosure forest and its
    # boundary index, and the first enclosure queries read regions off the
    # region arrays and walk single vertex cycles only: no whole-level map
    # of cycles is built, and the loop test walks the cycle of each vertex
    # with a self loop, one orbit each. Once both exist, a report walks no
    # dart and rebuilds neither: its pairs and piece counts are index reads,
    # its enclosure entries forest reads
    calls = []

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(owner, name, counted)

    patched = [(CombinatorialMap, "cycles"), (CombinatorialMap, "alpha"), (CombinatorialMap, "orbit")]
    patched += [(relations, name) for name in ("_chains", "_cycle_min", "_chain_ends")]
    for owner, name in patched:
        count(owner, name)
    rasters = [ringed_labels(random.Random(2), 16, 16)]
    rasters += [random_labels(random.Random(side), side, side, blobs=side // 2) for side in (8, 24)]
    for labels in rasters:
        text = segment_labels(labels).pyramid.to_json()
        pyr = Pyramid.from_json(text)
        top = pyr.top_level
        report = relation_report(pyr, top)
        assert report["meets"] and report["composed_of"]
        if labels is rasters[0]:
            assert pyr._levels[top].forest[1]
        level = pyr._levels[top]
        u, v = level.region[level.order], level.region[-level.order]
        looped = len(np.unique(u[u == v]))
        regions = report["regions"]
        queries = [
            lambda pyr: relation_report(pyr, top),
            lambda pyr: [contains(pyr, top, a, b) for a in regions for b in regions],
            lambda pyr: [inside_all(pyr, top, r) for r in regions],
        ]
        for query in queries:
            pyr = Pyramid.from_json(text)
            calls.clear()
            query(pyr)
            assert "cycles" not in calls
            assert calls.count("orbit") <= looped
    # the 24x24 raster: a second report, once the first built the forest and
    # the boundary index
    assert any(e["segments"] > 1 for e in report["meets"])
    pyr = Pyramid.from_json(text)
    calls.clear()
    relation_report(pyr, top)
    assert "_cycle_min" in calls and "_chain_ends" in calls
    calls.clear()
    assert relation_report(pyr, top) == report
    assert calls == []


def test_warm_report_calls_inside_all_per_encloser_only(monkeypatch):
    # only the regions that enclose something, the keys of the forest's
    # children, have contains pairs, so only they take an inside_all call;
    # every region takes one composed_of call, which makes no alive check,
    # and the report's own dartless level checks count no dart
    pyr = segment_labels(ringed_labels(random.Random(3), 24, 24, rings=6)).pyramid
    top = pyr.top_level
    report = relation_report(pyr, top)
    calls = []
    for owner, name in [(relations, "inside_all"), (Pyramid, "composed_of")]:
        original = getattr(owner, name)

        def counted(*args, name=name, original=original):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(owner, name, counted)
    checked = []
    original_checked = Pyramid._checked

    def counted_checked(self, i, *darts, **kwargs):
        checked.append(len(darts))
        return original_checked(self, i, *darts, **kwargs)

    monkeypatch.setattr(Pyramid, "_checked", counted_checked)
    assert relation_report(pyr, top) == report
    enclosers = pyr._levels[top].forest[1]
    regions = report["regions"]
    assert 0 < len(enclosers) < len(regions) and report["contains"]
    assert calls.count("inside_all") == len(enclosers)
    assert calls.count("composed_of") == len(regions)
    assert sum(checked) <= len(enclosers)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
def test_region_reads_equal_the_cycle_references(seed, touch_outside):
    for pyr in (random_pyramid(random.Random(seed), max_side=6, touch_outside=touch_outside),
                borderless_outside_pyramid()):
        for i in range(pyr.top_level + 1):
            regions, edges = rag_export(pyr, i)
            assert region_ids(pyr, i) == regions == region_ids_by_cycles(pyr, i)
            assert (regions, edges) == rag_export_by_cycles(pyr, i)
            assert {type(d) for d in regions + [d for e in edges for d in e]} == {int}


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
def test_meets_each_chains_equal_the_orbit_walk(seed, touch_outside):
    # random_pyramid leaves some levels with redundant darts, so clean and
    # dirty levels are both met; each border is read from both sides
    pyr = random_pyramid(random.Random(seed), max_side=6, touch_outside=touch_outside)
    for i in range(pyr.top_level + 1):
        m = pyr.reconstruct_level(i)
        rep = m.vertex_ids()
        for u, v in rag_export(pyr, i)[1]:
            for a, b in ((u, v), (v, u)):
                facing = [d for d in m.orbit(a, "sigma") if rep[m.alpha(d)] == b]
                want = [sum((segment(pyr, i, d).darts for d in chain), ()) for chain in _pieces(m, rep, facing)]
                assert [s.darts for s in meets_each(pyr, i, a, b)] == want


def test_rag_export_returns_fresh_lists():
    rng = random.Random(4)
    pyr = segment_labels(random_labels(rng, 8, 8)).pyramid
    top = pyr.top_level
    regions, edges = rag_export(pyr, top)
    want = (list(regions), list(edges))
    regions.clear()
    edges.reverse()
    edges.append((0, 0))
    assert rag_export(pyr, top) == want
    assert [(e["a"], e["b"]) for e in relation_report(pyr, top)["meets"]] == want[1]
