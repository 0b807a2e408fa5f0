import itertools
import random
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combipyramid import containment
from combipyramid.boundary import segment, sequence_orientation
from combipyramid.containment import (
    VisitCounter,
    _enclosure_forest,
    contains,
    inside_all,
    inside_direct,
    starting_darts,
)
from combipyramid.pyramid import Kernel, KernelState, Pyramid
from combipyramid.relations import infinite_region, meets_each, meets_exists, rag_export, relation_report
from combipyramid.segmentation import SegmentedImage, segment_labels

from conftest import built_pyramid, clean_levels, kinds, random_labels, random_pyramid, ringed_labels
from eager_oracle import (
    enclosure_forest_by_traversal,
    flood_fill_contains_oracle,
    inside_all_flood,
    starting_darts_with_discards,
    vertex_of,
)


def ring_labels(size=3):
    """Border ring around a center blob, the smallest enclosure there is."""
    arr = np.zeros((size, size), dtype=np.int64)
    arr[1:-1, 1:-1] = 1
    return arr


def label_vertex(seg, labels, value):
    ys, xs = np.nonzero(labels == value)
    return seg.pyramid.vertex_of_pixel(seg.pyramid.top_level, int(xs[0]), int(ys[0]))


# -- the flood-fill reference ---------------------------------------------------


def test_oracle_border_region_is_never_inside():
    labels = ring_labels(4)
    assert flood_fill_contains_oracle(labels, 1, 0) is False


def test_oracle_concentric_rings():
    arr = np.zeros((7, 7), dtype=np.int64)
    arr[1:-1, 1:-1] = 1
    arr[2:-2, 2:-2] = 2
    arr[3:-3, 3:-3] = 3
    for outer, inner in itertools.combinations([0, 1, 2, 3], 2):
        assert flood_fill_contains_oracle(arr, outer, inner) is True
        assert flood_fill_contains_oracle(arr, inner, outer) is False


def test_oracle_side_by_side_is_not_containment():
    arr = np.zeros((4, 6), dtype=np.int64)
    arr[:, 3:] = 1
    assert flood_fill_contains_oracle(arr, 0, 1) is False
    assert flood_fill_contains_oracle(arr, 1, 0) is False


def test_oracle_rejects_unknown_labels():
    with pytest.raises(ValueError):
        flood_fill_contains_oracle(ring_labels(), 0, 9)


# -- loop classification ----------------------------------------------------------


def test_vertex_without_loops_has_no_starting_darts():
    pyr = Pyramid.from_grid(2, 1)
    pyr.apply_kernel(Kernel.of(KernelState.CK, [2, -2]))
    pyr.apply_kernel(pyr.compute_rkede())
    m = pyr.reconstruct_level(pyr.top_level)
    for cyc in m.vertices():
        assert starting_darts(pyr, pyr.top_level, cyc[0]) == []
        assert inside_direct(pyr, pyr.top_level, cyc[0]) == frozenset()


def test_ring_vertex_classifies_its_loop():
    labels = ring_labels(3)
    seg = segment_labels(labels)
    pyr, top = seg.pyramid, seg.pyramid.top_level
    ring = label_vertex(seg, labels, 0)
    center = label_vertex(seg, labels, 1)
    m = pyr.reconstruct_level(top)
    # ring vertex: one loop pair, one outside dart, one dart to the center
    cyc = m.orbit(ring, "sigma")
    assert len(cyc) == 4
    starts = starting_darts(pyr, top, ring)
    assert len(starts) == 1
    s = starts[0]
    assert m.alpha(s) in cyc  # a genuine self loop
    # the span between the starting dart and its partner holds the center
    span = []
    e = m.sigma(s)
    while e != m.alpha(s):
        span.append(e)
        e = m.sigma(e)
    assert [vertex_of(m, m.alpha(e)) for e in span] == [center]
    assert inside_direct(pyr, top, ring) == {center}
    assert inside_all(pyr, top, ring) == {center}
    assert contains(pyr, top, ring, center)
    assert not contains(pyr, top, center, ring)
    assert not contains(pyr, top, ring, ring)


def test_exactly_one_starting_dart_per_loop():
    rng = random.Random(17)
    for _ in range(15):
        pyr = random_pyramid(rng, max_side=6, always_clean=True)
        for i in clean_levels(pyr):
            m = pyr.reconstruct_level(i)
            for cyc in m.vertices():
                loops = {frozenset((d, m.alpha(d))) for d in cyc if m.alpha(d) in cyc}
                starts = starting_darts(pyr, i, cyc[0])
                assert len(starts) == len(loops)
                assert {frozenset((s, m.alpha(s))) for s in starts} == loops


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), kinds)
def test_a_stack_of_loop_darts_only_classifies_as_the_full_stack(seed, kind):
    # pushing only loop darts changes neither the starting darts nor the
    # work: every cycle dart is visited once and every loop closes alike
    pyr = built_pyramid(random.Random(seed), kind)
    for i in clean_levels(pyr):
        for cyc in pyr.reconstruct_level(i).vertices():
            got, ref = VisitCounter(), VisitCounter()
            assert starting_darts(pyr, i, cyc[0], got) == starting_darts_with_discards(pyr, i, cyc[0], ref)
            assert (got.visits, got.loops) == (ref.visits, ref.loops)


def test_rejects_levels_with_redundant_edges():
    pyr = Pyramid.from_grid(2, 2)
    pyr.apply_kernel(Kernel.of(KernelState.CK, [2, -2]))  # leaves double edges
    with pytest.raises(ValueError, match="redundant"):
        starting_darts(pyr, 1, 4)
    with pytest.raises(ValueError, match="redundant"):
        inside_all(pyr, 1, 4)


# -- nested enclosures -------------------------------------------------------------


def three_ring_labels():
    arr = np.zeros((7, 7), dtype=np.int64)
    arr[1:-1, 1:-1] = 1
    arr[2:-2, 2:-2] = 2
    arr[3, 3] = 3
    return arr


def test_three_ring_chain():
    labels = three_ring_labels()
    seg = segment_labels(labels)
    pyr, top = seg.pyramid, seg.pyramid.top_level
    v = {k: label_vertex(seg, labels, k) for k in range(4)}
    assert inside_all(pyr, top, v[0]) == {v[1], v[2], v[3]}
    assert inside_all(pyr, top, v[1]) == {v[2], v[3]}
    assert inside_all(pyr, top, v[2]) == {v[3]}
    assert inside_all(pyr, top, v[3]) == frozenset()
    assert inside_direct(pyr, top, v[0]) == {v[1]}


def horseshoe_labels():
    """One region with two holes; its vertex carries two self loops."""
    arr = np.zeros((9, 9), dtype=np.int64)
    arr[1:-1, 1:-1] = 1          # broken ring, label 1
    arr[2:-2, 2:-2] = 0          # back to the host region
    arr[7, 4] = 0                # the break connecting outside to inside
    arr[3:-3, 3:-3] = 2          # inner ring, label 2
    arr[4, 4] = 3                # innermost dot
    return arr


def test_two_loops_at_one_vertex():
    labels = horseshoe_labels()
    seg = segment_labels(labels)
    pyr, top = seg.pyramid, seg.pyramid.top_level
    host = label_vertex(seg, labels, 0)
    cshape = label_vertex(seg, labels, 1)
    ring2 = label_vertex(seg, labels, 2)
    dot = label_vertex(seg, labels, 3)
    starts = starting_darts(pyr, top, host)
    assert len(starts) == 2
    assert inside_direct(pyr, top, host) == {cshape, ring2}
    assert inside_all(pyr, top, host) == {cshape, ring2, dot}
    assert inside_all(pyr, top, ring2) == {dot}
    assert inside_all(pyr, top, cshape) == frozenset()


def test_siblings_inside_one_container():
    arr = np.zeros((7, 9), dtype=np.int64)
    arr[2:5, 2:4] = 1
    arr[2:5, 5:7] = 2
    seg = segment_labels(arr)
    pyr, top = seg.pyramid, seg.pyramid.top_level
    host = label_vertex(seg, arr, 0)
    a = label_vertex(seg, arr, 1)
    b = label_vertex(seg, arr, 2)
    assert inside_all(pyr, top, host) == {a, b}
    assert not contains(pyr, top, a, b)
    assert not contains(pyr, top, b, a)


def spiral_rings(n_rings):
    """Concentric square walls, each broken on alternating sides, so the
    host region snakes inside and collects one nested loop per wall."""
    size = 4 * n_rings + 3
    arr = np.zeros((size, size), dtype=np.int64)
    for k in range(n_rings):
        lo, hi = 1 + 2 * k, size - 2 - 2 * k
        arr[lo, lo : hi + 1] = 1
        arr[hi, lo : hi + 1] = 1
        arr[lo : hi + 1, lo] = 1
        arr[lo : hi + 1, hi] = 1
        mid = (lo + hi) // 2
        arr[(hi if k % 2 else lo), mid] = 0
    from conftest import connected_components

    return connected_components(arr)


def test_telescoping_walls_nest_one_loop_per_wall():
    for n in (2, 3, 4):
        labels = spiral_rings(n)
        seg = segment_labels(labels)
        pyr, top = seg.pyramid, seg.pyramid.top_level
        host = label_vertex(seg, labels, 0)
        starts = starting_darts(pyr, top, host)
        assert len(starts) == n
        assert len(inside_all(pyr, top, host)) == n
        values = sorted(set(labels.ravel().tolist()))
        vertex = {v: label_vertex(seg, labels, v) for v in values}
        for a, b in itertools.permutations(values, 2):
            assert contains(pyr, top, vertex[a], vertex[b]) == flood_fill_contains_oracle(
                labels, a, b
            )


# -- agreement with the oracle ------------------------------------------------------


def test_matches_oracle_on_random_partitions():
    rng = random.Random(5150)
    for _ in range(25):
        w, h = rng.randint(4, 12), rng.randint(4, 12)
        labels = random_labels(rng, w, h)
        seg = segment_labels(labels)
        pyr, top = seg.pyramid, seg.pyramid.top_level
        values = sorted(set(labels.ravel().tolist()))
        vertex = {v: label_vertex(seg, labels, v) for v in values}
        for a, b in itertools.permutations(values, 2):
            assert contains(pyr, top, vertex[a], vertex[b]) == flood_fill_contains_oracle(
                labels, a, b
            ), (labels, a, b)


def test_matches_oracle_at_intermediate_levels():
    # threshold tiers give pyramids with several clean levels; each level is
    # checked against a flood fill on its own label raster
    rng = random.Random(404)
    for _ in range(6):
        w, h = rng.randint(6, 12), rng.randint(6, 12)
        img = np.array(
            [[rng.choice([0, 60, 120, 180]) for _ in range(w)] for _ in range(h)],
            dtype=np.uint8,
        )
        from combipyramid.segmentation import SegmentedImage

        seg = SegmentedImage(img)
        for threshold in (0.0, 65.0):
            while seg.merge_level(threshold):
                pass
        pyr = seg.pyramid
        for i in clean_levels(pyr):
            rows = pyr.pixel_labels(i)
            reps = sorted({v for r in rows for v in r}, key=abs)
            if len(reps) > 14:
                continue
            dense = {v: k for k, v in enumerate(reps)}
            labels = np.array([[dense[v] for v in r] for r in rows])
            for a, b in itertools.permutations(reps, 2):
                assert contains(pyr, i, a, b) == flood_fill_contains_oracle(
                    labels, dense[a], dense[b]
                )


def test_work_bound_two_visits_per_cycle_dart():
    rng = random.Random(99)
    for _ in range(10):
        w, h = rng.randint(4, 10), rng.randint(4, 10)
        labels = random_labels(rng, w, h)
        seg = segment_labels(labels)
        pyr, top = seg.pyramid, seg.pyramid.top_level
        m = pyr.reconstruct_level(top)
        for cyc in m.vertices():
            counter = VisitCounter()
            inside_direct(pyr, top, cyc[0], counter)
            assert counter.visits <= 2 * len(cyc)


class WatchedDarts(np.ndarray):
    """A level's dart order that counts the whole passes made over it:
    elementwise arithmetic and conversions to a list."""

    passes = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        WatchedDarts.passes += 1
        inputs = [x.view(np.ndarray) if isinstance(x, WatchedDarts) else x for x in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)

    def tolist(self):
        WatchedDarts.passes += 1
        return self.view(np.ndarray).tolist()


def test_a_forest_build_passes_over_the_level_a_bounded_number_of_times():
    # 36 rings, each around one pixel, on one background: the forest build
    # walks the cycles of 37 vertices with self loops and reads their darts'
    # turn counts, so a pass over the level per loop vertex would show
    tile = np.zeros((5, 5), dtype=np.int64)
    tile[1:4, 1:4], tile[2, 2] = 1, 2
    pyr = segment_labels(np.tile(tile, (6, 6))).pyramid
    level = pyr._levels[pyr.top_level]
    level.order = level.order.view(WatchedDarts)
    WatchedDarts.passes = 0
    parent, _ = _enclosure_forest(pyr, pyr.top_level)
    assert len(parent) == 72  # each ring under the background, each pixel under its ring
    assert WatchedDarts.passes <= 8  # a few in all, where one per loop vertex makes 37 or more


# -- the enclosure forest --------------------------------------------------------------


def named_forest(pyr: Pyramid, i: int) -> tuple[dict, dict]:
    """The level's enclosure forest, which is keyed by region index, with
    each index replaced by its region's canonical dart."""
    names = pyr._levels[i].names
    parent, children = _enclosure_forest(pyr, i)
    return ({names[c]: names[p] for c, p in parent.items()},
            {names[p]: [names[c] for c in cs] for p, cs in children.items()})


def tiered_pyramid(labels: np.ndarray) -> Pyramid:
    """A label partition painted in four grey tiers and merged at two
    thresholds, which gives several clean levels."""
    seg = SegmentedImage((labels * 7 % 4 * 60).astype(np.uint8))
    for threshold in (0.0, 65.0):
        while seg.merge_level(threshold):
            pass
    return seg.pyramid


def random_enclosing_pyramid(rng: random.Random, source: str) -> Pyramid:
    """A pyramid whose clean levels hold nested enclosures, from a ringed
    label partition as one level or in tiers, or a random_pyramid."""
    if source == "random":
        return random_pyramid(rng, max_side=7)
    labels = ringed_labels(rng, rng.randint(3, 14), rng.randint(3, 14))
    return segment_labels(labels).pyramid if source == "labels" else tiered_pyramid(labels)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from(["labels", "tiers", "random"]))
def test_forest_is_the_transitive_reduction_of_the_flood(seed, source):
    pyr = random_enclosing_pyramid(random.Random(seed), source)
    for i in clean_levels(pyr):
        vertices = [cyc[0] for cyc in pyr.reconstruct_level(i).vertices()]
        flood = {v: inside_all_flood(pyr, i, v) for v in vertices}
        for v in vertices:
            assert inside_all(pyr, i, v) == flood[v]
        parent, children = named_forest(pyr, i)
        assert set(parent) | set(children) <= set(vertices)
        assert {(p, c) for p, cs in children.items() for c in cs} == {(p, c) for c, p in parent.items()}
        for u in vertices:
            # enclosure sets are laminar, so u's enclosers nest by size;
            # the forest chain from u upwards must list them innermost first
            outer = sorted((v for v in vertices if u in flood[v]), key=lambda v: len(flood[v]))
            chain = []
            p = parent.get(u)
            while p is not None:
                chain.append(p)
                p = parent.get(p)
            assert chain == outer


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), kinds)
def test_forest_equals_the_traversal_of_every_vertex_cycle(seed, kind):
    # the classes of regions joined by adjacencies that are not down pairs
    # give the forest that one traversal from the outside region gives
    pyr = built_pyramid(random.Random(seed), kind)
    for i in clean_levels(pyr):
        parent, children = named_forest(pyr, i)
        want_parent, want_children = enclosure_forest_by_traversal(pyr, i)
        assert parent == want_parent
        assert {p: set(cs) for p, cs in children.items()} == {p: set(cs) for p, cs in want_children.items()}
        assert all(len(cs) == len(set(cs)) for cs in children.values())


def test_forest_refuses_an_encloser_of_the_outside_class(monkeypatch):
    # a loop test that also named the outside region would give the class
    # of regions that nothing encloses an encloser
    pyr = segment_labels(ringed_labels(random.Random(2), 16, 16)).pyramid
    top = pyr.top_level
    outside = infinite_region(pyr, top)
    real = containment.inside_direct
    monkeypatch.setattr(containment, "inside_direct", lambda pyr, i, v: real(pyr, i, v) | {outside})
    with pytest.raises(RuntimeError, match="two enclosers"):
        contains(pyr, top, outside, outside)


def test_concurrent_queries_on_a_fresh_pyramid_match_sequential_ones():
    pyr = tiered_pyramid(ringed_labels(random.Random(8), 24, 24, rings=8))
    # kernels that remove no dart: the top, which is clean, accepts one of
    # each state, and their levels share its record and so its caches
    for state in KernelState:
        pyr.apply_kernel(Kernel.of(state, []))
    text = pyr.to_json()
    seq = Pyramid.from_json(text)
    levels = clean_levels(seq)
    assert seq._levels[-1] is seq._levels[-4] and seq.top_level in levels
    regions = {i: [cyc[0] for cyc in seq.reconstruct_level(i).vertices()] for i in levels}
    pairs = {i: rag_export(seq, i)[1][:10] for i in levels}
    assert sum(any(inside_all(seq, i, a) for a in regions[i]) for i in levels) >= 2

    def answers(pyr, i):
        # the first reads of a level build its enclosure forest and its
        # boundary index, which the report and meets_each read
        return (
            [(inside_all(pyr, i, a), [contains(pyr, i, a, b) for b in regions[i][:20]]) for a in regions[i]],
            relation_report(pyr, i),
            [(meets_each(pyr, i, a, b), meets_each(pyr, i, b, a)) for a, b in pairs[i]],
        )

    want = {i: answers(seq, i) for i in levels}
    for _ in range(3):
        shared = Pyramid.from_json(text)
        start = threading.Barrier(4)
        got: list = [None] * 4

        def worker(k):
            start.wait(timeout=60)
            # staggered starts, so that later threads' first queries of a
            # level tend to fall into the first thread's build of it
            time.sleep(0.0005 * k)
            got[k] = {i: answers(shared, i) for i in levels}

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, inside the forest and index builds too
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [want] * 4


def test_bad_darts_are_refused_before_any_region_read():
    # the region arrays are indexed by signed dart and a negative index
    # wraps, so -(n+1) would read dart n's slot: every entry point refuses a
    # dart outside the base, or dead at the level, with the same error before
    # and after the level's enclosure forest exists
    arr = np.zeros((5, 5), dtype=np.int64)
    arr[1:4, 1:4] = 1
    arr[2, 2] = 2
    pyr = segment_labels(arr).pyramid
    top, n = pyr.top_level, len(pyr.base) // 2
    dead = min(pyr.kernels[0].darts, key=abs)
    good = pyr.vertex_of_pixel(top, 2, 2)
    calls = [
        lambda d: contains(pyr, top, d, good),
        lambda d: contains(pyr, top, good, d),
        lambda d: inside_all(pyr, top, d),
        lambda d: inside_direct(pyr, top, d),
        lambda d: relation_report(pyr, top, region=d),
        lambda d: pyr.composed_of(top, d),
        lambda d: meets_each(pyr, top, d, good),
        lambda d: meets_each(pyr, top, good, d),
        lambda d: meets_exists(pyr, top, d, good),
        lambda d: meets_exists(pyr, top, good, d),
        lambda d: segment(pyr, top, d),
        lambda d: sequence_orientation(pyr, top, [d], False),
        lambda d: starting_darts(pyr, top, d),
        lambda d: pyr.receptive_field(top, d),
        lambda d: pyr.cached_orientation(top, d),
        lambda d: pyr.last_move(top, d),
    ]
    for _ in range(2):
        for call in calls:
            for d in (0, n + 1, -(n + 1), 2**31):
                with pytest.raises(KeyError) as got:
                    call(d)
                assert type(got.value) is KeyError and got.value.args == (f"dart {d} is not in the base map",)
            with pytest.raises(ValueError) as got:
                call(dead)
            assert type(got.value) is ValueError and str(got.value) == f"dart {dead} does not survive at level {top}"
        relation_report(pyr, top)
