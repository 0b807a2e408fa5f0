import copy
import json
import pickle
import random
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from combipyramid import pyramid as pyramid_module
from combipyramid.boundary import segment, sequence_orientation
from combipyramid.containment import contains, infinite_region, inside_all, inside_direct, starting_darts
from combipyramid.map_core import CombinatorialMap, dart_sort_key, validate
from combipyramid.pyramid import (
    Kernel,
    KernelError,
    KernelState,
    Pyramid,
    _chain_ends,
    _cycle_min,
    _empty_loops,
    _reduce,
    _spanning_forest,
)
from combipyramid.relations import meets_each, meets_exists, rag_export, region_ids, relation_report
from combipyramid.segmentation import SegmentedImage, segment_labels

from conftest import (
    KINDS, borderless_outside_pyramid, built_pyramid, kinds, random_pyramid, ringed_labels, spanning_tree,
)
from eager_oracle import (
    DictTop,
    check_ck_by_union_find,
    composed_of_by_cycles,
    eager_levels,
    empty_self_loops,
    find_root,
    kruskal_forest,
    replay_pixel_labels,
    rkede_by_walk,
    sorted_sweep_loops,
    vertex_of,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def rotate_min(cycle):
    k = cycle.index(min(cycle, key=lambda d: (abs(d), d < 0)))
    return cycle[k:] + cycle[:k]


# -- contraction ----------------------------------------------------------------


def test_contract_shared_edge_of_two_pixels():
    # 2x1 grid: pixels (2,4,-1,-6) and (3,5,-2,-7); shared crack carries {2,-2}
    pyr = Pyramid(2, 1)
    pyr.apply_kernel(Kernel(KernelState.CK, [2, -2]))
    m1 = pyr.reconstruct_level(1)
    merged = rotate_min(m1.orbit(4, "sigma"))
    # both pixel cycles welded at the dead edge, orientation preserved
    assert merged == (-1, -6, -7, 3, 5, 4)
    assert len(m1.vertices()) == 2
    assert validate(m1).ok
    assert m1.alpha(4) == -4


def test_empty_kernel_only_adds_a_level():
    pyr = Pyramid(2, 2)
    base = pyr.reconstruct_level(0)
    pyr.apply_kernel(Kernel(KernelState.CK, []))
    assert pyr.top_level == 1
    m1 = pyr.reconstruct_level(1)
    assert m1 == base


def test_kernel_rejections():
    pyr = Pyramid(2, 1)
    with pytest.raises(KernelError, match="alpha"):
        pyr.apply_kernel(Kernel(KernelState.CK, [2]))
    with pytest.raises(KernelError, match="cycle"):
        # the two edges between one pixel pair close a cycle only if repeated;
        # use a genuine cycle: all four sides of pixel A against the outside
        pyr2 = Pyramid(1, 1)
        pyr2.apply_kernel(Kernel(KernelState.CK, [1, -1, 2, -2, 3, -3]))
    pyr.apply_kernel(Kernel(KernelState.CK, [2, -2]))
    with pytest.raises(KernelError, match="dead"):
        pyr.apply_kernel(Kernel(KernelState.CK, [2, -2]))
    # after full merge the leftover edges of a contracted ring are self loops
    pyr3 = Pyramid(2, 2)
    pyr3.apply_kernel(Kernel(KernelState.CK, [2, -2, 9, -9, 5, -5]))
    with pytest.raises(KernelError, match="self-loop"):
        pyr3.apply_kernel(Kernel(KernelState.CK, [10, -10]))


@pytest.mark.parametrize("state", list(KernelState))
def test_unknown_darts_are_rejected_before_any_array_read(state):
    # the kernel is marked in a mask of 2n+1 entries indexed by signed
    # dart: n+1 would alias -n, and 2**31 does not fit int32
    pyr = Pyramid(3, 2)
    n = len(pyr.base) // 2
    before = pyr.to_json()
    for d in (0, n + 1, -(n + 1), 2 * n, 2**31, 2**40, -2**63):
        with pytest.raises(KernelError, match=rf"^kernel contains dead or unknown darts: \[{d}\]$"):
            pyr.apply_kernel(Kernel(state, [d]))
        with pytest.raises(KernelError, match=r"^kernel contains dead or unknown darts: "):
            pyr.apply_kernel(Kernel(state, [1, -1, d]))
    assert pyr.to_json() == before


@pytest.mark.parametrize("dart", [2.7, 2.0, "2", True, None], ids=repr)
def test_a_kernel_dart_that_is_no_integer_is_rejected(dart):
    # 2.7 and "2" would index dart 2 once made an int array, and True dart 1
    pyr = Pyramid(2, 1)
    before = pyr.to_json()
    with pytest.raises(KernelError, match=rf"^kernel dart {re.escape(repr(dart))} is not an integer$"):
        pyr.apply_kernel(Kernel(KernelState.CK, [dart, -2]))
    assert pyr.to_json() == before


def test_a_kernel_holds_its_darts_once_in_dart_sort_key_order():
    for darts in ([3, -1, 2, 3, -1, 1], np.array([3, -1, 2, 3, -1, 1], dtype=np.int32), (d for d in [1, -1, 2, 3])):
        kernel = Kernel(KernelState.CK, darts)
        assert len(kernel) == 4 and kernel.darts == {1, -1, 2, 3}
    assert kernel.order.tolist() == [1, -1, 2, 3] and not kernel.order.flags.writeable
    assert kernel == Kernel(KernelState.CK, [3, 2, -1, 1]) != Kernel(KernelState.RKESL, [3, 2, -1, 1])
    assert hash(kernel) == hash(Kernel(KernelState.CK, np.array([3, 2, -1, 1])))
    # keys past 2**62 wrap in int64 but stay in order as unsigned
    assert Kernel(KernelState.CK, [-2**63, 2**63 - 1, 2**62, 1]).order.tolist() == [1, 2**62, 2**63 - 1, -2**63]


def test_a_kernel_is_made_one_way_and_checked_there():
    kernel = Kernel(KernelState.CK, [5, -5, 5])
    assert kernel == Kernel(KernelState.CK, [-5, 5]) and kernel.order.tolist() == [5, -5]
    assert not kernel.order.flags.writeable
    with pytest.raises(ValueError):
        kernel.order[0] = 1
    # "RKEDE" would pass apply_kernel's RKEDE checks and break to_json
    for state in ("CK", "RKEDE", None):
        with pytest.raises(KernelError, match=rf"^kernel state {re.escape(repr(state))} is not a KernelState$"):
            Kernel(state, [1, -1])
    # a float array would index the mask, a bool one read as darts 0 and 1
    for darts, bad in ((np.array([1.0, -1.0]), "1.0"), (np.array([True, False]), "True"), ([1, 2.0], "2.0")):
        with pytest.raises(KernelError, match=rf"^kernel dart {bad} is not an integer$"):
            Kernel(KernelState.CK, darts)
    for darts in ([2**64, 1], np.array([2**64 - 1], dtype=np.uint64), [-2**63 - 1]):
        with pytest.raises(KernelError, match=r"^kernel contains dead or unknown darts: \[-?\d+\]$"):
            Kernel(KernelState.RKESL, darts)


def test_contraction_of_the_whole_map_is_rejected():
    # a 1x1 grid cleaned by RKEDE keeps one edge between the pixel and the
    # outside; contracting it would leave a level with no darts
    pyr = Pyramid(1, 1)
    pyr.apply_kernel(pyr.compute_rkede())
    assert pyr.reconstruct_level(pyr.top_level).darts == {1, -4}
    with pytest.raises(KernelError, match="every dart"):
        pyr.apply_kernel(Kernel(KernelState.CK, [1, -4]))
    assert pyr.top_level == 1


@settings(max_examples=300, deadline=None)
@given(seeds, st.sampled_from(list(KernelState)), st.booleans(), st.data())
def test_random_kernel_is_rejected_or_yields_the_eager_level(seed, state, closed, data):
    # any dart subset of a random top, raw or closed under alpha, under any
    # state: apply_kernel rejects it untouched or derives a valid level
    pyr = random_pyramid(random.Random(seed), max_side=5)
    top = pyr.reconstruct_level(pyr.top_level)
    darts = data.draw(st.sets(st.sampled_from(sorted(top.darts, key=dart_sort_key))))
    if closed:
        darts |= {top.alpha(d) for d in darts}
    before = pyr.to_json()
    try:
        pyr.apply_kernel(Kernel(state, darts))
    except KernelError:
        assert pyr.to_json() == before
        return
    level = pyr.reconstruct_level(pyr.top_level)
    assert validate(level).ok
    assert level == eager_levels(pyr)[-1]
    text = pyr.to_json()
    assert Pyramid.from_json(text).to_json() == text


@settings(max_examples=300, deadline=None)
@given(seeds, st.booleans(), st.sampled_from(list(KernelState)), st.booleans(), st.data())
def test_kernel_outcome_is_a_function_of_the_dart_set(seed, touch_outside, state, closed, data):
    # the same darts put into the kernel's frozenset in two orders, which
    # can make it iterate differently (hash(-1) == hash(-2), and 1 and 9
    # share a slot of a small table): both are rejected with the same
    # message, or both derive the same level
    pyr = random_pyramid(random.Random(seed), max_side=5, touch_outside=touch_outside)
    top = pyr.reconstruct_level(pyr.top_level)
    darts = data.draw(st.lists(st.sampled_from(sorted(top.darts, key=dart_sort_key)), unique=True))
    if closed:
        darts += [top.alpha(d) for d in darts if top.alpha(d) not in darts]
    text = pyr.to_json()
    outcomes = []
    for order in (darts, data.draw(st.permutations(darts))):
        clone = Pyramid.from_json(text)
        try:
            outcomes.append(clone.apply_kernel(Kernel(state, order)).to_json())
        except KernelError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


def test_unpaired_contraction_dart_named_is_the_least():
    for order in ([1, 9], [9, 1]):
        with pytest.raises(KernelError, match=r"^contraction kernel is not closed under alpha at dart 1$"):
            Pyramid(3, 3).apply_kernel(Kernel(KernelState.CK, order))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)), max_size=40))
def test_spanning_forest_equals_kruskal(edges):
    # few vertices, so ties between trees, self loops and parallel edges abound
    # the vertices -5..5 as labels 0..10
    u, v = (np.array([e[k] + 5 for e in edges], dtype=np.int32) for k in (0, 1))
    keep, tree = _spanning_forest(u, v, 11)
    assert keep.tolist() == kruskal_forest(u.tolist(), v.tolist())
    # the trees are the components of the edges: each named by one of its vertices
    parent: dict = {}
    for a, b in zip(u.tolist(), v.tolist()):
        parent[find_root(parent, a)] = find_root(parent, b)
    for x, r in enumerate(tree.tolist()):
        assert find_root(parent, x) == find_root(parent, r)
    assert len(set(tree.tolist())) == len({find_root(parent, x) for x in range(11)})


@settings(max_examples=300, deadline=None)
@given(seeds, st.booleans(), st.data())
def test_contraction_check_agrees_with_union_find(seed, touch_outside, data):
    # whole edges of a random top, the base grid's cycles included, sometimes
    # with one partner missing: the array check accepts exactly what the loop
    # accepts, else raises its message
    rounds = data.draw(st.integers(0, 2))
    pyr = random_pyramid(random.Random(seed), max_side=5, rounds=rounds, touch_outside=touch_outside)
    edges = sorted(pyr.reconstruct_level(pyr.top_level).edges())
    taken = data.draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    darts = {d for e, t in zip(edges, taken) if t for d in e}
    if darts and data.draw(st.integers(0, 3)) == 0:
        darts.discard(data.draw(st.sampled_from(sorted(darts))))
    kernel = Kernel(KernelState.CK, darts)
    try:
        check_ck_by_union_find(pyr, kernel)
        expected = None
    except KernelError as exc:
        expected = str(exc)
    try:
        pyr.apply_kernel(kernel)
        got = None
    except KernelError as exc:
        got = str(exc)
    assert got == expected


def test_maximal_loop_kernel_keeps_a_loop_of_a_vertex_it_would_empty():
    # welding the pixel to the outside leaves one vertex of three empty loops
    pyr = Pyramid(1, 1).apply_kernel(Kernel(KernelState.CK, [1, -1]))
    assert pyr.redundant_darts(1) == {-4, -3, -2, 2, 3, 4}
    kernel = pyr.compute_rkesl()
    assert kernel.darts == {-4, -3, 3, 4}
    pyr.apply_kernel(kernel)
    level = pyr.reconstruct_level(pyr.top_level)
    assert level.darts == {2, -2} and validate(level).ok
    assert level == eager_levels(pyr)[-1]
    assert not pyr.compute_rkesl().darts


@settings(max_examples=300, deadline=None)
@given(seeds, st.sampled_from([KernelState.RKESL, KernelState.RKEDE]), st.data())
def test_partial_removal_kernel_is_rejected_or_yields_the_eager_level(seed, state, data):
    # a subset of the top's own empty self loops, closed under alpha, or of
    # its joints once the loops are gone, closed under their phi pairs:
    # rejected untouched or a valid level
    pyr = random_pyramid(random.Random(seed), max_side=5)
    if state is KernelState.RKEDE and pyr.compute_rkesl().darts:
        pyr.apply_kernel(pyr.compute_rkesl())
    top = pyr.reconstruct_level(pyr.top_level)
    full, mate = {
        KernelState.RKESL: (pyr.compute_rkesl().darts, top.alpha),
        KernelState.RKEDE: (pyr.compute_rkede().darts, top.phi),
    }[state]
    pairs = sorted({min(d, mate(d), key=dart_sort_key) for d in full}, key=dart_sort_key)
    chosen = data.draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    darts = chosen | {mate(d) for d in chosen}
    before = pyr.to_json()
    try:
        pyr.apply_kernel(Kernel(state, darts))
    except KernelError:
        assert pyr.to_json() == before
        return
    level = pyr.reconstruct_level(pyr.top_level)
    assert validate(level).ok
    assert level == eager_levels(pyr)[-1]
    text = pyr.to_json()
    assert Pyramid.from_json(text).to_json() == text


def test_rkede_requires_loops_gone():
    pyr = Pyramid(2, 2)
    pyr.apply_kernel(Kernel(KernelState.CK, [2, -2, 9, -9, 5, -5]))
    assert sorted(pyr.compute_rkesl().darts, key=abs) == [10, -10]
    with pytest.raises(KernelError, match="self loops"):
        pyr.apply_kernel(pyr.compute_rkede())


def test_rkesl_rejects_non_loops():
    pyr = Pyramid(2, 1)
    with pytest.raises(KernelError, match="empty self loop"):
        pyr.apply_kernel(Kernel(KernelState.RKESL, [2, -2]))


def test_rkede_rejects_half_joints_and_degree():
    # each rejection leaves the pyramid as it was; a joint whose darts start
    # at two grid corners is not built: faces that span corners only occur
    # while empty self loops remain, and those reject a double-edge kernel
    pyr = Pyramid(2, 2)
    before = pyr.to_json()
    for darts, match in [
        ([8], "half removed"),  # joint partner -3 missing
        ([9, -9], "degree-2"),  # interior corner, degree 4
        ([8, -3, 9, -9], "degree-2"),  # a whole joint with a non-joint
    ]:
        with pytest.raises(KernelError, match=match):
            pyr.apply_kernel(Kernel(KernelState.RKEDE, darts))
        assert pyr.to_json() == before
    pyr = Pyramid(1, 1)
    pyr.apply_kernel(pyr.compute_rkede())
    before = pyr.to_json()
    with pytest.raises(KernelError, match="degree-2"):  # one edge left: a single-edge boundary
        pyr.apply_kernel(Kernel(KernelState.RKEDE, [1, -4]))
    assert pyr.to_json() == before


@pytest.mark.parametrize("contract", [False, True])
def test_removal_kernel_that_consumes_a_vertex_is_rejected(contract):
    # 1x1 grid: all eight darts are corner joints; with the pixel contracted
    # into the outside, the three edges left are empty self loops
    pyr = Pyramid(1, 1)
    if contract:
        pyr.apply_kernel(Kernel(KernelState.CK, [1, -1]))
    darts = pyr.reconstruct_level(pyr.top_level).darts
    assert pyr.redundant_darts(pyr.top_level) == darts
    kernel = Kernel(KernelState.RKESL if contract else KernelState.RKEDE, darts)
    before = pyr.to_json()
    with pytest.raises(KernelError, match="every dart of the vertex"):
        pyr.apply_kernel(kernel)
    assert pyr.to_json() == before


@pytest.mark.parametrize("state", list(KernelState))
def test_a_kernel_that_fails_after_its_checks_changes_nothing(state):
    # _reduce runs once every check has passed: a failure there leaves the
    # pyramid as it was, and applying the kernel again gives the level that
    # a fresh apply gives
    kernels = segment_labels(ringed_labels(random.Random(0), 8, 8)).pyramid.kernels
    i = [k.state for k in kernels].index(state)
    pyr = Pyramid(8, 8)
    for kernel in kernels[:i]:
        pyr.apply_kernel(kernel)
    before, top = pyr.to_json(), pyr._levels[-1]
    arrays = [a.copy() for a in (top.sigma, top.alpha, top.turns, top.order, top.region)]
    with mock.patch.object(pyramid_module, "_reduce", side_effect=RuntimeError("injected")):
        with pytest.raises(RuntimeError, match="injected"):
            pyr.apply_kernel(kernels[i])
    assert pyr.to_json() == before
    assert pyr.top_level == i and pyr._levels[-1] is top
    for old, new in zip(arrays, (top.sigma, top.alpha, top.turns, top.order, top.region)):
        assert (old == new).all()
    pyr.apply_kernel(kernels[i])
    fresh = Pyramid.from_json(before).apply_kernel(kernels[i])
    assert pyr.reconstruct_level(pyr.top_level) == fresh.reconstruct_level(fresh.top_level)
    assert (pyr._levels[-1].region == fresh._levels[-1].region).all()
    darts = fresh.reconstruct_level(fresh.top_level).darts
    assert [pyr.cached_orientation(i + 1, d) for d in darts] == [fresh.cached_orientation(i + 1, d) for d in darts]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_chain_ends_equal_a_plain_walk(data):
    # a random function on positions 0..n-1 forms chains that end at fixed
    # points or run into cycles; each position is written as p or p - n, as
    # a signed dart wraps
    n = data.draw(st.integers(1, 30), label="n")
    step = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n), label="step")
    wrap = data.draw(st.lists(st.booleans(), min_size=2 * n, max_size=2 * n), label="wrap")
    weight = data.draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n), label="weight")
    weight = [0 if step[p] == p else w for p, w in enumerate(weight)]
    signed = np.array([q - n if w else q for q, w in zip(step, wrap)])
    start = np.array([p - n if w else p for p, w in zip(range(n), wrap[n:])])
    end, total = _chain_ends(signed, start, np.array(weight))
    assert (_chain_ends(signed, start) == end).all()
    for p, e, t in zip(start.tolist(), end.tolist(), total.tolist()):
        walk, q, acc = [], p % n, 0
        while q not in walk:
            walk.append(q)
            acc += weight[q]
            q = step[q]
        cycle = walk[walk.index(q):]
        assert e % n in cycle
        if len(cycle) == 1:  # a fixed point, whose weight is 0
            assert t == acc


def staircase_raster(side: int = 32) -> np.ndarray:
    """side x side of 16 px tiles, each a red staircase of eight 2 px stripes
    that merge over three rounds at threshold 12 (the gradient-levels
    benchmark raster's steps), with blue alternating over the tiles so that
    no region crosses a tile edge, and a few one-pixel green islands."""
    img = np.zeros((side, side, 3))
    img[:, :, 0] = np.tile(np.repeat([20, 10, 23, 13, 26, 36, 23, 21], 2), side // 16)
    tile = np.arange(side) // 16
    img[:, :, 2] = np.where((tile[:, None] + tile[None, :]) % 2, 192, 64)
    for y, x in ((3, 2), (7, 4), (11, 8), (5, 10), (9, 14), (20, 18), (25, 27)):
        img[y, x, 1] = 250
    return img


def test_each_apply_works_on_arrays_as_long_as_its_top():
    # three merge rounds leave a top far smaller than the base: each level
    # keeps sigma, alpha and turns over its live darts only, and on a
    # reload every pointer-jumping walk of an apply above level 1 runs on
    # an array no longer than the top the kernel is applied to
    pyr = SegmentedImage(staircase_raster()).run(12.0).pyramid
    assert pyr.top_level >= 6 and 20 * len(pyr._levels[-1].order) < len(pyr.base)
    for level in pyr._levels:
        assert len(level.sigma) == len(level.alpha) == len(level.turns) == len(level.order)
    applies = []  # per apply: the top's live darts, and the step length of each walk
    apply, chain_ends = Pyramid._apply, pyramid_module._chain_ends

    def tracked(self, state, darts):
        applies.append((len(self._levels[-1].order), []))
        return apply(self, state, darts)

    def counted(step, *args):
        applies[-1][1].append(len(step))
        return chain_ends(step, *args)

    with mock.patch.object(Pyramid, "_apply", tracked), mock.patch.object(pyramid_module, "_chain_ends", counted):
        Pyramid.from_json(pyr.to_json())
    assert len(applies) == pyr.top_level
    for live, steps in applies[1:]:
        assert steps and max(steps) <= live


def test_walks_that_cycle_raise_the_callers_errors():
    # sigma 1 -> 2 -> -2 -> 2: removing 2 leaves dart 1 the survivor -2, and
    # removing -2 as well leaves it none. Darts 1, -1, 2, -2 sit at
    # positions 0..3, their dart_sort_key order
    sigma, alpha = np.array([2, 1, 3, 2]), np.array([1, 0, 3, 2])
    dead = np.array([False, False, True, False])
    # the survivors 1, -1 and -2 go to -2, -1 and -2
    assert _reduce(sigma, alpha, dead, np.flatnonzero(~dead), KernelState.RKESL).tolist() == [3, 1, 3]
    dead[3] = True
    with pytest.raises(RuntimeError, match="walk over contracted or removed darts does not terminate"):
        _reduce(sigma, alpha, dead, np.flatnonzero(~dead), KernelState.RKESL)
    # 1x1 grid without the pixel's darts: every outside dart loses its
    # partner, so the chains run round the outside vertex
    pyr = Pyramid(1, 1)
    kill = np.zeros(len(pyr._levels[-1].order), dtype=bool)
    kill[dart_sort_key(np.array(pyr.base.orbit(pyr.embedding.pixel_dart(0, 0), "sigma")))] = True
    with pytest.raises(KernelError, match="double-edge chain is not terminated by a surviving partner"):
        pyr._fold_orientations(kill)


@settings(max_examples=60, deadline=None)
@given(seeds, kinds)
def test_stored_top_partition_is_the_vertex_map(seed, kind):
    # checked after every kernel a random build or its reload applies: the
    # top's region array holds every base dart's level vertex, by replay;
    # apply_kernel and from_json both apply through _apply
    apply = Pyramid._apply
    applied = []

    def checked(pyr, state, darts):
        apply(pyr, state, darts)
        i, top = pyr.top_level, pyr.reconstruct_level(pyr.top_level)
        region = pyr._levels[-1].names[pyr._levels[-1].region]
        assert len(pyr._levels) == i + 1
        assert {d: region[d] for d in pyr.base.darts} == {
            d: vertex_of(top, pyr._absorbed(i, d)[1]) for d in pyr.base.darts
        }
        assert pyr._levels[-1].order.tolist() == sorted(top.darts, key=dart_sort_key)
        applied.append(state)
        return pyr

    with mock.patch.object(Pyramid, "_apply", checked):
        pyr = built_pyramid(random.Random(seed), kind)
        Pyramid.from_json(pyr.to_json())
    assert len(applied) == 2 * pyr.top_level
    base = Pyramid(pyr.embedding.width, pyr.embedding.height)
    assert {d: base._region(0, d) for d in base.base.darts} == base.reconstruct_level(base.top_level).vertex_ids()


@settings(max_examples=60, deadline=None)
@given(seeds, kinds)
def test_every_level_numbers_its_regions_in_key_order(seed, kind):
    # a build and its reload: region r is named by names[r], the names are
    # in dart_sort_key order, the live darts take every index 0..R-1, and
    # R is the number of vertices of the level's map
    pyr = built_pyramid(random.Random(seed), kind)
    for built in (pyr, Pyramid.from_json(pyr.to_json())):
        for i, level in enumerate(built._levels):
            names = np.array(level.names.tolist(), dtype=np.int64)
            assert (np.diff(dart_sort_key(names)) > 0).all()
            assert level.region[names].tolist() == list(range(len(names)))
            assert np.unique(level.region[level.order]).tolist() == list(range(len(names)))
            assert len(names) == len(built.reconstruct_level(i).vertices())


def random_kernels(rng: random.Random, pyr: Pyramid) -> list[Kernel]:
    """Kernels to try on the top: a random dart subset under every state,
    raw and closed under alpha, and random halves of the top's maximal
    removal kernels, closed under their alpha or phi pairs."""
    top = pyr.reconstruct_level(pyr.top_level)
    darts = sorted(top.darts, key=dart_sort_key)
    out = []
    for state in KernelState:
        raw = {d for d in darts if rng.random() < 0.3}
        out += [Kernel(state, raw), Kernel(state, raw | {top.alpha(d) for d in raw})]
    for full, mate, state in ((pyr.compute_rkesl().darts, top.alpha, KernelState.RKESL),
                              (pyr.compute_rkede().darts, top.phi, KernelState.RKEDE)):
        half = {d for d in full if rng.random() < 0.5}
        out.append(Kernel(state, half | {mate(d) for d in half}))
    return out


@settings(max_examples=40, deadline=None)
@given(seeds, st.booleans())
def test_array_derivation_equals_the_dict_reference(seed, ringed):
    # every kernel a random build applies, and random kernels on each of its
    # tops: the same KernelError message, or the same level and top facts
    # as the loop-by-dart derivation of eager_oracle.DictTop
    apply = Pyramid._apply
    rng = random.Random(seed)

    def same_top(pyr, ref):
        assert pyr.reconstruct_level(pyr.top_level) == ref.m
        assert {d: pyr._region(pyr.top_level, d) for d in ref.m.darts} == ref.vertex
        order = pyr._levels[-1].order
        loops, joints = pyr._loops_and_joints(pyr.top_level)
        assert set(order[loops].tolist()) == ref.loops
        assert set(order[joints].tolist()) == ref.joints

    def checked(pyr, state, darts):
        ref = DictTop.of(pyr)
        same_top(pyr, ref)
        try:
            nxt, updates = ref.apply(Kernel(state, map(int, darts)))
        except KernelError as exc:
            before = pyr.to_json()
            with pytest.raises(KernelError) as got:
                apply(pyr, state, darts)
            assert str(got.value) == str(exc)
            assert pyr.to_json() == before
            return pyr
        apply(pyr, state, darts)
        same_top(pyr, nxt)
        # the new level's counts are the level below's with the updates,
        # each level's by position of its dart order
        below, level = pyr._levels[-2], pyr._levels[-1]
        expected = dict(zip(below.order.tolist(), below.turns.tolist())) | updates
        assert level.turns.tolist() == [expected[d] for d in level.order.tolist()]
        return pyr

    with mock.patch.object(Pyramid, "_apply", checked):
        if ringed:
            pyr = segment_labels(ringed_labels(rng, rng.randint(3, 10), rng.randint(3, 10))).pyramid
        else:
            pyr = random_pyramid(rng, max_side=6)
        for i in range(pyr.top_level + 1):
            # replay up to level i, then try random kernels on that top
            prefix = Pyramid(pyr.embedding.width, pyr.embedding.height)
            for kernel in pyr.kernels[:i]:
                prefix.apply_kernel(kernel)
            for kernel in random_kernels(rng, prefix):
                trial = Pyramid.from_json(prefix.to_json())
                trial.apply_kernel(kernel)


# -- removal kernels -------------------------------------------------------------


def test_rkesl_on_maps_without_pendant_faces_is_empty():
    pyr = Pyramid(3, 3)
    assert pyr.compute_rkesl().darts == frozenset()


def test_contracting_a_pixel_ring_leaves_one_empty_loop():
    # contract a spanning tree of the 2x2 block; the fourth interior edge
    # becomes a self loop around nothing
    pyr = Pyramid(2, 2)
    pyr.apply_kernel(Kernel(KernelState.CK, [2, -2, 9, -9, 5, -5]))
    assert sorted(pyr.compute_rkesl().darts, key=abs) == [10, -10]
    pyr.apply_kernel(pyr.compute_rkesl())
    assert pyr.compute_rkesl().darts == frozenset()  # idempotent


def test_rkesl_expansion_collects_nested_loops():
    # hand-built map: vertex (t, u, -u, -t, w) with nested loops t and u,
    # the inner one empty; expansion must take both
    t, u, w = 1, 2, 3
    sigma = {t: u, u: -u, -u: -t, -t: w, w: t, -w: -w}
    alpha = {d: -d for d in sigma}
    m = CombinatorialMap(sigma.keys(), sigma, alpha)
    assert validate(m).ok
    assert empty_self_loops(m, m.vertex_ids()) == {t, -t, u, -u}
    assert array_loops(m) == {t, -t, u, -u}


def array_loops(m: CombinatorialMap) -> set:
    """The darts _empty_loops marks, run over m's darts as positions in
    dart_sort_key order."""
    order = sorted(m.darts, key=dart_sort_key)
    pos = {d: k for k, d in enumerate(order)}
    step = np.array([pos[m.sigma(d)] for d in order])
    mate = np.array([pos[m.alpha(d)] for d in order])
    loops = _empty_loops(step, mate, _cycle_min(step))
    return {d for d, marked in zip(order, loops) if marked}


@pytest.mark.parametrize("around_an_edge", [False, True])
def test_a_deep_nest_of_loops_is_empty_unless_it_encloses_an_edge(around_an_edge):
    # vertex (t1, ..., t64, [e], -t64, ..., -t1, w) and the vertices (-w)
    # and [(-e)]: 64 nested loops around nothing, or around the edge e,
    # whose other sides hold the edge w
    loops = list(range(1, 65))
    w, e = 65, 66
    inner = [e] if around_an_edge else []
    cycles = [loops + inner + [-t for t in reversed(loops)] + [w], [-w], *([-d] for d in inner)]
    sigma = {d: c[(k + 1) % len(c)] for c in cycles for k, d in enumerate(c)}
    m = CombinatorialMap(sigma.keys(), sigma, {d: -d for d in sigma})
    assert validate(m).ok
    empty = set() if around_an_edge else {d for t in loops for d in (t, -t)}
    assert empty_self_loops(m, m.vertex_ids()) == empty
    assert array_loops(m) == empty


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), seeds)
def test_every_loop_of_a_one_vertex_bouquet_is_empty(width, height, seed):
    # contracting a spanning tree of every vertex, the outside included,
    # leaves one vertex that holds loops only
    pyr = Pyramid(width, height)
    tree = spanning_tree(pyr, random.Random(seed))
    pyr.apply_kernel(Kernel(KernelState.CK, tree + [-d for d in tree]))
    m = pyr.reconstruct_level(1)
    assert len(m.vertices()) == 1
    assert empty_self_loops(m, m.vertex_ids()) == m.darts
    assert array_loops(m) == m.darts


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_worklist_loops_equal_sorted_sweep(seed):
    pyr = random_pyramid(random.Random(seed), max_side=6)
    for i in range(pyr.top_level + 1):
        m = pyr.reconstruct_level(i)
        loops = sorted_sweep_loops(m)
        assert empty_self_loops(m, m.vertex_ids()) == loops
        joints = {
            d
            for x, y in (c for c in m.faces() if len(c) == 2)
            if y != m.alpha(x) and pyr.embedding.start(x) == pyr.embedding.start(y)
            for d in (x, y)
        }
        assert pyr.redundant_darts(i) == loops | joints


def test_rkede_on_raw_grid_simplifies_image_corners():
    # the four image corners are degree-2 dual vertices of the raw grid, so
    # strict topology lets the corner joints fuse; interior corners do not
    pyr = Pyramid(3, 3)
    kernel = pyr.compute_rkede()
    assert len(kernel.darts) == 8  # one joint of two darts per image corner
    starts = {pyr.embedding.start(d) for d in kernel.darts}
    assert starts == {(0, 0), (3, 0), (0, 3), (3, 3)}
    pyr.apply_kernel(kernel)
    assert validate(pyr.reconstruct_level(pyr.top_level)).ok


def test_level_bounds_and_bad_vertex_errors():
    pyr = Pyramid(2, 1)
    with pytest.raises(ValueError, match="range"):
        pyr.reconstruct_level(1)
    with pytest.raises(ValueError, match="range"):
        pyr.receptive_field(-1, 4)
    pyr.apply_kernel(Kernel(KernelState.CK, [2, -2]))
    with pytest.raises(ValueError, match="survive"):
        pyr.composed_of(1, 2)
    assert pyr.state(1) is KernelState.CK
    for i in (0, -1, 2):
        for query in (pyr.state, lambda i: pyr.composed_of(i, 1)):
            with pytest.raises(ValueError, match=re.escape(f"level {i} out of range 1..1")):
                query(i)


@settings(max_examples=60, deadline=None)
@given(seeds, st.booleans())
def test_a_dead_dart_survives_just_below_its_level(seed, touch_outside):
    pyr = random_pyramid(random.Random(seed), max_side=6, touch_outside=touch_outside)
    for d in pyr.base.darts:
        i = pyr.level(d)
        if i <= pyr.top_level:
            assert d in pyr.reconstruct_level(i - 1)
            assert d not in pyr.reconstruct_level(i)


def test_rkede_empty_on_interior_only_candidates():
    # straight-line boundaries with live junctions leave nothing to remove
    pyr = Pyramid(2, 2)
    pyr.apply_kernel(Kernel(KernelState.CK, [2, -2]))
    pyr.apply_kernel(pyr.compute_rkede())
    assert pyr.compute_rkede().darts == frozenset()  # idempotent


def test_rkede_merges_split_boundary():
    # merging the top two pixels splits the merged region's border into
    # chains of double edges; one surviving dart per direction remains
    pyr = Pyramid(2, 2)
    pyr.apply_kernel(Kernel(KernelState.CK, [2, -2]))
    kernel = pyr.compute_rkede()
    assert sorted(kernel.darts, key=lambda d: (abs(d), d < 0)) == [-1, -3, 4, 6, 7, -7, 8, -8, -11, 12]
    pyr.apply_kernel(kernel)
    m2 = pyr.reconstruct_level(2)
    assert m2.alpha(1) == 3 and m2.alpha(3) == 1  # repaired pairing
    assert m2.sigma(1) == -6 and m2.sigma(3) == -9
    assert validate(m2).ok
    assert not pyr.redundant_darts(2)


def test_full_reduction_of_two_by_one():
    pyr = Pyramid(2, 1)
    pyr.apply_kernel(Kernel(KernelState.CK, [2, -2]))
    pyr.apply_kernel(pyr.compute_rkede())
    m2 = pyr.reconstruct_level(2)
    assert sorted(m2.darts, key=abs) == [1, -6]
    assert m2.alpha(1) == -6 and m2.sigma(1) == 1
    assert validate(m2).ok


# -- receptive fields --------------------------------------------------------------


def test_level_zero_receptive_field_is_singleton():
    pyr = Pyramid(2, 1)
    assert pyr.receptive_field(0, 4) == (4,)


def test_receptive_field_contains_contracted_darts():
    pyr = Pyramid(2, 1)
    pyr.apply_kernel(Kernel(KernelState.CK, [2, -2]))
    assert pyr.receptive_field(1, -6) == (-6, 2)
    assert pyr.receptive_field(1, 5) == (5, -2)
    assert pyr.reconstruct_level(1).sigma(-6) == -7


def test_receptive_field_rejects_dead_darts():
    pyr = Pyramid(2, 1)
    pyr.apply_kernel(Kernel(KernelState.CK, [2, -2]))
    with pytest.raises(ValueError):
        pyr.receptive_field(1, 2)


def test_successor_equations_on_random_pyramids():
    # the replay's endpoints agree with the reconstructed permutations:
    # sigma_i(d) follows the last absorbed dart, alpha_i(d) is the base
    # partner of the segment's last dart
    rng = random.Random(7)
    for _ in range(25):
        pyr = random_pyramid(rng, max_side=6)
        for i in range(pyr.top_level + 1):
            m = pyr.reconstruct_level(i)
            for d in m.darts:
                assert m.sigma(d) == pyr._absorbed(i, d)[1]
                assert m.alpha(d) == -pyr._segment_walk(i, d)[-1]


# -- reconstruction vs the eager oracle ---------------------------------------------


def test_reconstruction_matches_eager_oracle_on_fixed_case():
    pyr = Pyramid(2, 2)
    pyr.apply_kernel(Kernel(KernelState.CK, [2, -2]))
    pyr.apply_kernel(pyr.compute_rkede())
    for i, ref in enumerate(eager_levels(pyr)):
        assert pyr.reconstruct_level(i) == ref


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_reconstruction_matches_eager_oracle_randomized(seed):
    # every derived level equals the eager oracle and the base replay
    pyr = random_pyramid(random.Random(seed), max_side=6)
    for i, ref in enumerate(eager_levels(pyr)):
        m = pyr.reconstruct_level(i)
        assert m == ref
        for d in m.darts:
            assert m.sigma(d) == pyr._absorbed(i, d)[1]
            assert m.alpha(d) == -pyr._segment_walk(i, d)[-1]


def test_survivor_sets_are_nested():
    rng = random.Random(99)
    pyr = random_pyramid(rng, max_side=6, rounds=3)
    sets = [pyr.reconstruct_level(i).darts for i in range(pyr.top_level + 1)]
    for small, big in zip(sets[1:], sets):
        assert small <= big
    for kernel, i in zip(pyr.kernels, range(1, pyr.top_level + 1)):
        assert all(pyr.level(d) == i for d in kernel.darts)
        if kernel.darts:
            assert len(sets[i]) < len(sets[i - 1])


def test_every_level_validates():
    rng = random.Random(5)
    for _ in range(10):
        pyr = random_pyramid(rng, max_side=6)
        for i in range(pyr.top_level + 1):
            assert validate(pyr.reconstruct_level(i)).ok


# -- composed_of -------------------------------------------------------------------


def test_composed_of_contraction_and_removal_levels():
    pyr = Pyramid(2, 1)
    pyr.apply_kernel(Kernel(KernelState.CK, [2, -2]))
    m0, m1 = pyr.reconstruct_level(0), pyr.reconstruct_level(1)
    merged = vertex_of(m1, 4)
    children = pyr.composed_of(1, merged)
    assert children == {vertex_of(m0, 2), vertex_of(m0, 3)}  # the two pixels
    outside = vertex_of(m1, 1)
    assert pyr.composed_of(1, outside) == {vertex_of(m0, 1)}
    # a removal level maps every vertex to its own counterpart
    pyr.apply_kernel(pyr.compute_rkede())
    m2 = pyr.reconstruct_level(2)
    for cyc in m2.vertices():
        assert len(pyr.composed_of(2, cyc[0])) == 1


def test_composed_of_is_a_partition():
    rng = random.Random(31)
    for _ in range(10):
        pyr = random_pyramid(rng, max_side=5)
        for i in range(1, pyr.top_level + 1):
            prev = {c[0] for c in pyr.reconstruct_level(i - 1).vertices()}
            seen = []
            for cyc in pyr.reconstruct_level(i).vertices():
                seen.extend(pyr.composed_of(i, cyc[0]))
            assert set(seen) == prev
            assert len(seen) == len(set(seen))


def test_composed_of_swallowed_tree_vertex():
    # contract every edge of the center pixel of a 3x3 block so one vertex
    # keeps no surviving dart at the next level
    pyr = Pyramid(3, 3)
    m0 = pyr.base
    center = m0.orbit(pyr.vertex_of_pixel(0, 1, 1), "sigma")
    kernel = []
    for d in center:
        kernel.extend((d, -d))
    pyr.apply_kernel(Kernel(KernelState.CK, kernel))
    m1 = pyr.reconstruct_level(1)
    assert all(d not in m1.darts for d in center)
    merged = pyr.vertex_of_pixel(1, 1, 1)
    assert vertex_of(m0, center[0]) in pyr.composed_of(1, merged)


@pytest.mark.parametrize("i, d, error, message", [
    (0, 1, ValueError, "level 0 out of range 1..2"),
    (3, 1, ValueError, "level 3 out of range 1..2"),
    (0, 0, ValueError, "level 0 out of range 1..2"),  # the level is checked first
    (1, 2, ValueError, "dart 2 does not survive at level 1"),  # dies at level 1
    (2, -2, ValueError, "dart -2 does not survive at level 2"),  # dies below level 2
    (2, -1, ValueError, "dart -1 does not survive at level 2"),
    (1, 0, KeyError, "dart 0 is not in the base map"),
    (1, 8, KeyError, "dart 8 is not in the base map"),
    (2, -8, KeyError, "dart -8 is not in the base map"),
])
def test_composed_of_errors_are_pinned(i, d, error, message):
    # a 2x1 grid has the darts -7..7 but 0; level 1 contracts the inner edge 2, level 2
    # removes one dart of each double edge, dart -1 among them
    pyr = Pyramid(2, 1).apply_kernel(Kernel(KernelState.CK, [2, -2]))
    pyr.apply_kernel(pyr.compute_rkede())
    with pytest.raises(error) as info:
        pyr.composed_of(i, d)
    assert info.type is error and info.value.args == (message,)


NOT_INTEGERS = {
    "True": True,
    "False": False,
    "1.0": 1.0,
    "-2.0": -2.0,
    "nan": float("nan"),
    "'1'": "1",
    "None": None,
    "np.True_": np.True_,
    "np.float64": np.float64(1.0),
}


@pytest.mark.parametrize("dart", NOT_INTEGERS)
@pytest.mark.parametrize("call", ["level", "contains", "meets_exists", "segment"])
def test_a_dart_that_is_not_an_integer_is_unknown(call, dart):
    # a bool would index the array of dart levels as a mask, and a float
    # raise IndexError: each is refused as a dart off the base is
    arr = np.zeros((5, 5), dtype=np.int64)
    arr[1:4, 1:4] = 1
    arr[2, 2] = 2
    pyr = segment_labels(arr).pyramid
    top = pyr.top_level
    inner, ring = pyr.vertex_of_pixel(top, 2, 2), pyr.vertex_of_pixel(top, 1, 1)
    calls = {
        "level": pyr.level,
        "contains": lambda d: contains(pyr, top, ring, d),
        "meets_exists": lambda d: meets_exists(pyr, top, ring, d),
        "segment": lambda d: segment(pyr, top, d),
    }
    d = NOT_INTEGERS[dart]
    with pytest.raises(KeyError) as got:
        calls[call](d)
    assert type(got.value) is KeyError and got.value.args == (f"dart {d} is not in the base map",)
    # a numpy integer is a dart
    for kind in (np.int32, np.int64):
        assert calls[call](kind(inner)) == calls[call](inner)


LEVEL_CALLS = ["pixel_labels", "reconstruct_level", "state", "composed_of", "region_ids", "infinite_region",
               "contains", "relation_report", "vertex_of_pixel", "meets_each", "meets_exists", "segment",
               "sequence_orientation", "starting_darts", "receptive_field", "cached_orientation", "last_move",
               "inside_all", "inside_direct", "redundant_darts"]


@pytest.mark.parametrize("level", NOT_INTEGERS)
@pytest.mark.parametrize("call", LEVEL_CALLS)
def test_a_level_that_is_not_an_integer_is_out_of_range(call, level):
    # a bool compares as level 0 or 1 and a float indexes no list: each is
    # refused as a level off the pyramid, -1 or top + 1, is, with the same
    # message, and a numpy integer is a level
    arr = np.zeros((5, 5), dtype=np.int64)
    arr[1:4, 1:4] = 1
    arr[2, 2] = 2
    pyr = segment_labels(arr).pyramid
    top = pyr.top_level
    inner, ring = pyr.vertex_of_pixel(top, 2, 2), pyr.vertex_of_pixel(top, 1, 1)
    calls = {
        "pixel_labels": pyr.pixel_labels,
        "reconstruct_level": pyr.reconstruct_level,
        "state": pyr.state,
        "composed_of": lambda i: pyr.composed_of(i, inner),
        "region_ids": lambda i: region_ids(pyr, i),
        "infinite_region": lambda i: infinite_region(pyr, i),
        "contains": lambda i: contains(pyr, i, ring, inner),
        # the report is JSON-ready, its level a plain int
        "relation_report": lambda i: json.dumps(relation_report(pyr, i)),
        "vertex_of_pixel": lambda i: pyr.vertex_of_pixel(i, 2, 2),
        "meets_each": lambda i: meets_each(pyr, i, ring, inner),
        "meets_exists": lambda i: meets_exists(pyr, i, ring, inner),
        "segment": lambda i: segment(pyr, i, inner),
        "sequence_orientation": lambda i: sequence_orientation(pyr, i, [inner], False),
        "starting_darts": lambda i: starting_darts(pyr, i, ring),
        "receptive_field": lambda i: pyr.receptive_field(i, inner),
        "cached_orientation": lambda i: pyr.cached_orientation(i, inner),
        "last_move": lambda i: pyr.last_move(i, inner),
        "inside_all": lambda i: inside_all(pyr, i, ring),
        "inside_direct": lambda i: inside_direct(pyr, i, ring),
        "redundant_darts": pyr.redundant_darts,
    }
    low = 1 if call in ("state", "composed_of") else 0
    for i in (NOT_INTEGERS[level], -1, top + 1):
        with pytest.raises(ValueError) as got:
            calls[call](i)
        assert type(got.value) is ValueError and got.value.args == (f"level {i} out of range {low}..{top}",)
    for kind in (np.int32, np.int64):
        assert calls[call](kind(top)) == calls[call](top)


@pytest.mark.parametrize("coordinate", NOT_INTEGERS)
def test_a_pixel_coordinate_that_is_not_an_integer_is_outside_the_grid(coordinate):
    pyr = Pyramid(5, 4)
    c = NOT_INTEGERS[coordinate]
    for x, y in ((c, 2), (2, c)):
        with pytest.raises(ValueError) as got:
            pyr.vertex_of_pixel(0, x, y)
        assert type(got.value) is ValueError and got.value.args == (f"pixel ({x}, {y}) outside the 5x4 grid",)
    assert pyr.vertex_of_pixel(0, np.int64(3), np.int32(2)) == pyr.vertex_of_pixel(0, 3, 2)


def rkede_checked_build(build):
    """build() with every top it applies a kernel to, and its last top,
    checked: compute_rkede equals the dict walk of the joint links."""
    apply = Pyramid.apply_kernel

    def checked(pyr, kernel):
        assert pyr.compute_rkede().darts == rkede_by_walk(pyr)
        return apply(pyr, kernel)

    with mock.patch.object(Pyramid, "apply_kernel", checked):
        pyr = build()
    assert pyr.compute_rkede().darts == rkede_by_walk(pyr)
    return pyr


def assert_children_equal_the_cycle_walk(pyr: Pyramid) -> None:
    for p in (pyr, Pyramid.from_json(pyr.to_json())):
        kernels = p.kernels
        for i in range(1, p.top_level + 1):
            contracted = kernels[i - 1].darts if p.state(i) is KernelState.CK else frozenset()
            for cyc in p.reconstruct_level(i).vertices():
                assert p.composed_of(i, cyc[0]) == composed_of_by_cycles(p, i, cyc[0], contracted)


@settings(max_examples=60, deadline=None)
@given(seeds, kinds)
def test_rkede_kernels_and_children_equal_the_walk_references(seed, kind):
    # every top of a random build: the pointer-jumping double-edge kernel
    # against the dict walk; every vertex of every level, built and
    # reloaded: its children from the region arrays against the cycle walk
    pyr = rkede_checked_build(lambda: built_pyramid(random.Random(seed), kind))
    assert_children_equal_the_cycle_walk(pyr)


def test_borderless_outside_equals_the_walk_references():
    assert_children_equal_the_cycle_walk(rkede_checked_build(borderless_outside_pyramid))


@pytest.mark.parametrize("rows, island", [
    (["000", "010", "000"], (1, 1)),  # one pixel
    (["0000", "0110", "0000"], (1, 1)),  # a 2x1 block
    (["00000", "01110", "01210", "01110", "00000"], (2, 2)),  # a ring inside a ring
    (["000000", "000000", "000110", "000110", "000000"], (3, 2)),  # off centre
    (["0000000", "0111110", "0100010", "0102010", "0100010", "0111110", "0000000"], (3, 3)),  # a ring around a gap
])
def test_closed_boundary_rings_keep_one_edge(rows, island):
    # the island's boundary is a closed ring of degree-2 corners, from which
    # the maximal double-edge kernel leaves one edge
    labels = np.array([[int(c) for c in row] for row in rows])
    pyr = rkede_checked_build(lambda: segment_labels(labels).pyramid)
    i = pyr.top_level
    assert len(pyr.reconstruct_level(pyr.top_level).orbit(pyr.vertex_of_pixel(i, *island), "sigma")) == 1
    assert_children_equal_the_cycle_walk(pyr)


def test_pixel_labels_agree_with_single_lookups():
    # every level, built and reloaded, against the replay from the base
    rng = random.Random(63)
    for kind in ["random", "ringed", "outside"] * 6:
        pyr = built_pyramid(rng, kind)
        clone = Pyramid.from_json(pyr.to_json())
        emb = pyr.embedding
        for i in range(pyr.top_level + 1):
            ref = replay_pixel_labels(pyr, i)
            for p in (pyr, clone):
                assert p.pixel_labels(i) == ref
                for y in range(emb.height):
                    for x in range(emb.width):
                        assert p.vertex_of_pixel(i, x, y) == ref[y][x]


# -- serialization ------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_json_round_trip_is_exact(seed):
    pyr = random_pyramid(random.Random(seed), max_side=6)
    text = pyr.to_json()
    clone = Pyramid.from_json(text)
    assert clone.to_json() == text
    assert clone.top_level == pyr.top_level
    for i in range(pyr.top_level + 1):
        assert clone.reconstruct_level(i) == pyr.reconstruct_level(i)
    for d in pyr.reconstruct_level(pyr.top_level).darts:
        assert clone.cached_orientation(pyr.top_level, d) == pyr.cached_orientation(pyr.top_level, d)


def test_json_rejects_garbage():
    with pytest.raises(ValueError):
        Pyramid.from_json('{"format": "something-else"}')


def assert_top_down_maps_equal_bottom_up(pyr: Pyramid) -> None:
    """Reload pyr twice and build the level maps of one clone from the top
    down, through last_move at the top first, and of the other from the
    bottom up: each map must come out the same whichever is built first."""
    text = pyr.to_json()
    down, up = Pyramid.from_json(text), Pyramid.from_json(text)
    top = pyr.top_level
    for d in pyr._levels[-1].order.tolist():
        down.last_move(top, d)
    expected = [up.reconstruct_level(i) for i in range(top + 1)]
    for i in range(top, -1, -1):
        m = down.reconstruct_level(i)
        assert m == expected[i] and validate(m).ok


@settings(max_examples=60, deadline=None)
@given(seeds, kinds)
def test_level_maps_built_from_the_top_down_equal_those_built_up(seed, kind):
    assert_top_down_maps_equal_bottom_up(built_pyramid(random.Random(seed), kind))


def test_level_maps_built_from_the_top_down_after_double_edge_removals():
    # the staircase raster removes double edges at level 3 and contracts
    # edges at level 4, so the level-4 map is built before the level-3 one
    pyr = SegmentedImage(staircase_raster()).run(12.0).pyramid
    assert pyr.state(3) is KernelState.RKEDE and pyr.state(4) is KernelState.CK
    assert_top_down_maps_equal_bottom_up(pyr)


def assert_maps_hold_no_alpha_off_their_darts(pyr: Pyramid) -> None:
    """Build the level maps of two reloads of pyr, one from the bottom up and
    one from the top down: alpha raises KeyError at every base dart not in
    the map."""
    text = pyr.to_json()
    base = pyr.base._order.tolist()
    for levels in (range(pyr.top_level + 1), range(pyr.top_level, -1, -1)):
        clone = Pyramid.from_json(text)
        for i in levels:
            m = clone.reconstruct_level(i)
            for d in base:
                if d not in m:
                    with pytest.raises(KeyError):
                        m.alpha(d)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=20, deadline=None)
@given(seeds)
def test_level_maps_hold_no_alpha_off_their_darts(kind, seed):
    assert_maps_hold_no_alpha_off_their_darts(built_pyramid(random.Random(seed), kind))


def test_staircase_level_maps_hold_no_alpha_off_their_darts():
    assert_maps_hold_no_alpha_off_their_darts(SegmentedImage(staircase_raster()).run(12.0).pyramid)


def assert_plain(value, *leaves) -> None:
    """value is made of lists, tuples, frozensets and dicts with str keys,
    down to leaves whose type is exactly one of leaves: no numpy scalar, no
    bool standing for an int."""
    if type(value) in (list, tuple, frozenset):
        for x in value:
            assert_plain(x, *leaves)
    elif type(value) is dict:
        for key, x in value.items():
            assert type(key) is str
            assert_plain(x, *leaves)
    else:
        assert type(value) in leaves, f"{value!r} is a {type(value).__name__}"


# a frame around three nested squares, and a corner region on the frame: 6
# regions with the outside, 6 contains pairs
NESTED_LABELS = np.zeros((12, 12), dtype=np.int64)
NESTED_LABELS[2:10, 2:10] = 1
NESTED_LABELS[4:8, 4:8] = 2
NESTED_LABELS[5:7, 5:7] = 3
NESTED_LABELS[11, 10:] = 4


@pytest.mark.parametrize("reload", [False, True])
def test_queries_and_the_report_hand_out_plain_python_values(reload):
    # darts are ints and answers bools, however the dart was given: JSON
    # output and repr would change with a numpy scalar
    pyr = segment_labels(NESTED_LABELS).pyramid
    if reload:
        pyr = Pyramid.from_json(pyr.to_json())
    top = pyr.top_level
    regions = region_ids(pyr, top)
    assert len(regions) == 6
    enclosing = [r for r in regions if inside_all(pyr, top, r)]
    assert len(enclosing) == 3
    values = {
        "region_ids": regions,
        "infinite_region": infinite_region(pyr, top),
        "level": [pyr.level(d) for d in pyr._levels[0].order[::7].tolist()],
        "pixel_labels": pyr.pixel_labels(top),
        "vertex_of_pixel": [pyr.vertex_of_pixel(top, x, y) for x, y in ((0, 0), (5, 5), (np.int64(2), 2))],
        "rag_export": rag_export(pyr, top),
        "relation_report": relation_report(pyr, top),
        "filtered_report": relation_report(pyr, top, np.int64(enclosing[1])),
        "composed_of": [pyr.composed_of(i, d) for i in range(1, top + 1) for d in region_ids(pyr, i)],
    }
    for r in regions + [np.int64(r) for r in regions]:
        values[f"inside_all({r!r})"] = inside_all(pyr, top, r)
        values[f"inside_direct({r!r})"] = inside_direct(pyr, top, r)
        values[f"starting_darts({r!r})"] = starting_darts(pyr, top, r)
    for key, value in values.items():
        if "report" in key:  # its warnings are strs
            assert_plain(value, int, str)
        else:
            assert_plain(value, int)
    answers = [contains(pyr, top, a, b) for a in regions for b in regions]
    assert answers.count(True) == 6
    for a in regions:
        for b in [b for b in regions if b != a]:
            answers.append(meets_exists(pyr, top, a, np.int64(b)))
            if answers[-1]:
                pieces = meets_each(pyr, top, np.int64(a), b)
                assert pieces
                assert_plain([piece.darts for piece in pieces], int)
    assert_plain(answers, bool)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_the_dart_levels_read_one_at_a_time_follow_every_apply(width, height, data):
    # level() reads a view of the array of dart levels that kernels reads
    # whole: after every apply of a build, and in the reloaded record, both
    # give each dart of the base, either sign, the same level
    cells = data.draw(st.lists(st.integers(0, 2), min_size=width * height, max_size=width * height))
    labels = np.array(cells).reshape(height, width)

    def assert_levels_agree(pyr: Pyramid) -> None:
        want = dict.fromkeys(pyr._levels[0].order.tolist(), pyr.top_level + 1)
        for k, kernel in enumerate(pyr.kernels, start=1):
            want.update(dict.fromkeys(kernel.order.tolist(), k))
        assert {d: pyr.level(d) for d in want} == want
        # _checked reads the view on its own, without level()
        alive = {}
        for d in want:
            try:
                alive[d] = pyr._checked(pyr.top_level, d) is pyr._levels[-1]
            except ValueError:
                alive[d] = False
        assert alive == {d: k > pyr.top_level for d, k in want.items()}

    apply, applied = Pyramid.apply_kernel, []

    def checked(pyr, kernel):
        out = apply(pyr, kernel)
        assert_levels_agree(pyr)
        applied.append(kernel)
        return out

    with mock.patch.object(Pyramid, "apply_kernel", checked):
        pyr = segment_labels(labels).pyramid
    assert len(applied) == pyr.top_level
    assert_levels_agree(Pyramid.from_json(pyr.to_json()))


@pytest.mark.parametrize("duplicate", [copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))])
def test_a_copied_pyramid_reads_its_own_dart_levels(duplicate):
    # the copy holds its own buffer of dart levels, equal to the original's,
    # so the copy's applies do not show in the original
    built = Pyramid(2, 1)
    twin = duplicate(built)
    assert twin._died is not built._died
    assert twin.to_json() == built.to_json() and twin.kernels == built.kernels
    twin.apply_kernel(Kernel(KernelState.CK, [2, -2]))
    assert (twin.level(2), twin.level(1)) == (1, 2)
    assert (built.level(2), built.level(1)) == (1, 1)


@pytest.mark.parametrize("duplicate", [copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))])
@pytest.mark.parametrize("reload", [False, True])
def test_a_copy_of_a_pyramid_with_levels_has_its_record(duplicate, reload):
    pyr = segment_labels(NESTED_LABELS).pyramid
    if reload:
        pyr = Pyramid.from_json(pyr.to_json())
    twin = duplicate(pyr)
    assert twin._died is not pyr._died
    assert twin.to_json() == pyr.to_json() and twin.kernels == pyr.kernels
    assert relation_report(twin, twin.top_level) == relation_report(pyr, pyr.top_level)
