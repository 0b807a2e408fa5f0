import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combipyramid.map_core import CombinatorialMap, dart_sort_key, validate
from combipyramid.pyramid import Kernel, KernelError, KernelState, Pyramid, _cycle_min, _empty_loops
from combipyramid.segmentation import segment_labels

from conftest import random_pyramid, ringed_labels
from eager_oracle import DictTop, eager_levels, empty_self_loops, sorted_sweep_loops

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def rotate_min(cycle):
    k = cycle.index(min(cycle, key=lambda d: (abs(d), d < 0)))
    return cycle[k:] + cycle[:k]


# -- contraction ----------------------------------------------------------------


def test_contract_shared_edge_of_two_pixels():
    # 2x1 grid: pixels (2,4,-1,-6) and (3,5,-2,-7); shared crack carries {2,-2}
    pyr = Pyramid.from_grid(2, 1)
    pyr.apply_kernel(Kernel.of(KernelState.CK, [2, -2]))
    m1 = pyr.reconstruct_level(1)
    merged = rotate_min(m1.orbit(4, "sigma"))
    # both pixel cycles welded at the dead edge, orientation preserved
    assert merged == (-1, -6, -7, 3, 5, 4)
    assert len(m1.vertices()) == 2
    assert validate(m1).ok
    assert m1.alpha(4) == -4


def test_empty_kernel_only_adds_a_level():
    pyr = Pyramid.from_grid(2, 2)
    base = pyr.reconstruct_level(0)
    pyr.apply_kernel(Kernel.of(KernelState.CK, []))
    assert pyr.top_level == 1
    m1 = pyr.reconstruct_level(1)
    assert m1 == base


def test_kernel_rejections():
    pyr = Pyramid.from_grid(2, 1)
    with pytest.raises(KernelError, match="alpha"):
        pyr.apply_kernel(Kernel.of(KernelState.CK, [2]))
    with pytest.raises(KernelError, match="cycle"):
        # the two edges between one pixel pair close a cycle only if repeated;
        # use a genuine cycle: all four sides of pixel A against the outside
        pyr2 = Pyramid.from_grid(1, 1)
        pyr2.apply_kernel(Kernel.of(KernelState.CK, [1, -1, 2, -2, 3, -3]))
    pyr.apply_kernel(Kernel.of(KernelState.CK, [2, -2]))
    with pytest.raises(KernelError, match="dead"):
        pyr.apply_kernel(Kernel.of(KernelState.CK, [2, -2]))
    # after full merge the leftover edges of a contracted ring are self loops
    pyr3 = Pyramid.from_grid(2, 2)
    pyr3.apply_kernel(Kernel.of(KernelState.CK, [2, -2, 9, -9, 5, -5]))
    with pytest.raises(KernelError, match="self-loop"):
        pyr3.apply_kernel(Kernel.of(KernelState.CK, [10, -10]))


@pytest.mark.parametrize("state", list(KernelState))
def test_unknown_darts_are_rejected_before_any_array_read(state):
    # the top arrays have 2n+1 entries indexed by signed dart: n+1 would
    # alias -n, and 2**31 does not fit int32
    pyr = Pyramid.from_grid(3, 2)
    n = len(pyr.base) // 2
    before = pyr.to_json()
    for d in (0, n + 1, -(n + 1), 2 * n, 2**31, 2**40, -2**63):
        with pytest.raises(KernelError, match=rf"^kernel contains dead or unknown darts: \[{d}\]$"):
            pyr.apply_kernel(Kernel.of(state, [d]))
        with pytest.raises(KernelError, match=r"^kernel contains dead or unknown darts: "):
            pyr.apply_kernel(Kernel.of(state, [1, -1, d]))
    assert pyr.to_json() == before


def test_contraction_of_the_whole_map_is_rejected():
    # a 1x1 grid cleaned by RKEDE keeps one edge between the pixel and the
    # outside; contracting it would leave a level with no darts
    pyr = Pyramid.from_grid(1, 1)
    pyr.apply_kernel(pyr.compute_rkede())
    assert pyr.top_map().darts == {1, -4}
    with pytest.raises(KernelError, match="every dart"):
        pyr.apply_kernel(Kernel.of(KernelState.CK, [1, -4]))
    assert pyr.top_level == 1


@settings(max_examples=300, deadline=None)
@given(seeds, st.sampled_from(list(KernelState)), st.booleans(), st.data())
def test_random_kernel_is_rejected_or_yields_the_eager_level(seed, state, closed, data):
    # any dart subset of a random top, raw or closed under alpha, under any
    # state: apply_kernel rejects it untouched or derives a valid level
    pyr = random_pyramid(random.Random(seed), max_side=5)
    top = pyr.top_map()
    darts = data.draw(st.sets(st.sampled_from(sorted(top.darts, key=dart_sort_key))))
    if closed:
        darts |= {top.alpha(d) for d in darts}
    before = pyr.to_json()
    try:
        pyr.apply_kernel(Kernel.of(state, darts))
    except KernelError:
        assert pyr.to_json() == before
        return
    level = pyr.top_map()
    assert validate(level).ok
    assert level == eager_levels(pyr)[-1]
    text = pyr.to_json()
    assert Pyramid.from_json(text).to_json() == text


@settings(max_examples=300, deadline=None)
@given(seeds, st.sampled_from([KernelState.RKESL, KernelState.RKEDE]), st.data())
def test_partial_removal_kernel_is_rejected_or_yields_the_eager_level(seed, state, data):
    # a subset of the top's own empty self loops, closed under alpha, or of
    # its joints once the loops are gone, closed under their phi pairs:
    # rejected untouched or a valid level
    pyr = random_pyramid(random.Random(seed), max_side=5)
    if state is KernelState.RKEDE and pyr.compute_rkesl().darts:
        pyr.apply_kernel(pyr.compute_rkesl())
    top = pyr.top_map()
    full, mate = {
        KernelState.RKESL: (pyr.compute_rkesl().darts, top.alpha),
        KernelState.RKEDE: (pyr.compute_rkede().darts, top.phi),
    }[state]
    pairs = sorted({min(d, mate(d), key=dart_sort_key) for d in full}, key=dart_sort_key)
    chosen = data.draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    darts = chosen | {mate(d) for d in chosen}
    before = pyr.to_json()
    try:
        pyr.apply_kernel(Kernel.of(state, darts))
    except KernelError:
        assert pyr.to_json() == before
        return
    level = pyr.top_map()
    assert validate(level).ok
    assert level == eager_levels(pyr)[-1]
    text = pyr.to_json()
    assert Pyramid.from_json(text).to_json() == text


def test_rkede_requires_loops_gone():
    pyr = Pyramid.from_grid(2, 2)
    pyr.apply_kernel(Kernel.of(KernelState.CK, [2, -2, 9, -9, 5, -5]))
    assert sorted(pyr.compute_rkesl().darts, key=abs) == [10, -10]
    with pytest.raises(KernelError, match="self loops"):
        pyr.apply_kernel(pyr.compute_rkede())


def test_rkesl_rejects_non_loops():
    pyr = Pyramid.from_grid(2, 1)
    with pytest.raises(KernelError, match="empty self loop"):
        pyr.apply_kernel(Kernel.of(KernelState.RKESL, [2, -2]))


def test_rkede_rejects_half_joints_and_degree():
    # each rejection leaves the pyramid as it was; a joint whose darts start
    # at two grid corners is not built: faces that span corners only occur
    # while empty self loops remain, and those reject a double-edge kernel
    pyr = Pyramid.from_grid(2, 2)
    before = pyr.to_json()
    for darts, match in [
        ([8], "half removed"),  # joint partner -3 missing
        ([9, -9], "degree-2"),  # interior corner, degree 4
        ([8, -3, 9, -9], "degree-2"),  # a whole joint with a non-joint
    ]:
        with pytest.raises(KernelError, match=match):
            pyr.apply_kernel(Kernel.of(KernelState.RKEDE, darts))
        assert pyr.to_json() == before
    pyr = Pyramid.from_grid(1, 1)
    pyr.apply_kernel(pyr.compute_rkede())
    before = pyr.to_json()
    with pytest.raises(KernelError, match="degree-2"):  # one edge left: a single-edge boundary
        pyr.apply_kernel(Kernel.of(KernelState.RKEDE, [1, -4]))
    assert pyr.to_json() == before


@pytest.mark.parametrize("contract", [False, True])
def test_removal_kernel_that_consumes_a_vertex_is_rejected(contract):
    # 1x1 grid: all eight darts are corner joints; with the pixel contracted
    # into the outside, the three edges left are empty self loops
    pyr = Pyramid.from_grid(1, 1)
    if contract:
        pyr.apply_kernel(Kernel.of(KernelState.CK, [1, -1]))
    darts = pyr.top_map().darts
    assert pyr.redundant_darts(pyr.top_level) == darts
    kernel = Kernel.of(KernelState.RKESL if contract else KernelState.RKEDE, darts)
    before = pyr.to_json()
    with pytest.raises(KernelError, match="every dart of the vertex"):
        pyr.apply_kernel(kernel)
    assert pyr.to_json() == before


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_stored_top_partition_is_the_vertex_map(seed):
    # checked after every kernel a random build or its reload applies
    apply = Pyramid.apply_kernel
    applied = []

    def checked(pyr, kernel):
        apply(pyr, kernel)
        top = pyr.top_map()
        assert {d: pyr._top_vertex[d] for d in top.darts} == top.vertex_ids()
        assert pyr._top_order.tolist() == sorted(top.darts, key=dart_sort_key)
        applied.append(kernel)
        return pyr

    with mock.patch.object(Pyramid, "apply_kernel", checked):
        pyr = random_pyramid(random.Random(seed), max_side=6)
        Pyramid.from_json(pyr.to_json())
    assert len(applied) == 2 * pyr.top_level
    base = Pyramid.from_grid(pyr.embedding.width, pyr.embedding.height)
    assert {d: base._top_vertex[d] for d in base.base.darts} == base.top_map().vertex_ids()


def random_kernels(rng: random.Random, pyr: Pyramid) -> list[Kernel]:
    """Kernels to try on the top: a random dart subset under every state,
    raw and closed under alpha, and random halves of the top's maximal
    removal kernels, closed under their alpha or phi pairs."""
    top = pyr.top_map()
    darts = sorted(top.darts, key=dart_sort_key)
    out = []
    for state in KernelState:
        raw = {d for d in darts if rng.random() < 0.3}
        out += [Kernel.of(state, raw), Kernel.of(state, raw | {top.alpha(d) for d in raw})]
    for full, mate, state in ((pyr.compute_rkesl().darts, top.alpha, KernelState.RKESL),
                              (pyr.compute_rkede().darts, top.phi, KernelState.RKEDE)):
        half = {d for d in full if rng.random() < 0.5}
        out.append(Kernel.of(state, half | {mate(d) for d in half}))
    return out


@settings(max_examples=40, deadline=None)
@given(seeds, st.booleans())
def test_array_derivation_equals_the_dict_reference(seed, ringed):
    # every kernel a random build applies, and random kernels on each of its
    # tops: the same KernelError message, or the same level and top facts
    # as the loop-by-dart derivation of eager_oracle.DictTop
    apply = Pyramid.apply_kernel
    rng = random.Random(seed)

    def same_top(pyr, ref):
        assert pyr.top_map() == ref.m
        assert {d: pyr._top_vertex[d] for d in ref.m.darts} == ref.vertex
        assert pyr._top_loops == ref.loops
        assert pyr._top_joints == ref.joints

    def checked(pyr, kernel):
        ref = DictTop.of(pyr)
        same_top(pyr, ref)
        try:
            nxt, updates = ref.apply(kernel)
        except KernelError as exc:
            before = pyr.to_json()
            with pytest.raises(KernelError) as got:
                apply(pyr, kernel)
            assert str(got.value) == str(exc)
            assert pyr.to_json() == before
            return pyr
        apply(pyr, kernel)
        same_top(pyr, nxt)
        assert pyr._or_updates[-1] == updates
        return pyr

    with mock.patch.object(Pyramid, "apply_kernel", checked):
        if ringed:
            pyr = segment_labels(ringed_labels(rng, rng.randint(3, 10), rng.randint(3, 10))).pyramid
        else:
            pyr = random_pyramid(rng, max_side=6)
        for i in range(pyr.top_level + 1):
            # replay up to level i, then try random kernels on that top
            prefix = Pyramid.from_grid(pyr.embedding.width, pyr.embedding.height)
            for kernel in pyr.kernels[:i]:
                prefix.apply_kernel(kernel)
            for kernel in random_kernels(rng, prefix):
                trial = Pyramid.from_json(prefix.to_json())
                trial.apply_kernel(kernel)


# -- removal kernels -------------------------------------------------------------


def test_rkesl_on_maps_without_pendant_faces_is_empty():
    pyr = Pyramid.from_grid(3, 3)
    assert pyr.compute_rkesl().darts == frozenset()


def test_contracting_a_pixel_ring_leaves_one_empty_loop():
    # contract a spanning tree of the 2x2 block; the fourth interior edge
    # becomes a self loop around nothing
    pyr = Pyramid.from_grid(2, 2)
    pyr.apply_kernel(Kernel.of(KernelState.CK, [2, -2, 9, -9, 5, -5]))
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
    # the array pass, over the darts' positions in dart_sort_key order
    order = sorted(m.darts, key=dart_sort_key)
    pos = {d: k for k, d in enumerate(order)}
    step = np.array([pos[sigma[d]] for d in order])
    mate = np.array([pos[alpha[d]] for d in order])
    loops = _empty_loops(step, mate, _cycle_min(step))
    assert {d for d, marked in zip(order, loops) if marked} == {t, -t, u, -u}


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
    pyr = Pyramid.from_grid(3, 3)
    kernel = pyr.compute_rkede()
    assert len(kernel.darts) == 8  # one joint of two darts per image corner
    starts = {pyr.embedding.start(d) for d in kernel.darts}
    assert starts == {(0, 0), (3, 0), (0, 3), (3, 3)}
    pyr.apply_kernel(kernel)
    assert validate(pyr.top_map()).ok


def test_level_bounds_and_bad_vertex_errors():
    pyr = Pyramid.from_grid(2, 1)
    with pytest.raises(ValueError, match="range"):
        pyr.reconstruct_level(1)
    with pytest.raises(ValueError, match="range"):
        pyr.receptive_field(-1, 4)
    pyr.apply_kernel(Kernel.of(KernelState.CK, [2, -2]))
    with pytest.raises(ValueError, match="survive"):
        pyr.composed_of(1, 2)


def test_rkede_empty_on_interior_only_candidates():
    # straight-line boundaries with live junctions leave nothing to remove
    pyr = Pyramid.from_grid(2, 2)
    pyr.apply_kernel(Kernel.of(KernelState.CK, [2, -2]))
    pyr.apply_kernel(pyr.compute_rkede())
    assert pyr.compute_rkede().darts == frozenset()  # idempotent


def test_rkede_merges_split_boundary():
    # merging the top two pixels splits the merged region's border into
    # chains of double edges; one surviving dart per direction remains
    pyr = Pyramid.from_grid(2, 2)
    pyr.apply_kernel(Kernel.of(KernelState.CK, [2, -2]))
    kernel = pyr.compute_rkede()
    assert sorted(kernel.darts, key=lambda d: (abs(d), d < 0)) == [-1, -3, 4, 6, 7, -7, 8, -8, -11, 12]
    pyr.apply_kernel(kernel)
    m2 = pyr.reconstruct_level(2)
    assert m2.alpha(1) == 3 and m2.alpha(3) == 1  # repaired pairing
    assert m2.sigma(1) == -6 and m2.sigma(3) == -9
    assert validate(m2).ok
    assert not pyr.redundant_darts(2)


def test_full_reduction_of_two_by_one():
    pyr = Pyramid.from_grid(2, 1)
    pyr.apply_kernel(Kernel.of(KernelState.CK, [2, -2]))
    pyr.apply_kernel(pyr.compute_rkede())
    m2 = pyr.reconstruct_level(2)
    assert sorted(m2.darts, key=abs) == [1, -6]
    assert m2.alpha(1) == -6 and m2.sigma(1) == 1
    assert validate(m2).ok


# -- receptive fields --------------------------------------------------------------


def test_level_zero_receptive_field_is_singleton():
    pyr = Pyramid.from_grid(2, 1)
    assert pyr.receptive_field(0, 4) == (4,)


def test_receptive_field_contains_contracted_darts():
    pyr = Pyramid.from_grid(2, 1)
    pyr.apply_kernel(Kernel.of(KernelState.CK, [2, -2]))
    assert pyr.receptive_field(1, -6) == (-6, 2)
    assert pyr.receptive_field(1, 5) == (5, -2)
    assert pyr.reconstruct_level(1).sigma(-6) == -7


def test_receptive_field_rejects_dead_darts():
    pyr = Pyramid.from_grid(2, 1)
    pyr.apply_kernel(Kernel.of(KernelState.CK, [2, -2]))
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
    pyr = Pyramid.from_grid(2, 2)
    pyr.apply_kernel(Kernel.of(KernelState.CK, [2, -2]))
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
    pyr = Pyramid.from_grid(2, 1)
    pyr.apply_kernel(Kernel.of(KernelState.CK, [2, -2]))
    m0, m1 = pyr.reconstruct_level(0), pyr.reconstruct_level(1)
    merged = m1.vertex_of(4)
    children = pyr.composed_of(1, merged)
    assert children == {m0.vertex_of(2), m0.vertex_of(3)}  # the two pixels
    outside = m1.vertex_of(1)
    assert pyr.composed_of(1, outside) == {m0.vertex_of(1)}
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
    pyr = Pyramid.from_grid(3, 3)
    m0 = pyr.base
    center = m0.orbit(pyr.vertex_of_pixel(0, 1, 1), "sigma")
    kernel = []
    for d in center:
        kernel.extend((d, -d))
    pyr.apply_kernel(Kernel.of(KernelState.CK, kernel))
    m1 = pyr.reconstruct_level(1)
    assert all(d not in m1.darts for d in center)
    merged = pyr.vertex_of_pixel(1, 1, 1)
    assert m0.vertex_of(center[0]) in pyr.composed_of(1, merged)


def test_pixel_labels_agree_with_single_lookups():
    rng = random.Random(63)
    for _ in range(6):
        pyr = random_pyramid(rng, max_side=5)
        emb = pyr.embedding
        for i in (0, pyr.top_level):
            rows = pyr.pixel_labels(i)
            for y in range(emb.height):
                for x in range(emb.width):
                    assert rows[y][x] == pyr.vertex_of_pixel(i, x, y)


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
    for d in pyr.top_map().darts:
        assert clone.cached_orientation(pyr.top_level, d) == pyr.cached_orientation(pyr.top_level, d)


def test_json_rejects_garbage():
    with pytest.raises(ValueError):
        Pyramid.from_json('{"format": "something-else"}')
