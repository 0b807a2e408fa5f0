import random
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combipyramid.map_core import (
    CombinatorialMap,
    CrackEmbedding,
    _validate_arrays,
    build_grid_map,
    dart_order,
    dart_sort_key,
    to_dot,
    validate,
)
from combipyramid.moves import Move
from combipyramid.pyramid import Kernel, KernelState, Pyramid
from combipyramid.segmentation import segment_labels

from conftest import built_pyramid, kinds, ringed_labels
from eager_oracle import grid_map_by_pixels, validate_dicts, vertex_of


def grid_dart_count(w, h):
    return 2 * (w * (h + 1) + (w + 1) * h)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-(2**30), 2**30).filter(bool), max_size=50))
def test_dart_sort_key_of_an_array_is_the_scalar_rank(darts):
    arr = np.array(darts, dtype=np.int32)
    assert dart_sort_key(arr).tolist() == [dart_sort_key(d) for d in darts]
    assert sorted(darts, key=dart_sort_key) == sorted(darts, key=lambda d: (abs(d), d < 0))
    assert arr[np.argsort(dart_sort_key(arr), kind="stable")].tolist() == sorted(darts, key=dart_sort_key)


def test_rejects_bad_dimensions():
    for w, h in ((0, 3), (3, 0), (-1, 2)):
        with pytest.raises(ValueError):
            build_grid_map(w, h)
    # 3.0 and True hash as 3 and 1 do: each is rejected even while the
    # grid of the size it hashes as is cached
    for w, h in ((3.0, 3), (3, 3.0), (True, 3), (3, True)):
        build_grid_map(int(w), int(h))
        for build in (build_grid_map, Pyramid.from_grid):
            with pytest.raises(ValueError, match=re.escape(repr(h if type(w) is int else w))):
                build(w, h)


def test_numpy_integer_dimensions_give_the_int_grid():
    m, emb = build_grid_map(np.int64(3), np.int32(2))
    assert type(emb.width) is int and type(emb.height) is int
    assert (m, emb) == build_grid_map(3, 2)


@pytest.mark.parametrize("w,h", [(1, 1), (1, 4), (5, 1), (3, 3), (7, 4)])
def test_closed_form_equals_the_pixel_loop(w, h):
    m, emb = build_grid_map(w, h)
    assert m == grid_map_by_pixels(w, h)
    darts = dart_order(emb.n_darts // 2)
    assert [Move(v) for v in emb.moves(darts)] == [emb.move(d) for d in darts.tolist()]
    assert [(int(c) % (w + 1), int(c) // (w + 1)) for c in emb.corners(darts)] == [
        emb.start(d) for d in darts.tolist()
    ]


def test_grid_too_large_for_int32_darts_is_rejected():
    # checked before any array is allocated
    with pytest.raises(ValueError, match="too many darts"):
        CrackEmbedding(2**15, 2**15).grid_sigma()


def test_single_pixel_grid():
    m, emb = build_grid_map(1, 1)
    assert len(m) == 8
    # pixel cycle: right side up, top left, left down, bottom right
    assert m.orbit(2, "sigma") == (2, 3, -1, -4)
    assert m.orbit(1, "sigma") == (1, -3, -2, 4)  # outside vertex, clockwise
    assert all(len(f) == 2 for f in m.faces())
    assert validate(m).ok


def test_two_by_one_dart_count():
    # 4 horizontal + 3 vertical cracks, two darts each
    m, _ = build_grid_map(2, 1)
    assert len(m) == 14 == grid_dart_count(2, 1)


def test_three_by_three_structure():
    m, _ = build_grid_map(3, 3)
    assert len(m) == 48
    top_left_pixel = m.orbit(2, "sigma")
    assert len(top_left_pixel) == 4
    assert top_left_pixel == (2, 13, -1, -16)
    top_left_corner = m.orbit(-1, "phi")
    assert top_left_corner == (-1, -13)
    # 4 image corners, 8 border corners, 4 interior corners
    assert Counter(len(f) for f in m.faces()) == {2: 4, 3: 8, 4: 4}
    assert len(m.vertices()) == 10
    assert validate(m).ok


def test_every_pixel_cycle_has_length_four():
    m, emb = build_grid_map(4, 3)
    pixel_cycles = [c for c in m.vertices() if emb.pixel_of(c[0]) is not None]
    assert len(pixel_cycles) == 12
    assert all(len(c) == 4 for c in pixel_cycles)
    lengths = Counter(len(f) for f in m.faces())
    # corners: 4 of degree 2; border corners 2*(4-1)+2*(3-1)=10 of degree 3; interior (4-1)*(3-1)=6 of degree 4
    assert lengths == {2: 4, 3: 10, 4: 6}


def test_pixel_dart_is_the_canonical_dart_of_the_pixel_vertex():
    m, emb = build_grid_map(4, 3)
    for y in range(3):
        for x in range(4):
            d = emb.pixel_dart(x, y)
            assert vertex_of(m, d) == d and emb.pixel_of(d) == (x, y)


def test_pixel_of_names_the_pixel_of_every_dart_of_its_cycle():
    for w, h in ((1, 1), (4, 3), (2, 5)):
        m, emb = build_grid_map(w, h)
        for y in range(h):
            for x in range(w):
                assert {emb.pixel_of(d) for d in m.orbit(emb.pixel_dart(x, y), "sigma")} == {(x, y)}
        assert {emb.pixel_of(d) for d in m.orbit(1, "sigma")} == {None}


@pytest.mark.parametrize("d", [0, 18, -18, 10**6, -(10**6)])
def test_pixel_of_rejects_darts_outside_the_base_map(d):
    emb = CrackEmbedding(3, 2)
    assert emb.n_darts == 34
    with pytest.raises(KeyError, match=f"dart {d} is not in the base map"):
        emb.pixel_of(d)


def test_alpha_orbit_is_the_edge_pair():
    m, _ = build_grid_map(2, 2)
    for d in (1, -5, 9):
        assert m.orbit(d, "alpha") == (d, -d)


def test_orbit_unknown_dart():
    m, _ = build_grid_map(1, 1)
    with pytest.raises(KeyError):
        m.orbit(99, "sigma")


def test_orbit_never_longer_than_dart_count():
    m, _ = build_grid_map(3, 2)
    for d in m.darts:
        for kind in ("sigma", "alpha", "phi"):
            assert len(m.orbit(d, kind)) <= len(m)


def test_dual_swaps_faces_and_vertices():
    m, _ = build_grid_map(1, 1)
    dm = m.dual()
    assert sorted(dm.vertices()) == sorted(m.faces())
    assert sorted(dm.faces()) == sorted(m.vertices())
    assert validate(dm).ok


def test_dual_is_an_involution():
    m, _ = build_grid_map(3, 3)
    assert m.dual().dual() == m


def test_dual_corner_degree():
    m, _ = build_grid_map(3, 3)
    dm = m.dual()
    assert len(dm.orbit(-1, "sigma")) == 2  # image corner seen as a dual vertex


def test_grid_embedding_geometry():
    m, emb = build_grid_map(2, 1)
    assert emb.move(1) is Move.UP and emb.move(-1) is Move.DOWN
    assert emb.move(4) is Move.LEFT and emb.move(-4) is Move.RIGHT
    assert emb.start(1) == (0, 1) and emb.end(1) == (0, 0)
    # the two darts of a crack oppose each other
    for d in m.darts:
        assert emb.move(-d) == emb.move(d).opposite
        assert emb.end(-d) == emb.start(d)
        (x, y), (dx, dy) = emb.start(d), emb.move(d).delta
        assert emb.end(d) == (x + dx, y + dy)
    # consecutive sigma darts of a pixel chain counter-clockwise
    for cyc in m.vertices():
        if emb.pixel_of(cyc[0]) is None:
            continue
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            assert emb.end(a) == emb.start(b)


def test_validate_flags_alpha_fixed_point():
    m, _ = build_grid_map(1, 1)
    alpha = {d: (d if abs(d) == 1 else -d) for d in m.darts}
    bad = CombinatorialMap(m.darts, {d: m.sigma(d) for d in m.darts}, alpha)
    report = validate(bad)
    assert not report.ok
    assert "alpha_involution" in report.failed() or "alpha_no_fixed_point" in report.failed()
    named = {name: w for name, ok, w in report.checks if not ok and w is not None}
    assert named  # a witness dart is reported


def test_validate_flags_disconnected_union():
    a, _ = build_grid_map(1, 1)
    shift = 100
    darts = list(a.darts) + [d + shift if d > 0 else d - shift for d in a.darts]
    sigma = {d: a.sigma(d) for d in a.darts}
    alpha = {d: -d for d in a.darts}
    for d in a.darts:
        s = d + shift if d > 0 else d - shift
        t = a.sigma(d)
        sigma[s] = t + shift if t > 0 else t - shift
        alpha[s] = -s
    bad = CombinatorialMap(darts, sigma, alpha)
    report = validate(bad)
    assert not report.ok
    assert "connected" in report.failed()


def test_validate_flags_broken_sigma():
    m, _ = build_grid_map(1, 1)
    sigma = {d: m.sigma(d) for d in m.darts}
    sigma[2] = sigma[-1]  # two darts with the same successor
    report = validate(CombinatorialMap(m.darts, sigma, {d: -d for d in m.darts}))
    assert not report.ok
    assert "sigma_bijection" in report.failed()


def test_dot_export_is_deterministic():
    m, _ = build_grid_map(2, 1)
    text = to_dot(m)
    assert text == to_dot(m)
    assert text.startswith("graph map {")
    assert text.count("--") == len(m.edges())


# -- list-backed maps: darts outside the map and malformed input ----------------


def dict_answer(fn):
    """fn() or KeyError, as the dict-era map answered."""
    try:
        return fn()
    except KeyError:
        return KeyError


def small_maps():
    """A grid map, a dict-built map and a pyramid level that lost darts,
    each with a dart that died at a lower level."""
    base, _ = build_grid_map(3, 2)
    pyr = Pyramid.from_grid(3, 2)
    pyr.apply_kernel(Kernel.of(KernelState.CK, [2, -2, 5, -5]))
    level = pyr.reconstruct_level(1)
    built = CombinatorialMap(level.darts, {d: level.sigma(d) for d in level.darts},
                             {d: level.alpha(d) for d in level.darts})
    return [(base, None), (level, 2), (built, 5)]


@pytest.mark.parametrize("which", ["zero", "n+1", "-(n+1)", "2**31", "-2**63", "dead", "np.int32"])
def test_darts_outside_the_map_never_read_a_wrapped_slot(which):
    for m, dead in small_maps():
        n = max(abs(d) for d in m.darts)
        d = {"zero": 0, "n+1": n + 1, "-(n+1)": -(n + 1), "2**31": 2**31, "-2**63": -2**63, "dead": dead,
             "np.int32": np.int32(-n)}[which]
        if d is None:
            continue
        darts = frozenset(m.darts)
        sigma = {e: m.sigma(e) for e in darts}
        alpha = {e: m.alpha(e) for e in darts}
        assert (d in m) == (d in darts)
        assert dict_answer(lambda: m.sigma(d)) == dict_answer(lambda: sigma[d])
        assert dict_answer(lambda: m.alpha(d)) == dict_answer(lambda: alpha[d])
        assert dict_answer(lambda: m.phi(d)) == dict_answer(lambda: sigma[alpha[d]])
        for kind, step in (("sigma", sigma.get), ("alpha", alpha.get), ("phi", lambda e: sigma[alpha[e]])):
            if d in darts:
                cycle, c = [d], step(d)
                while c != d:
                    cycle.append(c)
                    c = step(c)
                assert m.orbit(d, kind) == tuple(cycle)
            else:
                with pytest.raises(KeyError):
                    m.orbit(d, kind)


def test_unrepresentable_dict_maps_are_rejected():
    m, _ = build_grid_map(1, 1)
    sigma, alpha = {d: m.sigma(d) for d in m.darts}, {d: -d for d in m.darts}
    for darts, s, a in [
        (m.darts, {d: e for d, e in sigma.items() if d != 2}, alpha),  # a dart without sigma
        (m.darts - {2}, {d: e for d, e in sigma.items() if d != 2}, alpha),  # alpha on a non-dart
        (m.darts | {0}, {**sigma, 0: 0}, alpha),  # dart 0
        (m.darts, {**sigma, 2: 0}, alpha),  # image 0
        (m.darts | {2**31}, {**sigma, 2**31: 2**31}, alpha),  # beyond int32
    ]:
        with pytest.raises(ValueError):
            CombinatorialMap(darts, s, a)


MUTATIONS = ["drop sigma", "drop alpha", "alpha fixed point", "new fixed dart", "duplicate successor",
             "swap alpha", "sparse ids"]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.lists(st.sampled_from(MUTATIONS), max_size=3), st.data())
def test_validate_equals_the_dict_validate_on_mutated_maps(w, h, mutations, data):
    m, _ = build_grid_map(w, h)
    darts = set(m.darts)
    sigma = {d: m.sigma(d) for d in darts}
    alpha = {d: m.alpha(d) for d in darts}
    for mutation in mutations:
        pick = lambda: data.draw(st.sampled_from(sorted(darts, key=dart_sort_key)))  # noqa: E731
        if mutation == "drop sigma":
            sigma.pop(pick(), None)
        elif mutation == "drop alpha":
            alpha.pop(pick(), None)
        elif mutation == "alpha fixed point":
            d = pick()
            alpha[d] = d
        elif mutation == "new fixed dart":
            x = max(map(abs, darts)) + data.draw(st.integers(1, 5))
            darts.add(x)
            sigma[x] = alpha[x] = x
        elif mutation == "duplicate successor":
            sigma[pick()] = sigma.get(pick(), pick())
        elif mutation == "swap alpha":
            alpha[pick()] = pick()
        else:
            k = data.draw(st.integers(2, 7))
            sparse = lambda d: d * k + (1 if d > 0 else -1)  # noqa: E731
            darts = {sparse(d) for d in darts}
            sigma = {sparse(d): sparse(e) for d, e in sigma.items()}
            alpha = {sparse(d): sparse(e) for d, e in alpha.items()}
    representable = sigma.keys() == darts and alpha.keys() <= darts
    if not representable:
        with pytest.raises(ValueError):
            CombinatorialMap(darts, sigma, alpha)
        return
    got = validate(CombinatorialMap(darts, sigma, alpha))
    assert got.checks == validate_dicts(darts, sigma, alpha).checks


# -- the check on a level record's arrays ---------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), kinds)
def test_level_arrays_validate_as_their_permutation_dicts(seed, kind):
    pyr = built_pyramid(random.Random(seed), kind)
    for level in pyr._levels:
        darts = level.order.tolist()
        sigma = dict(zip(darts, level.order[level.sigma].tolist()))
        alpha = dict(zip(darts, level.order[level.alpha].tolist()))
        got = _validate_arrays(level.order, level.sigma, level.alpha)
        assert got.checks == validate_dicts(darts, sigma, alpha).checks
        assert got.ok


def test_corrupted_level_arrays_name_the_check_and_its_least_dart():
    pyr = segment_labels(ringed_labels(random.Random(1), 8, 8)).pyramid
    level = pyr._levels[-1]
    order = level.order.tolist()
    # the arrays are in positions of order: d at position 3, e at q
    d, q = order[3], next(q for q in range(4, len(order)) if level.alpha[q] != 3)

    def check(name, order=level.order, sigma=level.sigma, alpha=level.alpha):
        report = _validate_arrays(np.asarray(order), sigma, alpha)
        assert not report.ok and "euler_count_2" in report.failed()
        return next((ok, witness) for n, ok, witness in report.checks if n == name)

    alpha = level.alpha.copy()
    alpha[3] = 3
    assert check("alpha_no_fixed_point", alpha=alpha) == (False, d)
    assert check("alpha_involution", alpha=alpha) == (False, order[level.alpha[3]])

    alpha = level.alpha.copy()
    alpha[3] = level.alpha[q]  # d takes e's partner, whose partner stays e
    assert check("alpha_involution", alpha=alpha) == (False, min(d, order[level.alpha[3]], key=dart_sort_key))

    sigma = level.sigma.copy()
    sigma[3] = sigma[q]  # two darts with one successor; the old one of d is never met
    assert check("sigma_bijection", sigma=sigma) == (False, order[level.sigma[3]])

    # two dead darts made into a one-edge map of their own
    x = max(dart for dart in pyr.base.darts if max(pyr.level(dart), pyr.level(-dart)) <= pyr.top_level)
    sigma = dict(zip(order, level.order[level.sigma].tolist())) | {x: x, -x: -x}
    alpha = dict(zip(order, level.order[level.alpha].tolist())) | {x: -x, -x: x}
    apart = sorted(order + [x, -x], key=dart_sort_key)
    at = {dart: p for p, dart in enumerate(apart)}
    sigma, alpha = (np.array([at[perm[dart]] for dart in apart]) for perm in (sigma, alpha))
    assert check("connected", order=apart, sigma=sigma, alpha=alpha) == (False, x)
