from collections import Counter

import pytest

from combipyramid.map_core import (
    CombinatorialMap,
    CrackEmbedding,
    build_grid_map,
    dart_order,
    to_dot,
    validate,
)
from combipyramid.moves import Move

from eager_oracle import grid_map_by_pixels


def grid_dart_count(w, h):
    return 2 * (w * (h + 1) + (w + 1) * h)


def test_rejects_bad_dimensions():
    for w, h in ((0, 3), (3, 0), (-1, 2)):
        with pytest.raises(ValueError):
            build_grid_map(w, h)


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
            assert m.vertex_of(d) == d and emb.pixel_of(d) == (x, y)


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
