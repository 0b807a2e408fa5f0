import random

import numpy as np
import pytest

from combipyramid import relations
from combipyramid.boundary import CrackChain, Segment, segment, sequence_orientation
from combipyramid.moves import Move, turn_angle
from combipyramid.pyramid import Kernel, KernelState, Pyramid
from combipyramid.relations import meets_each, rag_export
from combipyramid.segmentation import segment_labels

from conftest import boundary_cracks, clean_levels, random_pyramid
from eager_oracle import segment_orientation


def reduced_two_by_one():
    pyr = Pyramid.from_grid(2, 1)
    pyr.apply_kernel(Kernel.of(KernelState.CK, [2, -2]))
    pyr.apply_kernel(pyr.compute_rkede())
    return pyr


def crack_set(seg):
    pts = seg.cracks.points()
    return {frozenset(pair) for pair in zip(pts, pts[1:])}


# -- segments ----------------------------------------------------------------------


def test_level_zero_segment_is_a_single_crack():
    pyr = Pyramid.from_grid(2, 1)
    seg = segment(pyr, 0, 4)
    assert seg.darts == (4,)
    assert seg.cracks.moves == (Move.LEFT,)


def test_singleton_segment_without_double_edges():
    pyr = Pyramid.from_grid(2, 1)
    pyr.apply_kernel(Kernel.of(KernelState.CK, [2, -2]))
    assert segment(pyr, 1, 4).darts == (4,)


def test_segment_covers_the_whole_boundary_ring():
    pyr = reduced_two_by_one()
    seg = segment(pyr, 2, 1)
    assert seg.darts == (1, -4, -5, -3, 7, 6)
    assert seg.cracks.freeman() == "(0,1):100322"
    # the partner runs the same six cracks backwards
    mate = segment(pyr, 2, -6)
    assert mate.darts == (-6, -7, 3, 5, 4, -1)
    assert crack_set(seg) == crack_set(mate)
    assert len(crack_set(seg)) == 6


@pytest.mark.parametrize("walk, message", [
    ([1, -4, -5, -3, 7], "segment of dart 1 does not reach its partner edge"),
    ([1, -1, -4, -5, -3, 7, 6], "segment of dart 1 folds back on itself at dart -1"),
    ([1, -5, -3, 7, 6], "segment of dart 1 breaks apart at dart -5"),
])
def test_segment_refuses_a_walk_that_is_no_crack_chain(monkeypatch, walk, message):
    # the walk of dart 1's piece less its last dart, with a reversed crack
    # put in, and less its second dart
    pyr = reduced_two_by_one()
    assert segment(pyr, 2, 1).darts == (1, -4, -5, -3, 7, 6)
    monkeypatch.setattr(Pyramid, "_segment_walk", lambda self, i, d: list(walk))
    with pytest.raises(RuntimeError) as got:
        segment(pyr, 2, 1)
    assert got.value.args == (message,)


def test_meets_each_refuses_glued_pieces_that_do_not_touch(monkeypatch):
    # the diagonal pixels of a 2x2 checkerboard are two regions, and the
    # outside's border with each is one piece glued from two edges: moving
    # the second edge's segment one corner away breaks the glue
    pyr = segment_labels(np.array([[2, 0], [1, 2]])).pyramid
    top = pyr.top_level
    (a, b), piece = next((e, p) for e in rag_export(pyr, top)[1] for p in meets_each(pyr, top, *e) if len(p) == 2)
    second = piece.darts[1]
    real = relations.segment

    def moved(pyr, i, d):
        got = real(pyr, i, d)
        x, y = got.cracks.start
        return Segment(got.darts, CrackChain((x + 1, y), got.cracks.moves)) if d == second else got

    monkeypatch.setattr(relations, "segment", moved)
    with pytest.raises(RuntimeError) as got:
        meets_each(pyr, top, a, b)
    assert got.value.args == ("glued boundary pieces do not touch",)


def test_segment_chains_are_geometrically_connected():
    rng = random.Random(21)
    for _ in range(20):
        pyr = random_pyramid(rng, max_side=6)
        emb = pyr.embedding
        for i in range(pyr.top_level + 1):
            m = pyr.reconstruct_level(i)
            for d in m.darts:
                seg = segment(pyr, i, d)
                pts = seg.cracks.points()
                assert pts[0] == emb.start(d)
                assert seg.darts[-1] == -m.alpha(d)


def test_segments_tile_the_partition_boundary():
    # the cracks of one segment per edge cover every boundary crack exactly
    # once; self-loop edges contribute their internal cracks on top
    rng = random.Random(42)
    for _ in range(12):
        pyr = random_pyramid(rng, max_side=5, always_clean=True)
        emb = pyr.embedding
        i = pyr.top_level
        m = pyr.reconstruct_level(i)
        labels = [
            [pyr.vertex_of_pixel(i, x, y) for x in range(emb.width)]
            for y in range(emb.height)
        ]
        import numpy as np

        expected = boundary_cracks(np.array([[hash(v) for v in row] for row in labels]))
        expected = {frozenset(c) for c in expected}
        rep = m.vertex_ids()
        covered = set()
        loop_cracks = set()
        for cyc in m.edges():
            d = cyc[0]
            cracks = crack_set(segment(pyr, i, d))
            target = loop_cracks if rep[d] == rep[m.alpha(d)] else covered
            assert not (cracks & target), "a crack appears in two segments"
            target.update(cracks)
        assert covered == expected
        assert not (loop_cracks & covered)


def test_inner_corner_scan_is_bounded_on_grids():
    m, _ = Pyramid.from_grid(5, 4).base, None
    assert all(len(f) <= 4 for f in m.faces())


# -- moves and turn counts -----------------------------------------------------------


def test_first_last_moves_singleton():
    pyr = Pyramid.from_grid(2, 1)
    assert (pyr.embedding.move(4), pyr.last_move(0, 4)) == (Move.LEFT, Move.LEFT)


def test_first_last_moves_of_extended_piece():
    pyr = reduced_two_by_one()
    assert (pyr.embedding.move(1), pyr.last_move(2, 1)) == (Move.UP, Move.LEFT)
    assert (pyr.embedding.move(-6), pyr.last_move(2, -6)) == (Move.RIGHT, Move.DOWN)
    with pytest.raises(ValueError, match="does not survive"):
        pyr.last_move(2, 2)  # contracted at level 1


def test_two_crack_counter_clockwise_turn():
    # fuse the two boundary edges at the top-right image corner of a 2x2
    # grid: the segment of dart 3 runs up then left, one turn left
    pyr = Pyramid.from_grid(2, 2)
    pyr.apply_kernel(Kernel.of(KernelState.RKEDE, [8, -3]))
    seg = segment(pyr, 1, 3)
    assert seg.darts == (3, 8)
    assert seg.cracks.moves == (Move.UP, Move.LEFT)
    assert pyr.cached_orientation(1, 3) == segment_orientation(pyr, 1, 3) == -1
    assert pyr.cached_orientation(1, -8) == 1


def test_single_dart_orientation_is_zero():
    pyr = Pyramid.from_grid(3, 3)
    assert pyr.cached_orientation(0, 5) == segment_orientation(pyr, 0, 5) == 0


def test_fold_matches_pairwise_rule():
    # removing one joint merges exactly two pieces: the new count is the sum
    # of both plus the junction turn
    pyr = Pyramid.from_grid(2, 2)
    before = pyr.cached_orientation(0, 3), pyr.cached_orientation(0, 8)
    pyr.apply_kernel(Kernel.of(KernelState.RKEDE, [8, -3]))
    expected = before[0] + before[1] + turn_angle(Move.UP, Move.LEFT)
    assert pyr.cached_orientation(1, 3) == expected == -1


def test_cached_equals_recomputed_everywhere():
    rng = random.Random(8)
    for _ in range(20):
        pyr = random_pyramid(rng, max_side=6)
        for i in range(pyr.top_level + 1):
            for d in pyr.reconstruct_level(i).darts:
                assert pyr.cached_orientation(i, d) == segment_orientation(pyr, i, d)


def test_no_opposite_moves_inside_or_between_segments():
    # inside a piece no two consecutive cracks reverse; a piece's last move
    # never opposes the first move of its cycle successor
    rng = random.Random(13)
    for _ in range(20):
        pyr = random_pyramid(rng, max_side=6)
        for i in clean_levels(pyr):
            m = pyr.reconstruct_level(i)
            for d in m.darts:
                moves = segment(pyr, i, d).cracks.moves
                for a, b in zip(moves, moves[1:]):
                    assert b != a.opposite
                fm, lm = pyr.embedding.move(d), pyr.last_move(i, d)
                assert (fm, lm) == (moves[0], moves[-1])
                succ_first = pyr.embedding.move(m.sigma(d))
                assert succ_first != lm.opposite


# -- sequence orientation -------------------------------------------------------------


def test_single_pixel_face_counter_clockwise():
    pyr = Pyramid.from_grid(1, 1)
    assert sequence_orientation(pyr, 0, [2, 3, -1, -4], closed=True) == -4


def test_outside_face_clockwise():
    pyr = Pyramid.from_grid(1, 1)
    assert sequence_orientation(pyr, 0, [1, -3, -2, 4], closed=True) == 4


def test_open_single_dart_sequence():
    pyr = reduced_two_by_one()
    assert sequence_orientation(pyr, 2, [1], closed=False) == 3
    assert sequence_orientation(pyr, 2, [1], closed=True) == 4


def test_sequence_rejects_non_consecutive_darts():
    pyr = Pyramid.from_grid(2, 1)
    with pytest.raises(ValueError, match="consecutive"):
        sequence_orientation(pyr, 0, [2, 3], closed=False)


def test_sequence_rejects_partner_closure():
    # an empty self loop is the one spot where a cycle run ends on the
    # partner of its first dart
    pyr = Pyramid.from_grid(2, 2)
    pyr.apply_kernel(Kernel.of(KernelState.CK, [2, -2, 9, -9, 5, -5]))
    with pytest.raises(ValueError, match="partner"):
        sequence_orientation(pyr, 1, [10, -10], closed=True)
    with pytest.raises(ValueError, match="dual vertex"):
        sequence_orientation(pyr, 0, [2, 7, -1], closed=True)


def test_every_region_cycle_totals_minus_four():
    # at clean levels every vertex cycle closes to -4 except the single
    # outside face at +4
    rng = random.Random(77)
    for _ in range(20):
        pyr = random_pyramid(rng, max_side=6)
        for i in clean_levels(pyr):
            m = pyr.reconstruct_level(i)
            totals = sorted(
                sequence_orientation(pyr, i, list(cyc), closed=True) for cyc in m.vertices()
            )
            assert totals[-1] == 4
            assert all(t == -4 for t in totals[:-1])
