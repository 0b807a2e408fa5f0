"""Boundary pieces as oriented crack chains, and the turn count of a run.

A dart surviving at level i stands for a run of base cracks: its own crack
followed by the cracks of every double-edge dart absorbed into it. That run,
the dart's segment, is recovered from the base by hopping around base corners
to the next absorbed double-edge dart until the partner edge is reached.

Orientations count signed quarter turns (moves.turn_angle) along crack
chains. A piece's own count is Pyramid.cached_orientation, kept as kernels
are applied; its first move is its own crack's, embedding.move(d), and its
last Pyramid.last_move. Any closed run of boundary pieces totals -4 when it
winds counter-clockwise (a finite region) and +4 when it winds clockwise
(the outside face).
"""

from __future__ import annotations

from dataclasses import dataclass

from .map_core import Dart
from .moves import Move, turn_angle
from .pyramid import Pyramid

__all__ = [
    "CrackChain",
    "Segment",
    "segment",
    "sequence_orientation",
]


@dataclass(frozen=True)
class CrackChain:
    """Connected run of oriented cracks: a start corner plus unit moves."""

    start: tuple[int, int]
    moves: tuple[Move, ...]

    def points(self) -> tuple[tuple[int, int], ...]:
        pts = [self.start]
        for m in self.moves:
            x, y = pts[-1]
            dx, dy = m.delta
            pts.append((x + dx, y + dy))
        return tuple(pts)

    def freeman(self) -> str:
        """Start corner plus the chain as Freeman codes over 0..3."""
        x, y = self.start
        return f"({x},{y}):" + "".join(str(int(m)) for m in self.moves)

    def to_records(self) -> list[dict[str, int]]:
        out = []
        for (x, y), m in zip(self.points(), self.moves):
            out.append({"x": x, "y": y, "move": int(m)})
        return out


@dataclass(frozen=True)
class Segment:
    """Boundary piece of one dart: ordered base darts and their cracks."""

    darts: tuple[Dart, ...]
    cracks: CrackChain

    def __len__(self) -> int:
        return len(self.darts)


def segment(pyr: Pyramid, i: int, d: Dart) -> Segment:
    """Maximal double-edge chain of d at level i, starting with d's own crack.

    The successor of each chain dart is found by turning around the base
    corner at the end of its crack until the next dart absorbed as a double
    edge shows up; the chain stops at the base partner of alpha_i(d). At
    level 0 every segment is the dart's single crack.
    """
    pyr._checked(i, d)
    emb = pyr.embedding
    darts = pyr._segment_walk(i, d)
    if darts[-1] != -pyr.reconstruct_level(i).alpha(d):
        raise RuntimeError(f"segment of dart {d} does not reach its partner edge")
    moves = []
    prev = None
    for c in darts:
        m = emb.move(c)
        if prev is not None and m == prev.opposite:
            raise RuntimeError(f"segment of dart {d} folds back on itself at dart {c}")
        if prev is not None and emb.start(c) != end_of_prev:
            raise RuntimeError(f"segment of dart {d} breaks apart at dart {c}")
        prev = m
        end_of_prev = emb.end(c)
        moves.append(m)
    return Segment(tuple(darts), CrackChain(emb.start(d), tuple(moves)))


def sequence_orientation(pyr: Pyramid, i: int, seq: list[Dart] | tuple[Dart, ...], closed: bool) -> int:
    """Turn count of consecutive darts d1..dp with sigma_i(dj) = dj+1.

    A closed sequence needs d1 on the dual vertex of alpha_i(dp) and
    dp != alpha_i(d1); closed totals are exactly +4 or -4.
    """
    if not seq:
        raise ValueError("empty dart sequence")
    pyr._checked(i, *seq)
    m = pyr.reconstruct_level(i)
    for a, b in zip(seq, seq[1:]):
        if m.sigma(a) != b:
            raise ValueError(f"darts {a} and {b} are not sigma-consecutive at level {i}")
    last = seq[-1]
    if closed:
        if m.alpha(last) == seq[0]:
            raise ValueError("closed sequence may not end on the partner of its first dart")
        if seq[0] not in m.orbit(m.alpha(last), "phi"):
            raise ValueError("sequence endpoints do not meet at one dual vertex")
    move = pyr.embedding.move
    total = sum(pyr._orientations(i, seq))
    for a, b in zip(seq, [*seq[1:], seq[0]] if closed else seq[1:]):  # closed: the last dart meets the first
        total += turn_angle(move(-m.alpha(a)), move(b))
    return total
