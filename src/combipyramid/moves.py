"""Oriented crack moves (Freeman codes) and the quarter turn between two."""

from __future__ import annotations

from enum import IntEnum

__all__ = ["Move", "turn_angle"]


class Move(IntEnum):
    """Direction of an oriented crack, on a screen grid (y grows downward)."""

    RIGHT = 0
    UP = 1
    LEFT = 2
    DOWN = 3

    @property
    def opposite(self) -> "Move":
        return Move((self + 2) % 4)

    @property
    def delta(self) -> tuple[int, int]:
        return _DELTAS[self]


_DELTAS = {Move.RIGHT: (1, 0), Move.UP: (0, -1), Move.LEFT: (-1, 0), Move.DOWN: (0, 1)}


def turn_angle(m1: Move, m2: Move) -> int:
    """Signed quarter turn from m1 to m2: +1 clockwise, -1 counter-clockwise,
    0 for equal moves. Opposite moves (a U turn) never follow each other in
    a boundary chain, so they raise ValueError."""
    a = (m1 - m2) % 4
    if a == 2:
        raise ValueError(f"opposite moves {m1.name}/{m2.name} inside a boundary chain")
    return -1 if a == 3 else a
