"""Oriented crack moves (Freeman codes) and the quarter turn between two."""

from __future__ import annotations

from enum import IntEnum

import numpy as np

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


def turn_angle(m1: Move | np.ndarray, m2: Move | np.ndarray) -> int | np.ndarray:
    """Signed quarter turn from m1 to m2: +1 clockwise, -1 counter-clockwise,
    0 for equal moves. Opposite moves (a U turn) never follow each other in
    a boundary chain, so they raise ValueError. Works element by element on
    two int arrays of moves, raising for the first U turn."""
    a = (m1 - m2) % 4
    if isinstance(a, np.ndarray):
        u_turn = np.flatnonzero(a == 2)
        if not u_turn.size:
            return np.where(a == 3, -1, a)
        m1, m2 = Move(m1[u_turn[0]]), Move(m2[u_turn[0]])
    elif a != 2:
        return -1 if a == 3 else a
    raise ValueError(f"opposite moves {m1.name}/{m2.name} inside a boundary chain")
