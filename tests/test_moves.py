import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from combipyramid.moves import Move, turn_angle


def test_freeman_codes():
    assert [int(m) for m in (Move.RIGHT, Move.UP, Move.LEFT, Move.DOWN)] == [0, 1, 2, 3]


def test_angle_table():
    assert turn_angle(Move.RIGHT, Move.DOWN) == 1  # clockwise quarter turn
    assert turn_angle(Move.UP, Move.UP) == 0
    assert turn_angle(Move.UP, Move.LEFT) == -1  # counter-clockwise


@given(st.sampled_from(list(Move)), st.sampled_from(list(Move)))
def test_angle_properties(m1, m2):
    if m2 == m1.opposite:
        with pytest.raises(ValueError, match="opposite moves"):
            turn_angle(m1, m2)
    else:
        a = turn_angle(m1, m2)
        assert a in (-1, 0, 1)
        assert turn_angle(m2, m1) == -a


@given(st.sampled_from(list(Move)))
def test_opposite_is_involution(m):
    assert m.opposite.opposite == m
    assert m.opposite != m


def test_turn_angle_rejects_u_turn():
    with pytest.raises(ValueError):
        turn_angle(Move.LEFT, Move.RIGHT)
    assert turn_angle(Move.DOWN, Move.LEFT) == 1


def test_turn_angle_of_arrays_is_the_scalar_rule():
    def arrays(pairs):
        return np.array([int(m1) for m1, _ in pairs]), np.array([int(m2) for _, m2 in pairs])

    pairs = [(m1, m2) for m1 in Move for m2 in Move]
    turns = [(m1, m2) for m1, m2 in pairs if m2 != m1.opposite]
    assert turn_angle(*arrays(turns)).tolist() == [turn_angle(m1, m2) for m1, m2 in turns]
    # all 16 pairs, from each start: the first U turn raises the scalar message
    for k in range(len(pairs)):
        rotated = pairs[k:] + pairs[:k]
        m1, m2 = next((m1, m2) for m1, m2 in rotated if m2 == m1.opposite)
        with pytest.raises(ValueError) as scalar:
            turn_angle(m1, m2)
        with pytest.raises(ValueError, match=f"^{scalar.value}$"):
            turn_angle(*arrays(rotated))
