"""2D combinatorial maps and the map of a rectangular 4-connected pixel grid.

A map is a set of nonzero signed integer darts with two permutations: sigma
(counter-clockwise order of darts around a vertex) and alpha (pairing of the
two darts of each edge). phi = sigma o alpha walks the darts of a face. In
grid maps every dart is an oriented crack, a pixel side with a direction, and
alpha(d) = -d.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import repeat
from typing import Iterable

import numpy as np

from .moves import Move

__all__ = [
    "Dart",
    "CombinatorialMap",
    "CrackEmbedding",
    "ValidationReport",
    "build_grid_map",
    "validate",
    "to_dot",
    "dart_sort_key",
]

# Darts are plain nonzero ints; the sign change encodes the base edge pairing.
Dart = int


def dart_sort_key(d: Dart | np.ndarray) -> int | np.ndarray:
    """Deterministic dart order, by magnitude, positive before negative: the
    rank of d, so 1, -1, 2, -2, ... map to 0, 1, 2, 3, ... Works element by
    element on an int array."""
    return 2 * abs(d) - 2 + (d < 0)


class CombinatorialMap:
    """Immutable map of one level, in the layout of a pyramid level's record:
    its darts in dart_sort_key order and sigma and alpha as int arrays of
    positions in that order, position p standing for dart order[p] and
    len(order) for an image off the map or an alpha left undefined, where
    sigma and alpha raise KeyError. The dart set, and the walk lists with a
    dart-to-position dict, are built on first use, in O(len(map)).
    """

    __slots__ = ("_order", "_sigma", "_alpha", "_darts", "_walk")

    def __init__(self, darts: Iterable[Dart], sigma: dict[Dart, Dart], alpha: dict[Dart, Dart]):
        """Map of permutation dicts: sigma defined on exactly the darts,
        alpha on no other dart, all darts and images nonzero int32 values.
        Other input raises ValueError."""
        darts = frozenset(darts)
        images = [*sigma.values(), *alpha.values()]
        n = max(map(abs, [*darts, *images]), default=0)
        if sigma.keys() != darts or not alpha.keys() <= darts or 0 in darts or 0 in images or n >= 2**31:
            raise ValueError("a map needs sigma on exactly its darts, alpha on no other, all nonzero int32")
        order = sorted(darts, key=dart_sort_key)
        at = dict(zip(order, range(len(order))))
        self._order, self._darts, self._walk = np.array(order, dtype=np.int64), darts, None
        self._sigma, self._alpha = (np.array([at.get(perm.get(d), len(order)) for d in order], dtype=np.intp)
                                    for perm in (sigma, alpha))

    @classmethod
    def _of(cls, order: np.ndarray, sigma: np.ndarray, alpha: np.ndarray) -> "CombinatorialMap":
        """The map of arrays in the layout above, shared and unchecked."""
        m = cls.__new__(cls)
        m._order, m._sigma, m._alpha, m._darts, m._walk = order, sigma, alpha, None, None
        return m

    def _lists(self) -> tuple[list[Dart], list[int], list[int], dict[Dart, int]]:
        """The darts, sigma and alpha as lists of positions (len(order) steps
        to itself) and each dart's position, built once, sharing int objects."""
        if self._walk is None:
            k = len(self._order)
            ints = np.arange(k + 1).astype(object)
            names = self._order.tolist()
            walk = names, ints[np.append(self._sigma, k)].tolist(), ints[np.append(self._alpha, k)].tolist()
            self._walk = (*walk, dict(zip(names, ints.tolist())))
        return self._walk

    @property
    def darts(self) -> frozenset[Dart]:
        if self._darts is None:
            self._darts = frozenset(self._order.tolist())
        return self._darts

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, d: Dart) -> bool:
        return d in self._lists()[3]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CombinatorialMap):
            return NotImplemented
        return all(np.array_equal(getattr(self, f), getattr(other, f)) for f in ("_order", "_sigma", "_alpha"))

    def __hash__(self):
        raise TypeError("CombinatorialMap is not hashable")

    def sigma(self, d: Dart) -> Dart:
        names, s, _, at = self._walk or self._lists()
        if (e := s[at[d]]) < len(names):
            return names[e]
        raise KeyError(d)

    def alpha(self, d: Dart) -> Dart:
        names, _, a, at = self._walk or self._lists()
        if (e := a[at[d]]) < len(names):
            return names[e]
        raise KeyError(d)

    def phi(self, d: Dart) -> Dart:
        return self.sigma(self.alpha(d))

    def orbit(self, d: Dart, kind: str) -> tuple[Dart, ...]:
        """Cycle (d, pi(d), pi^2(d), ...) of d under sigma, alpha or phi: a
        plain loop over the walk lists, bounded by the dart count."""
        names, sigma, alpha, at = self._lists()
        if d not in at:
            raise KeyError(f"dart {d} is not in the map")
        step, out = {"sigma": sigma, "alpha": alpha, "phi": None}[kind], []
        p = c = at[d]
        for _ in repeat(None, len(names)):
            out.append(c)
            c = sigma[alpha[c]] if step is None else step[c]
            if c == p:
                return tuple(map(names.__getitem__, out))
        raise RuntimeError(f"{kind} orbit of {d} does not close")

    def _perm(self, kind: str) -> np.ndarray:
        """sigma, alpha or phi as an array of positions, len(order) standing
        for an image off the map."""
        if kind == "phi":
            return np.append(self._sigma, len(self._order))[self._alpha]
        return {"sigma": self._sigma, "alpha": self._alpha}[kind]

    def cycles(self, kind: str) -> list[tuple[Dart, ...]]:
        """All cycles of a permutation, each rotated to start at its canonical
        dart, listed in canonical order: a walk from each least position not
        met yet, then one read of the darts at all the positions walked.
        RuntimeError unless the permutation permutes the map's darts."""
        names, perm = self._lists()[0], self._perm(kind)
        k = len(perm)
        if not (np.bincount(perm, minlength=k + 1)[:k] == 1).all():
            raise RuntimeError(f"{kind} does not permute the darts of the map")
        step, seen, flat, ends = perm.tolist(), bytearray(k), [], []
        p = seen.find(0)
        while p >= 0:
            c = p
            while not seen[c]:
                flat.append(c)
                seen[c] = 1
                c = step[c]
            ends.append(len(flat))
            p = seen.find(0, p + 1)
        flat = list(map(names.__getitem__, flat))
        return [tuple(flat[i:j]) for i, j in zip([0, *ends], ends)]

    def vertices(self) -> list[tuple[Dart, ...]]:
        return self.cycles("sigma")

    def edges(self) -> list[tuple[Dart, ...]]:
        return self.cycles("alpha")

    def faces(self) -> list[tuple[Dart, ...]]:
        return self.cycles("phi")

    def vertex_ids(self) -> dict[Dart, Dart]:
        """Every dart mapped to the canonical dart of its vertex."""
        return {d: cyc[0] for cyc in self.vertices() for d in cyc}

    def dual(self) -> "CombinatorialMap":
        """Map whose vertex permutation is phi; dual of the dual is the map.
        KeyError at the least dart without a phi image."""
        phi = self._perm("phi")
        if (undefined := np.flatnonzero(phi == len(phi))).size:
            raise KeyError(int(self._order[undefined[0]]))
        return CombinatorialMap._of(self._order, phi, self._alpha)


@dataclass(frozen=True)
class CrackEmbedding:
    """Geometry of the base grid darts: start corner and move per dart.

    Corners use (x, y) with x in 0..width and y in 0..height, y growing
    downward. Positive vertical darts point up, positive horizontal darts
    point left, which makes every pixel's sigma cycle run counter-clockwise.
    """

    width: int
    height: int
    _tables: tuple[np.ndarray, ...] | None = field(default=None, init=False, repr=False, compare=False)
    # level 0 of every pyramid of the embedding, read-only: pyramid.py fills it once
    _pyramid_base: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def n_vertical(self) -> int:
        return (self.width + 1) * self.height

    @property
    def n_darts(self) -> int:
        return 2 * (self.n_vertical + self.width * (self.height + 1))

    def move(self, d: Dart) -> Move:
        if abs(d) <= self.n_vertical:
            return Move.UP if d > 0 else Move.DOWN
        return Move.LEFT if d > 0 else Move.RIGHT

    def start(self, d: Dart) -> tuple[int, int]:
        k = abs(d) - 1
        if k < self.n_vertical:
            x, y = k % (self.width + 1), k // (self.width + 1)
            return (x, y + 1) if d > 0 else (x, y)
        k -= self.n_vertical
        x, y = k % self.width, k // self.width
        return (x + 1, y) if d > 0 else (x, y)

    def moves(self, d: np.ndarray) -> np.ndarray:
        """move() of every dart of an array, as Move values."""
        vertical = np.abs(d) <= self.n_vertical
        return np.where(vertical, np.where(d > 0, Move.UP, Move.DOWN), np.where(d > 0, Move.LEFT, Move.RIGHT))

    def corners(self, d: np.ndarray) -> np.ndarray:
        """start() of every dart of an array, as the corner index
        y * (width + 1) + x."""
        k = np.abs(d) - 1
        horizontal = k >= self.n_vertical
        kh = k - self.n_vertical
        # a horizontal crack at row y, column x starts where the vertical
        # crack at row y, column x does; positive darts start at the other
        # end, one row down or one column right
        k = np.where(horizontal, kh // self.width * (self.width + 1) + kh % self.width, k)
        return k + np.where(d > 0, np.where(horizontal, 1, self.width + 1), 0)

    def end(self, d: Dart) -> tuple[int, int]:
        return self.start(-d)

    def pixel_dart(self, x: int, y: int) -> Dart:
        """Dart down the left side of pixel (x, y): the canonical dart of the
        pixel's vertex in the base map, starting at the pixel's corner (x, y)."""
        return -(y * (self.width + 1) + x + 1)

    def pixel_of(self, d: Dart) -> tuple[int, int] | None:
        """Pixel whose sigma cycle owns dart d at the base level, or None for
        the outside vertex: read off the base region index of d."""
        if not (d and abs(d) <= self.n_darts // 2):
            raise KeyError(f"dart {d} is not in the base map")
        r = int(self._grid_tables()[1][d])
        return divmod(r - 1, self.width)[::-1] if r else None

    def grid_sigma(self) -> np.ndarray:
        """sigma of the base map as a read-only int32 array indexed by signed
        dart: a negative dart wraps to the end, entry 0 is unused.

        Each pixel is the cycle (right, top, -left, -bottom) of its sides,
        positive vertical darts pointing up and positive horizontal darts
        pointing left, so it runs counter-clockwise; the outer sides of the
        border pixels form the outside vertex, whose cycle runs clockwise.
        """
        return self._grid_tables()[0]

    def _grid_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """grid_sigma and the base region array (0 on the outside vertex,
        1 + y * width + x on pixel (x, y): the order of their canonical
        darts 1 and -left), indexed alike: computed on first use, once per
        embedding, and read-only. build_grid_map builds the base map from
        them and every Pyramid of the embedding shares them."""
        if self._tables is not None:
            return self._tables
        w, h, nv = self.width, self.height, self.n_vertical
        n = self.n_darts // 2
        if 2 * n + 1 > np.iinfo(np.int32).max:
            raise ValueError(f"a {w}x{h} grid has too many darts for int32 dart ids")
        sigma = np.zeros(2 * n + 1, dtype=np.int32)
        region = np.zeros(2 * n + 1, dtype=np.int32)
        y, x = np.divmod(np.arange(w * h, dtype=np.int64), w)
        left = y * (w + 1) + x + 1  # vertical crack at column x, row y
        top = nv + y * w + x + 1  # horizontal crack at row y, column x
        cycle = [left + 1, top, -left, -(top + w)]
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            sigma[a] = b
            region[a] = y * w + x + 1
        xs, ys = np.arange(w, dtype=np.int64), np.arange(h, dtype=np.int64)
        outside = np.concatenate(
            [-(nv + xs + 1), -(ys * (w + 1) + w + 1), (nv + h * w + xs + 1)[::-1], (ys * (w + 1) + 1)[::-1]]
        )
        sigma[outside] = np.roll(outside, -1)
        tables = sigma, region
        for table in tables:
            table.flags.writeable = False
        # a field of a frozen dataclass is set through object; a cache in the
        # instance's __dict__ would slow every attribute read of start and move
        object.__setattr__(self, "_tables", tables)
        return tables


def build_grid_map(width: int, height: int) -> tuple[CombinatorialMap, CrackEmbedding]:
    """Base map of a width x height 4-connected grid, from the closed form of
    CrackEmbedding.grid_sigma. alpha(d) = -d.

    The map and its embedding are built once per grid size and kept for the
    last size asked for, so every pyramid of that size shares them, the
    embedding's read-only tables and the level-0 record a Pyramid keeps on
    the embedding, whose arrays are the map's own. A size that is not an
    int, or is a bool, raises ValueError before the cache is read, since 3.0
    and True hash as 3 and 1 do."""
    for value in (width, height):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"grid dimensions must be integers, got {value!r}")
    width, height = int(width), int(height)
    if width < 1 or height < 1:
        raise ValueError(f"grid dimensions must be positive, got {width}x{height}")
    return _grid_map(width, height)


@lru_cache(maxsize=1)
def _grid_map(width: int, height: int) -> tuple[CombinatorialMap, CrackEmbedding]:
    emb = CrackEmbedding(width, height)
    sigma = emb._grid_tables()[0]
    # the base's position of dart d is dart_sort_key(d), and -d sits next to it
    order = dart_order(len(sigma) // 2)
    arrays = order, dart_sort_key(sigma[order]), np.arange(len(order), dtype=np.int32) ^ 1
    for array in arrays:
        array.flags.writeable = False
    return CombinatorialMap._of(*arrays), emb


def dart_order(n: int) -> np.ndarray:
    """Darts -n..n without 0 in dart_sort_key order: 1, -1, 2, -2, ..."""
    order = np.empty(2 * n, dtype=np.int32)
    order[0::2] = np.arange(1, n + 1)
    order[1::2] = -order[0::2]
    return order


@dataclass
class ValidationReport:
    """Pass/fail per structural invariant, with a witness dart on failure."""

    checks: list[tuple[str, bool, Dart | None]]

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.checks)

    def failed(self) -> list[str]:
        return [name for name, passed, _ in self.checks if not passed]

    def __str__(self) -> str:
        return "\n".join(f"{name}: {'ok' if passed else 'FAIL'}" + ("" if witness is None else f" (dart {witness})")
                         for name, passed, witness in self.checks)


def validate(m: CombinatorialMap) -> ValidationReport:
    """Report on involution, bijectivity, connectivity and the Euler count."""
    return _validate_arrays(m._order, m._sigma, m._alpha)


def _validate_arrays(order: np.ndarray, s: np.ndarray, a: np.ndarray) -> ValidationReport:
    """validate of the map with the darts of order, in dart_sort_key order,
    in positions of order: position p stands for dart order[p], s and a give
    the positions of sigma and alpha of each, and len(order) stands for any
    image off the map, as in a pyramid level's record. Each witness is the
    least failing dart."""
    k = len(order)
    at = np.arange(k)
    hit = np.bincount(s, minlength=k + 1) > 0
    # connected: the darts reached from the least one, a frontier of groups a
    # round, with the groups each steps to in near: darts along sigma and
    # alpha, or whole vertices along alpha once sigma permutes the darts
    group, steps = (_cycle_min(s), (a,)) if hit[:k].all() else (at, (s, a))
    src = np.tile(group, len(steps))
    size = np.bincount(src, minlength=k)
    first = np.cumsum(size) - size
    near = np.append(group, k)[np.concatenate(steps)][np.argsort(src, kind="stable")]
    # mark is -1 at a group not met; a round keeps one copy of each new group
    mark = np.full(k + 1, -1)
    front = group[:1]
    mark[k] = mark[front] = 0
    while front.size:
        n = size[front]
        front = near[np.repeat(first[front] - np.cumsum(n) + n, n) + np.arange(n.sum())]
        front = front[mark[front] < 0]
        mark[front] = np.arange(len(front))
        front = front[mark[front] == np.arange(len(front))]
    bad = [order[np.append(a, k)[a] != at], order[a == at], order[~hit[:k]], order[mark[group] < 0]]
    # alpha pairs the darts into k / 2 edges
    euler = not any(b.size for b in bad[:3]) and (group == at).sum() - k // 2 + (_cycle_min(s[a]) == at).sum() == 2
    names = ["alpha_involution", "alpha_no_fixed_point", "sigma_bijection", "connected"]
    checks = [(name, not b.size, int(b[0]) if b.size else None) for name, b in zip(names, bad)]
    return ValidationReport(checks + [("euler_count_2", bool(euler), None)])


def _cycle_min(step: np.ndarray) -> np.ndarray:
    """For a permutation step of positions 0..k-1, the least position on
    the cycle of each.

    Pointer jumping: after r rounds best(p) is the least position among the
    2^r met from p on and hop(p) lies 2^r steps on. A round that changes no
    best ends it: every window then holds its cycle's least position.
    """
    best, hop = np.arange(len(step), dtype=np.int32), step
    while True:
        new = np.minimum(best, best[hop])
        if (new == best).all():
            return best
        best, hop = new, hop[hop]


def to_dot(m: CombinatorialMap, name: str = "map") -> str:
    """DOT text with one node per sigma cycle and one edge per alpha cycle."""
    vertices = m.vertices()
    rep = {d: cyc[0] for cyc in vertices for d in cyc}
    lines = [f"graph {name} {{"]
    for cyc in vertices:
        label = ",".join(str(d) for d in cyc)
        lines.append(f'  "v{cyc[0]}" [label="{label}"];')
    for edge in m.edges():
        d = edge[0]
        lines.append(f'  "v{rep[d]}" -- "v{rep[m.alpha(d)]}" [label="{d}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
