"""2D combinatorial maps and the map of a rectangular 4-connected pixel grid.

A map is a set of nonzero signed integer darts with two permutations: sigma
(counter-clockwise order of darts around a vertex) and alpha (pairing of the
two darts of each edge). phi = sigma o alpha walks the darts of a face. In
grid maps every dart is an oriented crack, a pixel side with a direction, and
alpha(d) = -d.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def dart_sort_key(d: Dart) -> tuple[int, int]:
    """Deterministic dart order: by magnitude, positive before negative."""
    return (abs(d), 0 if d > 0 else 1)


class CombinatorialMap:
    """Immutable dart set plus sigma/alpha permutations for one map level."""

    __slots__ = ("_darts", "_sigma", "_alpha")

    def __init__(self, darts: Iterable[Dart], sigma: dict[Dart, Dart], alpha: dict[Dart, Dart]):
        self._darts = frozenset(darts)
        self._sigma = dict(sigma)
        self._alpha = dict(alpha)

    @property
    def darts(self) -> frozenset[Dart]:
        return self._darts

    def __len__(self) -> int:
        return len(self._darts)

    def __contains__(self, d: Dart) -> bool:
        return d in self._darts

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CombinatorialMap):
            return NotImplemented
        return (
            self._darts == other._darts
            and self._sigma == other._sigma
            and self._alpha == other._alpha
        )

    def __hash__(self):
        raise TypeError("CombinatorialMap is not hashable")

    def sigma(self, d: Dart) -> Dart:
        return self._sigma[d]

    def alpha(self, d: Dart) -> Dart:
        return self._alpha[d]

    def phi(self, d: Dart) -> Dart:
        return self._sigma[self._alpha[d]]

    def orbit(self, d: Dart, kind: str) -> tuple[Dart, ...]:
        """Cycle (d, pi(d), pi^2(d), ...) of d under sigma, alpha or phi."""
        if d not in self._darts:
            raise KeyError(f"dart {d} is not in the map")
        step = {"sigma": self.sigma, "alpha": self.alpha, "phi": self.phi}[kind]
        out = [d]
        c = step(d)
        while c != d:
            out.append(c)
            if len(out) > len(self._darts):
                raise RuntimeError(f"{kind} orbit of {d} does not close")
            c = step(c)
        return tuple(out)

    def cycles(self, kind: str) -> list[tuple[Dart, ...]]:
        """All cycles of a permutation, each rotated to start at its canonical
        dart, listed in canonical order."""
        seen: set[Dart] = set()
        out = []
        for d in sorted(self._darts, key=dart_sort_key):
            if d in seen:
                continue
            cyc = self.orbit(d, kind)
            seen.update(cyc)
            out.append(cyc)
        return out

    def vertices(self) -> list[tuple[Dart, ...]]:
        return self.cycles("sigma")

    def edges(self) -> list[tuple[Dart, ...]]:
        return self.cycles("alpha")

    def faces(self) -> list[tuple[Dart, ...]]:
        return self.cycles("phi")

    def vertex_of(self, d: Dart) -> Dart:
        """Canonical representative dart of the vertex of d."""
        return min(self.orbit(d, "sigma"), key=dart_sort_key)

    def vertex_ids(self) -> dict[Dart, Dart]:
        """Every dart mapped to the canonical dart of its vertex."""
        return {d: cyc[0] for cyc in self.vertices() for d in cyc}

    def dual(self) -> "CombinatorialMap":
        """Map whose vertex permutation is phi; dual of the dual is the map."""
        phi = {d: self.phi(d) for d in self._darts}
        return CombinatorialMap(self._darts, phi, self._alpha)


@dataclass(frozen=True)
class CrackEmbedding:
    """Geometry of the base grid darts: start corner and move per dart.

    Corners use (x, y) with x in 0..width and y in 0..height, y growing
    downward. Positive vertical darts point up, positive horizontal darts
    point left, which makes every pixel's sigma cycle run counter-clockwise.
    """

    width: int
    height: int

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
        (x, y), (dx, dy) = self.start(d), self.move(d).delta
        return (x + dx, y + dy)

    def pixel_dart(self, x: int, y: int) -> Dart:
        """Dart down the left side of pixel (x, y): the canonical dart of the
        pixel's vertex in the base map."""
        return -(y * (self.width + 1) + x + 1)

    def pixel_of(self, d: Dart) -> tuple[int, int] | None:
        """Pixel whose sigma cycle owns dart d at the base level, or None for
        the outside vertex."""
        k = abs(d) - 1
        if k < self.n_vertical:
            x, y = k % (self.width + 1), k // (self.width + 1)
            if d > 0:
                return (x - 1, y) if x >= 1 else None
            return (x, y) if x <= self.width - 1 else None
        k -= self.n_vertical
        x, y = k % self.width, k // self.width
        if d > 0:
            return (x, y) if y <= self.height - 1 else None
        return (x, y - 1) if y >= 1 else None

    def grid_sigma(self) -> np.ndarray:
        """sigma of the base map as an int32 array indexed by signed dart: a
        negative dart wraps to the end, entry 0 is unused.

        Each pixel is the cycle (right, top, -left, -bottom) of its sides,
        positive vertical darts pointing up and positive horizontal darts
        pointing left, so it runs counter-clockwise; the outer sides of the
        border pixels form the outside vertex, whose cycle runs clockwise.
        """
        w, h, nv = self.width, self.height, self.n_vertical
        n = self.n_darts // 2
        if 2 * n + 1 > np.iinfo(np.int32).max:
            raise ValueError(f"a {w}x{h} grid has too many darts for int32 dart ids")
        sigma = np.zeros(2 * n + 1, dtype=np.int32)
        y, x = np.divmod(np.arange(w * h, dtype=np.int64), w)
        left = y * (w + 1) + x + 1  # vertical crack at column x, row y
        top = nv + y * w + x + 1  # horizontal crack at row y, column x
        cycle = [left + 1, top, -left, -(top + w)]
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            sigma[a] = b
        xs, ys = np.arange(w, dtype=np.int64), np.arange(h, dtype=np.int64)
        outside = np.concatenate(
            [-(nv + xs + 1), -(ys * (w + 1) + w + 1), (nv + h * w + xs + 1)[::-1], (ys * (w + 1) + 1)[::-1]]
        )
        sigma[outside] = np.roll(outside, -1)
        return sigma


def build_grid_map(width: int, height: int) -> tuple[CombinatorialMap, CrackEmbedding]:
    """Base map of a width x height 4-connected grid, from the closed form of
    CrackEmbedding.grid_sigma. alpha(d) = -d."""
    if width < 1 or height < 1:
        raise ValueError(f"grid dimensions must be positive, got {width}x{height}")
    emb = CrackEmbedding(width, height)
    sigma = emb.grid_sigma()
    ids = dart_ids(len(sigma) // 2)
    return map_of(ids.astype(object), dart_order(len(sigma) // 2), sigma, -ids), emb


def dart_ids(n: int) -> np.ndarray:
    """The dart that indexes each slot of an array over darts -n..n: slots
    0..n hold 0..n, slots n+1..2n hold -n..-1."""
    ids = np.arange(2 * n + 1, dtype=np.int32)
    ids[n + 1 :] -= 2 * n + 1
    return ids


def dart_order(n: int) -> np.ndarray:
    """Darts -n..n without 0 in dart_sort_key order: 1, -1, 2, -2, ..."""
    order = np.empty(2 * n, dtype=np.int32)
    order[0::2] = np.arange(1, n + 1)
    order[1::2] = -order[0::2]
    return order


def map_of(ints: np.ndarray, darts: np.ndarray, sigma: np.ndarray, alpha: np.ndarray) -> CombinatorialMap:
    """Dict map over darts, read off dart-indexed sigma/alpha arrays. ints is
    an object array holding the int object of every dart, so maps built from
    one table share their ints."""
    keys = ints[darts]
    return CombinatorialMap(keys, dict(zip(keys, ints[sigma[darts]])), dict(zip(keys, ints[alpha[darts]])))


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
        lines = []
        for name, passed, witness in self.checks:
            mark = "ok" if passed else "FAIL"
            extra = "" if witness is None else f" (dart {witness})"
            lines.append(f"{name}: {mark}{extra}")
        return "\n".join(lines)


def validate(m: CombinatorialMap) -> ValidationReport:
    """Report on involution, bijectivity, connectivity and the Euler count."""
    checks: list[tuple[str, bool, Dart | None]] = []
    darts = m.darts

    witness = None
    for d in sorted(darts, key=dart_sort_key):
        a = m._alpha.get(d)
        if a is None or a not in darts or m._alpha.get(a) != d:
            witness = d
            break
    checks.append(("alpha_involution", witness is None, witness))

    witness = next((d for d in sorted(darts, key=dart_sort_key) if m._alpha.get(d) == d), None)
    checks.append(("alpha_no_fixed_point", witness is None, witness))

    domain_ok = set(m._sigma) == set(darts)
    image = set(m._sigma.values()) if domain_ok else set()
    sigma_ok = domain_ok and image == set(darts)
    witness = None
    if not sigma_ok and domain_ok:
        witness = min(set(darts) - image, key=dart_sort_key)
    checks.append(("sigma_bijection", sigma_ok, witness))

    connected, witness = _connected(m)
    checks.append(("connected", connected, witness))

    if sigma_ok and checks[0][1] and checks[1][1]:
        euler = len(m.vertices()) - len(m.edges()) + len(m.faces())
        checks.append(("euler_count_2", euler == 2, None))
    else:
        checks.append(("euler_count_2", False, None))
    return ValidationReport(checks)


def _connected(m: CombinatorialMap) -> tuple[bool, Dart | None]:
    darts = m.darts
    if not darts:
        return True, None
    start = min(darts, key=dart_sort_key)
    seen = {start}
    stack = [start]
    while stack:
        d = stack.pop()
        for n in (m._sigma.get(d), m._alpha.get(d)):
            if n is not None and n in darts and n not in seen:
                seen.add(n)
                stack.append(n)
    if len(seen) == len(darts):
        return True, None
    return False, min(darts - seen, key=dart_sort_key)


def to_dot(m: CombinatorialMap, name: str = "map") -> str:
    """DOT text with one node per sigma cycle and one edge per alpha cycle."""
    rep = m.vertex_ids()
    lines = [f"graph {name} {{"]
    for cyc in m.vertices():
        label = ",".join(str(d) for d in cyc)
        lines.append(f'  "v{cyc[0]}" [label="{label}"];')
    for edge in m.edges():
        d = edge[0]
        lines.append(f'  "v{rep[d]}" -- "v{rep[m.alpha(d)]}" [label="{d}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
