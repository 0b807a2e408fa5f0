"""Hierarchy of successively merged partitions stored implicitly.

The encoding is the base map, the level at which each dart dies and the
state of each kernel. A kernel is the set of darts that disappears at one
level, tagged with how it disappears:

* CK: a forest of edges whose contraction merges adjacent regions,
* RKESL: empty self loops (inner boundaries around nothing),
* RKEDE: darts at degree-2 dual vertices, whose removal fuses consecutive
  boundary pieces into a single edge.

Each level is derived from the level below when its kernel is applied, in
one pass over the darts alive there: sigma_i(d) is the first survivor along
sigma_{i-1} after d, stepping by phi_{i-1} past a contracted dart and by
sigma_{i-1} past a removed one, and alpha_i(d) = alpha_{i-1}(d) except under
RKEDE, where y <- alpha_{i-1}(phi_{i-1}(y)) steps past removed joints. Each
level map and its redundant darts are stored once and never change. The top
level's vertex partition, empty self loops and joints are computed once as it
is appended; kernel checks and merge rounds read them. Queries read the stored
maps. The one thing a query stores is a clean level's enclosure forest: the
first enclosure query there builds it and publishes it with one dict store in
`_forests`. Levels never change, so racing builds give equal forests.

Replay from the base serves receptive fields, boundary segments,
vertex_of_pixel and pixel_labels. Walking from a surviving dart d with
sigma0, taking phi0 after a contracted dart and sigma0 after a removed dart,
yields the darts swallowed between d and its level-i successor: the first
surviving dart hit is sigma_i(d). From a dead dart the same rule leads to a
survivor of the vertex that absorbed it. A boundary piece is read off the
base instead: scanning around base corners, the piece grows by one absorbed
double-edge dart at a time and stops where a survivor is met, and the base
partner of its last dart is alpha_i(d) (just -d while the piece is a single
crack).

A removed double-edge joint drops one dart from each of the two boundary
directions, so kernels with state RKEDE pair surviving darts of formerly
distinct edges; CK and RKESL kernels always remove whole base edges.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .map_core import (
    CombinatorialMap,
    CrackEmbedding,
    Dart,
    build_grid_map,
    dart_sort_key,
)
from .moves import Move, turn_angle

__all__ = ["KernelState", "Kernel", "Pyramid", "KernelError"]


class KernelState(Enum):
    CK = "CK"
    RKESL = "RKESL"
    RKEDE = "RKEDE"


@dataclass(frozen=True)
class Kernel:
    """Dart set removed by one reduction level, with its removal mode."""

    state: KernelState
    darts: frozenset[Dart]

    @staticmethod
    def of(state: KernelState, darts: Iterable[Dart]) -> "Kernel":
        return Kernel(state, frozenset(darts))

    def __len__(self) -> int:
        return len(self.darts)


class KernelError(ValueError):
    """A kernel does not satisfy the invariants of its state."""


class Pyramid:
    """Base grid map plus the per-dart level and per-kernel state functions.

    Construction is single writer via apply_kernel, which also derives the
    new level map and its per-level facts; queries read them and add only
    the per-level enclosure forests, each built once and stored idempotently.
    """

    def __init__(self, base: CombinatorialMap, embedding: CrackEmbedding):
        self.base = base
        self.embedding = embedding
        self.kernels: list[Kernel] = []
        self._killed: dict[Dart, int] = {}
        # orientation cache: per level, the darts whose turn count changed
        self._or_updates: list[dict[Dart, int]] = []
        # per level: the map and its redundant darts
        self._levels: list[CombinatorialMap] = []
        self._redundant: list[frozenset[Dart]] = []
        # per clean level: its enclosure forest, built by the first
        # enclosure query there (see containment)
        self._forests: dict[int, tuple] = {}
        self._append_level(base, embedding._dart_order())

    @classmethod
    def from_grid(cls, width: int, height: int) -> "Pyramid":
        return cls(*build_grid_map(width, height))

    # -- the implicit encoding ------------------------------------------------

    @property
    def top_level(self) -> int:
        return len(self.kernels)

    def level(self, d: Dart) -> int:
        """Highest level where d survives, top_level + 1 if it never dies."""
        if d not in self.base:
            raise KeyError(f"dart {d} is not in the base map")
        return self._killed.get(d, len(self.kernels) + 1)

    def state(self, i: int) -> KernelState:
        return self.kernels[i - 1].state

    def top_map(self) -> CombinatorialMap:
        return self._levels[-1]

    # -- replay of absorbed darts ---------------------------------------------

    def _absorbed(self, i: int, d: Dart) -> tuple[list[Dart], Dart]:
        """Darts replayed from d up to the first survivor at level i.

        Returns (walk, survivor): walk starts at d and lists every dart that
        died at level <= i before the survivor is hit. From a surviving d the
        survivor is sigma_i(d); from a dead d it lies on the level-i vertex
        that absorbed d.
        """
        walk = [d]
        limit = len(self.base)
        c, lvl = d, self.level(d)
        while True:
            if lvl <= i and self.state(lvl) is KernelState.CK:
                c = self.base.phi(c)
            else:
                c = self.base.sigma(c)
            lvl = self.level(c)
            if lvl > i:
                return walk, c
            walk.append(c)
            if len(walk) > limit:
                raise RuntimeError("absorbed-dart replay does not terminate")

    def receptive_field(self, i: int, d: Dart) -> tuple[Dart, ...]:
        """Base darts reduced onto d at level i, in replay order."""
        self._require_alive(i, d)
        return tuple(self._absorbed(i, d)[0])

    def _segment_walk(self, i: int, d: Dart) -> list[Dart]:
        """Base darts of d's boundary piece at level i, in chain order.

        After each dart c the scan turns around the base corner at the end of
        c's crack: darts contracted or removed as loops at or below level i
        are internal there and skipped; a dart removed as a double edge
        continues the piece; a surviving dart means the boundary stops, so c
        was the last dart and its base partner is alpha_i(d).
        """
        out = [d]
        limit = len(self.base)
        c = d
        while True:
            hop = self.base.phi(-c)
            steps = 0
            nxt = None
            while True:
                lvl = self.level(hop)
                if lvl > i:
                    break
                if self.state(lvl) is KernelState.RKEDE:
                    nxt = hop
                    break
                hop = self.base.phi(hop)
                steps += 1
                if steps > limit:
                    raise RuntimeError(f"corner scan from dart {c} does not terminate")
            if nxt is None:
                return out
            out.append(nxt)
            if len(out) > limit:
                raise RuntimeError(f"boundary piece of dart {d} does not terminate")
            c = nxt

    def reconstruct_level(self, i: int) -> CombinatorialMap:
        """The level-i map, derived from level i-1 when its kernel was applied."""
        self._check_level(i)
        return self._levels[i]

    def _check_level(self, i: int) -> None:
        if not 0 <= i <= self.top_level:
            raise ValueError(f"level {i} out of range 0..{self.top_level}")

    def _require_alive(self, i: int, d: Dart) -> None:
        self._check_level(i)
        if self.level(d) <= i:
            raise ValueError(f"dart {d} does not survive at level {i}")

    # -- orientation cache ----------------------------------------------------

    def cached_orientation(self, i: int, d: Dart) -> int:
        """Accumulated quarter turns along d's boundary piece at level i.

        Zero at the base; updated whenever a double-edge removal extends the
        piece, by folding in the absorbed darts' counts and junction turns.
        """
        self._require_alive(i, d)
        return self._orientation(i, d)

    def _orientation(self, i: int, d: Dart) -> int:
        for k in range(i - 1, -1, -1):
            turns = self._or_updates[k].get(d)
            if turns is not None:
                return turns
        return 0

    def first_move(self, d: Dart) -> Move:
        """Move of the first crack of d's boundary piece: d's own crack."""
        return self.embedding.move(d)

    def last_move(self, i: int, d: Dart) -> Move:
        """Move of the last crack of d's boundary piece at level i, the
        reverse of the crack of its partner alpha_i(d)."""
        self._require_alive(i, d)
        return self.embedding.move(-self._levels[i].alpha(d))

    # -- kernel application ---------------------------------------------------

    def apply_kernel(self, kernel: Kernel) -> "Pyramid":
        """Append one reduction level, derived from the current top map. The
        kernel is checked against the top map before any state is touched."""
        top = self.top_map()
        dead = [d for d in kernel.darts if d not in top.darts]
        if dead:
            raise KernelError(f"kernel contains dead or unknown darts: {sorted(dead, key=dart_sort_key)[:4]}")
        if kernel.state is KernelState.CK:
            self._check_ck(top, kernel.darts)
            updates: dict[Dart, int] = {}
        elif kernel.state is KernelState.RKESL:
            self._check_rkesl(top, kernel.darts)
            updates = {}
        else:
            self._check_rkede(top, kernel.darts)
            updates = self._fold_orientations(top, kernel.darts)
        order = [d for d in self._top_order if d not in kernel.darts]
        # Nothing fails from here on: _reduce repairs only the chains that
        # _fold_orientations walked. The old top's facts go before the
        # reduced map is built, so a reload holds one vertex partition at a
        # time.
        self._top_order = self._top_vertex = self._top_loops = self._top_joints = None
        reduced = _reduce(top, kernel)
        new_level = len(self.kernels) + 1
        self.kernels.append(kernel)
        for d in kernel.darts:
            self._killed[d] = new_level
        self._or_updates.append(updates)
        self._append_level(reduced, order)
        return self

    def _append_level(self, m: CombinatorialMap, order: list[Dart]) -> None:
        """Store m as the new top, order being its darts in dart_sort_key
        order. For the top only, also keep that order, the vertex partition
        (dart -> canonical vertex dart, the first met in that order), the
        empty self loops and the double-edge joints: kernel construction,
        kernel checks and merge rounds read them."""
        self._top_order = order
        self._top_vertex = _cycle_ids(m.sigma, order)
        self._top_loops = _empty_self_loops(m, self._top_vertex)
        self._top_joints = _joint_darts(m, self.embedding)
        self._levels.append(m)
        self._redundant.append(self._top_loops | self._top_joints)

    def _check_ck(self, top: CombinatorialMap, darts: frozenset[Dart]) -> None:
        if len(darts) == len(top):
            raise KernelError("contraction kernel contains every dart of the top map")
        for d in darts:
            if top.alpha(d) not in darts:
                raise KernelError(f"contraction kernel is not closed under alpha at dart {d}")
        parent: dict[Dart, Dart] = {}
        for d in sorted(darts, key=dart_sort_key):
            if dart_sort_key(top.alpha(d)) < dart_sort_key(d):
                continue
            a, b = self._top_vertex[d], self._top_vertex[top.alpha(d)]
            if a == b:
                raise KernelError(f"contraction kernel contains the self-loop edge of dart {d}")
            ra, rb = _find_root(parent, a), _find_root(parent, b)
            if ra == rb:
                raise KernelError(f"contraction kernel contains a cycle through dart {d}")
            parent[ra] = rb

    def _check_rkesl(self, top: CombinatorialMap, darts: frozenset[Dart]) -> None:
        for d in darts:
            if top.alpha(d) not in darts:
                raise KernelError(f"self-loop kernel is not closed under alpha at dart {d}")
        for d in sorted(darts, key=dart_sort_key):
            if d not in self._top_loops:
                raise KernelError(f"dart {d} is not part of an empty self loop")
        self._check_keeps_vertices(top, darts)

    def _check_rkede(self, top: CombinatorialMap, darts: frozenset[Dart]) -> None:
        if self._top_loops:
            raise KernelError("empty self loops present; remove them before double edges")
        for d in sorted(darts, key=dart_sort_key):
            if d not in self._top_joints:
                raise KernelError(f"dart {d} is not a double-edge joint at a degree-2 dual vertex")
            if top.phi(d) not in darts:
                raise KernelError(f"joint of dart {d} is only half removed")
        self._check_keeps_vertices(top, darts)

    def _check_keeps_vertices(self, top: CombinatorialMap, darts: frozenset[Dart]) -> None:
        # one walk per touched vertex, over its kernel darts up to a survivor
        seen: set[Dart] = set()
        for d in sorted(darts, key=dart_sort_key):
            if self._top_vertex[d] not in seen:
                seen.add(self._top_vertex[d])
                c = top.sigma(d)
                while c in darts and c != d:
                    c = top.sigma(c)
                if c == d:
                    raise KernelError(f"kernel consumes every dart of the vertex of {d}")

    def _fold_orientations(self, top: CombinatorialMap, darts: frozenset[Dart]) -> dict[Dart, int]:
        """New turn counts for survivors whose boundary piece grows.

        A survivor f1 whose partner dies heads a chain f1, sigma(f1), ... of
        same-direction darts ending just before the surviving reverse dart;
        its new count folds the chain's counts and the turns at the joints.
        """
        i = self.top_level

        def last_move(d: Dart) -> Move:
            return self.embedding.move(-top.alpha(d))

        updates: dict[Dart, int] = {}
        for f1 in map(top.alpha, darts):
            if f1 in darts:
                continue
            total = self._orientation(i, f1)
            last = last_move(f1)
            f = f1
            while top.alpha(f) in darts:
                f = top.sigma(f)
                if f == f1:
                    raise KernelError("double-edge chain is not terminated by a surviving partner")
                total += turn_angle(last, self.first_move(f)) + self._orientation(i, f)
                last = last_move(f)
            updates[f1] = total
        return updates

    # -- kernel construction --------------------------------------------------

    def compute_rkesl(self) -> Kernel:
        """Maximal kernel of empty self loops of the current top map."""
        return Kernel.of(KernelState.RKESL, self._top_loops)

    def compute_rkede(self) -> Kernel:
        """Maximal kernel of double-edge joints of the current top map.

        Joints are degree-2 dual vertices whose two darts come from distinct
        edges and meet at one grid corner. Chains of joints keep their first
        dart in each traversal direction; closed boundary rings also keep one
        whole edge so every region keeps a border.
        """
        top = self.top_map()
        link = {top.alpha(x): top.phi(x) for x in self._top_joints}
        has_pred = set(link.values())
        removed: set[Dart] = set()
        seen: set[Dart] = set()
        for f in sorted(link, key=dart_sort_key):
            if f in has_pred or f in seen:
                continue
            seen.add(f)
            c = f
            while c in link:
                c = link[c]
                seen.add(c)
                removed.add(c)
        # leftover links all lie on closed rings; keep one edge per ring
        for f in sorted(link, key=dart_sort_key):
            if f in seen:
                continue
            ring = [f]
            c = link[f]
            while c != f:
                ring.append(c)
                c = link[c]
            seen.update(ring)
            mates = [top.alpha(d) for d in ring]
            seen.update(mates)
            start = min(ring + mates, key=dart_sort_key)
            if start not in ring:
                ring = [top.alpha(d) for d in reversed(ring)]
            k = ring.index(start)
            ordered = ring[k:] + ring[:k]
            removed.update(ordered[1:])
            removed.update(top.alpha(d) for d in ordered[:-1])
        return Kernel.of(KernelState.RKEDE, removed)

    def vertex_of_pixel(self, i: int, x: int, y: int) -> Dart:
        """Representative of the level-i region containing pixel (x, y)."""
        emb = self.embedding
        if not (0 <= x < emb.width and 0 <= y < emb.height):
            raise ValueError(f"pixel ({x}, {y}) outside the {emb.width}x{emb.height} grid")
        d = self._absorbed(i, emb.pixel_dart(x, y))[1]
        return self.reconstruct_level(i).vertex_of(d)

    def pixel_labels(self, i: int) -> list[list[Dart]]:
        """Region representative of every pixel at level i, row by row.

        Resolved walks are shared across pixels, so the whole image costs
        one pass over the base darts instead of one walk per pixel.
        """
        resolved = self.reconstruct_level(i).vertex_ids()
        emb = self.embedding
        out = []
        for y in range(emb.height):
            row = []
            for x in range(emb.width):
                path = []
                c = emb.pixel_dart(x, y)
                while c not in resolved:
                    path.append(c)
                    if len(path) > len(self.base):
                        raise RuntimeError("replay from a contracted dart does not terminate")
                    if self.state(self.level(c)) is KernelState.CK:
                        c = self.base.phi(c)
                    else:
                        c = self.base.sigma(c)
                rep = resolved[c]
                for p in path:
                    resolved[p] = rep
                row.append(rep)
            out.append(row)
        return out

    def redundant_darts(self, i: int) -> frozenset[Dart]:
        """Darts of empty self loops and of removable double-edge joints at
        level i. Empty means the level is safe for enclosure queries."""
        self._check_level(i)
        return self._redundant[i]

    def composed_of(self, i: int, v: Dart) -> frozenset[Dart]:
        """Level-(i-1) vertices merged into vertex v by the level-i kernel.

        Every dart of v's level-i sigma cycle is alive at level i-1, and its
        level-(i-1) sigma cycle is a child. A removal kernel keeps every
        vertex, so that gives the one child. A contraction kernel merges a
        tree of vertices along its edges, some of which lost all their
        darts: following each contracted dart of a child to its alpha_{i-1}
        partner reaches the rest. The walk costs the total degree of the
        children.
        """
        if not 1 <= i <= self.top_level:
            raise ValueError(f"level {i} out of range 1..{self.top_level}")
        cur, prev = self._levels[i], self._levels[i - 1]
        if v not in cur.darts:
            raise ValueError(f"dart {v} does not survive at level {i}")
        contracted = self.kernels[i - 1].darts if self.state(i) is KernelState.CK else frozenset()
        seen: set[Dart] = set()
        out = []
        todo = list(cur.orbit(v, "sigma"))
        while todo:
            d = todo.pop()
            if d in seen:
                continue
            cyc = prev.orbit(d, "sigma")
            seen.update(cyc)
            out.append(min(cyc, key=dart_sort_key))
            todo.extend(prev.alpha(c) for c in cyc if c in contracted)
        return frozenset(out)

    # -- serialization ----------------------------------------------------------

    def to_json(self) -> str:
        """Flat record of the implicit encoding; loading replays the kernels."""
        base_sigma = [self.base.sigma(d) for d in self.embedding._dart_order()]
        payload = {
            "format": "combipyramid-pyramid",
            "version": 1,
            "width": self.embedding.width,
            "height": self.embedding.height,
            "base_sigma": base_sigma,
            "states": [k.state.value for k in self.kernels],
            "kernels": [sorted(k.darts, key=dart_sort_key) for k in self.kernels],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Pyramid":
        """Load a record written by to_json. Every kernel is checked again as
        it is applied; malformed input raises ValueError."""
        try:
            payload = json.loads(text)
        except RecursionError:
            raise ValueError("pyramid JSON is nested too deeply") from None
        if not isinstance(payload, dict) or payload.get("format") != "combipyramid-pyramid":
            raise ValueError("not a serialized pyramid")
        width, height = _positive_int(payload, "width"), _positive_int(payload, "height")
        stored, states, kernels = (_list_field(payload, key) for key in ("base_sigma", "states", "kernels"))
        n_darts = CrackEmbedding(width, height).n_darts
        if len(stored) != n_darts:
            raise ValueError(f"base_sigma has {len(stored)} entries, a {width}x{height} grid has {n_darts} darts")
        if len(states) != len(kernels):
            raise ValueError(f"{len(states)} kernel states for {len(kernels)} kernels")
        pyr = cls.from_grid(width, height)
        actual = [pyr.base.sigma(d) for d in pyr.embedding._dart_order()]
        if stored != actual:
            raise ValueError("stored base permutation does not match the grid layout")
        for k, (state, darts) in enumerate(zip(states, kernels), start=1):
            if not isinstance(darts, list) or any(type(d) is not int for d in darts):
                raise ValueError(f"kernel {k} is not a list of integer darts")
            pyr.apply_kernel(Kernel.of(KernelState(state), darts))
        return pyr


def _find_root(parent: dict[Dart, Dart], v: Dart) -> Dart:
    """Root of v in a union-find forest kept as a parent dict, where a dart
    missing from the dict is a root; halves the path on the way up."""
    while parent.get(v, v) != v:
        parent[v] = parent.get(parent[v], parent[v])
        v = parent[v]
    return v


def _positive_int(payload: dict, key: str) -> int:
    value = payload.get(key)
    if type(value) is not int or value < 1:  # bool is an int subclass
        raise ValueError(f"{key} must be a positive integer, got {value!r}")
    return value


def _list_field(payload: dict, key: str) -> list:
    value = payload.get(key)
    if not isinstance(value, list):
        raise ValueError(f"{key} must be a list")
    return value


def _reduce(m: CombinatorialMap, kernel: Kernel) -> CombinatorialMap:
    """The map left when the kernel's darts are contracted or removed from m.

    sigma'(d) is the first survivor after d along sigma, stepping by phi past
    a contracted dart and by sigma past a removed one. alpha' = alpha, except
    under RKEDE, where y <- alpha(phi(y)) steps past the removed joints. The
    sigma walks follow one permutation, so together they pass each dead dart
    once; an RKEDE walk visits the partners of the darts after d around its
    vertex, up to the first surviving one. The pass costs O(|m|).
    """
    dead = kernel.darts
    sigma, alpha, phi = m.sigma, m.alpha, m.phi
    past = phi if kernel.state is KernelState.CK else sigma
    repair = kernel.state is KernelState.RKEDE
    new_sigma: dict[Dart, Dart] = {}
    new_alpha: dict[Dart, Dart] = {}
    for d in m.darts:
        if d in dead:
            continue
        c = sigma(d)
        while c in dead:
            c = past(c)
        new_sigma[d] = c
        y = alpha(d)
        if repair:
            steps = 0
            while y in dead:
                y = alpha(phi(y))
                steps += 1
                if steps > len(m):
                    raise KernelError(f"double-edge removal leaves dart {d} without a surviving partner")
        new_alpha[d] = y
    return CombinatorialMap(new_sigma.keys(), new_sigma, new_alpha)


def _cycle_ids(step, darts: Iterable[Dart]) -> dict[Dart, Dart]:
    """Each dart mapped to the first dart met on its cycle under step, the
    darts taken in the given order."""
    ids: dict[Dart, Dart] = {}
    for d in darts:
        if d in ids:
            continue
        ids[d] = d
        c = step(d)
        while c != d:
            ids[c] = d
            c = step(c)
    return ids


def _empty_self_loops(m: CombinatorialMap, vertex: dict[Dart, Dart]) -> frozenset[Dart]:
    """Darts of self loops enclosing nothing: the least set closed under
    marking a loop, with its partner, once the rest of its face is marked.
    vertex is m's vertex partition.

    One worklist pass over faces. Each face keeps the count and the sum of
    its unmarked darts, so a face down to one unmarked dart names that dart.
    Marking a loop dart and its partner can only bring the partner's face
    down to one, so only that face is examined again.
    """
    if all(vertex[d] != vertex[m.alpha(d)] for d in m.darts):
        return frozenset()
    face = _cycle_ids(m.phi, m.darts)
    count: dict[Dart, int] = {}
    total: dict[Dart, int] = {}
    for d, f in face.items():
        count[f] = count.get(f, 0) + 1
        total[f] = total.get(f, 0) + d
    work = [f for f, n in count.items() if n == 1]
    marked: set[Dart] = set()
    while work:
        f = work.pop()
        if count[f] != 1:
            continue
        d = total[f]
        a = m.alpha(d)
        if vertex[d] != vertex[a]:
            continue
        marked.update((d, a))
        for x in (d, a):
            count[face[x]] -= 1
            total[face[x]] -= x
        if count[face[a]] == 1:
            work.append(face[a])
    return frozenset(marked)


def _joint_darts(m: CombinatorialMap, emb: CrackEmbedding) -> frozenset[Dart]:
    """Darts of degree-2 dual vertices whose two darts come from distinct
    edges and start at one grid corner: the removable double-edge joints."""
    out: list[Dart] = []
    for x in m.darts:
        y = m.phi(x)
        if x < y and m.phi(y) == x and y != m.alpha(x) and emb.start(x) == emb.start(y):
            out += (x, y)
    return frozenset(out)
