"""Hierarchy of successively merged partitions stored implicitly.

The encoding is the base map, the level at which each dart dies and the
state of each kernel. A kernel is the set of darts that disappears at one
level, tagged with how it disappears:

* CK: a forest of edges whose contraction merges adjacent regions,
* RKESL: empty self loops (inner boundaries around nothing),
* RKEDE: darts at degree-2 dual vertices, whose removal fuses consecutive
  boundary pieces into a single edge.

Each level is derived from the level below when its kernel is applied:
sigma_i(d) is the first survivor along sigma_{i-1} after d, stepping by
phi_{i-1} past a contracted dart and by sigma_{i-1} past a removed one, and
alpha_i(d) = alpha_{i-1}(d) except under RKEDE, where
y <- alpha_{i-1}(phi_{i-1}(y)) steps past removed joints. The top level alone
is also held as int32 sigma/alpha arrays indexed by signed dart, and the
derivation, the kernel checks and the top's vertex partition, empty self
loops and joints are whole-array passes over them: pointer jumping instead of
one walk per dart. Only the constructor and apply_kernel, the single writer,
write the arrays, and no query reads them. Each level map and its redundant
darts are stored once as dict maps, built from one table of the base's int
objects, and never change; queries read those. The one thing a query stores
is a clean level's enclosure forest: the first enclosure query there builds
it and publishes it with one dict store in `_forests`. Levels never change,
so racing builds give equal forests.

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

import numpy as np

from .map_core import (
    CombinatorialMap,
    CrackEmbedding,
    Dart,
    build_grid_map,
    dart_ids,
    dart_order,
    dart_sort_key,
    map_of,
)
from .moves import Move

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

    Construction is single writer via apply_kernel, which derives the new
    level map and its per-level facts from the top's sigma/alpha arrays and
    then replaces those arrays; queries read the stored dict maps and facts
    and add only the per-level enclosure forests, each built once and stored
    idempotently.
    """

    def __init__(self, base: CombinatorialMap, embedding: CrackEmbedding):
        """base is the grid map of embedding, as build_grid_map makes it."""
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
        # The top level as int32 arrays indexed by signed dart (see
        # map_core.dart_ids), 0 for a dead dart: sigma, alpha and the turn
        # count of each dart's boundary piece. _ints holds the base's int
        # object of every dart, so the stored level maps share them.
        self._sigma = embedding.grid_sigma()
        n = len(self._sigma) // 2
        self._ids = dart_ids(n)
        self._alpha = -self._ids
        self._turns = np.zeros(2 * n + 1, dtype=np.int32)
        darts = list(base.darts)
        self._ints = np.empty(2 * n + 1, dtype=object)
        self._ints[np.fromiter(darts, np.int32, len(darts))] = darts
        self._append_level(base, dart_order(n))

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
        dead = kernel.darts - top.darts
        if dead:
            raise KernelError(f"kernel contains dead or unknown darts: {sorted(dead, key=dart_sort_key)[:4]}")
        # only live top darts from here on, so they index the arrays; kd
        # keeps the kernel's iteration order
        kd = np.fromiter(kernel.darts, np.int32, len(kernel.darts))
        kill = np.zeros(len(self._sigma), dtype=bool)
        kill[kd] = True
        updates: dict[Dart, int] = {}
        if kernel.state is KernelState.CK:
            self._check_ck(top, kernel.darts, kd, kill)
        elif kernel.state is KernelState.RKESL:
            self._check_rkesl(kernel.darts, kd, kill)
        else:
            self._check_rkede(kernel.darts, kd, kill)
            heads, turns = self._fold_orientations(kill)
            updates = dict(zip(self._ints[heads], turns.tolist()))
        # Nothing fails from here on: _reduce repairs only the chains that
        # _fold_orientations walked. The old top's facts go before the
        # reduced map is built, so a reload holds one vertex partition at a
        # time.
        if updates:
            self._turns[heads] = turns
        order = self._top_order[~kill[self._top_order]]
        self._top_order = self._top_vertex = self._top_loops = self._top_joints = None
        self._sigma, self._alpha = _reduce(self._sigma, self._alpha, self._ids, kill, order, kernel.state)
        new_level = len(self.kernels) + 1
        self.kernels.append(kernel)
        self._killed.update(dict.fromkeys(kernel.darts, new_level))
        self._or_updates.append(updates)
        self._append_level(map_of(self._ints, order, self._sigma, self._alpha), order)
        return self

    def _append_level(self, m: CombinatorialMap, order: np.ndarray) -> None:
        """Store m, the map of the top arrays, as the new top; order is its
        darts in dart_sort_key order. For the top only, also keep that order,
        the vertex partition (a dart-indexed array of canonical vertex darts,
        the least in dart_sort_key order), the empty self loops and the
        double-edge joints: kernel construction, kernel checks and merge
        rounds read them."""
        self._top_order = order
        # the passes run over positions in order: pos maps a dart to its own
        pos = np.zeros(len(self._sigma), dtype=np.int32)
        pos[order] = np.arange(len(order), dtype=np.int32)
        sigma, mate = pos[self._sigma[order]], pos[self._alpha[order]]
        vertex = _cycle_min(sigma)
        self._top_vertex = np.zeros_like(self._sigma)
        self._top_vertex[order] = order[vertex]
        self._top_loops = frozenset(self._ints[order[_empty_loops(sigma, mate, vertex)]])
        self._top_joints = frozenset(self._ints[order[_joints(sigma, mate, self.embedding.corners(order))]])
        self._levels.append(m)
        self._redundant.append(self._top_loops | self._top_joints)

    def _unpaired(self, kd: np.ndarray, kill: np.ndarray) -> Dart | None:
        """The first kernel dart, in the kernel's iteration order, whose alpha
        partner is not in the kernel; kd lists the kernel in that order."""
        open_ = kd[~kill[self._alpha[kd]]]
        return int(open_[0]) if open_.size else None

    def _check_ck(self, top: CombinatorialMap, darts: frozenset[Dart], kd: np.ndarray, kill: np.ndarray) -> None:
        if len(darts) == len(top):
            raise KernelError("contraction kernel contains every dart of the top map")
        if (open_ := self._unpaired(kd, kill)) is not None:
            raise KernelError(f"contraction kernel is not closed under alpha at dart {open_}")
        # union-find over the kernel's edges, each from its first dart in
        # dart_sort_key order
        kd = kd[np.argsort(_rank(kd))]
        kd = kd[_rank(self._alpha[kd]) > _rank(kd)]
        vertex, ints = self._top_vertex, self._ints
        parent: dict[Dart, Dart] = {}
        for d, a, b in zip(ints[kd].tolist(), ints[vertex[kd]].tolist(), ints[vertex[self._alpha[kd]]].tolist()):
            if a == b:
                raise KernelError(f"contraction kernel contains the self-loop edge of dart {d}")
            ra, rb = _find_root(parent, a), _find_root(parent, b)
            if ra == rb:
                raise KernelError(f"contraction kernel contains a cycle through dart {d}")
            parent[ra] = rb

    def _check_rkesl(self, darts: frozenset[Dart], kd: np.ndarray, kill: np.ndarray) -> None:
        if (open_ := self._unpaired(kd, kill)) is not None:
            raise KernelError(f"self-loop kernel is not closed under alpha at dart {open_}")
        stray = darts - self._top_loops
        if stray:
            raise KernelError(f"dart {min(stray, key=dart_sort_key)} is not part of an empty self loop")
        self._check_keeps_vertices(kd)

    def _check_rkede(self, darts: frozenset[Dart], kd: np.ndarray, kill: np.ndarray) -> None:
        if self._top_loops:
            raise KernelError("empty self loops present; remove them before double edges")
        stray = darts - self._top_joints
        half = kd[~kill[self._sigma[self._alpha[kd]]]].tolist()
        if stray or half:
            d = min(stray | set(half), key=dart_sort_key)
            if d in stray:
                raise KernelError(f"dart {d} is not a double-edge joint at a degree-2 dual vertex")
            raise KernelError(f"joint of dart {d} is only half removed")
        self._check_keeps_vertices(kd)

    def _check_keeps_vertices(self, kd: np.ndarray) -> None:
        # kernel darts against all darts, counted per vertex
        vertex = self._top_vertex[kd]
        rank = _rank(vertex)
        size = np.bincount(_rank(self._top_vertex[self._top_order]))
        taken = np.bincount(rank, minlength=len(size))
        gone = vertex[taken[rank] == size[rank]]
        if gone.size:
            raise KernelError(f"kernel consumes every dart of the vertex of {int(gone[np.argmin(_rank(gone))])}")

    def _fold_orientations(self, kill: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Survivors whose boundary piece grows, with their new turn counts.

        A survivor f1 whose partner dies heads a chain f1, sigma(f1), ... of
        same-direction darts ending just before the surviving reverse dart;
        its new count folds the chain's counts and the turns at the joints.
        Every chain at once, by pointer jumping: after r rounds hop(f) lies
        2^r steps down f's chain, or at its end, and total(f) sums the
        weights of the steps in between.
        """
        sigma, alpha, live = self._sigma, self._alpha, self._top_order
        steps = live[kill[alpha[live]]]  # darts whose chain moves on to sigma
        heads = steps[~kill[steps]]
        nxt = sigma[steps]
        turn = (self.embedding.moves(-alpha[steps]) - self.embedding.moves(nxt)) % 4
        if (turn == 2).any():
            raise ValueError("opposite moves inside a boundary chain")
        total = np.zeros(len(sigma), dtype=np.int64)
        total[steps] = np.where(turn == 3, -1, turn) + self._turns[nxt]
        hop = self._ids.copy()
        hop[steps] = nxt
        moving = kill[alpha]
        for _ in range(len(steps).bit_length() + 1):
            if not moving[hop[heads]].any():
                return heads, self._turns[heads] + total[heads]
            h = hop[steps]
            total[steps] += total[h]
            hop[steps] = hop[h]
        raise KernelError("double-edge chain is not terminated by a surviving partner")

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
        base_sigma = [self.base.sigma(d) for d in dart_order(self.embedding.n_darts // 2).tolist()]
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
        version = payload.get("version")
        if type(version) is not int or version != 1:  # 1.0 and True compare equal to 1
            raise ValueError(f"unsupported pyramid version {version!r}, expected 1")
        width, height = _positive_int(payload, "width"), _positive_int(payload, "height")
        stored, states, kernels = (_list_field(payload, key) for key in ("base_sigma", "states", "kernels"))
        n_darts = CrackEmbedding(width, height).n_darts
        if len(stored) != n_darts:
            raise ValueError(f"base_sigma has {len(stored)} entries, a {width}x{height} grid has {n_darts} darts")
        if len(states) != len(kernels):
            raise ValueError(f"{len(states)} kernel states for {len(kernels)} kernels")
        if not set(map(type, stored)) <= {int}:  # 4.0 and True compare equal to ints
            raise ValueError("base_sigma is not a list of integer darts")
        pyr = cls.from_grid(width, height)
        if stored != pyr._sigma[dart_order(len(pyr._sigma) // 2)].tolist():
            raise ValueError("stored base permutation does not match the grid layout")
        for k, (state, darts) in enumerate(zip(states, kernels), start=1):
            if not isinstance(darts, list) or not set(map(type, darts)) <= {int}:
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


def _rank(d: np.ndarray) -> np.ndarray:
    """Position of each dart in dart_sort_key order: 1, -1, 2, -2, ... map
    to 0, 1, 2, 3, ..."""
    return 2 * np.abs(d) - 2 + (d < 0)


def _reduce(sigma: np.ndarray, alpha: np.ndarray, ids: np.ndarray, dead: np.ndarray, live: np.ndarray,
            state: KernelState) -> tuple[np.ndarray, np.ndarray]:
    """sigma and alpha once the dead darts are contracted (CK) or removed.

    sigma'(d) is the first survivor after d along sigma, stepping by phi past
    a contracted dart and by sigma past a removed one. alpha' = alpha, except
    under RKEDE, where y <- alpha(phi(y)) steps past the removed joints.
    live lists the survivors.
    """
    phi = sigma[alpha]
    new_sigma, new_alpha = np.zeros_like(sigma), np.zeros_like(alpha)
    new_sigma[live] = _first_alive(phi if state is KernelState.CK else sigma, dead, ids, sigma[live])
    if state is KernelState.RKEDE:
        new_alpha[live] = _first_alive(alpha[phi], dead, ids, alpha[live])
    else:
        new_alpha[live] = alpha[live]
    return new_sigma, new_alpha


def _first_alive(step: np.ndarray, dead: np.ndarray, ids: np.ndarray, start: np.ndarray) -> np.ndarray:
    """For each dart c of start, the first of c, step(c), step(step(c)), ...
    that is not dead.

    Pointer jumping over the dead darts: after r rounds hop(c) lies 2^r
    steps past a dead c, or at the first survivor, so a walk over k dead
    darts takes log2(k) rounds.
    """
    hop = np.where(dead, step, ids)
    todo = np.flatnonzero(dead)
    for _ in range(len(todo).bit_length() + 1):
        out = hop[start]
        if not dead[out].any():
            return out
        hop[todo] = hop[hop[todo]]
    raise RuntimeError("a walk over contracted or removed darts does not terminate")


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


def _empty_loops(sigma: np.ndarray, mate: np.ndarray, vertex: np.ndarray) -> np.ndarray:
    """Mask of the darts of self loops enclosing nothing: the least set
    closed under marking a loop, with its partner, once the rest of its
    face is marked. Darts are positions; sigma and mate (alpha) permute
    them and vertex is the partition of _cycle_min.

    Each face keeps the count and the sum of its unmarked darts, so a face
    down to one unmarked dart names that dart. A round marks the loops so
    named; marking a loop and its partner can only bring the partner's face
    down to one, so the next round examines those faces only.
    """
    marked = np.zeros(len(sigma), dtype=bool)
    loop = vertex == vertex[mate]
    if not loop.any():
        return marked
    face = _cycle_min(sigma[mate])
    count = np.bincount(face, minlength=len(sigma))
    total = np.zeros(len(sigma), dtype=np.int64)
    np.add.at(total, face, np.arange(len(sigma)))
    slot = np.empty(len(sigma), dtype=np.intp)
    todo = np.flatnonzero(count == 1)
    while todo.size:
        d = total[todo]
        d = d[loop[d]]
        # a loop named from both its faces is marked from its lesser dart
        marked[d] = True
        d = d[~marked[mate[d]] | (d < mate[d])]
        new = np.concatenate([d, mate[d]])
        marked[new] = True
        np.subtract.at(count, face[new], 1)
        np.subtract.at(total, face[new], new)
        # the touched faces down to one dart, each once: the last write to
        # a face's slot wins, so a round costs the darts it marks
        todo = face[new]
        todo = todo[count[todo] == 1]
        at = np.arange(len(todo))
        slot[todo] = at
        todo = todo[slot[todo] == at]
    return marked


def _joints(sigma: np.ndarray, mate: np.ndarray, corner: np.ndarray) -> np.ndarray:
    """Mask of the darts of degree-2 dual vertices whose two darts come from
    distinct edges and start at one grid corner: the removable double-edge
    joints. Darts are positions as in _empty_loops; corner holds the start
    corner of each."""
    phi = sigma[mate]
    at = np.arange(len(sigma))
    return (phi != at) & (phi[phi] == at) & (phi != mate) & (corner == corner[phi])
