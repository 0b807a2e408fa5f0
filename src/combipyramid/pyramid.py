"""Hierarchy of successively merged partitions stored implicitly.

The encoding is the base map, the level at which each dart dies and the
state of each kernel. A kernel is the set of darts that disappears at one
level, held as one int array sorted in dart_sort_key order, from the code
that computes it to the check and the derivation, and tagged with how it
disappears:

* CK: a forest of edges whose contraction merges adjacent regions,
* RKESL: empty self loops (inner boundaries around nothing),
* RKEDE: darts at degree-2 dual vertices, whose removal fuses consecutive
  boundary pieces into a single edge.

Each level is derived from the level below when its kernel is applied:
sigma_i(d) is the first survivor along sigma_{i-1} after d, stepping by
phi_{i-1} past a contracted dart and by sigma_{i-1} past a removed one, and
alpha_i(d) = alpha_{i-1}(d) except under RKEDE for a survivor d whose partner
dies: d heads a chain d, sigma_{i-1}(d), ... of darts whose partners die, and
alpha_i(d) is the partner of the chain's last dart. The walk of each chain
that folds its turn counts (_fold_orientations) also yields that last dart.
Each level is held in positions of its own dart order, position k standing
for dart order[k]: sigma and alpha as int32 arrays of positions and the
turn counts as an int32 array, each as long as the level. The derivation
and the kernel checks are whole-array passes over the top's: pointer
jumping (_chain_ends) instead of one walk per dart, and one cumulative sum
over the survivors gives their positions in the next level. So an apply
and its checks cost in proportion to the darts alive at the top, but for
one gather of the base-length region array and a mask over the signed
darts that finds the kernel's positions (_kill).

The pyramid stores the encoding as such: the level of each dart in one int
array and the state of each kernel in one list (None at the base); kernels
are rebuilt from them on request. Each level is one record, a _Level, of
its sigma, alpha and turn-count arrays, its darts in dart_sort_key order and
its regions, numbered 0..R-1 in dart_sort_key order of their canonical
darts, which `names` lists: the region array holds, for every base dart,
the index of the level-i vertex that holds or absorbed it. A level's
vertices are those below merged along the contracted trees, less the killed
darts, so a gather over the regions below numbers them and one more derives
the region array. A level whose kernel removes no dart is the record below
it, caches included. Kernel checks, merge rounds, pixel_labels,
vertex_of_pixel, composed_of and the query layer read these arrays.
apply_kernel builds a level in locals and appends its state and record once
every step has passed, so it either appends a level or changes nothing; a
level never changes after that.

The record also keeps what only some readers need, computed on first read
and published with one store, so racing builds give equal values: `map`,
the level's CombinatorialMap, a view of its own arrays that builds its walk
lists on a query's first walk (the base's is build_grid_map's); `loops`
and `joints`, the positions of its empty self loops and of its double-edge
joints, each found apart (the next kernel's check and compute_rkesl read
the loops; an RKEDE check, compute_rkede and redundant_darts read both);
`children`, composed_of's list of the level-(i-1) canonical darts in each
region, for the level i that made the record; `forest`, a clean level's
enclosure forest over its region indices; and `boundary`, the boundary
index that rag_export, relation_report and meets_each read.

The base depends on the grid size alone. The grid tables, the base map and
level 0's record, caches included, are built once per grid size and shared,
read-only, by every pyramid of that size (build_grid_map keeps the last
size; _base_level keeps the record on the embedding), so a new pyramid
allocates only its buffer of dart levels, an array("i"). level(), the dart
checks of _checked and the replay walks index it one dart at a time; the
apply's write, to_json and kernels view it whole with np.frombuffer, no
copy. Whole-level passes read the arrays, so a build or a reload builds no
map of its own and costs in proportion to its kernels and their checks.

The JSON record (version 2) is the encoding itself: the grid size, the
state of each kernel and, in dart_order, the level whose kernel removes each
dart, 0 for a survivor. Loading reads a died list written as to_json writes
it, first in the record, in array passes into one int64 array (_read_died,
_naturals), with only the short rest of the record through json.loads; any
other text goes to json.loads whole, and either way the same inputs load
and the same are rejected, with the same messages. It then groups the
darts by level (_by_level, which kernels reads too) and applies every kernel
through the checks apply_kernel makes.

Replay from the base serves receptive fields and boundary segments, reading
the grid's sigma and the dart levels in place, so it allocates in
proportion to its walk. Walking from a surviving dart d with sigma0, taking
phi0 after a contracted dart and sigma0 after a removed dart, yields the
darts swallowed between d and its level-i successor: the first surviving
dart hit is sigma_i(d). A boundary piece is read off the base instead:
scanning around base corners, the piece grows by one absorbed double-edge
dart at a time and stops where a survivor is met, and the base partner of
its last dart is alpha_i(d) (just -d while the piece is a single crack).

A removed double-edge joint drops one dart from each of the two boundary
directions, so kernels with state RKEDE pair surviving darts of formerly
distinct edges; CK and RKESL kernels always remove whole base edges.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable

import numpy as np

from .map_core import (
    CombinatorialMap,
    CrackEmbedding,
    Dart,
    _cycle_min,
    build_grid_map,
    dart_sort_key,
)
from .moves import Move, turn_angle

__all__ = ["KernelState", "Kernel", "Pyramid", "KernelError"]


class KernelState(Enum):
    CK = "CK"
    RKESL = "RKESL"
    RKEDE = "RKEDE"


@dataclass(frozen=True, eq=False)
class Kernel:
    """Dart set removed by one reduction level, with its removal mode:
    Kernel(state, darts) keeps darts, ints or an int array, as `order`, one
    read-only int64 array in dart_sort_key order without repeats, and their
    frozenset `darts` is built on read. A state that is not a KernelState, a
    dart that is a bool or no int, or one beyond int64 raises KernelError."""

    state: KernelState
    order: np.ndarray

    def __post_init__(self):
        if not isinstance(self.state, KernelState):
            raise KernelError(f"kernel state {self.state!r} is not a KernelState")
        darts = self.order
        if not (isinstance(darts, np.ndarray) and darts.dtype.kind == "i"):
            darts = darts.tolist() if isinstance(darts, np.ndarray) else list(darts)
            if bad := [d for d in darts if isinstance(d, bool) or not isinstance(d, (int, np.integer))]:
                raise KernelError(f"kernel dart {bad[0]!r} is not an integer")
            if big := [d for d in map(int, darts) if not -(2**63) <= d < 2**63]:
                raise KernelError(f"kernel contains dead or unknown darts: {sorted(big, key=dart_sort_key)[:4]}")
        array = np.asarray(darts, dtype=np.int64)
        # as uint64 the keys of all int64 darts are distinct and in order
        order = array[np.unique(dart_sort_key(array).view(np.uint64), return_index=True)[1]]
        order.flags.writeable = False
        object.__setattr__(self, "order", order)

    @cached_property
    def darts(self) -> frozenset[Dart]:
        return frozenset(self.order.tolist())

    def __len__(self) -> int:
        return len(self.order)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Kernel):
            return NotImplemented
        return self.state is other.state and np.array_equal(self.order, other.order)

    def __hash__(self) -> int:
        return hash((self.state, self.order.tobytes()))


class KernelError(ValueError):
    """A kernel does not satisfy the invariants of its state."""


@dataclass(slots=True, eq=False)
class _Level:
    """One pyramid level (see the module docstring) and those above it whose
    kernels remove no dart, in positions of its dart order `order`, position
    k standing for dart order[k]: sigma and alpha as int32 arrays of the
    positions of each dart's images and turns as int32 counts, each as long
    as order; then the int32 region index of every base dart, indexed by
    signed dart, and names, the canonical darts of the regions as an object
    array of Python ints. All are read-only once the level is made. Under
    RKEDE, alpha is derived with the turn counts (_fold_orientations). The
    fields after them are the caches filled on first read, children and
    forest indexed by region: children[r] is composed_of(r) of region r."""

    sigma: np.ndarray
    alpha: np.ndarray
    turns: np.ndarray
    order: np.ndarray
    region: np.ndarray
    names: np.ndarray
    map: CombinatorialMap | None = None
    loops: np.ndarray | None = None
    joints: np.ndarray | None = None
    children: list[frozenset[Dart]] | None = None
    forest: tuple | None = None
    boundary: tuple | None = None

    def __post_init__(self):
        for array in (self.sigma, self.alpha, self.turns, self.order, self.region, self.names):
            array.flags.writeable = False


def _base_level(base: CombinatorialMap, embedding: CrackEmbedding) -> tuple[_Level, np.ndarray]:
    """Level 0's record, on base's own arrays and with base as its map, and
    every pixel's dart, row by row: built by the embedding's first pyramid
    and kept on the embedding, read-only, for every later one. Its regions
    are dart 1's, the outside, then the pixels'. Its caches depend on the
    grid alone, so the pyramids share them too."""
    if (found := embedding._pyramid_base) is None:
        pixels = embedding.pixel_dart(np.arange(embedding.width), np.arange(embedding.height)[:, None])
        pixels.flags.writeable = False
        turns, region = np.zeros(len(base), dtype=np.int32), embedding._grid_tables()[1]
        names = np.append(1, pixels).astype(object)
        found = _Level(base._sigma, base._alpha, turns, base._order, region, names, map=base), pixels
        # published with one store, as the embedding's tables are
        object.__setattr__(embedding, "_pyramid_base", found)
    return found


class Pyramid:
    """Base grid map plus the per-dart level and per-kernel state functions.

    apply_kernel, the single writer, derives each level from the top's
    record; queries read what it stored, which never changes, and add only
    idempotent caches (see the module docstring).
    """

    def __init__(self, width: int, height: int):
        """The unreduced pyramid of a width x height grid, on the base that
        build_grid_map makes or refuses. The encoding past the base is _states,
        each level's kernel state, and _died, one array("i") buffer, never
        resized, of the level whose kernel removed each signed dart (-d at
        slot 2n + 1 - d), 0 while it lives."""
        self.base, self.embedding = build_grid_map(width, height)
        # level 0 and every pixel's dart, row by row, shared with every
        # pyramid of the embedding (_base_level)
        base_level, self._pixels = _base_level(self.base, self.embedding)
        self._n = len(self.base) // 2
        self._died = array("i", [0]) * (2 * self._n + 1)
        self._states: list[KernelState | None] = [None]
        # every level, the top last
        self._levels = [base_level]

    # -- the implicit encoding ------------------------------------------------

    @property
    def top_level(self) -> int:
        return len(self._levels) - 1

    @property
    def kernels(self) -> list[Kernel]:
        """The kernel of every level, rebuilt from the level of each dart."""
        order = self._levels[0].order
        darts, ends = _by_level(order, np.frombuffer(self._died, np.intc)[order], self.top_level)
        return [Kernel(state, darts[a:b]) for state, a, b in zip(self._states[1:], ends, ends[1:])]

    def level(self, d: Dart) -> int:
        """The level whose kernel removes d, top_level + 1 if it never dies:
        d survives up to level(d) - 1. A dart that is not an int or a numpy
        integer, a bool among them, is unknown, as one off the base is."""
        if not (type(d) is int or isinstance(d, np.integer)) or not (-self._n <= d <= self._n and d):
            raise KeyError(f"dart {d} is not in the base map")
        return self._died[d] or len(self._levels)

    def state(self, i: int) -> KernelState:
        """How the level-i kernel removes its darts, for i in 1..top_level."""
        self._checked(i, low=1)
        return self._states[i]

    def _checked(self, i: int, *darts: Dart, low: int = 0) -> _Level:
        """Level i's record. Refuses first a level i that is not an int or a
        numpy integer in low..top_level, then, in turn, each of darts that
        level() refuses or that does not survive at level i, by level()'s
        checks written inline."""
        levels = self._levels
        if not (type(i) is int or isinstance(i, np.integer)) or not low <= i < len(levels):
            raise ValueError(f"level {i} out of range {low}..{len(levels) - 1}")
        n, died = self._n, self._died
        for d in darts:
            if not (type(d) is int or isinstance(d, np.integer)) or not (-n <= d <= n and d):
                raise KeyError(f"dart {d} is not in the base map")
            if 0 < died[d] <= i:
                raise ValueError(f"dart {d} does not survive at level {i}")
        return levels[i]

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
        # every step stays on base darts, so the arrays are read unchecked;
        # the base's alpha is -c, and a dart of level 0 survives
        sigma, died, states = self.embedding.grid_sigma().item, self._died, self._states
        while True:
            c = sigma(-c if 0 < lvl <= i and states[lvl] is KernelState.CK else c)
            lvl = died[c]
            if not 0 < lvl <= i:
                return walk, c
            walk.append(c)
            if len(walk) > limit:
                raise RuntimeError("absorbed-dart replay does not terminate")

    def receptive_field(self, i: int, d: Dart) -> tuple[Dart, ...]:
        """Base darts reduced onto d at level i, in replay order."""
        self._checked(i, d)
        return tuple(self._absorbed(i, d)[0])

    def _segment_walk(self, i: int, d: Dart) -> list[Dart]:
        """Base darts of d's boundary piece at level i, in chain order.

        After each dart c the scan turns around the base corner at the end of
        c's crack: darts contracted or removed as loops at or below level i
        are internal there and skipped; a dart removed as a double edge
        continues the piece; a surviving dart means the boundary stops, so c
        was the last dart and its base partner is alpha_i(d). No check: the
        arrays are read unchecked, so the caller checks d first.
        """
        out = [d]
        limit = len(self.base)
        c = d
        sigma, died, states = self.embedding.grid_sigma().item, self._died, self._states
        while True:
            hop = sigma(c)
            steps = 0
            nxt = None
            while True:
                lvl = died[hop]
                if not 0 < lvl <= i:
                    break
                if states[lvl] is KernelState.RKEDE:
                    nxt = hop
                    break
                hop = sigma(-hop)
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
        """The level-i map: a view of level i's own arrays, made on the
        first call."""
        level = self._checked(i)
        if (m := level.map) is None:
            m = level.map = CombinatorialMap._of(level.order, level.sigma, level.alpha)
        return m

    def _region(self, i: int, d: Dart) -> Dart:
        """Canonical dart of the level-i vertex that holds or absorbed base
        dart d. No check: a negative index wraps, so callers check the level
        and the dart first."""
        level = self._levels[i]
        return level.names[level.region[d]]

    # -- orientation cache ----------------------------------------------------

    def cached_orientation(self, i: int, d: Dart) -> int:
        """Accumulated quarter turns along d's boundary piece at level i.

        Zero at the base; updated whenever a double-edge removal extends the
        piece, by folding in the absorbed darts' counts and junction turns.
        """
        self._checked(i, d)
        return self._orientations(i, [d])[0]

    def _orientations(self, i: int, darts: Iterable[Dart]) -> list[int]:
        """cached_orientation of each of darts, all live at level i: the
        level's turn counts at their positions in its map."""
        at = self.reconstruct_level(i)._lists()[3]
        return self._levels[i].turns[[at[d] for d in darts]].tolist()

    def last_move(self, i: int, d: Dart) -> Move:
        """Move of the last crack of d's boundary piece at level i, the
        reverse of the crack of its partner alpha_i(d)."""
        self._checked(i, d)
        return self.embedding.move(-self.reconstruct_level(i).alpha(d))

    # -- kernel application ---------------------------------------------------

    def apply_kernel(self, kernel: Kernel) -> "Pyramid":
        """Append one reduction level, derived from the current top. The
        kernel is checked against the top in dart_sort_key order, so a
        rejection names the least offending dart, and a kernel that fails
        anywhere leaves the pyramid unchanged."""
        return self._apply(kernel.state, kernel.order)

    def _apply(self, state: KernelState, kd: np.ndarray) -> "Pyramid":
        """apply_kernel of the kernel of state made of the darts of kd, an int
        array of distinct darts in dart_sort_key order, as Kernel and
        from_json make it. The checks and the derivation run in positions of
        the top's dart order, and the new level is built in locals and
        published, with its state, by the appends at the end."""
        top = self._levels[-1]
        kill = self._kill(kd)
        at = np.flatnonzero(kill)
        # each top region's tree, by a top region on it: itself but under CK
        tree = np.arange(len(top.names))
        if state is KernelState.CK:
            tree = self._check_ck(at, kill)
        elif state is KernelState.RKESL:
            self._check_rkesl(at, kill)
        else:
            self._check_rkede(at, kill)
        level = top  # nothing dies: the new level is the top's own record, caches and all
        if kd.size:
            keep = ~kill
            live = np.flatnonzero(keep)
            order = top.order[live]
            # the survivors before each top position: a survivor's new position,
            # int32 as the level stores it, half the memory of intp
            new = np.cumsum(keep, dtype=np.int32) - 1
            alpha, turns = new[top.alpha[live]], top.turns[live]
            if state is KernelState.RKEDE:
                heads, partners, grown = self._fold_orientations(kill)
                alpha[new[heads]] = new[partners]
                turns[new[heads]] = grown
            # a new vertex is the survivors of the top vertices on one tree,
            # which the checks leave one; their least, in order, number them
            least = np.full(len(tree), len(order))
            np.minimum.at(least, tree[top.region[order]], np.arange(len(order)))
            least = least[tree]
            first = np.zeros(len(order), dtype=bool)
            first[least] = True
            region = (np.cumsum(first, dtype=np.int32) - 1)[least][top.region]
            sigma = new[_reduce(top.sigma, top.alpha, kill, live, state)]
            level = _Level(sigma, alpha, turns, order, region, order[first].astype(object))
        self._states.append(state)
        self._levels.append(level)
        np.frombuffer(self._died, np.intc)[kd] = self.top_level
        return self

    def _kill(self, kd: np.ndarray) -> np.ndarray:
        """The mask over the top's positions of the darts of kd, which are
        distinct: kd marked in a mask over signed darts, read at the top's
        dart order. KernelError, naming the least four in plain ints, unless
        all are live top darts; kd is in dart_sort_key order."""
        order, n = self._levels[-1].order, self._n
        if ((kd >= -n) & (kd <= n)).all():
            mark = np.zeros(2 * n + 1, dtype=bool)
            mark[kd] = True
            kill = mark[order]
            if np.count_nonzero(kill) == len(kd):
                return kill
        dead = [d for d in kd.tolist() if not (-n <= d <= n and d and not self._died[d])]
        raise KernelError(f"kernel contains dead or unknown darts: {dead[:4]}")

    def _loops(self, i: int) -> np.ndarray:
        """The positions of level i's empty self loops, in order: computed on
        first use."""
        level = self._levels[i]
        if (loops := level.loops) is None:
            loops = level.loops = np.flatnonzero(_empty_loops(level.sigma, level.alpha, level.region[level.order]))
        return loops

    def _loops_and_joints(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """The positions of level i's empty self loops and of its double-edge
        joints, each in order: each computed on first use."""
        level = self._levels[i]
        if (joints := level.joints) is None:
            joints = level.joints = _joints(level.sigma, level.alpha, level.order, self.embedding)
        return self._loops(i), joints

    def _unpaired(self, at: np.ndarray, kill: np.ndarray) -> Dart | None:
        """The least kernel dart whose alpha partner is not in the kernel; at
        lists the kernel's positions in order."""
        top = self._levels[-1]
        open_ = at[~kill[top.alpha[at]]]
        return int(top.order[open_[0]]) if open_.size else None

    def _check_ck(self, at: np.ndarray, kill: np.ndarray) -> np.ndarray:
        """Raise unless the kernel is a forest of whole edges that leaves a
        dart; else return, for each top region, a region naming its tree."""
        top = self._levels[-1]
        if len(at) == len(top.order):
            raise KernelError("contraction kernel contains every dart of the top map")
        if (open_ := self._unpaired(at, kill)) is not None:
            raise KernelError(f"contraction kernel is not closed under alpha at dart {open_}")
        # the kernel's edges, each from its first dart in dart_sort_key order,
        # form a forest exactly when Kruskal keeps them all; the first edge
        # it drops is a self loop or closes a cycle
        at = at[top.alpha[at] > at]
        u, v = top.region[top.order[at]], top.region[top.order[top.alpha[at]]]
        keep, tree = _spanning_forest(u, v, len(top.names))
        dropped = np.flatnonzero(~keep)
        if dropped.size:
            k = dropped[0]
            d = int(top.order[at[k]])
            if u[k] == v[k]:
                raise KernelError(f"contraction kernel contains the self-loop edge of dart {d}")
            raise KernelError(f"contraction kernel contains a cycle through dart {d}")
        return tree

    def _check_rkesl(self, at: np.ndarray, kill: np.ndarray) -> None:
        if (open_ := self._unpaired(at, kill)) is not None:
            raise KernelError(f"self-loop kernel is not closed under alpha at dart {open_}")
        stray = at[~_mask(len(kill), self._loops(self.top_level))[at]]
        if stray.size:
            raise KernelError(f"dart {int(self._levels[-1].order[stray[0]])} is not part of an empty self loop")
        self._check_keeps_vertices(at)

    def _check_rkede(self, at: np.ndarray, kill: np.ndarray) -> None:
        loops, joints = self._loops_and_joints(self.top_level)
        if loops.size:
            raise KernelError("empty self loops present; remove them before double edges")
        stray = ~_mask(len(kill), joints)[at]
        top = self._levels[-1]
        bad = stray | ~kill[top.sigma[top.alpha[at]]]
        if bad.any():
            k = np.flatnonzero(bad)[0]
            d = int(top.order[at[k]])
            if stray[k]:
                raise KernelError(f"dart {d} is not a double-edge joint at a degree-2 dual vertex")
            raise KernelError(f"joint of dart {d} is only half removed")
        self._check_keeps_vertices(at)

    def _check_keeps_vertices(self, at: np.ndarray) -> None:
        # the least dart on an emptied vertex is the least such vertex's canonical dart
        gone = at[self._emptied(at)]
        if gone.size:
            raise KernelError(f"kernel consumes every dart of the vertex of {int(self._levels[-1].order[gone[0]])}")

    def _emptied(self, at: np.ndarray) -> np.ndarray:
        """Mask of the positions of at that lie on top vertices all of whose
        darts are in at: kernel darts against all darts, counted per vertex."""
        if not at.size:
            return np.zeros(0, dtype=bool)
        top = self._levels[-1]
        vertex = top.region[top.order]
        v = vertex[at]
        return np.bincount(v, minlength=len(top.names))[v] == np.bincount(vertex)[v]

    def _fold_orientations(self, kill: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Survivors whose boundary piece grows, with their new partners and
        turn counts, all as positions of the top.

        A survivor f1 whose partner dies heads a chain f1, sigma(f1), ... of
        same-direction darts ending at the first dart whose partner survives,
        and that partner is f1's new one. Its new count folds the chain's
        counts and the turns at the joints: one _chain_ends walk of every
        chain, each step weighted by the turn at its joint and the count of
        the dart it moves to.
        """
        top = self._levels[-1]
        sigma, alpha, order = top.sigma, top.alpha, top.order
        steps = np.flatnonzero(kill[alpha])  # darts whose chain moves on to sigma
        heads = steps[~kill[steps]]
        nxt = sigma[steps]
        hop = np.arange(len(sigma))
        hop[steps] = nxt
        weight = np.zeros(len(sigma), dtype=np.int64)
        moves = self.embedding.moves
        weight[steps] = turn_angle(moves(-order[alpha[steps]]), moves(order[nxt])) + top.turns[nxt]
        end, total = _chain_ends(hop, heads, weight)
        if kill[alpha[end]].any():
            raise KernelError("double-edge chain is not terminated by a surviving partner")
        return heads, alpha[end], top.turns[heads] + total

    # -- kernel construction --------------------------------------------------

    def compute_rkesl(self) -> Kernel:
        """Maximal kernel of empty self loops of the current top map. A
        vertex made of empty self loops only keeps the loop of its canonical
        dart, so that no vertex is emptied."""
        top = self._levels[-1]
        loops = self._loops(self.top_level)
        # such a vertex's first loop dart, in order, is its canonical dart
        gone = loops[self._emptied(loops)]
        spare = gone[np.unique(top.region[top.order[gone]], return_index=True)[1]]
        spare = np.concatenate([spare, top.alpha[spare]])
        return Kernel(KernelState.RKESL, top.order[loops[~_mask(len(top.order), spare)[loops]]])

    def compute_rkede(self) -> Kernel:
        """Maximal kernel of double-edge joints of the current top map.

        Joints are degree-2 dual vertices whose two darts come from distinct
        edges and meet at one grid corner. Chains of joints keep their first
        dart in each traversal direction; closed boundary rings also keep one
        whole edge so every region keeps a border.

        Link is sigma on the keys alpha(joints). From a key that is no joint
        it runs over joints, all removed, until it leaves the keys; the
        _chain_ends walk finds the keys on such a path. The other keys lie on
        rings, the walk's cycles, in pairs: alpha(r) is the joint partner of
        sigma(r), so the mates of a ring r0, r1, ... form the ring ...,
        alpha(r1), alpha(r0). A pair keeps its least dart s and the partner
        phi(s) of s. All of it runs in positions of the top.
        """
        top = self._levels[-1]
        sigma, alpha = top.sigma, top.alpha
        keys = alpha[self._loops_and_joints(self.top_level)[1]]
        key = _mask(len(sigma), keys)
        on_chain = ~key[_chain_ends(np.where(key, sigma, np.arange(len(sigma))), keys)]
        # the rings by their rank in order, each pair's least
        ring = np.sort(keys[~on_chain])
        rank = np.zeros(len(sigma), dtype=np.intp)
        rank[ring] = np.arange(len(ring))
        least = _cycle_min(rank[sigma[ring]])
        start = ring[np.minimum(least, least[rank[alpha[ring]]])]
        kept = np.concatenate([start, sigma[alpha[start]]])
        removed = np.concatenate([sigma[keys[on_chain]], ring[~_mask(len(sigma), kept)[ring]]])
        return Kernel(KernelState.RKEDE, top.order[removed])

    def vertex_of_pixel(self, i: int, x: int, y: int) -> Dart:
        """Representative of the level-i region containing pixel (x, y)."""
        emb = self.embedding
        whole = all(type(c) is int or isinstance(c, np.integer) for c in (x, y))  # a bool is no coordinate
        if not (whole and 0 <= x < emb.width and 0 <= y < emb.height):
            raise ValueError(f"pixel ({x}, {y}) outside the {emb.width}x{emb.height} grid")
        self._checked(i)
        return self._region(i, emb.pixel_dart(x, y))

    def pixel_labels(self, i: int) -> list[list[Dart]]:
        """Region representative of every pixel at level i, row by row."""
        level = self._checked(i)
        return level.names[level.region[self._pixels]].tolist()

    def redundant_darts(self, i: int) -> frozenset[Dart]:
        """Darts of empty self loops and of removable double-edge joints at
        level i. Empty means the level is safe for enclosure queries."""
        level = self._checked(i)
        loops, joints = self._loops_and_joints(i)
        if not (loops.size or joints.size):  # a clean level, which enclosure queries check for
            return frozenset()
        return frozenset(level.order[np.concatenate([loops, joints])].tolist())

    def composed_of(self, i: int, v: Dart) -> frozenset[Dart]:
        """Level-(i-1) vertices merged into vertex v by the level-i kernel.

        A removal kernel keeps every vertex, so v's own level-(i-1) vertex
        is the one child; a contraction kernel merges a tree of vertices
        along its edges. Either way a level-(i-1) region lies in the level-i
        region of its canonical dart, so one stable sort of the regions
        below by the region above gives the level's list of each region's
        children, and a call is one range check, one read of v's level and
        one list read. A level that shares the record below answers v's own
        region: that record's list belongs to the level that made it.
        It checks inline: the report calls it per region, and _checked(i, v,
        low=1) made a warm noise-regions report 6% slower (458 to 487 µs).
        """
        if not (type(i) is int or isinstance(i, np.integer)) or not 1 <= i < len(self._levels):
            raise ValueError(f"level {i} out of range 1..{len(self._levels) - 1}")
        if self.level(v) <= i:
            raise ValueError(f"dart {v} does not survive at level {i}")
        level, below = self._levels[i], self._levels[i - 1]
        if level is below:
            return frozenset([level.names[level.region.item(v)]])
        if (index := level.children) is None:
            up = level.region[below.names.astype(np.int64)]
            old = below.names[np.argsort(up, kind="stable")].tolist()
            ends = np.cumsum(np.bincount(up, minlength=len(level.names))).tolist()
            index = level.children = [frozenset(old[a:b]) for a, b in zip([0, *ends], ends)]
        return index[level.region.item(v)]

    # -- serialization ----------------------------------------------------------

    def to_json(self) -> str:
        """The implicit encoding as a flat record (version 2): the grid size,
        the state of each kernel and, for each dart in dart_order, the level
        whose kernel removes it, 0 for a survivor."""
        payload = {
            "format": "combipyramid-pyramid",
            "version": 2,
            "width": self.embedding.width,
            "height": self.embedding.height,
            "states": [state.value for state in self._states[1:]],
        }
        rest = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        died = np.frombuffer(self._died, np.intc)[self._levels[0].order]
        # "died" is the first key in sorted order
        return '{"died":' + _json_naturals(died) + "," + rest[1:] + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Pyramid":
        """Load a record written by to_json: the darts grouped into kernels by
        one stable sort of their levels, each kernel then checked again as it
        is applied. A died list in to_json's layout is read by _read_died,
        any other text by json.loads whole, and either way the same inputs
        load and the same are rejected. Malformed input raises ValueError."""
        read = _read_died(text)
        if read is None:
            try:
                payload, body = json.loads(text), None
            except RecursionError:
                raise ValueError("pyramid JSON is nested too deeply") from None
        else:
            payload, body = read
        if not isinstance(payload, dict) or payload.get("format") != "combipyramid-pyramid":
            raise ValueError("not a serialized pyramid")
        version = payload.get("version")
        if type(version) is not int or version != 2:  # 2.0 compares equal to 2
            raise ValueError(f"unsupported pyramid version {version!r}, expected 2")
        width, height = _positive_int(payload, "width"), _positive_int(payload, "height")
        n_darts = CrackEmbedding(width, height).n_darts
        states = _list_field(payload, "states")
        if body is None:
            died = _list_field(payload, "died")
            entries = len(died)
        else:
            entries = int(np.count_nonzero(body == ord(","))) + 1
        if entries != n_darts:
            raise ValueError(f"died has {entries} entries, a {width}x{height} grid has {n_darts} darts")
        top = len(states)
        if body is not None:
            level = died = _naturals(body)
        elif not set(map(type, died)) <= {int}:  # 4.0 and True compare equal to ints
            raise ValueError("died is not a list of integer levels")
        else:
            try:
                level = np.fromiter(died, np.int64, len(died))
            except OverflowError:  # an entry beyond int64
                level = None
        if level is None or not ((level >= 0) & (level <= top)).all():
            bad = next(k for k in died if not 0 <= k <= top)
            raise ValueError(f"died holds level {bad}, outside 0..{top}")
        states = [KernelState(state) for state in states]
        pyr = cls(width, height)
        darts, ends = _by_level(pyr._levels[0].order, level, top)
        for state, a, b in zip(states, ends, ends[1:]):
            pyr._apply(state, darts[a:b])
        return pyr


def _by_level(order: np.ndarray, level: np.ndarray, top: int) -> tuple[np.ndarray, list[int]]:
    """order's darts grouped by level[k] in 0..top, the level of order[k], in
    order within each: darts[:ends[0]] survive, level k's are
    darts[ends[k-1]:ends[k]]. The stable sort is a radix sort on keys of 16
    bits or fewer, as below 65,536 levels."""
    darts = order[np.argsort(level.astype(np.min_scalar_type(top)), kind="stable")]
    ends = np.cumsum(np.bincount(level, minlength=top + 1)).tolist()
    return darts, ends


def _read_died(text: str) -> tuple[dict, np.ndarray] | None:
    """The record, as json.loads reads it, and its died list's body as ASCII
    bytes, for a text that starts with that list as to_json writes it:
    naturals in JSON's form (no sign, no leading zero, 1 to 18 digits)
    between single commas. Only the rest of the record, which is short, goes
    through json.loads, with 0 in the list's place, and _naturals reads the
    body once the record's fields have been checked. None for any other
    text: a rest that could hold another key died (json.loads keeps the
    last; an escape can spell one), one that json.loads rejects, or a list
    in any other form, so json.loads of the whole text reads those."""
    head = '{"died":['
    if not isinstance(text, str) or not text.startswith(head) or (end := text.find("]")) < 0:
        return None
    body, rest = text[len(head) : end], text[end + 1 :]
    if not body or not body.isascii() or '"died"' in rest or "\\" in rest:
        return None
    # byte passes only, and before any of the record's checks can raise: a
    # list that json.loads rejects, or reads as ints of 19 digits or more
    # (beyond int64, or beyond int()'s digit limit), is declined here
    raw = np.frombuffer(body.encode("ascii"), np.uint8)
    comma, digit = raw == ord(","), raw - ord("0") <= 9  # a byte below "0" wraps past 9
    opens = np.concatenate(([True], comma[:-1]))  # the first byte of each entry
    run = digit
    for step in 1, 2, 4, 8, 3:  # run[k]: bytes k to k + 18 are digits
        run = run[:-step] & run[step:]
    if (not (digit | comma).all() or comma[-1] or (opens & comma).any() or run.any()
            or (opens[:-1] & (raw[:-1] == ord("0")) & digit[1:]).any()):  # a leading zero
        return None
    try:
        payload = json.loads('{"died":0' + rest)
    except (ValueError, RecursionError):
        return None
    return payload, raw


def _naturals(body: np.ndarray) -> np.ndarray:
    """The int64 values of a list body that _read_died accepted, the inverse
    of _json_naturals: one array pass per digit column."""
    cut = np.flatnonzero(body == ord(","))
    start = np.concatenate(([0], cut + 1))
    width = np.concatenate((cut, [len(body)])) - start
    digit = body - ord("0")
    value = digit[start].astype(np.int64)
    for j in range(1, width.max()):
        more = np.flatnonzero(width > j)
        value[more] = value[more] * 10 + digit[start[more] + j]
    return value


def _json_naturals(values: np.ndarray) -> str:
    """json.dumps(values.tolist(), separators=(",", ":")) of an int array of
    values >= 0, built as one byte array of digits and commas."""
    digits = len(str(values.max(initial=0)))
    width = sum((values >= 10**j for j in range(1, digits)), np.ones(len(values), np.int64))
    out = np.full(len(values) + width.sum(), ord(","), dtype=np.uint8)
    # each value's digits, then a comma: at[k] is the last digit of value k
    at, rest = np.cumsum(width + 1) - 2, values
    while at.size:  # the next digit of every value with one more, from the right
        out[at] = ord("0") + rest % 10
        at, rest = at[rest >= 10] - 1, rest[rest >= 10] // 10
    return "[" + out[:-1].tobytes().decode("ascii") + "]"


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


def _reduce(sigma: np.ndarray, alpha: np.ndarray, dead: np.ndarray, live: np.ndarray,
            state: KernelState) -> np.ndarray:
    """sigma once the dead darts are contracted (CK) or removed: sigma'(d)
    is the first survivor after d along sigma, stepping by phi past a
    contracted dart and by sigma past a removed one. Darts are positions,
    which sigma and alpha permute, and dead and live mark and list the
    kernel's and the others; returns the position of sigma'(d) for each d
    of live. alpha' is derived by the caller.
    """
    step = sigma[alpha] if state is KernelState.CK else sigma
    end = _chain_ends(np.where(dead, step, np.arange(len(sigma))), sigma[live])
    if dead[end].any():  # a walk that never gets past the dead darts cycles
        raise RuntimeError("a walk over contracted or removed darts does not terminate")
    return end


def _spanning_forest(u: np.ndarray, v: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Mask of the edges u[k]-v[k], between vertices 0..n-1, that Kruskal's
    algorithm keeps when it takes them in index order (each joins two trees
    of the edges before it), and for each vertex a vertex naming its tree.

    Borůvka rounds: the index order is strict, so that forest is the unique
    minimum spanning forest. A round hooks every tree to the tree across
    its least outgoing edge, which the forest holds; of two trees that
    picked the same edge the lesser stays a root, so the hooks hold no
    cycle, and _chain_ends takes every tree to its new root. Each round at
    least halves the trees that still have an outgoing edge.
    """
    keep = np.zeros(len(u), dtype=bool)
    tree = np.arange(n)
    live = np.flatnonzero(u != v)
    while True:
        a, b = tree[u[live]], tree[v[live]]
        cross = a != b
        if not cross.any():
            return keep, tree
        live, a, b = live[cross], a[cross], b[cross]
        # each tree's least outgoing edge, by its index among the live ones
        pick = np.full(n, len(live))
        for side in (a, b):
            np.minimum.at(pick, side, np.arange(len(live)))
        trees = np.flatnonzero(pick < len(live))
        pick = pick[trees]
        keep[live[pick]] = True
        hook = np.arange(n)
        hook[trees] = np.where(a[pick] == trees, b[pick], a[pick])
        mutual = trees[(hook[hook[trees]] == trees) & (trees < hook[trees])]
        hook[mutual] = mutual
        tree = _chain_ends(hook, tree)


def _chain_ends(step: np.ndarray, start: np.ndarray,
                weight: np.ndarray | None = None) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """For each position p of start, where the walk p, step(p),
    step(step(p)), ... ends: at the fixed point it reaches, or at a position
    on the cycle it enters, which the caller tells apart by step(end) != end.
    Positions index step, a negative one wrapping as a signed dart does.
    With weight, zero at every fixed point, also the sum of weight over the
    positions each walk leaves on its way.

    Pointer jumping: after r rounds hop(p) lies 2^r steps on from p, or at
    its fixed point, and total(p) sums the weights in between. A round jumps
    only the positions whose hop still moves on; after as many rounds as the
    bits of their first count, every walk is at its fixed point or on its
    cycle.
    """
    hop = step.copy()
    total = None if weight is None else weight.astype(np.int64)
    todo = np.flatnonzero(hop[hop] != hop)
    for _ in range(len(todo).bit_length()):
        if not todo.size:
            break
        h = hop[todo]
        if total is not None:
            total[todo] += total[h]
        hop[todo] = h = hop[h]
        todo = todo[hop[h] != h]
    end = hop[start]
    return end if total is None else (end, total[start])


def _mask(k: int, at: np.ndarray) -> np.ndarray:
    """Mask over positions 0..k-1, true at those of at."""
    mask = np.zeros(k, dtype=bool)
    mask[at] = True
    return mask


def _empty_loops(sigma: np.ndarray, mate: np.ndarray, vertex: np.ndarray) -> np.ndarray:
    """Mask of the darts of self loops enclosing nothing: the least set
    closed under marking a loop, with its partner, once the rest of its face
    is marked. Darts are positions; sigma and mate (alpha) permute them and
    vertex names the vertex of each.

    Planar loops at a vertex nest like brackets along its cycle, so a loop
    is marked exactly when a side of it there holds loop darts only: those
    peel from the innermost, a face of one dart, out, while a side with a
    dart of another edge keeps such a dart, or a loop that never peels
    either, in the loop's face. Then its darts lie on one run of loop darts
    or its vertex holds loops only: a _chain_ends walk along sigma over loop
    darts names each run by the dart after it, or ends on a cycle.
    """
    at = np.arange(len(sigma))
    # peeling starts from the faces of one dart, phi(d) = d
    if not (sigma[mate] == at).any():
        return np.zeros(len(sigma), dtype=bool)
    loop = vertex == vertex[mate]
    step = np.where(loop, sigma, at)
    end = _chain_ends(step, at)
    return loop & ((end == end[mate]) | (step[end] != end))


def _joints(sigma: np.ndarray, mate: np.ndarray, dart: np.ndarray, embedding: CrackEmbedding) -> np.ndarray:
    """Positions, in order, of the darts of degree-2 dual vertices whose two
    darts come from distinct edges and start at one grid corner: the
    removable double-edge joints. Darts are positions as in _empty_loops;
    dart holds the dart of each, whose start corner embedding gives."""
    phi = sigma[mate]
    at = np.arange(len(sigma))
    k = np.flatnonzero((phi != at) & (phi[phi] == at) & (phi != mate))
    return k[embedding.corners(dart[k]) == embedding.corners(dart[phi[k]])]
