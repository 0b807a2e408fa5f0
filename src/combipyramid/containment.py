"""Which regions lie inside which: loop classification and enclosure queries.

A region that surrounds other regions carries self loops in its vertex cycle.
The two darts of such a loop bracket the part of the cycle that faces the
enclosed component. Walking the cycle once while tracking the running turn
count tells the two darts apart: the bracketed span winds clockwise (+4) as
seen from the surrounding region, the rest counter-clockwise (-4). The dart
whose span is the +4 side is the loop's starting dart.

The span's turn count comes for free from prefix counts kept on a stack, so
one traversal of the cycle classifies every loop, and a second bounded sweep
collects the enclosed neighbours.

Enclosure is laminar, so each clean level has a forest in which a region's
parent is its innermost encloser. The first enclosure query of a level
derives it from the local tests at the vertices with self loops and the
level's region adjacencies (_build_forest), and stores it in the level's
record with one store; levels never change, so two racing builds give equal
forests. The forest is keyed by region index, which a query reads off the
level's region array, so contains is then an ancestor check, O(nesting
depth): it reads the forest off the level's record and walks up from b's
region, returning at a's, with no list built. inside_all is a subtree walk,
O(output), named at its end. Each query's dart checks read the pyramid's
view of its dart levels (Pyramid._checked).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .map_core import Dart, dart_sort_key
from .moves import Move, turn_angle
from .pyramid import Pyramid, _spanning_forest

__all__ = [
    "VisitCounter",
    "starting_darts",
    "inside_direct",
    "inside_all",
    "contains",
]


@dataclass
class VisitCounter:
    """Counts cycle-advancing dart visits, for the work-bound checks."""

    visits: int = 0
    loops: list[tuple[Dart, int]] = field(default_factory=list)

    def hit(self) -> None:
        self.visits += 1


def require_clean_level(pyr: Pyramid, i: int) -> None:
    """Enclosure queries need a level free of redundant edges."""
    bad = pyr.redundant_darts(i)
    if bad:
        witness = min(bad, key=dart_sort_key)
        raise ValueError(
            f"level {i} still has redundant edges (for example at dart {witness}); "
            "apply the self-loop and double-edge kernels first"
        )


def starting_darts(pyr: Pyramid, i: int, v: Dart, counter: VisitCounter | None = None) -> list[Dart]:
    """Starting darts of all self loops incident to the vertex of v.

    Single pass over the vertex cycle. A loop dart, one whose partner lies
    on the same vertex, is pushed with its prefix turn count until its
    partner closes the loop; planarity nests the loops, so the partner is
    then on top of the stack. The span count of the closing loop is the
    current prefix minus the stored one, corrected by the two junction turns
    at the span ends.
    """
    require_clean_level(pyr, i)
    level = pyr._checked(i, v)
    m = pyr.reconstruct_level(i)
    move = pyr.embedding.move

    def last_move(d: Dart) -> Move:
        return move(-m.alpha(d))

    home = level.region.item(v)
    out: list[Dart] = []
    stack: list[tuple[Dart, int]] = []
    on_stack: set[Dart] = set()
    prefix = 0
    prev = None
    cycle = m.orbit(level.names[home], "sigma")
    for dk, count in zip(cycle, pyr._orientations(i, cycle)):
        if counter is not None:
            counter.hit()
        before = prefix
        if prev is not None:
            prefix += turn_angle(last_move(prev), move(dk))
        prefix += count
        partner = m.alpha(dk)
        if partner in on_stack:
            dj, prefix_j = stack.pop()
            if dj != partner:
                raise RuntimeError(f"crossing loops at dart {dk}: the map is not planar")
            on_stack.discard(dj)
            dj_next = m.sigma(dj)
            or_c1 = (
                before
                - prefix_j
                - turn_angle(last_move(dj), move(dj_next))
                + turn_angle(last_move(prev), move(dj_next))
            )
            if or_c1 not in (4, -4):
                raise RuntimeError(f"loop span at dart {dj} has turn count {or_c1}, expected +4 or -4")
            start = dj if or_c1 == 4 else dk
            out.append(start)
            if counter is not None:
                counter.loops.append((start, or_c1))
        elif level.region.item(partner) == home:
            stack.append((dk, prefix))
            on_stack.add(dk)
        prev = dk
    return out


def inside_direct(pyr: Pyramid, i: int, v: Dart, counter: VisitCounter | None = None) -> frozenset[Dart]:
    """Vertices adjacent to v from inside one of its loops.

    For each starting dart the bracketed span is swept once; nested starting
    darts are skipped by jumping to their partner, so no dart of the cycle is
    visited twice across all loops.
    """
    starts = starting_darts(pyr, i, v, counter)
    cur = pyr.reconstruct_level(i)
    start_set = set(starts)
    end_set = {cur.alpha(s) for s in starts}
    found: set[Dart] = set()
    for s in starts:
        stop = cur.alpha(s)
        e = cur.sigma(s)
        while e != stop:
            if counter is not None:
                counter.hit()
            if e in start_set:
                # a nested loop: its span is handled from its own starting dart
                e = cur.sigma(cur.alpha(e))
                continue
            if e in end_set:
                raise RuntimeError(f"ending dart {e} reached before its starting dart")
            found.add(pyr._region(i, cur.alpha(e)))
            e = cur.sigma(e)
    return frozenset(found)


def inside_all(pyr: Pyramid, i: int, v: Dart) -> frozenset[Dart]:
    """All vertices enclosed by v: its subtree in the level's enclosure
    forest. Costs O(output) once the forest is built."""
    level = pyr._checked(i, v)
    children = _enclosure_forest(pyr, i)[1]
    out = list(children.get(level.region.item(v), ()))
    for u in out:  # the loop reaches the children appended to out
        out.extend(children.get(u, ()))
    names = level.names
    return frozenset([names[u] for u in out])


def contains(pyr: Pyramid, i: int, a: Dart, b: Dart) -> bool:
    """True when region b lies inside region a at level i: a is an ancestor
    of b in the enclosure forest. Costs O(nesting depth of b) once the
    forest is built: a walk up from b that stops at a."""
    level = pyr._checked(i, b, a)
    parent = (level.forest or _enclosure_forest(pyr, i))[0]
    region = level.region
    target, u = region.item(a), parent.get(region.item(b))
    while u is not None:
        if u == target:
            return True
        u = parent.get(u)
    return False


def _enclosers(pyr: Pyramid, i: int, v: Dart) -> list[int]:
    """The region indices of the vertices enclosing v, innermost first.
    Callers check that v survives at level i."""
    parent = _enclosure_forest(pyr, i)[0]
    out: list[int] = []
    u = parent.get(pyr._levels[i].region.item(v))
    while u is not None:
        out.append(u)
        u = parent.get(u)
    return out


def infinite_region(pyr: Pyramid, i: int) -> Dart:
    """Representative of the vertex encoding the outside of the image: the
    level-i region of dart 1, which the base's outside vertex starts with."""
    pyr._checked(i)
    return pyr._region(i, 1)


_Forest = tuple[dict[int, int], dict[int, list[int]]]


def _enclosure_forest(pyr: Pyramid, i: int) -> _Forest:
    """The level's enclosure forest, built on first use and then read from
    the level's record. Levels never change, so racing builds give equal
    forests and the one store that publishes each is safe."""
    level = pyr._levels[i]
    if (forest := level.forest) is None:
        forest = level.forest = _build_forest(pyr, i)
    return forest


def _build_forest(pyr: Pyramid, i: int) -> _Forest:
    """(parent, children) over the level's vertices, keyed by region
    index: a vertex's parent is its innermost encloser, and vertices
    enclosed by nothing have none.

    Each live dart joins its region index u to the one v across its first
    crack. inside_direct runs only at the vertices with a self loop, u == v,
    and names the regions each encloses directly: the down pairs. Regions
    joined by any other pair share their innermost encloser, so those pairs
    join them into classes (_spanning_forest), and a class takes the
    encloser of its down pairs (-1 for none); the outside's class has none.
    """
    require_clean_level(pyr, i)
    level = pyr._levels[i]
    region, names = level.region, level.names
    u, v = region[level.order], region[-level.order]
    down = [(x, w) for x in np.unique(u[u == v]).tolist() for w in inside_direct(pyr, i, names[x])]
    if not down:
        return {}, {}
    encloser, child = np.array(down, dtype=np.int64).T
    child = region[child]
    # up: the encloser of each child of a down pair, then of each class, by the region naming it
    up = np.full(len(names), -1)
    up[child] = encloser
    joined = (up[v] != u) & (up[u] != v)
    _, cls = _spanning_forest(u[joined], v[joined], len(names))
    up[child] = -1
    up[cls[child]] = encloser
    if (up[cls[child]] != encloser).any() or up[cls[region[1]]] >= 0:
        raise RuntimeError(f"a class of regions at level {i} has two enclosers")
    has = np.flatnonzero(up[cls] >= 0)
    parent = dict(zip(has.tolist(), up[cls[has]].tolist()))
    children: dict[int, list[int]] = {}
    for w, p in parent.items():
        children.setdefault(p, []).append(w)
    return parent, children
