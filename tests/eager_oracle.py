"""Independent references for the derived levels, their empty self loops,
enclosure, shared boundaries and composition.

grid_map_by_pixels builds the base map one pixel cycle at a time. EagerMap
applies kernels one edge or joint at a time on explicit permutation dicts,
with none of the package's derivation machinery. DictTop derives a
level from the one below one dart at a time on dicts, with the kernel
checks' messages: the loop form of the package's array passes.
sorted_sweep_loops grows the empty self loops by repeated sorted sweeps. inside_all_flood floods
the map from a vertex's directly enclosed neighbours; flood_fill_contains_oracle
and enclosed_regions decide enclosure on the pixels, and BoundaryOracle finds
shared boundary pieces on them. composed_of_scan assigns every vertex of the
level below to its parent by a scan of the whole level. All are kept
deliberately simple.
"""

from __future__ import annotations

import numpy as np

from typing import Iterable

from combipyramid.containment import inside_direct
from combipyramid.map_core import CombinatorialMap, CrackEmbedding, Dart, dart_sort_key
from combipyramid.moves import Move, turn_angle
from combipyramid.pyramid import Kernel, KernelError, KernelState, Pyramid

Crack = tuple[tuple[int, int], tuple[int, int]]


def grid_map_by_pixels(width: int, height: int) -> CombinatorialMap:
    """Base map of a width x height grid: each pixel's side darts closed into
    a counter-clockwise sigma cycle, then the outside cycle, clockwise."""
    nv = (width + 1) * height

    def vid(x: int, y: int) -> Dart:
        return y * (width + 1) + x + 1

    def hid(x: int, y: int) -> Dart:
        return nv + y * width + x + 1

    sigma: dict[Dart, Dart] = {}

    def close(cycle: list[Dart]) -> None:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            sigma[a] = b

    for y in range(height):
        for x in range(width):
            close([vid(x + 1, y), hid(x, y), -vid(x, y), -hid(x, y + 1)])
    close(
        [-hid(x, 0) for x in range(width)]
        + [-vid(width, y) for y in range(height)]
        + [hid(x, height) for x in reversed(range(width))]
        + [vid(0, y) for y in reversed(range(height))]
    )
    return CombinatorialMap(sigma, sigma, {d: -d for d in sigma})


class EagerMap:
    def __init__(self, sigma: dict, alpha: dict):
        self.sigma = dict(sigma)
        self.alpha = dict(alpha)

    @classmethod
    def from_map(cls, m: CombinatorialMap) -> "EagerMap":
        return cls({d: m.sigma(d) for d in m.darts}, {d: m.alpha(d) for d in m.darts})

    def _sigma_inv(self, d):
        prev = d
        while self.sigma[prev] != d:
            prev = self.sigma[prev]
        return prev

    def _phi(self, d):
        return self.sigma[self.alpha[d]]

    def apply(self, kernel: Kernel) -> None:
        if kernel.state is KernelState.CK:
            pairs = sorted({frozenset((d, self.alpha[d])) for d in kernel.darts}, key=lambda p: min(map(abs, p)))
            for pair in pairs:
                self._contract_edge(min(pair, key=dart_sort_key))
        elif kernel.state is KernelState.RKESL:
            self._remove(set(kernel.darts), repair=False)
        else:
            self._remove(set(kernel.darts), repair=True)

    def _contract_edge(self, d) -> None:
        e = self.alpha[d]
        pd, pe = self._sigma_inv(d), self._sigma_inv(e)
        sd, se = self.sigma[d], self.sigma[e]
        if pd == d and pe == e:
            raise ValueError("cannot contract an isolated edge")
        if pd == d:
            self.sigma[pe] = se
        elif pe == e:
            self.sigma[pd] = sd
        else:
            self.sigma[pd] = se
            self.sigma[pe] = sd
        for gone in (d, e):
            del self.sigma[gone]
            del self.alpha[gone]

    def _remove(self, kernel: set, repair: bool) -> None:
        old_sigma = dict(self.sigma)
        old_alpha = dict(self.alpha)

        def phi(x):
            return old_sigma[old_alpha[x]]

        for d in list(self.sigma):
            if d in kernel:
                del self.sigma[d]
                del self.alpha[d]
        for d in self.sigma:
            c = old_sigma[d]
            while c in kernel:
                c = old_sigma[c]
            self.sigma[d] = c
            if repair:
                y = old_alpha[d]
                while y in kernel:
                    y = old_alpha[phi(y)]
                self.alpha[d] = y

    def to_map(self) -> CombinatorialMap:
        return CombinatorialMap(self.sigma.keys(), self.sigma, self.alpha)


def eager_levels(pyr: Pyramid) -> list[CombinatorialMap]:
    """Every level of the pyramid, rebuilt by eager reduction of the base."""
    em = EagerMap.from_map(pyr.base)
    out = [em.to_map()]
    for kernel in pyr.kernels:
        em.apply(kernel)
        out.append(em.to_map())
    return out


class DictTop:
    """One top level on dicts: the map, its vertex partition (dart ->
    least dart of its sigma cycle), empty self loops, double-edge joints and
    the turn count of each dart's boundary piece."""

    def __init__(self, m: CombinatorialMap, emb: CrackEmbedding, turns: dict[Dart, int]):
        self.m, self.emb, self.turns = m, emb, turns
        self.order = sorted(m.darts, key=dart_sort_key)
        self.vertex = cycle_ids(m.sigma, self.order)
        self.loops = empty_self_loops(m, self.vertex)
        self.joints = joint_darts(m, emb)

    @classmethod
    def of(cls, pyr: Pyramid) -> "DictTop":
        i = pyr.top_level
        m = pyr.top_map()
        return cls(m, pyr.embedding, {d: pyr._orientation(i, d) for d in m.darts})

    def apply(self, kernel: Kernel) -> tuple["DictTop", dict[Dart, int]]:
        """The next top and the orientation updates, or KernelError."""
        top, darts = self.m, kernel.darts
        dead = [d for d in darts if d not in top.darts]
        if dead:
            raise KernelError(f"kernel contains dead or unknown darts: {sorted(dead, key=dart_sort_key)[:4]}")
        updates: dict[Dart, int] = {}
        if kernel.state is KernelState.CK:
            self._check_ck(darts)
        elif kernel.state is KernelState.RKESL:
            for d in darts:
                if top.alpha(d) not in darts:
                    raise KernelError(f"self-loop kernel is not closed under alpha at dart {d}")
            for d in sorted(darts, key=dart_sort_key):
                if d not in self.loops:
                    raise KernelError(f"dart {d} is not part of an empty self loop")
            self._check_keeps_vertices(darts)
        else:
            if self.loops:
                raise KernelError("empty self loops present; remove them before double edges")
            for d in sorted(darts, key=dart_sort_key):
                if d not in self.joints:
                    raise KernelError(f"dart {d} is not a double-edge joint at a degree-2 dual vertex")
                if top.phi(d) not in darts:
                    raise KernelError(f"joint of dart {d} is only half removed")
            self._check_keeps_vertices(darts)
            updates = self._fold_orientations(darts)
        return DictTop(reduce_map(top, kernel), self.emb, {**self.turns, **updates}), updates

    def _check_ck(self, darts: frozenset[Dart]) -> None:
        top = self.m
        if len(darts) == len(top):
            raise KernelError("contraction kernel contains every dart of the top map")
        for d in darts:
            if top.alpha(d) not in darts:
                raise KernelError(f"contraction kernel is not closed under alpha at dart {d}")
        parent: dict[Dart, Dart] = {}

        def find(v):
            while parent.get(v, v) != v:
                v = parent[v]
            return v

        for d in sorted(darts, key=dart_sort_key):
            if dart_sort_key(top.alpha(d)) < dart_sort_key(d):
                continue
            a, b = self.vertex[d], self.vertex[top.alpha(d)]
            if a == b:
                raise KernelError(f"contraction kernel contains the self-loop edge of dart {d}")
            ra, rb = find(a), find(b)
            if ra == rb:
                raise KernelError(f"contraction kernel contains a cycle through dart {d}")
            parent[ra] = rb

    def _check_keeps_vertices(self, darts: frozenset[Dart]) -> None:
        seen: set[Dart] = set()
        for d in sorted(darts, key=dart_sort_key):
            if self.vertex[d] not in seen:
                seen.add(self.vertex[d])
                c = self.m.sigma(d)
                while c in darts and c != d:
                    c = self.m.sigma(c)
                if c == d:
                    raise KernelError(f"kernel consumes every dart of the vertex of {d}")

    def _fold_orientations(self, darts: frozenset[Dart]) -> dict[Dart, int]:
        """A survivor f1 whose partner dies heads a chain f1, sigma(f1), ...
        of same-direction darts ending just before the surviving reverse
        dart; its new count folds the chain's counts and the joint turns."""
        top = self.m

        def last_move(d: Dart) -> Move:
            return self.emb.move(-top.alpha(d))

        updates: dict[Dart, int] = {}
        for f1 in map(top.alpha, darts):
            if f1 in darts:
                continue
            total = self.turns.get(f1, 0)
            last = last_move(f1)
            f = f1
            while top.alpha(f) in darts:
                f = top.sigma(f)
                if f == f1:
                    raise KernelError("double-edge chain is not terminated by a surviving partner")
                total += turn_angle(last, self.emb.move(f)) + self.turns.get(f, 0)
                last = last_move(f)
            updates[f1] = total
        return updates


def reduce_map(m: CombinatorialMap, kernel: Kernel) -> CombinatorialMap:
    """The map left when the kernel's darts are contracted or removed from m:
    sigma'(d) is the first survivor after d along sigma, stepping by phi past
    a contracted dart and by sigma past a removed one; alpha' = alpha, except
    under RKEDE, where y <- alpha(phi(y)) steps past the removed joints."""
    dead = kernel.darts
    past = m.phi if kernel.state is KernelState.CK else m.sigma
    new_sigma: dict[Dart, Dart] = {}
    new_alpha: dict[Dart, Dart] = {}
    for d in m.darts:
        if d in dead:
            continue
        c = m.sigma(d)
        while c in dead:
            c = past(c)
        new_sigma[d] = c
        y = m.alpha(d)
        while kernel.state is KernelState.RKEDE and y in dead:
            y = m.alpha(m.phi(y))
        new_alpha[d] = y
    return CombinatorialMap(new_sigma.keys(), new_sigma, new_alpha)


def cycle_ids(step, darts: Iterable[Dart]) -> dict[Dart, Dart]:
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


def empty_self_loops(m: CombinatorialMap, vertex: dict[Dart, Dart]) -> frozenset[Dart]:
    """Darts of self loops enclosing nothing, by a worklist over faces that
    keep the count and the sum of their unmarked darts."""
    face = cycle_ids(m.phi, m.darts)
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


def joint_darts(m: CombinatorialMap, emb: CrackEmbedding) -> frozenset[Dart]:
    """Darts of degree-2 dual vertices whose two darts come from distinct
    edges and start at one grid corner."""
    out: list[Dart] = []
    for x in m.darts:
        y = m.phi(x)
        if x < y and m.phi(y) == x and y != m.alpha(x) and emb.start(x) == emb.start(y):
            out += (x, y)
    return frozenset(out)


def sorted_sweep_loops(m: CombinatorialMap) -> set:
    """Darts of self loops enclosing nothing, grown to the fixed point.

    Seeded by loops whose inner face is a single dart, then extended by loops
    whose inner face sees only loops already collected.
    """
    vertex_of = {}
    for cyc in m.vertices():
        for d in cyc:
            vertex_of[d] = cyc[0]
    loop_darts = {d for d in m.darts if vertex_of[d] == vertex_of[m.alpha(d)]}
    marked: set = set()
    changed = True
    while changed:
        changed = False
        for d in sorted(loop_darts, key=dart_sort_key):
            if d in marked:
                continue
            for side in (d, m.alpha(d)):
                if all(x == side or x in marked for x in m.orbit(side, "phi")):
                    marked.add(d)
                    marked.add(m.alpha(d))
                    changed = True
                    break
    return marked


def inside_all_flood(pyr: Pyramid, i: int, v: Dart) -> frozenset[Dart]:
    """All vertices enclosed by v: everything reachable from the directly
    enclosed neighbours without stepping across v."""
    pyr._require_alive(i, v)
    cur = pyr.reconstruct_level(i)
    home = cur.vertex_of(v)
    seeds = inside_direct(pyr, i, v)
    seen = set(seeds)
    stack = list(seeds)
    while stack:
        u = stack.pop()
        for d in cur.orbit(u, "sigma"):
            w = cur.vertex_of(cur.alpha(d))
            if w != home and w not in seen:
                seen.add(w)
                stack.append(w)
    return frozenset(seen)


def flood_fill_contains_oracle(labels, a: int, b: int) -> bool:
    """Pixel-level reference for contains: flooding from region b over the
    complement of region a never reaches the image border.

    Regions are 4-connected, so the complement floods with 8-connectivity:
    a pocket touching other boundaries only at a corner point is not sealed.
    This is the standard connectivity pairing and it matches crack-boundary
    enclosure exactly.
    """
    arr = np.asarray(labels)
    if arr.ndim != 2:
        raise ValueError("labels must be a 2D array")
    if a == b:
        raise ValueError("regions must differ")
    for r in (a, b):
        if not (arr == r).any():
            raise ValueError(f"unknown region label {r}")
    h, w = arr.shape
    blocked = arr == a
    seen = np.zeros_like(blocked)
    stack = [(int(y), int(x)) for y, x in zip(*np.nonzero(arr == b))]
    for y, x in stack:
        seen[y, x] = True
    while stack:
        y, x = stack.pop()
        if y == 0 or x == 0 or y == h - 1 or x == w - 1:
            return False
        for ny in (y - 1, y, y + 1):
            for nx in (x - 1, x, x + 1):
                if not seen[ny, nx] and not blocked[ny, nx]:
                    seen[ny, nx] = True
                    stack.append((ny, nx))
    return True


def enclosed_regions(labels: np.ndarray, a: int) -> frozenset[int]:
    """Labels of all regions inside region a.

    Region b is inside a when flooding from b over the complement of a never
    reaches the image border. Regions are 4-connected, so the complement
    floods with 8-connectivity: a pocket touching other boundaries only at a
    corner point is not sealed. Every pixel outside a's bounding box reaches
    the border in a straight line, so the flood runs from the ring around
    that box and stays inside it; whatever it leaves unreached is enclosed.
    """
    ys, xs = np.nonzero(labels == a)
    if len(ys) == 0:
        return frozenset()
    h, w = labels.shape
    y0, y1 = max(int(ys.min()) - 1, 0), min(int(ys.max()) + 1, h - 1)
    x0, x1 = max(int(xs.min()) - 1, 0), min(int(xs.max()) + 1, w - 1)
    win = labels[y0 : y1 + 1, x0 : x1 + 1]
    wh, ww = win.shape
    blocked = win == a
    seen = blocked.copy()
    stack = []
    for y in range(wh):
        for x in range(ww):
            if (y in (0, wh - 1) or x in (0, ww - 1)) and not seen[y, x]:
                seen[y, x] = True
                stack.append((y, x))
    while stack:
        y, x = stack.pop()
        for ny in range(max(y - 1, 0), min(y + 2, wh)):
            for nx in range(max(x - 1, 0), min(x + 2, ww)):
                if not seen[ny, nx]:
                    seen[ny, nx] = True
                    stack.append((ny, nx))
    return frozenset(int(v) for v in np.unique(win[~seen]))


def label_cracks(labels: np.ndarray, outside: int) -> dict[Crack, tuple[int, int]]:
    """Every crack between two different regions, image border included,
    mapped to the sorted label pair it separates. A crack is its two end
    corners (x, y), smaller first."""
    h, w = labels.shape
    p = np.full((h + 2, w + 2), outside, dtype=np.int64)
    p[1:-1, 1:-1] = labels
    out: dict[Crack, tuple[int, int]] = {}
    # horizontal crack from (x, y) to (x + 1, y): pixel rows y - 1 and y
    for y, x in zip(*np.nonzero(p[:-1, 1:-1] != p[1:, 1:-1])):
        u, v = int(p[y, x + 1]), int(p[y + 1, x + 1])
        out[((int(x), int(y)), (int(x) + 1, int(y)))] = (min(u, v), max(u, v))
    # vertical crack from (x, y) to (x, y + 1): pixel columns x - 1 and x
    for y, x in zip(*np.nonzero(p[1:-1, :-1] != p[1:-1, 1:])):
        u, v = int(p[y + 1, x]), int(p[y + 1, x + 1])
        out[((int(x), int(y)), (int(x), int(y) + 1))] = (min(u, v), max(u, v))
    return out


class BoundaryOracle:
    """Adjacency and shared-boundary pieces of one label raster."""

    def __init__(self, labels: np.ndarray, outside: int):
        self.cracks = label_cracks(labels, outside)
        self.degree: dict[tuple[int, int], int] = {}
        self.by_pair: dict[tuple[int, int], list[Crack]] = {}
        for crack, pair in self.cracks.items():
            for p in crack:
                self.degree[p] = self.degree.get(p, 0) + 1
            self.by_pair.setdefault(pair, []).append(crack)

    def adjacent_pairs(self) -> set[tuple[int, int]]:
        return set(self.by_pair)

    def shared(self, a: int, b: int) -> tuple[frozenset[Crack], int]:
        """The a|b cracks and the number of connected boundary pieces they
        form. Two a|b cracks continue each other only through a corner where
        exactly two boundary cracks meet; other corners are junctions."""
        ab = self.by_pair.get((min(a, b), max(a, b)), [])
        parent = {c: c for c in ab}

        def find(c):
            while parent[c] != c:
                parent[c] = parent[parent[c]]
                c = parent[c]
            return c

        by_point: dict[tuple[int, int], list[Crack]] = {}
        for c in ab:
            for p in c:
                by_point.setdefault(p, []).append(c)
        for p, incident in by_point.items():
            if self.degree[p] == 2 and len(incident) == 2:
                ra, rb = find(incident[0]), find(incident[1])
                if ra != rb:
                    parent[ra] = rb
        return frozenset(ab), len({find(c) for c in ab})


def composed_of_scan(pyr: Pyramid, i: int, v: Dart) -> frozenset[Dart]:
    """Level-(i-1) vertices merged into vertex v, by a scan of every
    level-(i-1) vertex.

    A vertex belongs to the level-i vertex of its first dart alive at level
    i; when a contraction took all its darts, stepping by phi_{i-1} past the
    contracted darts reaches a survivor of the vertex it merged into.
    """
    cur, prev = pyr.reconstruct_level(i), pyr.reconstruct_level(i - 1)
    home = set(cur.orbit(v, "sigma"))
    out = []
    for cyc in prev.vertices():
        d = next((d for d in cyc if d in cur.darts), None)
        if d is None:
            d, steps = cyc[0], 0
            while d not in cur.darts:
                d = prev.phi(d)
                steps += 1
                if steps > len(pyr.base):
                    raise RuntimeError("replay from a contracted dart does not terminate")
        if d in home:
            out.append(cyc[0])
    return frozenset(out)
