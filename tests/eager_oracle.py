"""Independent references for the derived levels, their empty self loops,
enclosure, shared boundaries and composition.

grid_map_by_pixels builds the base map one pixel cycle at a time. EagerMap
applies kernels one edge or joint at a time on explicit permutation dicts,
with none of the package's derivation machinery. DictTop derives a
level from the one below one dart at a time on dicts, with the kernel
checks' messages: the loop form of the package's array passes.
sorted_sweep_loops grows the empty self loops by repeated sorted sweeps.
vertex_of, region_ids_by_cycles and rag_export_by_cycles name regions by
walking vertex cycles instead of reading region arrays.
_pieces groups the darts of one region that face another into boundary
pieces by walking the phi orbit at each junction, and
relation_report_by_darts builds the relation report one dart at a time,
walking each pair's boundary pieces instead of reading the level's
boundary index.
starting_darts_with_discards classifies a vertex's loops with every dart
of the cycle on its stack, discarding the non-loop darts a closing loop
pops over. inside_all_flood floods
the map from a vertex's directly enclosed neighbours, and
enclosure_forest_by_traversal builds the enclosure forest in one traversal
of every vertex cycle from the outside region; flood_fill_contains_oracle
and enclosed_regions decide enclosure on the pixels, and BoundaryOracle finds
shared boundary pieces on them. composed_of_scan assigns every vertex of the
level below to its parent by a scan of the whole level, and
composed_of_by_cycles walks the children's vertex cycles across contracted
darts. rkede_by_walk follows a dict of joint links from each chain start and
around each ring. validate_dicts is map_core.validate on permutation dicts,
for maps the list-backed map cannot hold. replay_pixel_labels
finds each pixel's region by replaying absorbed darts from the base.
kruskal_forest and check_ck_by_union_find are the sequential union-find
forms of the package's Borůvka forest and contraction check, and
KruskalSegmentation is the merge round one candidate edge at a time, with
region statistics merged pairwise. segment_orientation counts a boundary
piece's quarter turns along its walked segment, the recount of the turn
counts that kernels fold in. All are kept deliberately simple.
"""

from __future__ import annotations

import numpy as np

from typing import Iterable

from combipyramid.boundary import segment
from combipyramid.containment import VisitCounter, inside_direct, require_clean_level
from combipyramid.map_core import CombinatorialMap, CrackEmbedding, Dart, ValidationReport, dart_sort_key
from combipyramid.moves import Move, turn_angle
from combipyramid.pyramid import Kernel, KernelError, KernelState, Pyramid
from combipyramid.relations import infinite_region, region_ids
from combipyramid.segmentation import RegionStats

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
        m = pyr.reconstruct_level(pyr.top_level)
        return cls(m, pyr.embedding, {d: pyr.cached_orientation(i, d) for d in m.darts})

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
            for d in sorted(darts, key=dart_sort_key):
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
        for d in sorted(darts, key=dart_sort_key):
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


def vertex_of(m: CombinatorialMap, d: Dart) -> Dart:
    """Canonical representative dart of the vertex of d: the least dart of
    its sigma cycle."""
    return min(m.orbit(d, "sigma"), key=dart_sort_key)


def region_ids_by_cycles(pyr: Pyramid, i: int) -> list[Dart]:
    """relations.region_ids from the level's vertex cycles."""
    return [cyc[0] for cyc in pyr.reconstruct_level(i).vertices()]


def rag_export_by_cycles(pyr: Pyramid, i: int) -> tuple[list[Dart], list[tuple[Dart, Dart]]]:
    """relations.rag_export from the level's vertex and edge cycles."""
    m = pyr.reconstruct_level(i)
    rep = m.vertex_ids()
    edges: set[tuple[Dart, Dart]] = set()
    for cyc in m.edges():
        u, v = rep[cyc[0]], rep[m.alpha(cyc[0])]
        if u != v:
            edges.add((u, v) if dart_sort_key(u) <= dart_sort_key(v) else (v, u))
    return region_ids_by_cycles(pyr, i), sorted(edges, key=lambda e: (dart_sort_key(e[0]), dart_sort_key(e[1])))


def _pieces(m: CombinatorialMap, rep, facing: list[Dart]) -> list[list[Dart]]:
    """The darts of one region that face one other region, grouped into
    boundary pieces, each a chain of darts in boundary order, in the order
    relations.meets_each lists them.

    rep maps every dart of m to its vertex, as a dict or a region array. A
    piece continues past a junction when every other edge there is a self
    loop: the rule the level's boundary index applies in whole-array
    passes, here walked one phi orbit at a time.
    """
    if not facing:
        return []
    ra, rb = rep[facing[0]], rep[m.alpha(facing[0])]

    def continuation(d: Dart) -> Dart | None:
        # the junction at the far end of d's piece: glue when every incident
        # edge except the two a/b ones is a self loop
        junction = m.orbit(m.alpha(d), "phi")
        separating = [x for x in junction if rep[x] != rep[m.alpha(x)]]
        if len(separating) != 2:
            return None
        y = separating[0] if separating[1] == m.alpha(d) else separating[1]
        if rep[y] == ra and rep[m.alpha(y)] == rb and y != d:
            return y
        return None

    nxt = {d: continuation(d) for d in facing}
    has_pred = {c for c in nxt.values() if c is not None}
    chains = []
    seen: set[Dart] = set()
    # heads of open chains first, then closed rings pinned only by loop
    # anchors, each by its least dart: a chain ends where nxt gives None, a
    # ring where it comes back to its start
    for d in sorted(facing, key=lambda d: (d in has_pred, dart_sort_key(d))):
        if d in seen:
            continue
        end = d if d in has_pred else None
        chain = [d]
        seen.add(d)
        while (step := nxt[chain[-1]]) != end:
            if step is None or len(chain) >= len(facing):
                raise RuntimeError("boundary ring between the regions does not close")
            chain.append(step)
            seen.add(step)
        chains.append(chain)
    return chains


def relation_report_by_darts(pyr: Pyramid, i: int, region: Dart | None = None) -> dict:
    """relations.relation_report one dart at a time: the RAG from every
    dart's region pair, and each pair's boundary pieces grouped by walking
    the phi orbits at their junctions (_pieces) from the darts of one region
    that face the other. Enclosure comes from the forest of one traversal
    from the outside vertex (enclosure_forest_by_traversal): a region's
    enclosers are its chain of parents, and the regions it encloses its
    subtree. Composition comes from the public query the report calls."""
    m = pyr.reconstruct_level(i)
    home = None
    if region is not None:
        pyr._checked(i, region)
        home = pyr._region(i, region)

    def keep(*darts: Dart) -> bool:
        return home is None or home in darts

    regions = region_ids(pyr, i)
    edges: set[tuple[Dart, Dart]] = set()
    for d in m.darts:
        # each pair once, from the dart on its lesser region
        u, v = pyr._region(i, d), pyr._region(i, m.alpha(d))
        if dart_sort_key(u) < dart_sort_key(v):
            edges.add((u, v))
    rag_edges = [e for e in sorted(edges, key=lambda e: (dart_sort_key(e[0]), dart_sort_key(e[1]))) if keep(*e)]
    outside = infinite_region(pyr, i)
    warnings: list[str] = []

    level = pyr._levels[i]
    rep = level.names[level.region]
    facing: dict[tuple[Dart, Dart], list[Dart]] = {}
    for d in m.darts:
        u, v = rep[d], rep[m.alpha(d)]
        if u != v:
            facing.setdefault((u, v), []).append(d)
    meets = [{"a": u, "b": v, "segments": len(_pieces(m, rep, facing[u, v]))} for u, v in rag_edges]

    contains_pairs: list[tuple[Dart, Dart]] = []
    if pyr.redundant_darts(i):
        warnings.append("redundant edges present: enclosure entries omitted")
    else:
        parent, children = enclosure_forest_by_traversal(pyr, i)

        def enclosed(r: Dart) -> list[Dart]:
            out = list(children.get(r, ()))
            for u in out:
                out.extend(children.get(u, ()))
            return out

        if home is None:
            for r in regions:
                contains_pairs += [(r, b) for b in sorted(enclosed(r), key=dart_sort_key)]
        else:
            a = home
            while (a := parent.get(a)) is not None:
                contains_pairs.append((a, home))
            contains_pairs += [(home, b) for b in enclosed(home)]
        contains_pairs.sort(key=lambda p: (dart_sort_key(p[0]), dart_sort_key(p[1])))

    composed = [
        {"parent": r, "children": sorted(pyr.composed_of(i, r), key=dart_sort_key)}
        for r in regions if i >= 1 and keep(r)
    ]

    return {
        "level": i,
        "regions": regions,
        "infinite_region": outside,
        "meets": meets,
        "contains": [[a, b] for a, b in contains_pairs],
        "inside": [[b, a] for a, b in contains_pairs],
        "composed_of": composed,
        "warnings": warnings,
    }


def starting_darts_with_discards(pyr: Pyramid, i: int, v: Dart, counter: VisitCounter | None = None) -> list[Dart]:
    """containment.starting_darts with every dart of the cycle pushed: when
    a dart's partner is found below the stack top, the darts popped over it
    belong to neither side of any loop and are discarded."""
    require_clean_level(pyr, i)
    pyr._checked(i, v)
    m = pyr.reconstruct_level(i)
    move = pyr.embedding.move

    def last_move(d: Dart) -> Move:
        return move(-m.alpha(d))

    out: list[Dart] = []
    stack: list[tuple[Dart, int]] = []
    on_stack: set[Dart] = set()
    discarded: set[Dart] = set()
    prefix = 0
    prev = None
    for dk in m.orbit(pyr._region(i, v), "sigma"):
        if counter is not None:
            counter.hit()
        before = prefix
        if prev is not None:
            prefix += turn_angle(last_move(prev), move(dk))
        prefix += pyr.cached_orientation(i, dk)
        partner = m.alpha(dk)
        if partner in discarded:
            raise RuntimeError(f"crossing loops at dart {dk}: the map is not planar")
        if partner in on_stack:
            while stack and stack[-1][0] != partner:
                gone, _ = stack.pop()
                on_stack.discard(gone)
                discarded.add(gone)
            if not stack:
                raise RuntimeError(f"stack exhausted looking for the partner of dart {dk}")
            dj, prefix_j = stack.pop()
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
        else:
            stack.append((dk, prefix))
            on_stack.add(dk)
        prev = dk
    return out


def inside_all_flood(pyr: Pyramid, i: int, v: Dart) -> frozenset[Dart]:
    """All vertices enclosed by v: everything reachable from the directly
    enclosed neighbours without stepping across v."""
    pyr._checked(i, v)
    cur = pyr.reconstruct_level(i)
    home = vertex_of(cur, v)
    seeds = inside_direct(pyr, i, v)
    seen = set(seeds)
    stack = list(seeds)
    while stack:
        u = stack.pop()
        for d in cur.orbit(u, "sigma"):
            w = vertex_of(cur, cur.alpha(d))
            if w != home and w not in seen:
                seen.add(w)
                stack.append(w)
    return frozenset(seen)


def enclosure_forest_by_traversal(pyr: Pyramid, i: int) -> tuple[dict[Dart, Dart], dict[Dart, list[Dart]]]:
    """(parent, children) of the level's enclosure forest, keyed by
    canonical vertex dart, from one traversal from the outside vertex. A
    neighbour w first reached from v is enclosed by everything enclosing v,
    and by v itself exactly when w lies inside a loop of v, which
    inside_direct tells; so w's parent is v or v's own parent."""
    require_clean_level(pyr, i)
    m = pyr.reconstruct_level(i)
    rep = m.vertex_ids()
    outside = infinite_region(pyr, i)
    parent: dict[Dart, Dart] = {}
    children: dict[Dart, list[Dart]] = {}
    seen = {outside}
    todo = [outside]
    while todo:
        v = todo.pop()
        around = dict.fromkeys(rep[m.alpha(d)] for d in m.orbit(v, "sigma"))
        inner = inside_direct(pyr, i, v) if v in around else frozenset()
        up = parent.get(v)
        for w in around:
            if w in seen:
                continue
            seen.add(w)
            todo.append(w)
            p = v if w in inner else up
            if p is not None:
                parent[w] = p
                children.setdefault(p, []).append(w)
    return parent, children


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


def composed_of_by_cycles(pyr: Pyramid, i: int, v: Dart, contracted: frozenset[Dart]) -> frozenset[Dart]:
    """Level-(i-1) vertices merged into vertex v: the level-(i-1) sigma
    cycles of v's darts, and of the partners of their contracted darts
    (contracted: the darts of a CK kernel at level i, else empty)."""
    cur, prev = pyr.reconstruct_level(i), pyr.reconstruct_level(i - 1)
    seen: set[Dart] = set()
    out = []
    todo = list(cur.orbit(v, "sigma"))
    while todo:
        d = todo.pop()
        if d in seen:
            continue
        cyc = prev.orbit(d, "sigma")
        seen.update(cyc)
        out.append(vertex_of(prev, d))
        todo.extend(prev.alpha(c) for c in cyc if c in contracted)
    return frozenset(out)


def rkede_by_walk(pyr: Pyramid) -> frozenset[Dart]:
    """Pyramid.compute_rkede's darts, by walking the joint links
    alpha(x) -> phi(x) of the top: each chain from its start, each ring
    once from the least dart of it and its mates."""
    top = pyr.reconstruct_level(pyr.top_level)
    link = {top.alpha(x): top.phi(x) for x in joint_darts(top, pyr.embedding)}
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
    return frozenset(removed)


def validate_dicts(darts: Iterable[Dart], sigma: dict[Dart, Dart], alpha: dict[Dart, Dart]) -> ValidationReport:
    """map_core.validate of the map with these darts and permutation dicts."""
    checks: list[tuple[str, bool, Dart | None]] = []
    darts = frozenset(darts)
    order = sorted(darts, key=dart_sort_key)

    witness = None
    for d in order:
        a = alpha.get(d)
        if a is None or a not in darts or alpha.get(a) != d:
            witness = d
            break
    checks.append(("alpha_involution", witness is None, witness))

    witness = next((d for d in order if alpha.get(d) == d), None)
    checks.append(("alpha_no_fixed_point", witness is None, witness))

    domain_ok = set(sigma) == set(darts)
    image = set(sigma.values()) if domain_ok else set()
    sigma_ok = domain_ok and image == set(darts)
    witness = None
    if not sigma_ok and domain_ok:
        witness = min(set(darts) - image, key=dart_sort_key)
    checks.append(("sigma_bijection", sigma_ok, witness))

    seen = set(order[:1])
    stack = order[:1]
    while stack:
        d = stack.pop()
        for n in (sigma.get(d), alpha.get(d)):
            if n is not None and n in darts and n not in seen:
                seen.add(n)
                stack.append(n)
    witness = None if len(seen) == len(darts) else min(darts - seen, key=dart_sort_key)
    checks.append(("connected", witness is None, witness))

    if sigma_ok and checks[0][1] and checks[1][1]:
        phi = {d: sigma[alpha[d]] for d in darts}
        v, e, f = (len(set(cycle_ids(p.__getitem__, order).values())) for p in (sigma, alpha, phi))
        checks.append(("euler_count_2", v - e + f == 2, None))
    else:
        checks.append(("euler_count_2", False, None))
    return ValidationReport(checks)


def replay_pixel_labels(pyr: Pyramid, i: int) -> list[list[Dart]]:
    """Region of every pixel at level i, row by row, by replay from the base.

    From a pixel's dart, step by phi0 past a dart contracted at or below
    level i and by sigma0 past a removed one, until a dart alive at level i
    is hit; its level-i vertex holds the pixel. Resolved walks are shared
    across pixels.
    """
    resolved = pyr.reconstruct_level(i).vertex_ids()
    emb = pyr.embedding
    out = []
    for y in range(emb.height):
        row = []
        for x in range(emb.width):
            path = []
            c = emb.pixel_dart(x, y)
            while c not in resolved:
                path.append(c)
                if len(path) > len(pyr.base):
                    raise RuntimeError("replay from a contracted dart does not terminate")
                if pyr.state(pyr.level(c)) is KernelState.CK:
                    c = pyr.base.phi(c)
                else:
                    c = pyr.base.sigma(c)
            rep = resolved[c]
            for p in path:
                resolved[p] = rep
            row.append(rep)
        out.append(row)
    return out


def find_root(parent: dict, v):
    """Root of v in a union-find forest kept as a parent dict, where a key
    missing from the dict is a root; halves the path on the way up."""
    while parent.get(v, v) != v:
        parent[v] = parent.get(parent[v], parent[v])
        v = parent[v]
    return v


def kruskal_forest(u: Iterable, v: Iterable) -> list[bool]:
    """Kruskal's algorithm over the edges u[k]-v[k] in index order: an edge
    is kept when it joins two trees of the edges kept before it."""
    parent: dict = {}
    keep = []
    for a, b in zip(u, v):
        ra, rb = find_root(parent, a), find_root(parent, b)
        keep.append(ra != rb)
        if ra != rb:
            parent[ra] = rb
    return keep


def check_ck_by_union_find(pyr: Pyramid, kernel: Kernel) -> None:
    """The checks apply_kernel makes of a contraction kernel of live top
    darts, with its messages: union-find over the kernel's edges, each from
    its first dart in dart_sort_key order, on the top map's vertex cycles."""
    top = pyr.reconstruct_level(pyr.top_level)
    if len(kernel.darts) == len(top):
        raise KernelError("contraction kernel contains every dart of the top map")
    for d in sorted(kernel.darts, key=dart_sort_key):
        if top.alpha(d) not in kernel.darts:
            raise KernelError(f"contraction kernel is not closed under alpha at dart {d}")
    vertex = top.vertex_ids()
    parent: dict[Dart, Dart] = {}
    for d in sorted(kernel.darts, key=dart_sort_key):
        if dart_sort_key(top.alpha(d)) < dart_sort_key(d):
            continue
        a, b = vertex[d], vertex[top.alpha(d)]
        if a == b:
            raise KernelError(f"contraction kernel contains the self-loop edge of dart {d}")
        ra, rb = find_root(parent, a), find_root(parent, b)
        if ra == rb:
            raise KernelError(f"contraction kernel contains a cycle through dart {d}")
        parent[ra] = rb


class KruskalSegmentation:
    """SegmentedImage's merge rounds, one candidate edge at a time.

    Each pixel starts with its own RegionStats; a round computes the color
    distance of every edge between two image regions with np.linalg.norm,
    runs Kruskal's loop over the candidates within the threshold sorted by
    (distance, |d|, d), merges the stats of the classes it joins pairwise,
    and re-keys them by the new regions after the round.
    """

    def __init__(self, image: np.ndarray):
        arr = np.asarray(image)
        if arr.ndim == 2:
            arr = arr[:, :, None]
        image = arr.astype(float)
        height, width = arr.shape[:2]
        self.pyramid = Pyramid(width, height)
        emb = self.pyramid.embedding
        self.stats = {
            emb.pixel_dart(x, y): RegionStats(1, image[y, x].copy(), (x, y, x, y))
            for y in range(height)
            for x in range(width)
        }

    def run(self, threshold: float) -> "KruskalSegmentation":
        while self.merge_level(threshold):
            pass
        return self

    def merge_level(self, threshold: float) -> bool:
        pyr, stats = self.pyramid, self.stats
        top = pyr.reconstruct_level(pyr.top_level)
        vertex = top.vertex_ids()
        candidates = []
        for d in top.darts:
            a = top.alpha(d)
            u, v = vertex[d], vertex[a]
            if dart_sort_key(a) < dart_sort_key(d) or u == v or u not in stats or v not in stats:
                continue
            dist = float(np.linalg.norm(stats[u].mean_color - stats[v].mean_color))
            if dist <= threshold:
                candidates.append((dist, abs(d), d, a, u, v))
        candidates.sort()
        parent: dict[Dart, Dart] = {}
        chosen: list[Dart] = []
        for _, _, d, a, u, v in candidates:
            ru, rv = find_root(parent, u), find_root(parent, v)
            if ru == rv:
                continue
            parent[ru] = rv
            stats[rv] = stats[rv].merged(stats.pop(ru))
            chosen.extend((d, a))
        if not chosen:
            return False
        pyr.apply_kernel(Kernel(KernelState.CK, chosen))
        for compute in (pyr.compute_rkesl, pyr.compute_rkede):
            kernel = compute()
            if kernel.darts:
                pyr.apply_kernel(kernel)
        # a class root is a dart of the old top, so the pixel whose base
        # cycle holds it lies in the class; its new region names the class
        top = pyr.top_level
        new = {pyr.vertex_of_pixel(top, *pyr.embedding.pixel_of(r)): s for r, s in stats.items()}
        self.stats = {r: new[r] for r in sorted(new, key=dart_sort_key)}
        return True


def segment_orientation(pyr: Pyramid, i: int, d: Dart) -> int:
    """Sum of the quarter turns between consecutive cracks of d's segment at
    level i, which Pyramid.cached_orientation must equal."""
    moves = segment(pyr, i, d).cracks.moves
    return sum(turn_angle(m1, m2) for m1, m2 in zip(moves, moves[1:]))

