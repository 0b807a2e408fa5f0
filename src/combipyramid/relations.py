"""Uniform query layer over one pyramid level.

Five relationships between regions: meets_exists, meets_each (one boundary
piece per shared border), contains, inside and composed_of. Regions are named
by the canonical dart of their vertex cycle; exactly one region per level is
the outside face.
"""

from __future__ import annotations

import numpy as np

from .boundary import CrackChain, Segment, segment
from .containment import _enclosers, infinite_region, inside_all
from .map_core import CombinatorialMap, Dart, dart_sort_key
from .pyramid import Pyramid, _chain_ends, _cycle_min

__all__ = [
    "region_ids",
    "infinite_region",
    "meets_each",
    "meets_exists",
    "rag_export",
    "rag_to_dot",
    "relation_report",
]


def region_ids(pyr: Pyramid, i: int) -> list[Dart]:
    """Canonical representative darts of all level-i vertices, in
    dart_sort_key order: the darts that are their own region."""
    pyr._check_level(i)
    level = pyr._levels[i]
    order = level.order
    return pyr._ints[order[level.region[order] == order]].tolist()


def meets_each(pyr: Pyramid, i: int, a: Dart, b: Dart) -> list[Segment]:
    """One Segment per connected boundary piece between regions a and b.

    A piece may span several map edges: where an inner self loop anchors on
    the boundary it pins a junction that does not separate two pieces of the
    a/b border, so edges continuing through such junctions are glued. Empty
    when the regions are not adjacent.
    """
    for d in (a, b):
        pyr._require_alive(i, d)
    m = pyr.reconstruct_level(i)
    rep = m.vertex_ids()
    ra, rb = rep[a], rep[b]
    if ra == rb:
        raise ValueError("meets_each needs two distinct regions")
    facing = [d for d in m.orbit(ra, "sigma") if rep[m.alpha(d)] == rb]
    out = []
    for chain in _pieces(m, rep, facing):
        pieces = [segment(pyr, i, d) for d in chain]
        darts: list[Dart] = []
        moves = []
        for k, piece in enumerate(pieces):
            if k and piece.cracks.start != pieces[k - 1].cracks.points()[-1]:
                raise RuntimeError("glued boundary pieces do not touch")
            darts.extend(piece.darts)
            moves.extend(piece.cracks.moves)
        out.append(Segment(tuple(darts), CrackChain(pieces[0].cracks.start, tuple(moves))))
    return out


def _pieces(m: CombinatorialMap, rep: dict[Dart, Dart], facing: list[Dart]) -> list[list[Dart]]:
    """The darts of one region that face one other region, grouped into
    boundary pieces, each a chain of darts in boundary order.

    rep maps every dart of m to its vertex. A piece continues past a
    junction when every other edge there is a self loop. Only meets_each
    walks pieces; relation_report counts them with _segment_counts, which
    applies the same rule in whole-array passes.
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


def meets_exists(pyr: Pyramid, i: int, a: Dart, b: Dart) -> bool:
    """True when regions a and b share a boundary: one walk of a's vertex
    cycle, stopping at the first dart whose partner lies in b's region."""
    for d in (a, b):
        pyr._require_alive(i, d)
    region = pyr._levels[i].region
    ra, rb = region[a], region[b]
    if ra == rb:
        raise ValueError("meets_exists needs two distinct regions")
    m = pyr.reconstruct_level(i)
    d = start = int(ra)
    while region[m.alpha(d)] != rb:
        d = m.sigma(d)
        if d == start:
            return False
    return True


def rag_export(pyr: Pyramid, i: int) -> tuple[list[Dart], list[tuple[Dart, Dart]]]:
    """Plain region adjacency graph: one vertex per region, one undirected
    edge per adjacent pair, both in dart_sort_key order. Self loops and
    parallel edges collapse: the edges are one np.unique over the pairs of
    the facing darts."""
    regions = region_ids(pyr, i)
    _, u, v, pair = _facing(pyr, i)
    _, first = np.unique(pair, return_index=True)
    return regions, list(zip(u[first].tolist(), v[first].tolist()))


def _facing(pyr: Pyramid, i: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The darts of level i whose region u precedes their partner's region
    v in dart_sort_key order: their positions in the level's dart order, u,
    v and the pair as one int64 key, rank(u) * R + rank(v). The caller
    checks the level.

    A live dart d is the first crack of its boundary piece, so its base
    partner -d lies across that crack, in the region of alpha_i(d): the
    region array alone names both sides.
    """
    level = pyr._levels[i]
    order, region = level.order, level.region
    u, v = region[order], region[-order]
    ru, rv = dart_sort_key(u).astype(np.int64), dart_sort_key(v)
    facing = np.flatnonzero(ru < rv)
    return facing, u[facing], v[facing], (ru * len(region) + rv)[facing]


def _segment_counts(pyr: Pyramid, i: int) -> np.ndarray:
    """The boundary pieces of every edge of rag_export(pyr, i), in its
    order: the pieces _pieces walks, counted in whole-array passes over the
    level's darts, read off its stored arrays. The caller checks the level.

    A facing dart d continues its piece into y when the face of alpha(d)
    holds exactly two separating darts (darts whose regions differ), y is
    the other one, y has d's pair and y is not d. Each face keeps the count
    and the position sum of its separating darts, so y is the sum less
    alpha(d). The links form chains and rings: a piece is counted at the
    last dart of its chain, which does not continue, or at the least dart of
    its ring. The _chain_ends walk takes every dart of a chain to its last
    dart and leaves a ring's darts on the ring, its cycle.
    """
    facing, _, _, pair = _facing(pyr, i)
    edges, edge = np.unique(pair, return_inverse=True)
    _, sigma, mate = pyr._levels[i].positions()
    k = len(sigma)
    face = _cycle_min(sigma[mate])
    separating = np.concatenate([facing, mate[facing]])
    count = np.bincount(face[separating], minlength=k)
    total = np.bincount(face[separating], weights=separating, minlength=k).astype(np.int64)
    pair_at = np.full(k, -1)
    pair_at[facing] = pair
    f = face[mate[facing]]
    y = np.where(count[f] == 2, total[f] - mate[facing], facing)
    links = (pair_at[y] == pair) & (y != facing)
    nxt = np.arange(k)
    nxt[facing[links]] = y[links]
    end = _chain_ends(nxt, np.arange(k))
    ring = nxt[end] != end
    least = _cycle_min(np.where(ring, nxt, np.arange(k)))
    heads = ring[facing] & (least[facing] == facing)
    return np.bincount(edge[~links | heads], minlength=len(edges))


def rag_to_dot(pyr: Pyramid, i: int, name: str = "rag") -> str:
    regions, edges = rag_export(pyr, i)
    outside = infinite_region(pyr, i)
    lines = [f"graph {name} {{"]
    for r in regions:
        shape = ' [shape=doublecircle]' if r == outside else ""
        lines.append(f'  "r{r}"{shape};')
    for u, v in edges:
        lines.append(f'  "r{u}" -- "r{v}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def relation_report(pyr: Pyramid, i: int, region: Dart | None = None) -> dict:
    """All five relationships at level i as one JSON-ready record.

    Enclosure entries are dropped with a warning while the level still has
    redundant edges; everything else is always reported. The optional region
    filter keeps, and computes, only pairs involving that region: its
    enclosers and the regions it encloses, read off the level's enclosure
    forest. The adjacent pairs and their piece counts are whole-array
    passes over the level's live darts (rag_export and _segment_counts);
    the enclosure and composition entries take one inside_all and one
    composed_of call per region reported.
    """
    home = None
    if region is not None:
        pyr._require_alive(i, region)
        home = pyr._region(i, region)

    def keep(*darts: Dart) -> bool:
        return home is None or home in darts

    regions, rag_edges = rag_export(pyr, i)
    segments = _segment_counts(pyr, i).tolist()
    meets = [{"a": u, "b": v, "segments": n} for (u, v), n in zip(rag_edges, segments) if keep(u, v)]
    outside = infinite_region(pyr, i)
    warnings: list[str] = []

    contains_pairs: list[tuple[Dart, Dart]] = []
    if pyr.redundant_darts(i):
        warnings.append("redundant edges present: enclosure entries omitted")
    elif home is None:
        for r in regions:
            contains_pairs += [(r, b) for b in sorted(inside_all(pyr, i, r), key=dart_sort_key)]
    else:
        contains_pairs = [(a, home) for a in _enclosers(pyr, i, home)]
        contains_pairs += [(home, b) for b in inside_all(pyr, i, home)]
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
