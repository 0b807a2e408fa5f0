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
from .map_core import CombinatorialMap, Dart, dart_order, dart_sort_key
from .pyramid import Pyramid

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
    region = pyr._regions[i]
    order = dart_order(len(region) // 2)
    return pyr._ints[order[region[order] == order]].tolist()


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


def _pieces(m: CombinatorialMap, rep: dict[Dart, Dart] | np.ndarray, facing: list[Dart]) -> list[list[Dart]]:
    """The darts of one region that face one other region, grouped into
    boundary pieces, each a chain of darts in boundary order.

    rep maps every dart of m to its vertex: a dict, or the level's region
    array indexed by signed dart. A piece continues past a junction when
    every other edge there is a self loop.
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
    return bool(meets_each(pyr, i, a, b))


def rag_export(pyr: Pyramid, i: int) -> tuple[list[Dart], list[tuple[Dart, Dart]]]:
    """Plain region adjacency graph: one vertex per region, one undirected
    edge per adjacent pair. Self loops and parallel edges collapse."""
    m = pyr.reconstruct_level(i)
    regions = region_ids(pyr, i)
    edges: set[tuple[Dart, Dart]] = set()
    for d in m.darts:
        # each pair once, from the dart on its lesser region
        u, v = pyr._region(i, d), pyr._region(i, m.alpha(d))
        if dart_sort_key(u) < dart_sort_key(v):
            edges.add((u, v))
    return regions, sorted(edges, key=lambda e: (dart_sort_key(e[0]), dart_sort_key(e[1])))


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
    forest. The level's region array names the region of every dart, so the
    report costs one pass over the level plus the enclosure pairs it lists.
    """
    m = pyr.reconstruct_level(i)
    home = None
    if region is not None:
        pyr._require_alive(i, region)
        home = pyr._region(i, region)

    def keep(*darts: Dart) -> bool:
        return home is None or home in darts

    regions, rag_edges = rag_export(pyr, i)
    rag_edges = [e for e in rag_edges if keep(*e)]
    outside = infinite_region(pyr, i)
    warnings: list[str] = []

    # int32 darts, which hash and compare as the ints rag_export lists
    rep = pyr._regions[i]
    facing: dict[tuple[Dart, Dart], list[Dart]] = {}
    for d in m.darts:
        u, v = rep[d], rep[m.alpha(d)]
        if u != v:
            facing.setdefault((u, v), []).append(d)
    meets = [{"a": u, "b": v, "segments": len(_pieces(m, rep, facing[u, v]))} for u, v in rag_edges]

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
