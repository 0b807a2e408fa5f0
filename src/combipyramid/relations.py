"""Uniform query layer over one pyramid level.

Five relationships between regions: meets_exists, meets_each (one boundary
piece per shared border), contains, inside and composed_of. Regions are named
by the canonical dart of their vertex cycle; exactly one region per level is
the outside face. rag_export, relation_report and meets_each read one
boundary index per level (_boundary_index), which alone glues a boundary
piece across a junction where every other edge is a self loop.
"""

from __future__ import annotations

import numpy as np

from .boundary import CrackChain, Segment, segment
from .containment import _enclosers, _enclosure_forest, infinite_region, inside_all
from .map_core import Dart, _cycle_min, dart_sort_key
from .pyramid import Pyramid, _chain_ends

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
    dart_sort_key order: the level's region names."""
    return pyr._checked(i).names.tolist()


def meets_each(pyr: Pyramid, i: int, a: Dart, b: Dart) -> list[Segment]:
    """One Segment per connected boundary piece between regions a and b.

    A piece may span several map edges: where an inner self loop anchors on
    the boundary it pins a junction that does not separate two pieces of the
    a/b border, so edges continuing through such junctions are glued, by
    the links of the level's boundary index. Empty when the regions are not
    adjacent.
    """
    pyr._checked(i, a, b)
    m = pyr.reconstruct_level(i)
    rep = m.vertex_ids()
    ra, rb = rep[a], rep[b]
    if ra == rb:
        raise ValueError("meets_each needs two distinct regions")
    facing = [d for d in m.orbit(ra, "sigma") if rep[m.alpha(d)] == rb]
    out = []
    for chain in _chains(facing, _boundary_index(pyr, i)[2]):
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


def _chains(facing: list[Dart], links: dict[Dart, Dart]) -> list[list[Dart]]:
    """The darts of one region that face one other region, grouped into
    boundary pieces, each a chain of darts in boundary order: links takes a
    dart to the one its piece continues into."""
    has_pred = {links[d] for d in facing if d in links}
    chains = []
    seen: set[Dart] = set()
    # heads of open chains first, then closed rings pinned only by loop
    # anchors, each by its least dart: a chain ends at a dart without a
    # link, a ring where it comes back to its start
    for d in sorted(facing, key=lambda d: (d in has_pred, dart_sort_key(d))):
        if d in seen:
            continue
        chain = [d]
        while (step := links.get(chain[-1], d)) != d:
            if len(chain) >= len(facing):
                raise RuntimeError("boundary ring between the regions does not close")
            chain.append(step)
        seen.update(chain)
        chains.append(chain)
    return chains


def meets_exists(pyr: Pyramid, i: int, a: Dart, b: Dart) -> bool:
    """True when regions a and b share a boundary: one walk of a's vertex
    cycle, stopping at the first dart whose partner lies in b's region."""
    region = pyr._checked(i, a, b).region
    ra, rb = region[a], region[b]
    if ra == rb:
        raise ValueError("meets_exists needs two distinct regions")
    m = pyr.reconstruct_level(i)
    d = start = pyr._region(i, a)
    while region[m.alpha(d)] != rb:
        d = m.sigma(d)
        if d == start:
            return False
    return True


def rag_export(pyr: Pyramid, i: int) -> tuple[list[Dart], list[tuple[Dart, Dart]]]:
    """Plain region adjacency graph: one vertex per region, one undirected
    edge per adjacent pair, both in dart_sort_key order. Self loops and
    parallel edges collapse. The edges are copied from the level's
    boundary index into a fresh list."""
    regions = region_ids(pyr, i)
    return regions, list(_boundary_index(pyr, i)[0])


_Boundary = tuple[tuple[tuple[Dart, Dart], ...], tuple[int, ...], dict[Dart, Dart]]


def _boundary_index(pyr: Pyramid, i: int) -> _Boundary:
    """Level i's boundary index: the edges of rag_export, the boundary
    pieces of each, and the links, which take every separating dart (one
    whose region differs from its partner's) whose piece continues to the
    dart it continues into. Built on first read in whole-array passes over
    the level's darts, in positions of its dart order, and then read from
    the level's record: levels never change, so racing builds give equal
    indexes and the one store that publishes each is safe. The caller
    checks the level.

    A live dart d is the first crack of its boundary piece, so its base
    partner -d lies across that crack, in the region of alpha_i(d): the
    region array alone numbers both sides, u and v, and their ordered pair,
    u * R + v. A separating dart d continues into y when the
    face of alpha(d) holds exactly two separating darts, y is the other one
    and y is not d; along a face the region changes only across separating
    darts, so y then has d's ordered pair. Each face keeps the count and the
    position sum of its separating darts, so y is the sum less alpha(d).
    The links form chains and rings. The edges are the pairs with u before
    v, one np.unique over them; an edge counts a piece at the last dart of
    each chain on its u side, which does not continue, and at the least
    dart of each ring there. The _chain_ends walk takes every dart of a
    chain to its last dart and leaves a ring's darts on the ring, its cycle.
    """
    level = pyr._levels[i]
    if level.boundary is not None:
        return level.boundary
    order, region, names = level.order, level.region, level.names
    sigma, mate = level.sigma, level.alpha
    k = len(order)
    at = np.arange(k)
    u, v = region[order], region[-order]
    pair = u.astype(np.int64) * len(names) + v
    separating = np.flatnonzero(u != v)
    face = _cycle_min(sigma[mate])
    count = np.bincount(face[separating], minlength=k)
    total = np.bincount(face[separating], weights=separating, minlength=k).astype(np.int64)
    f = face[mate[separating]]
    y = np.where(count[f] == 2, total[f] - mate[separating], separating)
    links = y != separating
    nxt = at.copy()
    nxt[separating[links]] = y[links]
    end = _chain_ends(nxt, at)
    ring = nxt[end] != end
    least = _cycle_min(np.where(ring, nxt, at))
    counted = (nxt == at) | (ring & (least == at))
    facing = np.flatnonzero(u < v)
    _, first, edge = np.unique(pair[facing], return_index=True, return_inverse=True)
    index = level.boundary = (
        tuple(zip(names[u[facing[first]]].tolist(), names[v[facing[first]]].tolist())),
        tuple(np.bincount(edge[counted[facing]], minlength=len(first)).tolist()),
        dict(zip(order[separating[links]].tolist(), order[y[links]].tolist())),
    )
    return index


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
    forest. The adjacent pairs and their piece counts are read off the
    level's boundary index, built once per level. Only the regions that
    enclose something, the region indices that key the forest's children,
    take an inside_all call, in index order, which is name order; every
    region reported takes one composed_of call.
    """
    home = None
    if region is not None:
        pyr._checked(i, region)
        home = pyr._region(i, region)
    regions, rag_edges = rag_export(pyr, i)
    pairs = zip(rag_edges, _boundary_index(pyr, i)[1])
    if home is not None:
        pairs = [(e, n) for e, n in pairs if home in e]
    meets = [{"a": u, "b": v, "segments": n} for (u, v), n in pairs]
    outside = infinite_region(pyr, i)
    warnings: list[str] = []

    contains_pairs: list[tuple[Dart, Dart]] = []
    names = pyr._levels[i].names
    if pyr.redundant_darts(i):
        warnings.append("redundant edges present: enclosure entries omitted")
    elif home is None:
        # regions are numbered in dart_sort_key order, so the enclosers' indices sort as their names
        for r in [names[u] for u in sorted(_enclosure_forest(pyr, i)[1])]:
            contains_pairs += [(r, b) for b in _sorted(inside_all(pyr, i, r))]
    else:
        contains_pairs = [(names[a], home) for a in _enclosers(pyr, i, home)]
        contains_pairs += [(home, b) for b in inside_all(pyr, i, home)]
        contains_pairs.sort(key=lambda p: (dart_sort_key(p[0]), dart_sort_key(p[1])))

    reported = regions if home is None else [home]
    composed = [{"parent": r, "children": _sorted(pyr.composed_of(i, r))} for r in reported] if i >= 1 else []

    return {
        "level": int(i),
        "regions": regions,
        "infinite_region": outside,
        "meets": meets,
        "contains": [[a, b] for a, b in contains_pairs],
        "inside": [[b, a] for a, b in contains_pairs],
        "composed_of": composed,
        "warnings": warnings,
    }


def _sorted(darts: frozenset[Dart]) -> list[Dart]:
    """darts in dart_sort_key order; a set of at most one needs no sort."""
    return sorted(darts, key=dart_sort_key) if len(darts) > 1 else list(darts)
