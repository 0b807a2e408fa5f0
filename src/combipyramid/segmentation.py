"""End-to-end pipeline: raster in, pyramid of merged regions out.

Merging is driven by color: each level contracts a spanning forest of the
adjacency edges whose region mean colors are within a threshold, then cleans
up the redundant edges the contraction left behind. Region statistics are
carried along, keyed by the region's vertex dart in the top map, so the
road-sign extraction can reason about colors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .containment import inside_all, require_clean_level
from .map_core import Dart, dart_sort_key
from .pyramid import Kernel, KernelState, Pyramid, _find_root, _rank

__all__ = [
    "RegionStats",
    "SegmentedImage",
    "segment_labels",
    "RoadsignNotFound",
    "roadsign_extract",
]


@dataclass
class RegionStats:
    """Aggregate of one region: area, color sum and bounding box."""

    pixel_count: int
    color_sum: np.ndarray
    bbox: tuple[int, int, int, int]  # xmin, ymin, xmax, ymax

    @property
    def mean_color(self) -> np.ndarray:
        return self.color_sum / self.pixel_count

    def merged(self, other: "RegionStats") -> "RegionStats":
        ax0, ay0, ax1, ay1 = self.bbox
        bx0, by0, bx1, by1 = other.bbox
        return RegionStats(
            self.pixel_count + other.pixel_count,
            self.color_sum + other.color_sum,
            (min(ax0, bx0), min(ay0, by0), max(ax1, bx1), max(ay1, by1)),
        )


class SegmentedImage:
    """Pyramid over a raster, merged by color distance level by level.

    A region is a vertex of the top map, named by the canonical dart of that
    vertex as everywhere else in the library. `stats` maps every region but
    the outside, which has no pixels, to its RegionStats.
    """

    def __init__(self, image: np.ndarray):
        arr = np.asarray(image)
        if arr.ndim == 2:
            arr = arr[:, :, None]
        if arr.ndim != 3:
            raise ValueError("image must be 2D or (height, width, channels)")
        self.image = arr.astype(float)
        self.height, self.width = arr.shape[:2]
        self.pyramid = Pyramid.from_grid(self.width, self.height)
        emb = self.pyramid.embedding
        self.stats: dict[Dart, RegionStats] = {
            emb.pixel_dart(x, y): RegionStats(1, self.image[y, x].copy(), (x, y, x, y))
            for y in range(self.height)
            for x in range(self.width)
        }

    def labels(self) -> np.ndarray:
        """Dense region index per pixel: the top level's regions numbered
        0, 1, ... in increasing order of their vertex dart."""
        darts = np.array(self.pyramid.pixel_labels(self.pyramid.top_level))
        return np.unique(darts, return_inverse=True)[1].reshape(darts.shape)

    # -- construction ------------------------------------------------------------

    def merge_level(self, threshold: float) -> list[Kernel]:
        """One merge round: contract a forest of color-close adjacencies,
        then drop the empty self loops and double edges it produced.

        Returns the kernels applied; an empty list means nothing merged.
        """
        pyr = self.pyramid
        rep = pyr._top_vertex
        stats = self.stats
        # each edge once, from its first dart in dart_sort_key order, between
        # two image regions; the darts are read from the pyramid's int table,
        # so the loop allocates no ints
        first = pyr._top_order
        first = first[_rank(pyr._alpha[first]) > _rank(first)]
        mate = pyr._alpha[first]
        keep = rep[first] != rep[mate]
        first, mate = first[keep], mate[keep]
        candidates = []
        for d, a, u, v in zip(*(pyr._ints[x].tolist() for x in (first, mate, rep[first], rep[mate]))):
            if u not in stats or v not in stats:
                continue
            dist = float(np.linalg.norm(stats[u].mean_color - stats[v].mean_color))
            if dist <= threshold:
                candidates.append((dist, abs(d), d, a, u, v))
        candidates.sort()
        # union-find over this round's vertices; a root keeps its class's stats
        parent: dict[Dart, Dart] = {}
        chosen: list[Dart] = []
        for _, _, d, a, u, v in candidates:
            ru, rv = _find_root(parent, u), _find_root(parent, v)
            if ru == rv:
                continue
            parent[ru] = rv
            stats[rv] = stats[rv].merged(stats.pop(ru))
            chosen.extend((d, a))
        if not chosen:
            return []
        applied = [Kernel.of(KernelState.CK, chosen)]
        pyr.apply_kernel(applied[0])
        rkesl = pyr.compute_rkesl()
        if rkesl.darts:
            pyr.apply_kernel(rkesl)
            applied.append(rkesl)
        rkede = pyr.compute_rkede()
        if rkede.darts:
            pyr.apply_kernel(rkede)
            applied.append(rkede)
        # the contraction merged exactly the union-find classes and the
        # removals keep every vertex, so each new vertex is one class; rep
        # is still the partition this round started from
        order = pyr._top_order
        regions = order[pyr._top_vertex[order] == order]
        self.stats = {}
        for v, old in zip(pyr._ints[regions].tolist(), pyr._ints[rep[regions]].tolist()):
            if (root := _find_root(parent, old)) in stats:
                self.stats[v] = stats[root]
        return applied

    def run(self, threshold: float, max_levels: int | None = None) -> "SegmentedImage":
        """Merge until stable (or until max_levels merge rounds)."""
        rounds = 0
        while max_levels is None or rounds < max_levels:
            if not self.merge_level(threshold):
                break
            rounds += 1
        return self

    def region_count(self) -> int:
        """Number of image regions at the top level, the outside excluded."""
        return len(self.stats)


def segment_labels(labels: np.ndarray) -> SegmentedImage:
    """Pyramid whose top level is exactly a label raster's partition."""
    arr = np.asarray(labels)
    seg = SegmentedImage(arr.astype(float))
    seg.run(threshold=0.0)
    return seg


class RoadsignNotFound(RuntimeError):
    pass


def roadsign_extract(
    seg: SegmentedImage,
    k: int = 5,
    background_color=(0.0, 0.0, 200.0),
    symbol_color=(255.0, 255.0, 255.0),
) -> frozenset[Dart]:
    """Symbol regions of the sign whose background matches best.

    The k regions nearest to the expected background color are candidates;
    those enclosing nothing are discarded. The winner is the candidate whose
    enclosed regions' area-weighted mean color is nearest to the symbol
    color; ties prefer candidates with more enclosed pixels.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    pyr = seg.pyramid
    i = pyr.top_level
    require_clean_level(pyr, i)
    bg = np.asarray(background_color, dtype=float)
    sym = np.asarray(symbol_color, dtype=float)
    ranked = sorted(
        seg.stats,
        key=lambda v: (float(np.linalg.norm(seg.stats[v].mean_color - bg)), dart_sort_key(v)),
    )
    best = None
    for v in ranked[:k]:
        inner = inside_all(pyr, i, v)
        if not inner:
            continue
        merged = None
        for u in inner:
            s = seg.stats[u]
            merged = s if merged is None else merged.merged(s)
        score = (
            float(np.linalg.norm(merged.mean_color - sym)),
            -merged.pixel_count,
            dart_sort_key(v),
        )
        if best is None or score < best[0]:
            best = (score, inner)
    if best is None:
        raise RoadsignNotFound("no sign found: no candidate region encloses another region")
    return best[1]
