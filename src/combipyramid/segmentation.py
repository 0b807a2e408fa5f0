"""End-to-end pipeline: raster in, pyramid of merged regions out.

Merging is driven by color: each level contracts a spanning forest of the
adjacency edges whose region mean colors are within a threshold, then cleans
up the redundant edges the contraction left behind. Region statistics are
carried along so the road-sign extraction can reason about colors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .containment import inside_all, require_clean_level
from .map_core import Dart, dart_sort_key
from .pyramid import Kernel, KernelState, Pyramid

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
    """Pyramid over a raster, merged by color distance level by level."""

    def __init__(self, image: np.ndarray):
        arr = np.asarray(image)
        if arr.ndim == 2:
            arr = arr[:, :, None]
        if arr.ndim != 3:
            raise ValueError("image must be 2D or (height, width, channels)")
        self.image = arr.astype(float)
        self.height, self.width = arr.shape[:2]
        self.pyramid = Pyramid.from_grid(self.width, self.height)
        self._parent = list(range(self.width * self.height))
        self.stats: dict[int, RegionStats] = {}
        for y in range(self.height):
            for x in range(self.width):
                self.stats[y * self.width + x] = RegionStats(
                    1, self.image[y, x].copy(), (x, y, x, y)
                )

    # -- region bookkeeping ----------------------------------------------------

    def _find(self, p: int) -> int:
        while self._parent[p] != p:
            self._parent[p] = self._parent[self._parent[p]]
            p = self._parent[p]
        return p

    def root_of_dart(self, d: Dart) -> int | None:
        """Merged-region root of a dart's base pixel, None for the outside."""
        px = self.pyramid.embedding.pixel_of(d)
        if px is None:
            return None
        x, y = px
        return self._find(y * self.width + x)

    def vertex_at(self, x: int, y: int) -> Dart:
        """Top-level vertex of the region covering pixel (x, y)."""
        root = self._find(y * self.width + x)
        return self._vertices_by_root()[root]

    def _vertices_by_root(self) -> dict[int | None, Dart]:
        top = self.pyramid.top_map()
        out: dict[int | None, Dart] = {}
        for cyc in top.vertices():
            out[self.root_of_dart(cyc[0])] = cyc[0]
        return out

    def labels(self) -> np.ndarray:
        """Dense region index per pixel, stable under the dart order."""
        roots = np.empty((self.height, self.width), dtype=np.int64)
        for y in range(self.height):
            for x in range(self.width):
                roots[y, x] = self._find(y * self.width + x)
        order = {root: k for k, root in enumerate(sorted(set(roots.ravel().tolist())))}
        return np.vectorize(order.__getitem__)(roots)

    # -- construction ------------------------------------------------------------

    def merge_level(self, threshold: float) -> list[Kernel]:
        """One merge round: contract a forest of color-close adjacencies,
        then drop the empty self loops and double edges it produced.

        Returns the kernels applied; an empty list means nothing merged.
        """
        top = self.pyramid.top_map()
        candidates = []
        for cyc in top.edges():
            d = cyc[0]
            u, v = self.root_of_dart(d), self.root_of_dart(top.alpha(d))
            if u is None or v is None or u == v:
                continue
            dist = float(np.linalg.norm(self.stats[u].mean_color - self.stats[v].mean_color))
            if dist <= threshold:
                # d is unique per edge, so u and v never take part in the order
                candidates.append((dist, min(abs(d), abs(top.alpha(d))), d, u, v))
        candidates.sort()
        chosen: list[Dart] = []
        for _, _, d, u, v in candidates:
            ru, rv = self._find(u), self._find(v)
            if ru == rv:
                continue
            self._parent[ru] = rv
            self.stats[rv] = self.stats[rv].merged(self.stats.pop(ru))
            chosen.extend((d, top.alpha(d)))
        if not chosen:
            return []
        applied = [Kernel.of(KernelState.CK, chosen)]
        self.pyramid.apply_kernel(applied[0])
        rkesl = self.pyramid.compute_rkesl()
        if rkesl.darts:
            self.pyramid.apply_kernel(rkesl)
            applied.append(rkesl)
        rkede = self.pyramid.compute_rkede()
        if rkede.darts:
            self.pyramid.apply_kernel(rkede)
            applied.append(rkede)
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
        return len(self.pyramid.top_map().vertices()) - 1


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
    by_vertex = {v: root for root, v in seg._vertices_by_root().items() if root is not None}

    ranked = sorted(
        by_vertex,
        key=lambda v: (float(np.linalg.norm(seg.stats[by_vertex[v]].mean_color - bg)), dart_sort_key(v)),
    )
    best = None
    for v in ranked[:k]:
        inner = inside_all(pyr, i, v)
        if not inner:
            continue
        merged = None
        for u in inner:
            s = seg.stats[by_vertex[u]]
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
