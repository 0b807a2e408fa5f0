"""End-to-end pipeline: raster in, pyramid of merged regions out.

Merging is driven by color: each level contracts a spanning forest of the
adjacency edges whose region mean colors are within a threshold, then cleans
up the redundant edges the contraction left behind. Region statistics are
not carried along from round to round: each round counts and sums every
region's pixels by np.bincount over their top region indices, and
`SegmentedImage.stats`, keyed by the region's vertex dart in the top map so
that the road-sign extraction can reason about colors, is built the same
way. Color sums are exact for integer-valued rasters, which every Netpbm
input is; for other float rasters they are summed in pixel order.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .containment import inside_all, require_clean_level
from .map_core import Dart, dart_sort_key
from .pyramid import Kernel, KernelState, Pyramid, _spanning_forest

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
        self._view: tuple[np.ndarray, Mapping[Dart, RegionStats]] | None = None

    @property
    def stats(self) -> Mapping[Dart, RegionStats]:
        """Read-only view of every top region but the outside, in
        dart_sort_key order, built from the top's region array when the top
        has changed since the last access."""
        top = self.pyramid._levels[-1]
        if self._view is None or self._view[0] is not top.region:
            region, count, color_sum = self._region_sums()
            held = np.flatnonzero(count)
            # pixels grouped by region, the groups in the order of regions
            ys, xs = np.divmod(np.argsort(region), self.width)
            starts = (np.cumsum(count) - count)[held]
            low = [np.minimum.reduceat(c, starts).tolist() for c in (xs, ys)]
            high = [np.maximum.reduceat(c, starts).tolist() for c in (xs, ys)]
            stats = map(RegionStats, count[held].tolist(), color_sum[held], zip(*low, *high))
            self._view = top.region, MappingProxyType(dict(zip(top.names[held].tolist(), stats)))
        return self._view[1]

    def _region_sums(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each pixel's top region index, in raster order, and the pixel
        count and color sums of every top region, 0 where it holds none."""
        top = self.pyramid._levels[-1]
        region = top.region[self.pyramid._pixels].ravel()
        count = np.bincount(region, minlength=len(top.names))
        pixels = self.image.reshape(len(region), -1)
        color_sum = np.stack([np.bincount(region, pixels[:, c], len(count)) for c in range(pixels.shape[1])], axis=1)
        return region, count, color_sum

    def labels(self) -> np.ndarray:
        """Dense region index per pixel: the top level's regions that hold
        pixels numbered 0, 1, ... in dart_sort_key order, as export --labels does."""
        return _label_image(self.pyramid, self.pyramid.top_level)[0]

    # -- construction ------------------------------------------------------------

    def merge_level(self, threshold: float) -> list[Kernel]:
        """One merge round: contract a forest of color-close adjacencies,
        then drop the empty self loops and double edges it produced.

        The forest is the one Kruskal's algorithm picks from the edges
        between two image regions whose mean colors lie within threshold,
        taken by increasing (distance, |d|, d) for the edge's first dart d
        in dart_sort_key order. Returns the kernels applied; an empty list
        means nothing merged.
        """
        pyr = self.pyramid
        top = pyr._levels[-1]
        _, count, color_sum = self._region_sums()
        # each edge once, from its first dart in order, between two image
        # regions (the outside holds no pixel), its ends as region indices
        at = np.flatnonzero(top.alpha > np.arange(len(top.alpha)))
        first, mate = top.order[at], top.order[top.alpha[at]]
        u, v = top.region[first], top.region[mate]
        keep = (u != v) & (count[u] > 0) & (count[v] > 0)
        first, mate, u, v = first[keep], mate[keep], u[keep], v[keep]
        # a region without pixels divides by 1, and no kept edge reads its mean
        mean = color_sum / np.maximum(count, 1)[:, None]
        dist = _row_norms(mean[u] - mean[v])
        keep = dist <= threshold
        first, mate, u, v, dist = first[keep], mate[keep], u[keep], v[keep], dist[keep]
        order = np.lexsort((first, np.abs(first), dist))
        chosen = order[_spanning_forest(u[order], v[order], len(count))[0]]
        if not chosen.size:
            return []
        applied = [Kernel.of(KernelState.CK, np.concatenate([first[chosen], mate[chosen]]))]
        pyr.apply_kernel(applied[0])
        rkesl = pyr.compute_rkesl()
        if len(rkesl):
            pyr.apply_kernel(rkesl)
            applied.append(rkesl)
        rkede = pyr.compute_rkede()
        if len(rkede):
            pyr.apply_kernel(rkede)
            applied.append(rkede)
        return applied

    def run(self, threshold: float, max_levels: int | None = None) -> "SegmentedImage":
        """Merge until stable (or until max_levels merge rounds)."""
        if not threshold >= 0:  # also rejects nan
            raise ValueError(f"threshold must be a non-negative number, got {threshold}")
        if max_levels is not None and not (type(max_levels) is int or isinstance(max_levels, np.integer)):
            raise ValueError(f"max_levels must be an integer, got {max_levels!r}")  # a bool is no count
        if max_levels is not None and max_levels < 0:
            raise ValueError(f"max_levels must be non-negative, got {max_levels}")
        rounds = 0
        while max_levels is None or rounds < max_levels:
            if not self.merge_level(threshold):
                break
            rounds += 1
        return self

    def region_count(self) -> int:
        """Number of image regions at the top level, the outside excluded:
        the top's region names, less the outside's."""
        return len(self.pyramid._levels[-1].names) - 1


def segment_labels(labels: np.ndarray) -> SegmentedImage:
    """Pyramid whose top level is exactly a label raster's partition."""
    arr = np.asarray(labels)
    seg = SegmentedImage(arr.astype(float))
    seg.run(threshold=0.0)
    return seg


def _label_image(pyr: Pyramid, i: int) -> tuple[np.ndarray, np.ndarray]:
    """The level-i regions that hold pixels, numbered 0, 1, ... in
    dart_sort_key order of their vertex darts: that number for every pixel,
    row by row, and the vertex dart of each number."""
    level = pyr._levels[i]
    region = level.region[pyr._pixels]
    held = np.bincount(region.ravel(), minlength=len(level.names)) > 0
    return (np.cumsum(held) - 1)[region], level.names[held]


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row, bit for bit: norm takes the square root
    of the row's dot product with itself, and a batched matmul of 1xC by
    Cx1 computes that same dot product."""
    return np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0])


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
    if not (type(k) is int or isinstance(k, np.integer)):
        raise ValueError(f"k must be an integer, got {k!r}")
    if k < 1:
        raise ValueError("k must be at least 1")
    bg = np.asarray(background_color, dtype=float)
    sym = np.asarray(symbol_color, dtype=float)
    # a NaN distance would leave the regions in dart order, whatever their color
    for name, color in ("background_color", bg), ("symbol_color", sym):
        if not np.isfinite(color).all():
            raise ValueError(f"{name} must be finite, got {color.tolist()!r}")
    pyr = seg.pyramid
    i = pyr.top_level
    require_clean_level(pyr, i)
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
