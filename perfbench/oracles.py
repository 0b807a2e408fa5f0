"""Pixel-level reference answers the benchmark checks the program against.

These are independent of the combinatorial map: they look only at a label
raster, one region label per pixel, with `outside` standing for everything
beyond the image border.
"""

from __future__ import annotations

import numpy as np

Crack = tuple[tuple[int, int], tuple[int, int]]


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


def _padded(labels: np.ndarray, outside: int) -> np.ndarray:
    h, w = labels.shape
    out = np.full((h + 2, w + 2), outside, dtype=np.int64)
    out[1:-1, 1:-1] = labels
    return out


def label_cracks(labels: np.ndarray, outside: int) -> dict[Crack, tuple[int, int]]:
    """Every crack between two different regions, image border included,
    mapped to the sorted label pair it separates. A crack is its two end
    corners (x, y), smaller first."""
    p = _padded(labels, outside)
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


def same_partition(x: np.ndarray, y: np.ndarray) -> bool:
    """True when two label rasters group the pixels identically."""
    if x.shape != y.shape:
        return False
    pairs = set(zip(x.ravel().tolist(), y.ravel().tolist()))
    return len(pairs) == len(set(x.ravel().tolist())) == len(set(y.ravel().tolist()))
