"""Seeded raster generators and the settings of each benchmark workload.

Every raster is a pure function of the seed, so one seed always gives the
same pixels, the same pyramid and the same query sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


NOISE_SIZE = 24
NOISE_REGIONS = 450
# 64 colours at least 85 apart: regions of different colours never merge at
# threshold 60, even with the +-4 pixel noise on top
PALETTE = np.array([(r, g, b) for r in range(0, 256, 85) for g in range(0, 256, 85) for b in range(0, 256, 85)])


def noise_raster(rng: np.random.Generator) -> np.ndarray:
    """24x24 random partition into exactly 450 regions of one to a few
    pixels, each in a random palette colour plus +-4 noise per pixel.

    Ten of the sixteen 6x6 cells hold a one-colour square ring, five of side
    3 around one pixel and five of side 5 around a 3x3 that is partitioned
    like the rest, so that some regions enclose others. The seed moves the
    rings and reshapes the regions; the region count and the number of merge
    rounds stay fixed, so the seeds differ in layout, not in size.
    """
    n = NOISE_SIZE
    region = np.arange(n * n).reshape(n, n)
    locked = np.zeros((n, n), dtype=bool)
    sides = rng.permutation([3] * 5 + [5] * 5)
    for cell, side in zip(rng.choice(16, size=10, replace=False), sides):
        y0 = 6 * (cell // 4) + int(rng.integers(0, 7 - side))
        x0 = 6 * (cell % 4) + int(rng.integers(0, 7 - side))
        ring = np.zeros((n, n), dtype=bool)
        ring[y0 : y0 + side, x0 : x0 + side] = True
        ring[y0 + 1 : y0 + side - 1, x0 + 1 : x0 + side - 1] = False
        region[ring] = region[ring].min()
        locked |= ring
        if side == 3:
            locked[y0 + 1, x0 + 1] = True

    parent = list(range(n * n))

    def find(p: int) -> int:
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    count = len(np.unique(region))
    edges = [(y * n + x, y * n + x + 1) for y in range(n) for x in range(n - 1)]
    edges += [(y * n + x, (y + 1) * n + x) for y in range(n - 1) for x in range(n)]
    for k in rng.permutation(len(edges)):
        if count <= NOISE_REGIONS:
            break
        p, q = edges[k]
        if locked.flat[p] or locked.flat[q]:
            continue
        rp, rq = find(p), find(q)
        if rp != rq:
            parent[rp] = rq
            count -= 1
    for p in range(n * n):
        if not locked.flat[p]:
            region.flat[p] = find(p)

    colour: dict[int, int] = {}
    ids = np.unique(region)
    neighbours: dict[int, set[int]] = {int(r): set() for r in ids}
    for a, b in ((region[:, :-1], region[:, 1:]), (region[:-1, :], region[1:, :])):
        for u, v in zip(a.ravel().tolist(), b.ravel().tolist()):
            if u != v:
                neighbours[u].add(v)
                neighbours[v].add(u)
    for r in rng.permutation(ids).tolist():
        used = {colour[v] for v in neighbours[r] if v in colour}
        free = [c for c in range(len(PALETTE)) if c not in used]
        colour[r] = int(free[rng.integers(0, len(free))])
    lookup = np.vectorize(colour.__getitem__)
    img = PALETTE[lookup(region)] + rng.integers(-4, 5, size=(n, n, 3))
    return np.clip(img, 0, 255).astype(np.uint8)


# red levels of the eight 2-px stripes of a tile. At threshold 12 the
# stripes merge in pairs in round 1 (means 15, 18, 31, 22), the pairs in
# pairs in round 2 (16.5, 26.5) and the halves in round 3; every step
# between stripes that must wait is 13 > 12
STAIRCASE = [20, 10, 23, 13, 26, 36, 23, 21]
# stripes holding a one-pixel island in a far colour; an island touches the
# stripe to its left, so it becomes enclosed in round 1, 2 or 3
ISLAND_STRIPES = [1, 2, 4, 5, 7]


def gradient_raster(rng: np.random.Generator) -> np.ndarray:
    """64x64 of 16x16 tiles, each a red staircase of eight stripes that
    merges over exactly three rounds.

    Blue alternates between 64 and 192 over the checkerboard of tiles, so
    regions never merge across a tile edge. Each tile is turned, mirrored
    and given its island rows by a fixed layout, the same for every seed;
    the seed shifts each tile's red and green levels only. Turning tiles or
    placing islands by seed, or adding pixel noise, changed the kernels and
    the build time by up to 20% from seed to seed, so every seed gives the
    same pyramid structure.
    """
    size, tile = 64, 16
    layout = np.random.default_rng(0)
    img = np.empty((size, size, 3), dtype=np.int64)
    for ty in range(size // tile):
        for tx in range(size // tile):
            block = np.empty((tile, tile, 3), dtype=np.int64)
            red = np.repeat(STAIRCASE, 2) + int(rng.integers(0, 256 - max(STAIRCASE)))
            block[:, :, 0] = red[None, :]
            block[:, :, 1] = int(rng.integers(0, 256))
            block[:, :, 2] = 192 if (tx + ty) % 2 else 64
            rows = layout.choice(np.arange(1, tile - 1), size=len(ISLAND_STRIPES), replace=False)
            for stripe, row in zip(ISLAND_STRIPES, rows):
                block[row, 2 * stripe, 0] = (red[2 * stripe] + 128) % 256
            block = np.rot90(block, int(layout.integers(0, 4)))
            if layout.integers(0, 2):
                block = block[:, ::-1]
            img[ty * tile : (ty + 1) * tile, tx * tile : (tx + 1) * tile] = block
    return img.astype(np.uint8)


def arrow_sign(size: int = 32) -> np.ndarray:
    """Framed sign: white border ring, blue background, white arrow inside."""
    img = np.zeros((size, size, 3), dtype=np.uint8)
    img[:, :] = (255, 255, 255)
    img[3:-3, 3:-3] = (0, 0, 200)
    apex_y, apex_x = 7, size // 2
    for dy in range(7):
        img[apex_y + dy, apex_x - 1 - dy : apex_x + 1 + dy] = (255, 255, 255)
    img[apex_y + 7 : size - 7, apex_x - 3 : apex_x + 3] = (255, 255, 255)
    return img


def sign_mosaic_raster(rng: np.random.Generator) -> np.ndarray:
    """2x2 tiles of the 32-px arrow sign, each tile's blue field and arrow
    shifted by its own offset in -3..3 per channel: a large base with a
    tiny, nested top.

    The white frames stay pure white. They touch across tiles, and
    jittering them changed the order in which they merge, and with it the
    kernels and the build time (by up to 40%), from seed to seed."""
    tile = arrow_sign().astype(np.int64)
    inner = np.zeros(tile.shape[:2], dtype=bool)
    inner[3:-3, 3:-3] = True
    rows = []
    for _ in range(2):
        row = []
        for _ in range(2):
            jittered = tile.copy()
            jittered[inner] += rng.integers(-3, 4, size=3)
            row.append(jittered)
        rows.append(np.concatenate(row, axis=1))
    return np.clip(np.concatenate(rows, axis=0), 0, 255).astype(np.uint8)


@dataclass(frozen=True)
class Workload:
    name: str
    raster: Callable[[np.random.Generator], np.ndarray]
    threshold: float
    # query levels: the top only, or every level free of redundant edges
    all_clean_levels: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload("noise-regions", noise_raster, 60.0, False),
        Workload("gradient-levels", gradient_raster, 12.0, True),
        Workload("sign-mosaic", sign_mosaic_raster, 24.0, False),
    )
}
