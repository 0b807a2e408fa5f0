"""Shared fixtures: random pyramids, random partitions, road-sign rasters."""

from __future__ import annotations

import random
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from combipyramid.pyramid import Kernel, KernelError, KernelState, Pyramid
from combipyramid.segmentation import segment_labels

from eager_oracle import find_root


def random_pyramid(rng: random.Random, max_side: int = 8, rounds: int | None = None,
                   always_clean: bool = False, touch_outside: bool = False,
                   size: tuple[int, int] | None = None) -> Pyramid:
    """Pyramid over a random small grid, or one of size (width, height), with
    random valid kernel sequences.

    Each round contracts a random forest of region adjacencies (never touching
    the outside vertex, unless touch_outside), then usually removes the empty
    self loops and double edges it created. With always_clean the cleanup
    always runs.
    """
    w, h = size or (rng.randint(1, max_side), rng.randint(1, max_side))
    pyr = Pyramid(w, h)
    for _ in range(rounds if rounds is not None else rng.randint(1, 3)):
        top = pyr.reconstruct_level(pyr.top_level)
        rep = top.vertex_ids()
        cands = []
        for cyc in top.edges():
            d = cyc[0]
            if rep[d] == rep[top.alpha(d)]:
                continue
            if not touch_outside and None in (pyr.embedding.pixel_of(d), pyr.embedding.pixel_of(top.alpha(d))):
                continue
            cands.append(d)
        rng.shuffle(cands)
        chosen: list[int] = []
        parent: dict[int, int] = {}

        def find(v):
            while parent.get(v, v) != v:
                parent[v] = parent.get(parent[v], parent[v])
                v = parent[v]
            return v

        for d in cands:
            if rng.random() > 0.6:
                continue
            ru, rv = find(rep[d]), find(rep[top.alpha(d)])
            if ru == rv:
                continue
            parent[ru] = rv
            chosen.extend((d, top.alpha(d)))
        if chosen and len(chosen) < len(top):  # a tree is not contracted whole
            pyr.apply_kernel(Kernel(KernelState.CK, chosen))
        elif rng.random() < 0.2:
            pyr.apply_kernel(Kernel(KernelState.CK, []))
        if always_clean or rng.random() < 0.85:
            for compute in (pyr.compute_rkesl, pyr.compute_rkede):
                kernel = compute()
                if not kernel.darts:
                    continue
                try:
                    pyr.apply_kernel(kernel)
                except KernelError:
                    # contractions through the outside can leave one vertex,
                    # which the maximal removal kernel would empty
                    if not touch_outside:
                        raise
                    break
    return pyr


def built_pyramid(rng: random.Random, kind: str) -> Pyramid:
    """A random pyramid of one of three kinds: random_pyramid's, a
    segmentation of ringed_labels, or random_pyramid's with contractions
    through the outside vertex, which can leave the outside no border dart."""
    if kind == "ringed":
        return segment_labels(ringed_labels(rng, rng.randint(4, 10), rng.randint(4, 10))).pyramid
    return random_pyramid(rng, max_side=6, touch_outside=kind == "outside")


KINDS = ["random", "ringed", "outside"]
kinds = st.sampled_from(KINDS)


def spanning_tree(pyr: Pyramid, rng: random.Random) -> list[int]:
    """A random spanning tree of every base vertex, the outside included:
    its edges by their positive darts, in the order Kruskal's algorithm
    takes them from a shuffled edge list."""
    vertex = pyr.base.vertex_ids()
    edges = sorted(d for d in pyr.base.darts if d > 0)
    rng.shuffle(edges)
    parent: dict[int, int] = {}
    tree = []
    for d in edges:
        a, b = find_root(parent, vertex[d]), find_root(parent, vertex[-d])
        if a != b:
            parent[a] = b
            tree.append(d)
    return tree


def borderless_outside_pyramid() -> Pyramid:
    """3x3 grid whose outside keeps no border dart from level 2 on: the
    first contraction welds the outside to the pixels it borders, the loop
    removal takes the remaining border darts, and a last contraction merges
    the two regions left."""
    pyr = Pyramid(3, 3)
    pyr.apply_kernel(Kernel(KernelState.CK, [-23, -22, -21, -13, -12, -5, -3, -2, 2, 3, 5, 12, 13, 21, 22, 23]))
    pyr.apply_kernel(Kernel(KernelState.RKESL, [-24, -19, -18, -16, -15, -14, -11, -10, -9, -8, -4, -1,
                                                   1, 4, 8, 9, 10, 11, 14, 15, 16, 18, 19, 24]))
    pyr.apply_kernel(Kernel(KernelState.CK, [-6, 6]))
    return pyr


def clean_levels(pyr: Pyramid) -> list[int]:
    """Levels free of redundant edges (enclosure queries are valid there)."""
    return [i for i in range(pyr.top_level + 1) if not pyr.redundant_darts(i)]


def random_labels(rng: random.Random, width: int, height: int, blobs: int | None = None) -> np.ndarray:
    """Random partition of a grid into 4-connected labeled regions."""
    arr = np.zeros((height, width), dtype=np.int64)
    for lbl in range(1, (blobs if blobs is not None else rng.randint(2, 6)) + 1):
        if rng.random() < 0.5:
            x0, x1 = sorted(rng.randint(0, width - 1) for _ in range(2))
            y0, y1 = sorted(rng.randint(0, height - 1) for _ in range(2))
            arr[y0 : y1 + 1, x0 : x1 + 1] = lbl
        else:
            cx, cy = rng.randint(0, width - 1), rng.randint(0, height - 1)
            r = rng.randint(1, max(2, min(width, height) // 3))
            yy, xx = np.ogrid[:height, :width]
            arr[(xx - cx) ** 2 + (yy - cy) ** 2 <= r * r] = lbl
    return connected_components(arr)


def ringed_labels(rng: random.Random, width: int, height: int, rings: int | None = None) -> np.ndarray:
    """random_labels with one-pixel rectangular rings drawn over it, each in
    a fresh label; a ring is often drawn inside the previous one's interior,
    so that regions enclose others, often several deep."""
    arr = random_labels(rng, width, height) + 1
    box = (0, 0, width - 1, height - 1)
    for lbl in range(-1, -(rings if rings is not None else rng.randint(1, 6)) - 1, -1):
        bx0, by0, bx1, by1 = box
        if bx1 - bx0 < 1 or by1 - by0 < 1:
            bx0, by0, bx1, by1 = box = (0, 0, width - 1, height - 1)
            if bx1 < 1 or by1 < 1:
                break
        x0, x1 = bx0 + rng.randint(0, (bx1 - bx0) // 3), bx1 - rng.randint(0, (bx1 - bx0) // 3)
        y0, y1 = by0 + rng.randint(0, (by1 - by0) // 3), by1 - rng.randint(0, (by1 - by0) // 3)
        arr[y0, x0 : x1 + 1] = arr[y1, x0 : x1 + 1] = lbl
        arr[y0 : y1 + 1, x0] = arr[y0 : y1 + 1, x1] = lbl
        nested = rng.random() < 0.6
        box = (x0 + 1, y0 + 1, x1 - 1, y1 - 1) if nested else (0, 0, width - 1, height - 1)
    return connected_components(arr)


def connected_components(labels: np.ndarray) -> np.ndarray:
    """Relabel so every region is 4-connected, ids dense from 0."""
    h, w = labels.shape
    out = -np.ones((h, w), dtype=np.int64)
    nxt = 0
    for y in range(h):
        for x in range(w):
            if out[y, x] >= 0:
                continue
            stack = [(y, x)]
            out[y, x] = nxt
            val = labels[y, x]
            while stack:
                cy, cx = stack.pop()
                for ny, nx in ((cy - 1, cx), (cy + 1, cx), (cy, cx - 1), (cy, cx + 1)):
                    if 0 <= ny < h and 0 <= nx < w and out[ny, nx] < 0 and labels[ny, nx] == val:
                        out[ny, nx] = nxt
                        stack.append((ny, nx))
            nxt += 1
    return out


def boundary_cracks(labels: np.ndarray) -> set[tuple[tuple[int, int], tuple[int, int]]]:
    """Undirected label-boundary cracks of a raster, the outside included.

    A crack is a pair of corner points. Image-border cracks count because the
    outside is a region of its own.
    """
    h, w = labels.shape

    def at(x, y):
        if 0 <= x < w and 0 <= y < h:
            return int(labels[y, x])
        return -1

    cracks = set()
    for y in range(h + 1):
        for x in range(w):  # horizontal crack between (x,y) and (x+1,y)
            if at(x, y - 1) != at(x, y):
                cracks.add(((x, y), (x + 1, y)))
    for x in range(w + 1):
        for y in range(h):  # vertical crack between (x,y) and (x,y+1)
            if at(x - 1, y) != at(x, y):
                cracks.add(((x, y), (x, y + 1)))
    return cracks


def shared_boundary_components(labels: np.ndarray, a: int, b: int) -> int:
    """Connected pieces of the boundary between regions a and b.

    Two a|b cracks continue each other only through a corner where exactly
    two boundary cracks meet; corners with more boundary cracks are
    junctions, as are grid corners, and split the boundary.
    """
    h, w = labels.shape

    def at(x, y):
        if 0 <= x < w and 0 <= y < h:
            return int(labels[y, x])
        return -1

    all_cracks = boundary_cracks(labels)
    degree: dict[tuple[int, int], int] = {}
    for p, q in all_cracks:
        degree[p] = degree.get(p, 0) + 1
        degree[q] = degree.get(q, 0) + 1

    ab = set()
    for y in range(h + 1):
        for x in range(w):
            u, v = at(x, y - 1), at(x, y)
            if {u, v} == {a, b}:
                ab.add(((x, y), (x + 1, y)))
    for x in range(w + 1):
        for y in range(h):
            u, v = at(x - 1, y), at(x, y)
            if {u, v} == {a, b}:
                ab.add(((x, y), (x, y + 1)))

    parent = {c: c for c in ab}

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    by_point: dict[tuple[int, int], list] = {}
    for c in ab:
        for p in c:
            by_point.setdefault(p, []).append(c)
    for p, incident in by_point.items():
        if degree[p] == 2 and len(incident) == 2:
            ra, rb = find(incident[0]), find(incident[1])
            if ra != rb:
                parent[ra] = rb
    return len({find(c) for c in ab})


# -- road-sign rasters ---------------------------------------------------------


def arrow_sign_raster(size: int = 32) -> np.ndarray:
    """Framed sign: white border ring, blue background, white arrow inside."""
    img = np.zeros((size, size, 3), dtype=np.uint8)
    img[:, :] = (255, 255, 255)
    img[3:-3, 3:-3] = (0, 0, 200)
    # arrow head, apex up, then the shaft
    apex_y, apex_x = 7, size // 2
    for dy in range(7):
        img[apex_y + dy, apex_x - 1 - dy : apex_x + 1 + dy] = (255, 255, 255)
    img[apex_y + 7 : size - 7, apex_x - 3 : apex_x + 3] = (255, 255, 255)
    return img


def flag_sign_raster(size: int = 32) -> np.ndarray:
    """Full-frame vertical stripes: white, blue, white. Nothing contains."""
    img = np.zeros((size, size, 3), dtype=np.uint8)
    third = size // 3
    img[:, :third] = (255, 255, 255)
    img[:, third : 2 * third] = (0, 0, 200)
    img[:, 2 * third :] = (255, 255, 255)
    return img


def two_sign_raster(size: int = 24) -> np.ndarray:
    """Two framed arrow-less signs side by side, one dot symbol each."""
    img = np.zeros((size, 2 * size, 3), dtype=np.uint8)
    for k in range(2):
        sl = slice(k * size, (k + 1) * size)
        img[:, sl] = (255, 255, 255)
        img[3:-3, k * size + 3 : (k + 1) * size - 3] = (0, 0, 200)
        c = k * size + size // 2
        img[size // 2 - 3 : size // 2 + 3, c - 3 : c + 3] = (255, 255, 255)
    return img


@pytest.fixture
def rng():
    return random.Random(20240801)
