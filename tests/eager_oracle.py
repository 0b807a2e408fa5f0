"""Independent references for the derived levels, their empty self loops
and enclosure.

EagerMap applies kernels one edge or joint at a time on explicit permutation
dicts, with none of the package's derivation machinery. sorted_sweep_loops
grows the empty self loops by repeated sorted sweeps. flood_fill_contains_oracle
decides enclosure on the pixels. All are kept deliberately simple.
"""

from __future__ import annotations

import numpy as np

from combipyramid.map_core import CombinatorialMap, dart_sort_key
from combipyramid.pyramid import Kernel, KernelState, Pyramid


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
