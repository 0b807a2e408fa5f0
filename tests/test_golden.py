"""Pinned outputs of the benchmark workloads.

For seed 1 of each workload in perfbench/workloads.py: the sha256 of the
built pyramid's to_json() and of its top level's relation_report (dumped
with sorted keys), and the state and size of every kernel. A change to how
levels are derived, checked or stored must leave all three as they are.
MEETS_EACH pins, for the same builds, the darts and Freeman chain of every
meets_each piece over the top level's adjacent pairs, in order; RAG_DOT
the sha256 of the top level's rag_to_dot text; and LEVEL_MAPS the sha256
of every level map's to_dot text, of the build and of its reload.
For seeds 1-3, the merge rounds also build what the one-edge-at-a-time
reference builds. A kernel's frozenset view, Kernel.darts, is built only
when read, and neither a seed-1 build nor its reload reads it.
"""

import hashlib
import json
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from combipyramid.map_core import to_dot
from combipyramid.pyramid import Kernel, Pyramid
from combipyramid.relations import meets_each, rag_export, rag_to_dot, relation_report
from combipyramid.segmentation import SegmentedImage

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from eager_oracle import KruskalSegmentation  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

GOLDEN = {
    "noise-regions": (
        "13e8aee7445a0fdfcabfa73536161e10f9551326bafb15e8cac84be8e867c719",
        "194ce251caeb7892552221137a03f11d882d34ed60d19477a5c748bca8f996d4",
        [("CK", 252), ("RKEDE", 124)],
    ),
    "gradient-levels": (
        "3dcf7c02677227b325d96e19b33a53db3fd3dbc59bb84ed9c4461585843fe763",
        "0da3dc795cf381e5477d85eaf01969cc5174c6f64af0fe42832773499e2f4ae9",
        [("CK", 7904), ("RKESL", 4596), ("RKEDE", 3342), ("CK", 64), ("RKEDE", 100), ("CK", 32), ("RKEDE", 50)],
    ),
    "sign-mosaic": (
        "69eb3798c83ad560d8f47d4e9dd12f9e217c40385a7562061998874ba5ac85ca",
        "862b5f88e0f38d6730f52868607bf10e21c1cea3574201d24ebb9ff0dcbc5856",
        [("CK", 8174), ("RKESL", 6494), ("RKEDE", 1924)],
    ),
}

MEETS_EACH = {
    "noise-regions": (997, "2a6cd8b37c5898f938e55f86c60180c4813178b2d1e52553b388bf2e5d3cc6d4"),
    "gradient-levels": (116, "58216dd8875464a9a019f7532f3cce806f8ce1241560d4a73a774fdc3d885453"),
    "sign-mosaic": (9, "9dc171e8971863536170495e9c53e05baacd817903cac226ffa9530f427044fa"),
}

RAG_DOT = {
    "noise-regions": "c6b93270688b360eb2676d7b3435b6af5711696a391c2c518a44e463c8f9934e",
    "gradient-levels": "ce3fcdf104f7980716e0bae8160a990487b77c92a5bdb7196c6c7dd560ff6085",
    "sign-mosaic": "810a62ec8893b45957faf73aeaf537b7d2dc11a5cc65305f7859e96887cbb82e",
}

LEVEL_MAPS = {
    "noise-regions": [
        "401f3337ef77922ebb9faee8c86c6126b2fe3eadf505f335cd53df9685bfcc9e",
        "19ee5c916c0b25f5d0913214472cea7ab4bcf53ba800ebb6c400b60ef1e41e36",
        "b43384fc7417fdcbb012cec5e63f1e5495e7d7eea27d15899d290145acab1f49",
    ],
    "gradient-levels": [
        "a8aa62bb581dafaee79ce9476bbdfcdbbd7be99d6884d768cc2107bf0815519d",
        "42582ce8801aaaf671fbd176a787a12ad2780abae1f8238d8c809151d7a51f35",
        "fba3705c0b1dbf54697cd1e86be2e0998ed2172dd17241fa935ae27123fde7d9",
        "3e0767bbf1cfe2ad98f7fd3e2abff382dd1dd30309a4190ff89d9ce248e741fb",
        "650d1b8669a343377a46786f8f135fe74d5d914de2eeb094a88a05acaddbe78b",
        "2c8402eee4081ef1d222944aa6bbbee644e03687e2af4a8ad6725fffd55d9415",
        "0453f825f2c96784610d50704aac23ab1ec94aa2dfc2ca4937d4bc5bbcb6f576",
        "a6a9c1e83357978d00b71c541748e146cacaf080beb4dd4ad3740535be1b46c5",
    ],
    "sign-mosaic": [
        "a8aa62bb581dafaee79ce9476bbdfcdbbd7be99d6884d768cc2107bf0815519d",
        "c3c7e22345d84361e0d8adca6887ba5ec32c77f4fc99bd1316b062f8d652f3ce",
        "b39b7458b42fbc6d4f1d70c5fb0933b535c573effdf5daea7f7905ec490d00fd",
        "bad3143b83363ce014c54cc1df076462a1644a82ac7636b2292bce4b208e576d",
    ],
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", GOLDEN)
def test_workload_outputs_are_pinned(name):
    workload = WORKLOADS[name]
    pyr = SegmentedImage(workload.raster(np.random.default_rng(1))).run(workload.threshold).pyramid
    text = pyr.to_json()
    json_hash, report_hash, kernels = GOLDEN[name]
    assert [(k.state.value, len(k)) for k in pyr.kernels] == kernels
    assert sha256(text) == json_hash
    assert sha256(json.dumps(relation_report(pyr, pyr.top_level), sort_keys=True)) == report_hash
    # a reload derives the same levels
    clone = Pyramid.from_json(text)
    assert clone.to_json() == text
    assert sha256(json.dumps(relation_report(clone, clone.top_level), sort_keys=True)) == report_hash


def test_build_and_reload_never_build_a_kernel_frozenset():
    workload = WORKLOADS["gradient-levels"]
    json_hash = GOLDEN["gradient-levels"][0]
    unread = property(lambda kernel: pytest.fail("Kernel.darts was read"))
    with mock.patch.object(Kernel, "darts", unread):
        pyr = SegmentedImage(workload.raster(np.random.default_rng(1))).run(workload.threshold).pyramid
        assert sha256(Pyramid.from_json(pyr.to_json()).to_json()) == json_hash
    assert [(k.state.value, len(k.darts)) for k in pyr.kernels] == GOLDEN["gradient-levels"][2]


@pytest.mark.parametrize("name", MEETS_EACH)
def test_meets_each_pieces_are_pinned(name):
    workload = WORKLOADS[name]
    pyr = SegmentedImage(workload.raster(np.random.default_rng(1))).run(workload.threshold).pyramid
    top = pyr.top_level
    pieces = [[list(s.darts), s.cracks.freeman()] for u, v in rag_export(pyr, top)[1] for s in meets_each(pyr, top, u, v)]
    assert (len(pieces), sha256(json.dumps(pieces))) == MEETS_EACH[name]


@pytest.mark.parametrize("name", RAG_DOT)
def test_rag_dot_is_pinned(name):
    workload = WORKLOADS[name]
    pyr = SegmentedImage(workload.raster(np.random.default_rng(1))).run(workload.threshold).pyramid
    assert sha256(rag_to_dot(pyr, pyr.top_level)) == RAG_DOT[name]


@pytest.mark.parametrize("name", LEVEL_MAPS)
def test_level_maps_are_pinned(name):
    workload = WORKLOADS[name]
    pyr = SegmentedImage(workload.raster(np.random.default_rng(1))).run(workload.threshold).pyramid
    for p in (pyr, Pyramid.from_json(pyr.to_json())):
        assert [sha256(to_dot(p.reconstruct_level(i))) for i in range(p.top_level + 1)] == LEVEL_MAPS[name]

@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", GOLDEN)
def test_merge_rounds_equal_the_kruskal_reference(name, seed):
    workload = WORKLOADS[name]
    raster = workload.raster(np.random.default_rng(seed))
    seg = SegmentedImage(raster).run(workload.threshold)
    ref = KruskalSegmentation(raster).run(workload.threshold)
    assert seg.pyramid.to_json() == ref.pyramid.to_json()
    assert list(seg.stats) == list(ref.stats)
    for v, s in seg.stats.items():
        r = ref.stats[v]
        assert (s.pixel_count, s.color_sum.tobytes(), s.bbox) == (r.pixel_count, r.color_sum.tobytes(), r.bbox)
