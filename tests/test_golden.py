"""Pinned outputs of the benchmark workloads.

For seed 1 of each workload in perfbench/workloads.py: the sha256 of the
built pyramid's to_json() and of its top level's relation_report (dumped
with sorted keys), and the state and size of every kernel. A change to how
levels are derived, checked or stored must leave all three as they are.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from combipyramid.pyramid import Pyramid
from combipyramid.relations import relation_report
from combipyramid.segmentation import SegmentedImage

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import WORKLOADS  # noqa: E402

GOLDEN = {
    "noise-regions": (
        "a2b265c29af251a47004d4b2eebc0e9fc06715853ba515aba626a7a93168f7e8",
        "194ce251caeb7892552221137a03f11d882d34ed60d19477a5c748bca8f996d4",
        [("CK", 252), ("RKEDE", 124)],
    ),
    "gradient-levels": (
        "1b1885759017b054e09fac6dc08b0008d8e9547ee7e3ace00439e512f1c614cc",
        "0da3dc795cf381e5477d85eaf01969cc5174c6f64af0fe42832773499e2f4ae9",
        [("CK", 7904), ("RKESL", 4596), ("RKEDE", 3342), ("CK", 64), ("RKEDE", 100), ("CK", 32), ("RKEDE", 50)],
    ),
    "sign-mosaic": (
        "34467e32ba5fb2fd4a33e3c3a5db9c39e6d345ccdf4867dd5a4054ffb192991f",
        "862b5f88e0f38d6730f52868607bf10e21c1cea3574201d24ebb9ff0dcbc5856",
        [("CK", 8174), ("RKESL", 6494), ("RKEDE", 1924)],
    ),
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
