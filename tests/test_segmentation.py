import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combipyramid.containment import inside_all
from combipyramid.map_core import dart_sort_key
from combipyramid.relations import infinite_region, region_ids
from combipyramid.segmentation import (
    RoadsignNotFound,
    SegmentedImage,
    _row_norms,
    roadsign_extract,
    segment_labels,
)

from conftest import arrow_sign_raster, flag_sign_raster, two_sign_raster
from eager_oracle import KruskalSegmentation

WHITE = (255.0, 255.0, 255.0)
BLUE = (0.0, 0.0, 200.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([1, 3]), st.booleans())
def test_stats_are_the_top_regions_after_every_round(seed, channels, fractional):
    # levels 6 apart under threshold 10: one channel steps merge and means
    # drift, so merges go on for rounds; three-channel steps may not
    rng = np.random.default_rng(seed)
    height, width = rng.integers(1, 9, size=2)
    image = rng.choice([0, 6, 12, 24], size=(height, width, channels)).astype(np.uint8)
    if fractional:
        # sums of non-integers depend on their order: pixel order here
        image = image + rng.choice([0.1, 0.25, 1 / 3], size=image.shape)
    seg = SegmentedImage(image[:, :, 0] if channels == 1 else image)
    while seg.merge_level(10.0):
        pyr = seg.pyramid
        top = pyr.top_level
        assert list(seg.stats) == sorted(set(region_ids(pyr, top)) - {infinite_region(pyr, top)}, key=dart_sort_key)
        labels = np.array(pyr.pixel_labels(top))
        for v, s in seg.stats.items():
            ys, xs = np.nonzero(labels == v)
            assert s.pixel_count == len(xs)
            np.testing.assert_allclose(s.color_sum, image[ys, xs].sum(axis=0), rtol=1e-13 if fractional else 0)
            assert s.bbox == (xs.min(), ys.min(), xs.max(), ys.max())


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([1, 3]), st.sampled_from([6.0, 10.0]))
def test_merge_rounds_equal_the_kruskal_reference_on_small_rasters(seed, channels, threshold):
    # few levels, so many candidate edges tie on distance and on |d|
    rng = np.random.default_rng(seed)
    height, width = rng.integers(1, 11, size=2)
    image = rng.choice([0, 6, 12], size=(height, width, channels))
    seg = SegmentedImage(image).run(threshold)
    ref = KruskalSegmentation(image).run(threshold)
    assert seg.pyramid.to_json() == ref.pyramid.to_json()
    assert [(v, s.pixel_count, s.color_sum.tolist(), s.bbox) for v, s in seg.stats.items()] == [
        (v, s.pixel_count, s.color_sum.tolist(), s.bbox) for v, s in ref.stats.items()
    ]


def test_stats_are_read_only():
    seg = SegmentedImage(np.zeros((2, 2)))
    with pytest.raises(TypeError):
        seg.stats[1] = seg.stats[-1]


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(1, 6))
def test_row_norms_equal_linalg_norm_bit_for_bit(seed, channels):
    # one ulp moves near-ties in the candidate order, and so the kernel
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((500, channels)) * 10.0 ** rng.integers(-3, 4, size=(500, 1))
    rows[::3] = np.round(rows[::3] * 3) / 3  # differences of means of small integers
    norms = _row_norms(rows)
    assert norms.tobytes() == np.array([np.linalg.norm(r) for r in rows]).tobytes()


def test_zero_threshold_on_distinct_colors_merges_nothing():
    img = np.arange(12, dtype=np.uint8).reshape(2, 2, 3)
    seg = SegmentedImage(img)
    assert seg.merge_level(0.0) == []
    assert seg.pyramid.top_level == 0
    assert seg.region_count() == 4


def test_uniform_image_collapses_to_one_region():
    img = np.full((4, 5, 3), 9, dtype=np.uint8)
    seg = SegmentedImage(img).run(threshold=10.0)
    assert seg.region_count() == 1
    top = seg.pyramid.reconstruct_level(seg.pyramid.top_level)
    # a single region: every surviving edge has both sides on it or outside
    assert len(top.vertices()) == 2


def test_pixel_counts_are_conserved():
    img = arrow_sign_raster(16)
    seg = SegmentedImage(img).run(threshold=1.0)
    total = sum(s.pixel_count for s in seg.stats.values())
    assert total == 16 * 16
    mixed = np.array([s.mean_color for s in seg.stats.values()])
    assert mixed.min() >= 0 and mixed.max() <= 255


def test_labels_match_partition():
    labels = np.zeros((5, 7), dtype=np.int64)
    labels[1:4, 2:5] = 1
    seg = segment_labels(labels)
    out = seg.labels()
    # same partition up to renaming
    mapping = {}
    for y in range(5):
        for x in range(7):
            key = labels[y, x]
            assert mapping.setdefault(key, out[y, x]) == out[y, x]
    assert len(set(mapping.values())) == len(mapping)


def test_region_count_on_sign_fixture():
    img = arrow_sign_raster(24)
    seg = SegmentedImage(img).run(threshold=1.0)
    assert seg.region_count() == 3  # border ring, background, arrow


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([0.0, 1.0, 2.0]))
def test_region_count_is_the_number_of_stats(seed, threshold):
    # labels 0..3 as grey levels 0, 1, 2, 3: a threshold of 1 or 2 merges
    # neighbouring labels over one round or several
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 4, size=(int(rng.integers(1, 9)), int(rng.integers(1, 9))))
    seg = SegmentedImage(labels)
    assert seg.region_count() == labels.size
    assert seg._view is None  # counting builds no stats view
    while seg.merge_level(threshold):
        assert seg.region_count() == len(seg.stats) == len(np.unique(seg.labels()))


def test_merge_loop_strictly_shrinks():
    img = arrow_sign_raster(16)
    seg = SegmentedImage(img)
    counts = [seg.region_count()]
    while True:
        if not seg.merge_level(1.0):
            break
        counts.append(seg.region_count())
    assert all(a > b for a, b in zip(counts, counts[1:]))


def test_roadsign_extract_finds_the_arrow():
    img = arrow_sign_raster(32)
    seg = SegmentedImage(img).run(threshold=1.0)
    symbol = roadsign_extract(seg, k=5, background_color=BLUE, symbol_color=WHITE)
    assert len(symbol) == 1
    (v,) = symbol
    # the symbol region is exactly the arrow: check a shaft pixel and size
    assert seg.pyramid.vertex_of_pixel(seg.pyramid.top_level, 16, 20) == v
    arrow_pixels = seg.stats[v].pixel_count
    assert arrow_pixels == (img[4:-4, 4:-4] == 255).all(axis=2).sum()


def test_roadsign_rejects_flag_layout():
    img = flag_sign_raster(32)
    seg = SegmentedImage(img).run(threshold=1.0)
    with pytest.raises(RoadsignNotFound, match="no sign found"):
        roadsign_extract(seg, k=5, background_color=BLUE, symbol_color=WHITE)


def test_roadsign_no_containment_at_all():
    img = np.zeros((8, 8, 3), dtype=np.uint8)
    img[:, 4:] = 200
    seg = SegmentedImage(img).run(threshold=1.0)
    with pytest.raises(RoadsignNotFound):
        roadsign_extract(seg, k=5, background_color=BLUE, symbol_color=WHITE)


def test_two_signs_each_contain_their_own_symbol():
    img = two_sign_raster(24)
    seg = SegmentedImage(img).run(threshold=1.0)
    pyr, top = seg.pyramid, seg.pyramid.top_level
    left_bg = pyr.vertex_of_pixel(top, 5, 12)
    right_bg = pyr.vertex_of_pixel(top, 24 + 5, 12)
    left_dot = pyr.vertex_of_pixel(top, 12, 12)
    right_dot = pyr.vertex_of_pixel(top, 24 + 12, 12)
    assert inside_all(pyr, top, left_bg) == {left_dot}
    assert inside_all(pyr, top, right_bg) == {right_dot}
    symbol = roadsign_extract(seg, k=5, background_color=BLUE, symbol_color=WHITE)
    assert symbol in ({left_dot}, {right_dot})


def test_vertex_at_against_infinite_region():
    img = np.full((3, 3, 3), 7, dtype=np.uint8)
    seg = SegmentedImage(img).run(threshold=1.0)
    pyr, top = seg.pyramid, seg.pyramid.top_level
    assert pyr.vertex_of_pixel(top, 0, 0) != infinite_region(pyr, top)


def test_vertex_of_pixel_rejects_pixels_outside_the_grid():
    img = np.zeros((3, 4), dtype=np.uint8)
    img[1, 1:3] = 200
    seg = SegmentedImage(img).run(threshold=1.0)
    pyr, top = seg.pyramid, seg.pyramid.top_level
    assert top > 0
    for x, y in ((-1, 0), (4, 0), (0, 3)):
        with pytest.raises(ValueError, match=re.escape(f"pixel ({x}, {y}) outside the 4x3 grid")):
            pyr.vertex_of_pixel(top, x, y)


def test_builder_rejects_bad_k():
    img = arrow_sign_raster(16)
    seg = SegmentedImage(img).run(threshold=1.0)
    with pytest.raises(ValueError):
        roadsign_extract(seg, k=0)


@pytest.mark.parametrize("count", [True, False, 1.5, 2.0, np.float64(1.0), "1"])
@pytest.mark.parametrize("name", ["max_levels", "k"])
def test_a_count_that_is_not_an_integer_is_refused(name, count):
    # a bool would count as 0 or 1 and a float run to its ceiling or fail
    # as a slice index: each is refused by name, and a numpy integer counts
    img = arrow_sign_raster(16)
    calls = {
        "max_levels": lambda n: SegmentedImage(img).run(1.0, max_levels=n).pyramid.to_json(),
        "k": lambda n: roadsign_extract(SegmentedImage(img).run(1.0), k=n, background_color=BLUE,
                                        symbol_color=WHITE),
    }
    with pytest.raises(ValueError) as got:
        calls[name](count)
    assert type(got.value) is ValueError and str(got.value) == f"{name} must be an integer, got {count!r}"
    for kind in (np.int32, np.int64):
        assert calls[name](kind(2)) == calls[name](2)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["background_color", "symbol_color"])
def test_a_color_that_is_not_finite_is_refused(name, value):
    # every distance to a NaN color is NaN, which would pick the first
    # regions in dart order: such a color is refused by name
    seg = SegmentedImage(arrow_sign_raster(16)).run(1.0)
    colors = {"background_color": BLUE, "symbol_color": WHITE}
    colors[name] = (value, 0.0, 0.0)
    with pytest.raises(ValueError) as got:
        roadsign_extract(seg, **colors)
    assert type(got.value) is ValueError and str(got.value) == f"{name} must be finite, got {[value, 0.0, 0.0]!r}"
