import json
import re
from pathlib import Path

import numpy as np
import pytest

import combipyramid
from combipyramid.cli import main
from combipyramid.map_core import CombinatorialMap
from combipyramid.netpbm import load_image, save_ppm
from combipyramid.pyramid import Kernel, KernelState, Pyramid

from conftest import arrow_sign_raster, flag_sign_raster


@pytest.fixture
def sign_ppm(tmp_path):
    path = tmp_path / "sign.ppm"
    save_ppm(str(path), arrow_sign_raster(24))
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, out


def test_build_writes_pyramid_and_logs_regions(tmp_path, sign_ppm, capsys):
    out = tmp_path / "sign.pyr"
    code, text = run(capsys, "build", "--input", sign_ppm, "--threshold", "1", "--out", out)
    assert code == 0
    info = json.loads(text)
    assert info["regions"] == 3
    assert out.exists()


def test_build_is_byte_deterministic(tmp_path, sign_ppm, capsys):
    a, b = tmp_path / "a.pyr", tmp_path / "b.pyr"
    run(capsys, "build", "--input", sign_ppm, "--threshold", "1", "--out", a)
    run(capsys, "build", "--input", sign_ppm, "--threshold", "1", "--out", b)
    assert a.read_bytes() == b.read_bytes()


def built(tmp_path, sign_ppm, capsys):
    out = tmp_path / "sign.pyr"
    run(capsys, "build", "--input", sign_ppm, "--threshold", "1", "--out", out)
    return out


def test_query_contains_and_report(tmp_path, sign_ppm, capsys):
    pyr_path = built(tmp_path, sign_ppm, capsys)
    code, text = run(capsys, "query", "--pyr", pyr_path, "--level", "top", "--report")
    assert code == 0
    report = json.loads(text)
    assert len(report["contains"]) == 3  # ring>bg, ring>arrow, bg>arrow
    (a, b) = report["contains"][0]
    code, text = run(capsys, "query", "--pyr", pyr_path, "--contains", a, b)
    assert code == 0 and json.loads(text)["contains"] is True
    code, text = run(capsys, "query", "--pyr", pyr_path, "--contains", b, a)
    assert code == 0 and json.loads(text)["contains"] is False
    code, text = run(capsys, "query", "--pyr", pyr_path, "--inside", b, a)
    assert code == 0 and json.loads(text)["inside"] is True


def test_query_meets_each_emits_freeman_chains(tmp_path, sign_ppm, capsys):
    pyr_path = built(tmp_path, sign_ppm, capsys)
    code, text = run(capsys, "query", "--pyr", pyr_path, "--report")
    pair = json.loads(text)["meets"][0]
    code, text = run(capsys, "query", "--pyr", pyr_path, "--meets-each", pair["a"], pair["b"])
    assert code == 0
    out = json.loads(text)
    assert out["meets_exists"] is True
    assert len(out["meets_each"]) == pair["segments"]
    chain = out["meets_each"][0]
    assert ":" in chain["freeman"]
    assert chain["cracks"]
    assert all(rec["move"] in (0, 1, 2, 3) for rec in chain["cracks"])


def test_export_dot_and_labels(tmp_path, sign_ppm, capsys):
    pyr_path = built(tmp_path, sign_ppm, capsys)
    map_dot = tmp_path / "map.dot"
    rag_dot = tmp_path / "rag.dot"
    labels = tmp_path / "labels.pgm"
    code, _ = run(
        capsys, "export", "--pyr", pyr_path,
        "--map-dot", map_dot, "--rag-dot", rag_dot, "--labels", labels,
    )
    assert code == 0
    assert map_dot.read_text().startswith("graph")
    assert "doublecircle" in rag_dot.read_text()
    img = load_image(str(labels))
    assert img.shape == (24, 24, 1)
    assert len(np.unique(img)) == 3
    assert (tmp_path / "labels.pgm.json").exists()


def test_roadsign_mask(tmp_path, sign_ppm, capsys):
    mask_path = tmp_path / "mask.pgm"
    code, text = run(
        capsys, "roadsign", "--input", sign_ppm, "--threshold", "1",
        "--background-color", "0,0,200", "--symbol-color", "255,255,255",
        "--out", mask_path,
    )
    assert code == 0
    info = json.loads(text)
    mask = load_image(str(mask_path))[:, :, 0]
    img = arrow_sign_raster(24)
    arrow = (img[4:-4, 4:-4] == 255).all(axis=2)
    assert (mask[4:-4, 4:-4] > 0).sum() == arrow.sum() == info["symbol_pixels"]


def test_roadsign_flag_fails_cleanly(tmp_path, capsys):
    flag = tmp_path / "flag.ppm"
    save_ppm(str(flag), flag_sign_raster(24))
    code, _ = run(capsys, "roadsign", "--input", flag, "--threshold", "1",
                  "--out", tmp_path / "m.pgm")
    assert code == 1


def test_validate_intact_pyramid(tmp_path, sign_ppm, capsys):
    pyr_path = built(tmp_path, sign_ppm, capsys)
    code, text = run(capsys, "validate", "--pyr", pyr_path)
    assert code == 0
    assert json.loads(text)["ok"] is True


def test_validate_rejects_corrupt_file(tmp_path, sign_ppm, capsys):
    pyr_path = built(tmp_path, sign_ppm, capsys)
    data = json.loads(pyr_path.read_text())
    data["kernels"][0] = data["kernels"][0][:-2]  # drop darts from a kernel
    bad = tmp_path / "bad.pyr"
    bad.write_text(json.dumps(data))
    code, _ = run(capsys, "validate", "--pyr", bad)
    assert code == 1


def test_query_level_zero_and_composed_of(tmp_path, sign_ppm, capsys):
    pyr_path = built(tmp_path, sign_ppm, capsys)
    code, text = run(capsys, "query", "--pyr", pyr_path, "--level", "0", "--report")
    assert code == 0
    report = json.loads(text)
    assert report["level"] == 0
    assert report["contains"] == []  # single pixels enclose nothing
    code, text = run(capsys, "query", "--pyr", pyr_path, "--report")
    parent = json.loads(text)["composed_of"][0]["parent"]
    code, text = run(capsys, "query", "--pyr", pyr_path, "--composed-of", parent)
    assert code == 0
    assert json.loads(text)["composed_of"]


def query_error(capsys, pyr_path, *argv):
    code = main(["query", "--pyr", str(pyr_path), *(str(a) for a in argv)])
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("error: ")
    return err


def test_meets_each_with_an_unknown_dart_names_it(tmp_path, sign_ppm, capsys):
    pyr_path = built(tmp_path, sign_ppm, capsys)
    _, text = run(capsys, "query", "--pyr", pyr_path, "--report")
    region = json.loads(text)["regions"][0]
    err = query_error(capsys, pyr_path, "--meets-each", 99999, region)
    assert err == "error: dart 99999 is not in the base map\n"


def test_report_with_an_unknown_region_names_it(tmp_path, sign_ppm, capsys):
    pyr_path = built(tmp_path, sign_ppm, capsys)
    err = query_error(capsys, pyr_path, "--report", "--region", 99999)
    assert err == "error: dart 99999 is not in the base map\n"
    dead = json.loads(pyr_path.read_text())["kernels"][0][0]
    err = query_error(capsys, pyr_path, "--level", 1, "--report", "--region", dead)
    assert err == f"error: dart {dead} does not survive at level 1\n"


def test_contains_with_an_unknown_dart_names_it(tmp_path, sign_ppm, capsys):
    pyr_path = built(tmp_path, sign_ppm, capsys)
    _, text = run(capsys, "query", "--pyr", pyr_path, "--report")
    region = json.loads(text)["regions"][0]
    record = json.loads(pyr_path.read_text())
    err = query_error(capsys, pyr_path, "--contains", region, 99999)
    assert "dart 99999 is not in the base map" in err
    dead = record["kernels"][0][0]
    err = query_error(capsys, pyr_path, "--contains", dead, region)
    assert f"dart {dead} does not survive at level {len(record['kernels'])}" in err


def test_missing_file_is_a_clean_error(tmp_path, capsys):
    code = main(["query", "--pyr", str(tmp_path / "nope.pyr"), "--report"])
    assert code == 1


# -- malformed pyramid files ---------------------------------------------------------


def small_record():
    return json.loads(Pyramid.from_grid(2, 1).apply_kernel(Kernel.of(KernelState.CK, [2, -2])).to_json())


def assert_clean_error(capsys, tmp_path, data, needle):
    path = tmp_path / "bad.pyr"
    path.write_text(json.dumps(data))
    code = main(["validate", "--pyr", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and needle in err


def test_states_and_kernels_of_different_lengths_are_rejected(tmp_path, sign_ppm, capsys):
    data = json.loads(built(tmp_path, sign_ppm, capsys).read_text())
    assert len(data["kernels"]) >= 3
    data["states"] = data["states"][:1]
    assert_clean_error(capsys, tmp_path, data, "kernel states for")


@pytest.mark.parametrize("width", ["4", True, 2.0, 0])
def test_width_that_is_not_a_positive_int_is_rejected(tmp_path, capsys, width):
    data = small_record()
    data["width"] = width
    assert_clean_error(capsys, tmp_path, data, "width must be a positive integer")


def test_kernel_entry_that_is_not_an_int_is_rejected(tmp_path, capsys):
    data = small_record()
    data["kernels"] = [[None]]
    assert_clean_error(capsys, tmp_path, data, "kernel 1 is not a list of integer darts")


def load_error(capsys, tmp_path, data, command):
    path = tmp_path / "bad.pyr"
    path.write_text(json.dumps(data))
    code = main([command[0], "--pyr", str(path), *command[1:]])
    err = capsys.readouterr().err
    assert code == 1
    return err


COMMANDS = [["validate"], ["query", "--report"]]


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("version", [2, 0, 1.0, True, "1", None])
def test_version_other_than_1_is_rejected(tmp_path, capsys, command, version):
    data = small_record()
    data["version"] = version
    err = load_error(capsys, tmp_path, data, command)
    assert err == f"error: unsupported pyramid version {version!r}, expected 1\n"


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("entry", ["float", "bool"])
def test_base_sigma_entry_that_is_not_an_int_is_rejected(tmp_path, capsys, command, entry):
    # 4.0 == 4 and True == 1, so either would pass the permutation compare
    data = small_record()
    sigma = data["base_sigma"]
    if entry == "float":
        sigma[0] = float(sigma[0])
    else:
        sigma[sigma.index(1)] = True
    err = load_error(capsys, tmp_path, data, command)
    assert err == "error: base_sigma is not a list of integer darts\n"


UNKNOWN_DARTS = {
    "0": lambda n: 0,
    "n+1": lambda n: n + 1,
    "-(n+1)": lambda n: -(n + 1),
    "2n": lambda n: 2 * n,
    "2**31": lambda n: 2**31,
    "2**40": lambda n: 2**40,
    "-2**63": lambda n: -2**63,
}


@pytest.mark.parametrize("dart", UNKNOWN_DARTS)
def test_kernel_with_an_unknown_dart_is_rejected(tmp_path, capsys, dart):
    # beyond +-n a dart must not reach an array indexed by signed dart,
    # where n+1 would alias -n and 2**31 overflow int32
    data = small_record()
    d = UNKNOWN_DARTS[dart](len(data["base_sigma"]) // 2)
    data["states"].append("CK")
    data["kernels"].append([d, 1])
    err = load_error(capsys, tmp_path, data, ["validate"])
    assert err.startswith("error: kernel contains dead or unknown darts: [") and str(d) in err


def test_base_sigma_length_is_checked_before_the_grid_is_built(tmp_path, capsys):
    # the record claims a 300x300 grid but carries no permutation: the length
    # check must fail before 361k darts are allocated
    data = small_record()
    data["width"] = data["height"] = 300
    assert_clean_error(capsys, tmp_path, data, "base_sigma has 14 entries, a 300x300 grid has 361200 darts")


@pytest.mark.parametrize("command", [["validate"], ["query", "--report"], ["export", "--labels", "x.pgm"]])
def test_deeply_nested_json_is_rejected(tmp_path, capsys, command):
    path = tmp_path / "nested.pyr"
    path.write_text("[" * 100000 + "]" * 100000)
    code = main([command[0], "--pyr", str(path), *command[1:]])
    err = capsys.readouterr().err
    assert code == 1
    assert err == "error: pyramid JSON is nested too deeply\n"


def test_validate_rejects_a_contraction_of_the_whole_map(tmp_path, capsys):
    # the last edge of a cleaned 1x1 grid, contracted, would leave no darts
    pyr = Pyramid.from_grid(1, 1)
    pyr.apply_kernel(pyr.compute_rkede())
    data = json.loads(pyr.to_json())
    data["states"].append("CK")
    data["kernels"].append([1, -4])
    assert_clean_error(capsys, tmp_path, data, "contraction kernel contains every dart of the top map")


# -- malformed images ------------------------------------------------------------------


@pytest.mark.parametrize("sample", [b"-5", b"99999999999"])
def test_ascii_sample_out_of_range_is_rejected(tmp_path, capsys, sample):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2\n2 1\n255\n7 " + sample + b"\n")
    code = main(["build", "--input", str(path), "--threshold", "1", "--out", str(tmp_path / "x.pyr")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "exceeds the range 0..255 (byte offset 13)" in err


def test_readme_lists_the_exported_api():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("Lower-level pieces") : readme.index("## CLI")]
    names = set(re.findall(r"`(\w+)`", section))
    assert set(combipyramid.__all__) <= names
    for name in names - set(combipyramid.__all__):  # methods, named in parentheses
        assert hasattr(Pyramid, name) or hasattr(CombinatorialMap, name), name
