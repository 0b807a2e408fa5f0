import json
import os
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import combipyramid
from combipyramid import cli
from combipyramid.cli import main
from combipyramid.map_core import CombinatorialMap
from combipyramid.netpbm import load_image, save_ppm
from combipyramid.pyramid import Kernel, KernelError, KernelState, Pyramid
from combipyramid.segmentation import SegmentedImage

from conftest import arrow_sign_raster, borderless_outside_pyramid, flag_sign_raster


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
    # SegmentedImage.labels() numbers the regions as the PGM and its sidecar
    # do: read the raw samples, as load_image scales them to 0..255
    regions = json.loads((tmp_path / "labels.pgm.json").read_text())["regions"]
    exported = np.frombuffer(labels.read_bytes().split(b"\n", 3)[3], np.uint8).reshape(24, 24)
    seg = SegmentedImage(load_image(str(sign_ppm))).run(1)
    darts = np.array(seg.pyramid.pixel_labels(seg.pyramid.top_level))
    assert (seg.labels() == exported).all()
    assert all(regions[str(k)] == d for k, d in zip(exported.ravel().tolist(), darts.ravel().tolist()))


def test_export_refuses_labels_a_16_bit_pgm_cannot_hold_before_writing(tmp_path, capsys):
    # level 0 of a 257x256 grid has 65,792 pixel regions, past the 65,536
    # labels of a 16-bit PGM: no output is written, the DOT files included
    pyr_path = tmp_path / "big.pyr"
    pyr_path.write_text(Pyramid(257, 256).to_json())
    rag_dot, labels = tmp_path / "x.dot", tmp_path / "x.pgm"
    code = main(["export", "--pyr", str(pyr_path), "--rag-dot", str(rag_dot), "--labels", str(labels)])
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("error: ") and "65792" in err and "65536" in err
    assert not rag_dot.exists() and not labels.exists()


@pytest.mark.parametrize("blocked", ["missing directory", "sidecar is a directory"])
def test_a_failed_export_leaves_none_of_its_files(tmp_path, sign_ppm, capsys, blocked):
    # the DOT files come before the labels and the labels before their
    # sidecar, yet none is left behind, and a file that was there is kept
    pyr_path = built(tmp_path, sign_ppm, capsys)
    out = tmp_path / "out"
    out.mkdir()
    (out / "map.dot").write_bytes(b"kept")
    if blocked == "missing directory":
        labels = out / "no" / "such" / "dir" / "x.pgm"
    else:
        labels = out / "x.pgm"
        (out / "x.pgm.json").mkdir()
    code = main(["export", "--pyr", str(pyr_path), "--map-dot", str(out / "map.dot"),
                 "--rag-dot", str(out / "part.dot"), "--labels", str(labels)])
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("error: [Errno ") and "Traceback" not in err
    assert sorted(p.name for p in out.iterdir()) == ["map.dot"] + (["x.pgm.json"] if "sidecar" in blocked else [])
    assert (out / "map.dot").read_bytes() == b"kept"


@pytest.mark.parametrize("first, second", [
    (("--map-dot", "same.txt"), ("--rag-dot", "same.txt")),
    (("--rag-dot", "x.pgm.json"), ("--labels", "x.pgm")),
    (("--map-dot", "x.pgm"), ("--labels", "./x.pgm")),
], ids=["map and rag", "rag and labels sidecar", "map and labels"])
def test_export_refuses_two_outputs_that_name_one_file(tmp_path, sign_ppm, capsys, monkeypatch, first, second):
    # the labels' sidecar is an output too; a file already there keeps its bytes
    pyr_path = built(tmp_path, sign_ppm, capsys)
    monkeypatch.chdir(tmp_path)
    (tmp_path / first[1]).write_bytes(b"kept")
    before = sorted(p.name for p in tmp_path.iterdir())
    code = main(["export", "--pyr", str(pyr_path), *first, *second])
    err = capsys.readouterr().err
    assert code == 1 and err.count("\n") == 1 and err.startswith("error: two outputs name one file: ")
    assert err.rstrip().endswith(first[1]) and "Traceback" not in err
    assert (tmp_path / first[1]).read_bytes() == b"kept"
    assert sorted(p.name for p in tmp_path.iterdir()) == before


@pytest.mark.parametrize("outputs, message", [
    (["--map-dot", "a.dot", "--rag-dot", "a.dot"], "two outputs name one file: a.dot"),
    (["--rag-dot", "x.pgm.json", "--labels", "x.pgm"], "two outputs name one file: x.pgm.json"),
    (["--map-dot", "sign.pyr", "--labels", "x.pgm"], "an output names the input file: sign.pyr"),
], ids=["map and rag", "rag and labels sidecar", "map and input"])
def test_export_refuses_a_repeated_path_before_making_any_output(tmp_path, sign_ppm, capsys, monkeypatch,
                                                                 outputs, message):
    # every path is checked before the DOT graphs or the label image are made
    pyr_path = built(tmp_path, sign_ppm, capsys)
    monkeypatch.chdir(tmp_path)

    def made(*args, **kwargs):
        raise AssertionError("an output was made before the paths were checked")

    monkeypatch.setattr(cli, "to_dot", made)
    monkeypatch.setattr(cli.relations, "rag_to_dot", made)
    monkeypatch.setattr(cli, "_label_image", made)
    code = main(["export", "--pyr", "sign.pyr", *outputs])
    assert code == 1 and capsys.readouterr().err == f"error: {message}\n"
    assert not Path("a.dot").exists() and not Path("x.pgm").exists()


def test_export_names_a_repeated_path_before_a_level_the_labels_cannot_hold(tmp_path, capsys, monkeypatch):
    # the paths are checked before the label image is made, so of the two
    # refusals the repeated path is the one reported
    monkeypatch.chdir(tmp_path)
    Path("big.pyr").write_text(Pyramid(257, 256).to_json())
    code = main(["export", "--pyr", "big.pyr", "--rag-dot", "x.pgm", "--labels", "x.pgm"])
    assert code == 1 and capsys.readouterr().err == "error: two outputs name one file: x.pgm\n"
    assert not Path("x.pgm").exists()


@pytest.mark.parametrize("outputs, message", [
    (["--labels", "sign.pyr"], "an output names the input file: "),
    (["--rag-dot", "hard.pyr"], "an output names the input file: "),
    (["--map-dot", "a.dot", "--rag-dot", "hard.dot"], "two outputs name one file: "),
], ids=["input named directly", "input through a hard link", "hard-linked outputs"])
def test_export_refuses_an_output_that_is_its_input_or_another_output(tmp_path, sign_ppm, capsys, monkeypatch,
                                                                     outputs, message):
    # a file is named by its device and inode, so a hard link names the
    # file it links; every file keeps its bytes
    pyr_path = built(tmp_path, sign_ppm, capsys)
    monkeypatch.chdir(tmp_path)
    os.link(pyr_path, "hard.pyr")
    Path("a.dot").write_bytes(b"kept")
    os.link("a.dot", "hard.dot")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    code = main(["export", "--pyr", str(pyr_path), *outputs])
    err = capsys.readouterr().err
    assert code == 1 and err == f"error: {message}{outputs[-1]}\n"
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("command", ["build", "roadsign"])
@pytest.mark.parametrize("out", ["sign.ppm", "hard.ppm"], ids=["input named directly", "input through a hard link"])
def test_build_and_roadsign_refuse_to_overwrite_their_input(tmp_path, sign_ppm, capsys, monkeypatch, command, out):
    # the record or the mask would replace the image it was made from
    monkeypatch.chdir(tmp_path)
    os.link(sign_ppm, "hard.ppm")
    before = sign_ppm.read_bytes()
    code = main([command, "--input", "sign.ppm", "--threshold", "10", "--out", out])
    assert code == 1 and capsys.readouterr().err == f"error: an output names the input file: {out}\n"
    assert sign_ppm.read_bytes() == before


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


@pytest.mark.parametrize("flags, message", [
    (["--k", "0"], "k must be at least 1"),
    (["--background-color", "nan,0,0"], "background_color must be finite, got [nan, 0.0, 0.0]"),
], ids=["k", "nan color"])
def test_roadsign_refuses_its_settings_before_the_build(tmp_path, sign_ppm, capsys, monkeypatch, flags, message):
    def forbidden(*args):
        raise AssertionError("roadsign built a pyramid before checking its settings")

    monkeypatch.setattr(SegmentedImage, "run", forbidden)
    out = tmp_path / "m.pgm"
    code = main(["roadsign", "--input", str(sign_ppm), "--threshold", "1", *flags, "--out", str(out)])
    assert code == 1 and capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [["validate"], ["query", "--report"], ["export", "--rag-dot", "x.dot"]],
                         ids=["validate", "query", "export"])
def test_a_binary_pyramid_file_is_not_a_record(tmp_path, sign_ppm, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code = main([argv[0], "--pyr", str(sign_ppm), *argv[1:]])
    assert code == 1 and capsys.readouterr().err == "error: not a serialized pyramid\n"
    assert not Path("x.dot").exists()


def test_validate_intact_pyramid(tmp_path, sign_ppm, capsys):
    pyr_path = built(tmp_path, sign_ppm, capsys)
    code, text = run(capsys, "validate", "--pyr", pyr_path)
    assert code == 0
    assert json.loads(text)["ok"] is True


def test_validate_builds_no_level_map(tmp_path, sign_ppm, capsys, monkeypatch):
    # loading builds the base map with the pyramid; from then on the map
    # constructor raises, and validate still checks every level, on its
    # record's arrays
    pyr_path = built(tmp_path, sign_ppm, capsys)
    load = cli._load_pyramid

    def forbidden(*args):
        raise AssertionError("validate built a level map")

    def loaded(path):
        pyr = load(path)
        assert pyr.top_level >= 2
        monkeypatch.setattr(CombinatorialMap, "_of", forbidden)
        return pyr

    monkeypatch.setattr(cli, "_load_pyramid", loaded)
    code, text = run(capsys, "validate", "--pyr", pyr_path)
    assert code == 0 and json.loads(text)["ok"] is True


# a version-2 record holds the level of every dart in dart_order: 1, -1, 2, -2, ...


def died_index(d):
    return 2 * (abs(d) - 1) + (d < 0)


def darts_of_level(record, k):
    """The darts that a version-2 record's level-k kernel removes, in dart_order."""
    return [(p // 2 + 1) * (-1 if p % 2 else 1) for p, level in enumerate(record["died"]) if level == k]


def test_validate_rejects_corrupt_file(tmp_path, sign_ppm, capsys):
    pyr_path = built(tmp_path, sign_ppm, capsys)
    data = json.loads(pyr_path.read_text())
    for d in darts_of_level(data, 1)[-2:]:  # drop darts from a kernel
        data["died"][died_index(d)] = 0
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
    dead = darts_of_level(json.loads(pyr_path.read_text()), 1)[0]
    err = query_error(capsys, pyr_path, "--level", 1, "--report", "--region", dead)
    assert err == f"error: dart {dead} does not survive at level 1\n"


def test_contains_with_an_unknown_dart_names_it(tmp_path, sign_ppm, capsys):
    pyr_path = built(tmp_path, sign_ppm, capsys)
    _, text = run(capsys, "query", "--pyr", pyr_path, "--report")
    region = json.loads(text)["regions"][0]
    record = json.loads(pyr_path.read_text())
    err = query_error(capsys, pyr_path, "--contains", region, 99999)
    assert "dart 99999 is not in the base map" in err
    dead = darts_of_level(record, 1)[0]
    err = query_error(capsys, pyr_path, "--contains", dead, region)
    assert f"dart {dead} does not survive at level {len(record['states'])}" in err


def test_unknown_composed_of_dart_names_it(tmp_path, sign_ppm, capsys):
    pyr_path = built(tmp_path, sign_ppm, capsys)
    err = query_error(capsys, pyr_path, "--composed-of", 99999)
    assert err == "error: dart 99999 is not in the base map\n"


def test_level_that_is_not_a_number_names_the_flag(tmp_path, sign_ppm, capsys):
    pyr_path = built(tmp_path, sign_ppm, capsys)
    err = query_error(capsys, pyr_path, "--level", "abc", "--report")
    assert err == "error: --level must be 'top' or an integer in 0..3, got 'abc'\n"


@pytest.mark.parametrize("flags, message", [
    ([], "one of the arguments --contains --inside --meets-each --composed-of --report is required"),
    (["--contains", 1, 2, "--inside", 1, 2], "argument --inside: not allowed with argument --contains"),
    (["--meets-each", 1, 2, "--contains", 1, 2], "argument --contains: not allowed with argument --meets-each"),
    (["--report", "--composed-of", 1], "argument --composed-of: not allowed with argument --report"),
    (["--region", 1], "one of the arguments --contains --inside --meets-each --composed-of --report is required"),
], ids=["no-mode", "contains-inside", "meets-each-contains", "report-composed-of", "region-alone"])
def test_query_takes_exactly_one_mode(tmp_path, capsys, flags, message):
    path = tmp_path / "small.pyr"
    path.write_text(small_pyramid().to_json())
    with pytest.raises(SystemExit) as exit_:
        main(["query", "--pyr", str(path), *(str(f) for f in flags)])
    assert exit_.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: {message}\n")


@pytest.mark.parametrize("flags", [["--contains", 1, 2], ["--composed-of", 1]], ids=["contains", "composed-of"])
def test_region_without_report_is_rejected(tmp_path, capsys, flags):
    path = tmp_path / "small.pyr"
    path.write_text(small_pyramid().to_json())
    err = query_error(capsys, path, *flags, "--region", 2)
    assert err == "error: --region applies only to --report\n"


@pytest.mark.parametrize("command", ["build", "roadsign"])
@pytest.mark.parametrize("flags, message", [
    (["--threshold", "nan"], "threshold must be a non-negative number, got nan"),
    (["--threshold", "-5"], "threshold must be a non-negative number, got -5.0"),
    (["--threshold", "1", "--max-levels", "-3"], "max_levels must be non-negative, got -3"),
], ids=["nan", "negative", "max-levels"])
def test_bad_merge_settings_are_rejected(tmp_path, sign_ppm, capsys, command, flags, message):
    out = tmp_path / "out"
    code = main([command, "--input", str(sign_ppm), *flags, "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_outside_without_border_darts_is_reported(tmp_path, capsys):
    # validate accepts the file, so the queries must answer on it too
    path = tmp_path / "borderless.pyr"
    path.write_text(borderless_outside_pyramid().to_json())
    code, text = run(capsys, "validate", "--pyr", path)
    assert code == 0 and json.loads(text)["ok"] is True
    code, text = run(capsys, "query", "--pyr", path, "--level", 2, "--report")
    assert code == 0 and json.loads(text)["infinite_region"] == 6
    rag = tmp_path / "rag.dot"
    code, _ = run(capsys, "export", "--pyr", path, "--level", 2, "--rag-dot", rag)
    assert code == 0 and '"r6" [shape=doublecircle]' in rag.read_text()


def test_missing_file_is_a_clean_error(tmp_path, capsys):
    code = main(["query", "--pyr", str(tmp_path / "nope.pyr"), "--report"])
    assert code == 1


# -- malformed pyramid files ---------------------------------------------------------


def small_pyramid():
    return Pyramid(2, 1).apply_kernel(Kernel(KernelState.CK, [2, -2]))


def small_record():
    return json.loads(small_pyramid().to_json())


def assert_clean_error(capsys, tmp_path, data, needle):
    path = tmp_path / "bad.pyr"
    path.write_text(json.dumps(data))
    code = main(["validate", "--pyr", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and needle in err


@pytest.mark.parametrize("width", ["4", True, 2.0, 0])
def test_width_that_is_not_a_positive_int_is_rejected(tmp_path, capsys, width):
    data = small_record()
    data["width"] = width
    assert_clean_error(capsys, tmp_path, data, "width must be a positive integer")


def load_error(capsys, tmp_path, data, command):
    path = tmp_path / "bad.pyr"
    path.write_text(json.dumps(data))
    code = main([command[0], "--pyr", str(path), *command[1:]])
    err = capsys.readouterr().err
    assert code == 1
    return err


COMMANDS = [["validate"], ["query", "--report"]]


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize(
    "version", [3, 0, 1, 1.0, True, "1", 2.0, None], ids=["3", "0", "1", "1.0", "True", "str-1", "2.0", "None"]
)
def test_version_other_than_2_is_rejected(tmp_path, capsys, command, version):
    # 2, the version to_json writes, is the one a record may carry
    data = small_record()
    data["version"] = version
    err = load_error(capsys, tmp_path, data, command)
    assert err == f"error: unsupported pyramid version {version!r}, expected 2\n"


# the version-1 record of small_pyramid: the base permutation over the darts
# in dart_order and one dart list per kernel
VERSION_1_RECORD = {
    "base_sigma": [-4, -6, 4, -7, 5, 7, -1, -5, -2, -3, 1, 2, 6, 3],
    "format": "combipyramid-pyramid",
    "height": 1,
    "kernels": [[2, -2]],
    "states": ["CK"],
    "version": 1,
    "width": 2,
}


@pytest.mark.parametrize("command", COMMANDS)
def test_a_version_1_record_is_rejected(tmp_path, capsys, command):
    err = load_error(capsys, tmp_path, VERSION_1_RECORD, command)
    assert err == "error: unsupported pyramid version 1, expected 2\n"


UNKNOWN_DARTS = {
    "0": lambda n: 0,
    "n+1": lambda n: n + 1,
    "-(n+1)": lambda n: -(n + 1),
    "2n": lambda n: 2 * n,
    "2**31": lambda n: 2**31,
    "2**40": lambda n: 2**40,
    "-2**63": lambda n: -2**63,
    "2**64": lambda n: 2**64,
}


@pytest.mark.parametrize("dart", UNKNOWN_DARTS)
def test_kernel_with_an_unknown_dart_is_rejected(dart):
    # beyond +-n a dart must not reach an array indexed by signed dart,
    # where n+1 would alias -n and 2**31 overflow int32; 2**64 does not
    # fit in int64
    pyr = small_pyramid()
    d = UNKNOWN_DARTS[dart](len(pyr.base) // 2)
    before = pyr.to_json()
    with pytest.raises(KernelError) as exc:
        pyr.apply_kernel(Kernel(KernelState.CK, [d, 1]))
    assert str(exc.value) == f"kernel contains dead or unknown darts: [{d}]"
    assert pyr.to_json() == before


def test_died_length_is_checked_before_the_grid_is_built(tmp_path, capsys):
    # the record claims a 300x300 grid: the length check must fail before
    # 361k darts are allocated
    data = small_record()
    data["width"] = data["height"] = 300
    with mock.patch("combipyramid.pyramid.build_grid_map", side_effect=AssertionError("grid built")) as build:
        assert_clean_error(capsys, tmp_path, data, "died has 14 entries, a 300x300 grid has 361200 darts")
    build.assert_not_called()


# small_record's died list is 14 entries long, for 1 state


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("length", [13, 15, 0])
def test_died_of_the_wrong_length_is_rejected(tmp_path, capsys, command, length):
    data = small_record()
    data["died"] = (data["died"] + [0])[:length]
    err = load_error(capsys, tmp_path, data, command)
    assert err == f"error: died has {length} entries, a 2x1 grid has 14 darts\n"


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("entry", [True, 1.0, "1"], ids=["bool", "float", "str"])
def test_died_entry_that_is_not_an_int_is_rejected(tmp_path, capsys, command, entry):
    # True == 1 and 1.0 == 1, so either would pass as level 1
    data = small_record()
    data["died"][data["died"].index(1)] = entry
    err = load_error(capsys, tmp_path, data, command)
    assert err == "error: died is not a list of integer levels\n"


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("level", [-1, 2, 2**63], ids=["-1", "len(states)+1", "2**63"])
def test_died_entry_out_of_range_is_rejected(tmp_path, capsys, command, level):
    data = small_record()
    data["died"][died_index(-3)] = level
    err = load_error(capsys, tmp_path, data, command)
    assert err == f"error: died holds level {level}, outside 0..1\n"


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("state, darts, message", [
    # darts 5 and -3 join the contraction without their partners
    ("CK", {1: [5, -3]}, "contraction kernel is not closed under alpha at dart -3"),
    # a border edge is no empty self loop
    ("RKESL", {2: [-6, 6, -1, 1]}, "dart 1 is not part of an empty self loop"),
], ids=["unpaired", "not-a-loop"])
def test_died_whose_kernel_fails_its_check_names_the_least_dart(tmp_path, capsys, command, state, darts, message):
    # the check runs on arrays, and the message names a plain int
    data = small_record()
    if state != "CK":
        data["states"].append(state)
    for level, ds in darts.items():
        for d in ds:
            data["died"][died_index(d)] = level
    err = load_error(capsys, tmp_path, data, command)
    assert err == f"error: {message}\n"


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
    pyr = Pyramid(1, 1)
    pyr.apply_kernel(pyr.compute_rkede())
    data = json.loads(pyr.to_json())
    data["states"].append("CK")
    data["died"][0] = data["died"][7] = len(data["states"])  # darts 1 and -4
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


def test_readme_quickstart_runs():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## Library quickstart") :]
    start = section.index("```python\n") + len("```python\n")
    code = section[start : section.index("```\n", start)]
    scope: dict = {}
    exec(code, scope)
    pyr, top, a, b = (scope[k] for k in ("pyr", "top", "a", "b"))
    assert combipyramid.contains(pyr, top, a, b)
    assert len(combipyramid.meets_each(pyr, top, a, b)) == 1


def test_readme_lists_the_exported_api():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("Lower-level pieces") : readme.index("## CLI")]
    names = set(re.findall(r"`(\w+)`", section))
    assert set(combipyramid.__all__) <= names
    for name in names - set(combipyramid.__all__):  # methods, named in parentheses
        assert hasattr(Pyramid, name) or hasattr(CombinatorialMap, name), name
