import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combipyramid.netpbm import NetpbmError, load_image, save_pgm, save_ppm


def test_minimal_ascii_pgm(tmp_path):
    p = tmp_path / "one.pgm"
    p.write_bytes(b"P2\n1 1\n255\n17\n")
    img = load_image(str(p))
    assert img.shape == (1, 1, 1)
    assert img[0, 0, 0] == 17


def test_ascii_ppm_with_comments(tmp_path):
    p = tmp_path / "c.ppm"
    p.write_bytes(b"P3\n# a comment\n2 1\n# another\n255\n1 2 3  4 5 6\n")
    img = load_image(str(p))
    assert img.shape == (1, 2, 3)
    assert img[0, 1].tolist() == [4, 5, 6]


def test_binary_round_trips(tmp_path):
    rgb = np.arange(24, dtype=np.uint8).reshape(2, 4, 3)
    pp = tmp_path / "x.ppm"
    save_ppm(str(pp), rgb)
    assert (load_image(str(pp)) == rgb).all()
    gray = np.arange(8, dtype=np.uint8).reshape(2, 4)
    pg = tmp_path / "x.pgm"
    save_pgm(str(pg), gray)
    assert (load_image(str(pg))[:, :, 0] == gray).all()


def test_maxval_normalization(tmp_path):
    p = tmp_path / "m.pgm"
    p.write_bytes(b"P2\n2 1\n100\n0 100\n")
    img = load_image(str(p))
    assert img[0, 0, 0] == 0 and img[0, 1, 0] == 255
    # 16-bit binary payload, big endian
    p2 = tmp_path / "wide.pgm"
    payload = np.array([0, 65535], dtype=">u2").tobytes()
    p2.write_bytes(b"P5\n2 1\n65535\n" + payload)
    img2 = load_image(str(p2))
    assert img2[0, 0, 0] == 0 and img2[0, 1, 0] == 255


def test_save_pgm_rejects_what_the_format_cannot_store(tmp_path):
    path = tmp_path / "x.pgm"
    with pytest.raises(ValueError, match=re.escape("samples -1..70000 exceed the range 0..65535")):
        save_pgm(str(path), [[70000, 5], [300, -1]], maxval=65535)
    with pytest.raises(ValueError, match=re.escape("exceed the range 0..255")):
        save_pgm(str(path), [[256]])
    for maxval in (0, 65536):
        with pytest.raises(ValueError, match="maximum value"):
            save_pgm(str(path), [[0]], maxval=maxval)
    assert not path.exists()
    save_pgm(str(path), [[65535, 0]], maxval=65535)
    assert load_image(str(path))[0, :, 0].tolist() == [255, 0]


@pytest.mark.parametrize("maxval", [True, 255.0, 3.5])
def test_save_pgm_refuses_a_maxval_that_is_not_an_integer(tmp_path, maxval):
    # its header line would read True or 255.0, which load_image refuses
    path = tmp_path / "x.pgm"
    with pytest.raises(ValueError, match=re.escape(f"maximum value must be an integer, got {maxval!r}")):
        save_pgm(str(path), [[1, 0]], maxval=maxval)
    assert not path.exists()


@pytest.mark.parametrize("shape", [(4,), (2, 2, 1, 1)])
def test_save_pgm_refuses_an_array_that_is_no_raster(tmp_path, shape):
    path = tmp_path / "x.pgm"
    with pytest.raises(ValueError, match="expected an array of shape"):
        save_pgm(str(path), np.zeros(shape, dtype=np.uint8))
    assert not path.exists()


def test_save_pgm_takes_a_numpy_integer_maxval(tmp_path):
    path = tmp_path / "x.pgm"
    save_pgm(str(path), [[1000, 0]], maxval=np.uint16(1000))
    assert path.read_bytes().startswith(b"P5\n2 1\n1000\n")
    assert load_image(str(path))[0, :, 0].tolist() == [255, 0]


def test_save_ppm_rejects_samples_outside_a_byte(tmp_path):
    path = tmp_path / "x.ppm"
    with pytest.raises(ValueError, match=re.escape("samples -1..300 exceed the range 0..255")):
        save_ppm(str(path), np.array([[[300, 0, 0], [-1, 5, 5]]]))
    assert not path.exists()
    save_ppm(str(path), [[[255, 0, 7]]])
    assert load_image(str(path))[0, 0].tolist() == [255, 0, 7]


def test_truncated_binary_payload_reports_offset(tmp_path):
    p = tmp_path / "t.pgm"
    data = b"P5\n2 2\n255\n\x01\x02"
    p.write_bytes(data)
    with pytest.raises(NetpbmError) as err:
        load_image(str(p))
    assert "truncated" in str(err.value)
    assert err.value.offset == len(data)


def test_truncated_ascii_payload(tmp_path):
    p = tmp_path / "t2.pgm"
    p.write_bytes(b"P2\n2 2\n255\n1 2 3\n")
    with pytest.raises(NetpbmError, match="truncated"):
        load_image(str(p))


def test_bad_magic_and_header(tmp_path):
    p = tmp_path / "bad.pbm"
    p.write_bytes(b"P7\n1 1\n255\n0\n")
    with pytest.raises(NetpbmError, match="magic"):
        load_image(str(p))
    p.write_bytes(b"P2\n0 1\n255\n")
    with pytest.raises(NetpbmError, match="dimensions"):
        load_image(str(p))
    p.write_bytes(b"P2\n1 x\n255\n0\n")
    with pytest.raises(NetpbmError, match="token"):
        load_image(str(p))


def test_sample_above_maxval_rejected(tmp_path):
    p = tmp_path / "over.pgm"
    p.write_bytes(b"P2\n1 1\n9\n10\n")
    with pytest.raises(NetpbmError, match="exceeds"):
        load_image(str(p))


@pytest.mark.parametrize("data, offset", [
    (b"P5\n3 1\n9\n\x01\x02\x0a", 11),  # the P2 form names the token 10, at offset 13
    (b"P5\n2 1\n300\n\x00\x05\x01\x2d", 13),  # 301, in the second 16-bit sample
], ids=["8-bit", "16-bit"])
def test_binary_sample_above_maxval_is_reported_at_its_bytes(tmp_path, data, offset):
    p = tmp_path / "over.pgm"
    p.write_bytes(data)
    with pytest.raises(NetpbmError, match=rf"^sample exceeds maximum value \d+ \(byte offset {offset}\)$") as err:
        load_image(str(p))
    assert err.value.offset == offset


@pytest.mark.parametrize("data, token", [
    (b"P2\n1 1\n2_55\n7\n", b"2_55"),
    (b"P2\n+1 1\n255\n7\n", b"+1"),
    (b"P5 1 1_0 255\n\x07", b"1_0"),
])
def test_header_token_with_plus_or_underscore_is_rejected(tmp_path, data, token):
    # int() reads these; a Netpbm integer is ASCII digits after an optional -
    p = tmp_path / "h.pgm"
    p.write_bytes(data)
    with pytest.raises(NetpbmError, match=re.escape(f"bad header token {token!r}")) as err:
        load_image(str(p))
    assert err.value.offset == data.index(token)


@pytest.mark.parametrize("data, token", [
    (b"P2\n1 1\n255\n+7\n", b"+7"),
    (b"P2\n2 1\n255\n7 1_0\n", b"1_0"),
    (b"P3\n1 1\n255\n1 +2 3\n", b"+2"),
    (b"P3 1 1 255 1 2 1_2", b"1_2"),
])
def test_sample_with_plus_or_underscore_is_rejected(tmp_path, data, token):
    p = tmp_path / "s.pgm"
    p.write_bytes(data)
    with pytest.raises(NetpbmError, match=re.escape(f"bad sample {token!r}")) as err:
        load_image(str(p))
    assert err.value.offset == data.index(token)


WHITESPACE = b" \t\n\r\x0b\x0c"  # the bytes of bytes.isspace


@st.composite
def netpbm_files(draw):
    """A valid P2/P3/P5/P6 file of up to 4x4 pixels, runs of every
    whitespace byte between its tokens and # comments wherever whitespace
    may go, and its samples."""
    magic = draw(st.sampled_from([b"P2", b"P3", b"P5", b"P6"]))
    width, height, maxval = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 65535))
    n = width * height * (3 if magic in (b"P3", b"P6") else 1)
    samples = draw(st.lists(st.integers(0, maxval), min_size=n, max_size=n))

    def gap():  # whitespace, with comments that each end in a newline or carriage return
        out = draw(st.binary(min_size=1, max_size=3).map(lambda b: bytes(WHITESPACE[c % 6] for c in b)))
        for _ in range(draw(st.integers(0, 2))):
            text = draw(st.binary(max_size=6).filter(lambda b: b"\n" not in b and b"\r" not in b))
            out += b"#" + text + draw(st.sampled_from([b"\n", b"\r"])) + draw(st.sampled_from([b"", b" ", b"\t"]))
        return out

    head = [str(v).encode() for v in (width, height, maxval)]
    data = magic + b"".join(gap() + token for token in head)
    if magic in (b"P2", b"P3"):
        data += b"".join(gap() + str(s).encode() for s in samples) + (gap() if draw(st.booleans()) else b"")
    else:
        data += draw(st.sampled_from(list(WHITESPACE))).to_bytes(1, "big")
        data += np.array(samples, dtype=">u2" if maxval > 255 else np.uint8).tobytes()
    return data, (width, height, maxval, samples)


@settings(max_examples=300, deadline=None)
@given(netpbm_files())
def test_netpbm_grammar_loads_the_drawn_samples(tmp_path_factory, drawn):
    data, (width, height, maxval, samples) = drawn
    path = tmp_path_factory.mktemp("grammar") / "x.img"
    path.write_bytes(data)
    img = load_image(str(path))
    expected = (np.array(samples, dtype=np.int64) * 255 + maxval // 2) // maxval
    assert img.shape == (height, width, len(samples) // (width * height))
    assert img.ravel().tolist() == expected.tolist()


def valid_netpbm_files():
    return [
        b"P2\n2 2\n255\n0 17\n255 3\n",
        b"P3\n# comment\n2 1\n100\n1 2 3 97 98 99\n",
        b"P5\n2 1\n255\n\x05\xfa",
        b"P6\n1 2\n65535\n" + bytes(range(12)),
    ]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(valid_netpbm_files()), st.data())
def test_mutated_files_load_or_raise_netpbm_error(tmp_path_factory, original, data):
    # overwrite, insert or delete a few bytes of a valid file, or put any
    # integer, negative or wide, in place of one of its digit runs
    raw = bytearray(original)
    for _ in range(data.draw(st.integers(1, 4))):
        op = data.draw(st.sampled_from(["set", "insert", "delete", "number"]))
        if op == "number":
            runs = list(re.finditer(rb"\d+", raw))
            if runs:
                run = data.draw(st.sampled_from(runs))
                raw[run.start() : run.end()] = str(data.draw(st.integers())).encode()
            continue
        k = data.draw(st.integers(0, len(raw)))
        if op == "insert":
            raw[k:k] = data.draw(st.binary(min_size=1, max_size=3))
        elif k < len(raw):
            if op == "set":
                raw[k] = data.draw(st.integers(0, 255))
            else:
                del raw[k]
    path = tmp_path_factory.mktemp("fuzz") / "x.img"
    path.write_bytes(bytes(raw))
    try:
        img = load_image(str(path))
    except NetpbmError:
        return
    assert img.dtype == np.uint8 and img.ndim == 3
