"""Fuzz tests for the two file readers.

Whatever bytes ``read_checkpoint`` and ``load_idx`` are given, arbitrary or
a valid file with bytes overwritten, cut or appended, they must either
parse or raise ``FormatError`` carrying the byte offset where parsing
failed; any other exception is a reader defect.
"""
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spikelat.data import Dataset, load_idx, save_idx
from spikelat.errors import FormatError
from spikelat.trainer import read_checkpoint, save_checkpoint

FUZZ = settings(max_examples=300, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

CKPT_HEAD = b"SPKL" + struct.pack("<I", 1)
IDX_IMAGES_HEAD = struct.pack(">I", 0x803)
IDX_LABELS_HEAD = struct.pack(">I", 0x801)


@st.composite
def mutated(draw, valid):
    """``valid`` with up to eight bytes overwritten, then maybe cut and extended."""
    buf = bytearray(valid)
    for _ in range(draw(st.integers(1, 8))):
        buf[draw(st.integers(0, len(buf) - 1))] = draw(st.integers(0, 255))
    if draw(st.booleans()):
        buf = buf[: draw(st.integers(0, len(buf)))] + draw(st.binary(max_size=12))
    return bytes(buf)


def arbitrary(head):
    """Any bytes, half of them behind a header that passes the magic check."""
    return st.one_of(st.binary(max_size=96), st.binary(max_size=96).map(lambda b: head + b))


def parses_or_reports_offset(read, *paths):
    try:
        return read(*paths)
    except FormatError as e:
        assert isinstance(e.offset, int) and e.offset >= 0, str(e)
        return None


@pytest.fixture(scope="module")
def valid_ckpt(tmp_path_factory):
    p = tmp_path_factory.mktemp("ckpt") / "valid.ckpt"
    rng = np.random.default_rng(0)
    save_checkpoint(p, {"w": rng.normal(size=(2, 3)), "b": rng.normal(size=3),
                        "s": np.array(1.5)})
    return p.read_bytes()


@pytest.fixture(scope="module")
def valid_idx(tmp_path_factory):
    d = tmp_path_factory.mktemp("idx")
    rng = np.random.default_rng(0)
    ds = Dataset(rng.integers(0, 256, size=(3, 1, 4, 5)) / 255.0, np.arange(3), 3)
    save_idx(ds, d / "i.idx", d / "l.idx")
    return (d / "i.idx").read_bytes(), (d / "l.idx").read_bytes()


class TestCheckpointReader:
    def test_valid_file_parses(self, tmp_path, valid_ckpt):
        p = tmp_path / "x.ckpt"
        p.write_bytes(valid_ckpt)
        assert sorted(read_checkpoint(p)) == ["b", "s", "w"]

    @FUZZ
    @given(data=arbitrary(CKPT_HEAD))
    def test_arbitrary_bytes(self, tmp_path, data):
        p = tmp_path / "x.ckpt"
        p.write_bytes(data)
        parses_or_reports_offset(read_checkpoint, p)

    @FUZZ
    @given(data=st.data())
    def test_mutated_valid_file(self, tmp_path, valid_ckpt, data):
        p = tmp_path / "x.ckpt"
        p.write_bytes(data.draw(mutated(valid_ckpt)))
        arrays = parses_or_reports_offset(read_checkpoint, p)
        if arrays is not None:
            assert all(a.dtype == np.float32 for a in arrays.values())


class TestIdxReader:
    def test_valid_pair_parses(self, tmp_path, valid_idx):
        ip, lp = tmp_path / "i.idx", tmp_path / "l.idx"
        ip.write_bytes(valid_idx[0])
        lp.write_bytes(valid_idx[1])
        assert len(load_idx(ip, lp)) == 3

    @FUZZ
    @given(images=arbitrary(IDX_IMAGES_HEAD), labels=arbitrary(IDX_LABELS_HEAD))
    def test_arbitrary_bytes(self, tmp_path, images, labels):
        ip, lp = tmp_path / "i.idx", tmp_path / "l.idx"
        ip.write_bytes(images)
        lp.write_bytes(labels)
        parses_or_reports_offset(load_idx, ip, lp)

    @FUZZ
    @given(data=st.data(), which=st.sampled_from(["images", "labels", "both"]))
    def test_mutated_valid_pair(self, tmp_path, valid_idx, data, which):
        images, labels = valid_idx
        if which != "labels":
            images = data.draw(mutated(images))
        if which != "images":
            labels = data.draw(mutated(labels))
        ip, lp = tmp_path / "i.idx", tmp_path / "l.idx"
        ip.write_bytes(images)
        lp.write_bytes(labels)
        ds = parses_or_reports_offset(load_idx, ip, lp)
        if ds is not None:
            assert ds.images.shape[0] == len(ds.labels)
