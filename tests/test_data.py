import struct

import numpy as np
import pytest

from spikelat.data import (
    CORRUPTIONS,
    MAX_SYNTH_COUNT,
    Dataset,
    batches,
    corrupt,
    load_idx,
    save_idx,
    synth_blobs,
    synth_digits,
)
from spikelat.errors import ContractError, FormatError


def nearest_centroid_accuracy(ds):
    flat = ds.images.reshape(len(ds), -1)
    cents = np.stack([flat[ds.labels == k].mean(axis=0)
                      for k in range(ds.classes)])
    d = ((flat[:, None, :] - cents[None]) ** 2).sum(axis=2)
    return float((d.argmin(axis=1) == ds.labels).mean())


class TestIdxFiles:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(12, 1, 9, 7)).astype(np.float64) / 255.0
        labels = rng.integers(0, 5, size=12)
        ds = Dataset(images, labels, 5)
        ip, lp = tmp_path / "imgs.idx", tmp_path / "lbls.idx"
        save_idx(ds, ip, lp)
        back = load_idx(ip, lp)
        np.testing.assert_allclose(back.images, images, atol=1e-12)
        np.testing.assert_array_equal(back.labels, labels)
        assert back.classes == 5

    def test_header_layout(self, tmp_path):
        ds = Dataset(np.zeros((2, 1, 3, 4)), np.array([0, 1]), 2)
        ip, lp = tmp_path / "i.idx", tmp_path / "l.idx"
        save_idx(ds, ip, lp)
        raw = ip.read_bytes()
        assert struct.unpack(">IIII", raw[:16]) == (0x803, 2, 3, 4)
        assert len(raw) == 16 + 2 * 3 * 4
        lraw = lp.read_bytes()
        assert struct.unpack(">II", lraw[:8]) == (0x801, 2)

    def test_bad_magic_reports_offset_zero(self, tmp_path):
        ip = tmp_path / "i.idx"
        ip.write_bytes(struct.pack(">IIII", 0x123, 1, 2, 2) + b"\x00" * 4)
        lp = tmp_path / "l.idx"
        lp.write_bytes(struct.pack(">II", 0x801, 1) + b"\x00")
        with pytest.raises(FormatError) as e:
            load_idx(ip, lp)
        assert e.value.offset == 0
        assert "magic" in str(e.value)

    def test_truncated_pixels_reports_offset(self, tmp_path):
        ip = tmp_path / "i.idx"
        ip.write_bytes(struct.pack(">IIII", 0x803, 2, 2, 2) + b"\x00" * 5)
        lp = tmp_path / "l.idx"
        lp.write_bytes(struct.pack(">II", 0x801, 2) + b"\x00\x01")
        with pytest.raises(FormatError) as e:
            load_idx(ip, lp)
        assert e.value.offset == 16 + 5
        assert "byte offset" in str(e.value)

    def test_label_count_mismatch(self, tmp_path):
        ip = tmp_path / "i.idx"
        ip.write_bytes(struct.pack(">IIII", 0x803, 2, 2, 2) + b"\x00" * 8)
        lp = tmp_path / "l.idx"
        lp.write_bytes(struct.pack(">II", 0x801, 3) + b"\x00\x01\x00")
        with pytest.raises(FormatError, match="3 labels for 2 images"):
            load_idx(ip, lp)

    def test_empty_stack_of_impossible_images_rejected(self, tmp_path):
        # zero images of 2**31 x 2**31 pixels: no data, but no such array
        ip = tmp_path / "i.idx"
        ip.write_bytes(struct.pack(">IIII", 0x803, 0, 2**31, 2**31))
        lp = tmp_path / "l.idx"
        lp.write_bytes(struct.pack(">II", 0x801, 0))
        with pytest.raises(FormatError, match="implausible image size") as e:
            load_idx(ip, lp)
        assert e.value.offset == 8

    def test_truncated_header(self, tmp_path):
        ip = tmp_path / "i.idx"
        ip.write_bytes(struct.pack(">I", 0x803) + b"\x00\x00")
        with pytest.raises(FormatError):
            load_idx(ip, tmp_path / "missing.idx")

    def test_multichannel_refused(self, tmp_path):
        ds = Dataset(np.zeros((1, 3, 4, 4)), np.array([0]), 1)
        with pytest.raises(ContractError):
            save_idx(ds, tmp_path / "i.idx", tmp_path / "l.idx")


class TestSynthBlobs:
    def test_shapes_range_and_determinism(self):
        a = synth_blobs(40, classes=4, seed=3)
        b = synth_blobs(40, classes=4, seed=3)
        assert a.images.shape == (40, 1, 8, 8)
        assert a.images.min() >= 0.0 and a.images.max() <= 1.0
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)
        c = synth_blobs(40, classes=4, seed=4)
        assert not np.array_equal(a.images, c.images)

    def test_classes_are_separable(self):
        ds = synth_blobs(300, classes=4, seed=0)
        assert nearest_centroid_accuracy(ds) > 0.95

    def test_layout_shared_across_sample_seeds(self):
        # Two draws with different seeds describe the same task: centroids
        # fit on one split must classify the other.
        fit = synth_blobs(300, classes=4, seed=3)
        other = synth_blobs(300, classes=4, seed=1003)
        cents = np.stack([fit.images[fit.labels == k].mean(axis=0)
                          for k in range(4)])
        flat = other.images.reshape(300, -1)
        d = ((flat[:, None, :] - cents.reshape(4, -1)[None]) ** 2).sum(axis=2)
        assert (d.argmin(axis=1) == other.labels).mean() > 0.9

    def test_label_noise_flips_labels(self):
        clean = synth_blobs(400, classes=4, seed=1, label_noise=0.0)
        noisy = synth_blobs(400, classes=4, seed=1, label_noise=0.3)
        frac = (clean.labels != noisy.labels).mean()
        assert 0.1 < frac < 0.4

    @pytest.mark.parametrize("label_noise", [-0.5, 1.5, float("nan")])
    def test_label_noise_outside_unit_interval_rejected(self, label_noise):
        with pytest.raises(ContractError, match=r"label_noise must be in \[0, 1\]"):
            synth_blobs(10, classes=3, label_noise=label_noise)

    def test_class_count_bounds(self):
        with pytest.raises(ContractError):
            synth_blobs(10, classes=1)
        with pytest.raises(ContractError):
            synth_blobs(10, classes=20)


class TestSynthDigits:
    def test_shapes_and_determinism(self):
        a = synth_digits(30, seed=7)
        b = synth_digits(30, seed=7)
        assert a.images.shape == (30, 1, 16, 16)
        assert a.classes == 10
        np.testing.assert_array_equal(a.images, b.images)

    def test_glyphs_are_recognizable(self):
        ds = synth_digits(500, seed=0)
        assert nearest_centroid_accuracy(ds) > 0.9

    def test_all_ten_digits_appear(self):
        ds = synth_digits(300, seed=1)
        assert set(np.unique(ds.labels)) == set(range(10))


@pytest.mark.parametrize("make", [lambda n: synth_blobs(n, classes=3), synth_digits])
def test_a_count_above_the_bound_is_refused_before_anything_is_allocated(make):
    with pytest.raises(ContractError,
                       match=f"count must be <= {MAX_SYNTH_COUNT}, got 100000000000"):
        make(10**11)


class TestCorruptions:
    def setup_method(self):
        self.x = synth_digits(6, seed=2).images

    def test_severity_zero_is_identity_copy(self):
        for kind in CORRUPTIONS:
            out = corrupt(self.x, kind, 0)
            np.testing.assert_array_equal(out, self.x)
            assert out is not self.x

    def test_output_stays_in_unit_range(self):
        for kind in CORRUPTIONS:
            for s in range(1, 6):
                out = corrupt(self.x, kind, s, seed=1)
                assert out.min() >= 0.0 and out.max() <= 1.0

    def test_every_kind_changes_the_image(self):
        for kind in CORRUPTIONS:
            out = corrupt(self.x, kind, 3, seed=1)
            assert not np.array_equal(out, self.x), kind

    def test_gaussian_severity_monotone(self):
        dists = [np.linalg.norm(corrupt(self.x, "gaussian", s, seed=5) - self.x)
                 for s in range(1, 6)]
        assert all(a < b for a, b in zip(dists, dists[1:]))

    def test_shot_noise_is_seeded(self):
        a = corrupt(self.x, "shot", 3, seed=9)
        b = corrupt(self.x, "shot", 3, seed=9)
        c = corrupt(self.x, "shot", 3, seed=10)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_pixelate_produces_constant_blocks(self):
        out = corrupt(self.x, "pixelate", 5)
        block = out[0, 0, :8, :8]
        assert np.allclose(block, block[0, 0])

    # Worked values: each restates its kind's formula with the literal
    # constants, so a mistyped constant in corrupt fails exactly here.

    def test_gaussian_scale_is_0_05_per_severity(self):
        for s in range(1, 6):
            noise = np.random.default_rng(4).normal(scale=0.05 * s,
                                                    size=self.x.shape)
            np.testing.assert_array_equal(corrupt(self.x, "gaussian", s, seed=4),
                                          np.clip(self.x + noise, 0.0, 1.0))

    def test_shot_draws_60_over_severity_photons(self):
        for s in range(1, 6):
            lam = 60.0 / s
            counts = np.random.default_rng(4).poisson(self.x * lam)
            np.testing.assert_array_equal(corrupt(self.x, "shot", s, seed=4),
                                          np.clip(counts / lam, 0.0, 1.0))

    def test_brightness_adds_0_09_per_severity(self):
        for s in range(1, 6):
            np.testing.assert_array_equal(corrupt(self.x, "brightness", s),
                                          np.clip(self.x + 0.09 * s, 0.0, 1.0))

    def test_contrast_scales_by_1_minus_0_15_per_severity(self):
        for s in range(1, 6):
            want = 0.5 + (self.x - 0.5) * (1.0 - 0.15 * s)
            np.testing.assert_array_equal(corrupt(self.x, "contrast", s),
                                          np.clip(want, 0.0, 1.0))

    def test_pixelate_blocks_are_2_2_4_4_8(self):
        n, c, h, w = self.x.shape
        for s, b in zip(range(1, 6), (2, 2, 4, 4, 8)):
            means = self.x.reshape(n, c, h // b, b, w // b, b).mean(axis=(3, 5))
            want = np.repeat(np.repeat(means, b, axis=2), b, axis=3)
            np.testing.assert_array_equal(corrupt(self.x, "pixelate", s), want)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ContractError):
            corrupt(self.x, "rain", 1)
        with pytest.raises(ContractError):
            corrupt(self.x, "gaussian", 6)


class TestBatches:
    def test_covers_every_sample_once(self):
        n = 23
        images = (np.arange(n) / n).reshape(n, 1, 1, 1) * np.ones((n, 1, 2, 2))
        ds = Dataset(images, np.zeros(n, dtype=np.int64), 1)
        seen = []
        for imgs, lbls in batches(ds, 5, seed=1):
            assert imgs.shape[0] == lbls.shape[0]
            seen.extend(imgs[:, 0, 0, 0].tolist())
        assert sorted(seen) == sorted((np.arange(n) / n).tolist())

    def test_shuffle_is_seeded(self):
        ds = synth_blobs(16, classes=2, seed=0)
        a = [l.tolist() for _, l in batches(ds, 4, seed=3)]
        b = [l.tolist() for _, l in batches(ds, 4, seed=3)]
        c = [l.tolist() for _, l in batches(ds, 4, seed=4)]
        assert a == b
        assert a != c

    def test_last_batch_keeps_remainder(self):
        ds = synth_blobs(10, classes=2, seed=0)
        sizes = [len(l) for _, l in batches(ds, 4)]
        assert sizes == [4, 4, 2]

    def test_unshuffled_order(self):
        ds = synth_blobs(6, classes=2, seed=0)
        got = np.concatenate([l for _, l in batches(ds, 2, shuffle=False)])
        np.testing.assert_array_equal(got, ds.labels)
