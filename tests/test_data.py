import hashlib
import json

import numpy as np
import pytest

from wsmsnet.data import (GLYPHS, DataFormatError, Dataset, SynthScaleConfig,
                          apply_channel_stats, augment, channel_stats,
                          decode_cifar, encode_cifar, load_cifar,
                          normalize_per_channel, render_glyph, save_synth,
                          synth_scale_dataset)


def random_records(n=12, seed=0, classes=10):
    rng = np.random.default_rng(seed)
    images = rng.integers(0, 256, size=(n, 3, 32, 32), dtype=np.uint8)
    labels = rng.integers(0, classes, size=n).astype(np.int64)
    return images, labels


class TestBinaryCodec:
    def test_decode_inverts_encode(self):
        images, labels = random_records()
        out_images, out_labels = decode_cifar(encode_cifar(images, labels))
        np.testing.assert_array_equal(out_images, images)
        np.testing.assert_array_equal(out_labels, labels)

    def test_encode_inverts_decode(self):
        images, labels = random_records(seed=1)
        buf = encode_cifar(images, labels)
        assert encode_cifar(*decode_cifar(buf)) == buf

    def test_truncated_buffer_rejected(self):
        images, labels = random_records(n=2)
        buf = encode_cifar(images, labels)
        with pytest.raises(DataFormatError, match="3073"):
            decode_cifar(buf[:-10])

    def test_out_of_range_label_rejected(self):
        images, labels = random_records(n=1)
        buf = bytearray(encode_cifar(images, labels))
        buf[0] = 77
        with pytest.raises(DataFormatError, match="label"):
            decode_cifar(bytes(buf))

    def test_wide_label_variant_uses_trailing_byte(self):
        images, labels = random_records(n=4, classes=100)
        out_images, out_labels = decode_cifar(
            encode_cifar(images, labels, "cifar100"), "cifar100")
        np.testing.assert_array_equal(out_labels, labels)
        np.testing.assert_array_equal(out_images, images)

    def test_load_scales_pixels_to_unit_range(self, tmp_path):
        images, labels = random_records(n=3)
        (tmp_path / "batch.bin").write_bytes(encode_cifar(images, labels))
        ds = load_cifar(tmp_path / "batch.bin")
        assert ds.images.dtype == np.float32
        assert ds.images.max() <= 1.0
        np.testing.assert_allclose(ds.images, images.astype(np.float32) / 255.0)
        np.testing.assert_array_equal(ds.ids, np.arange(3))

    def test_load_scales_as_the_float32_copy_did(self, tmp_path):
        """The cast-as-it-divides scaling gives ``astype(float32) / 255``'s
        bits, for every byte value and for a whole record file."""
        every = np.arange(256, dtype=np.uint8)
        assert (np.divide(every, np.float32(255.0), dtype=np.float32).tobytes()
                == (every.astype(np.float32) / 255.0).tobytes())
        images, labels = random_records(n=5, seed=2)
        images.reshape(-1)[:256] = every
        (tmp_path / "batch.bin").write_bytes(encode_cifar(images, labels))
        ds = load_cifar(tmp_path / "batch.bin")
        assert ds.images.tobytes() == (images.astype(np.float32) / 255.0).tobytes()


class TestNormalization:
    def test_train_statistics_become_standard(self):
        rng = np.random.default_rng(4)
        images = (3.0 + rng.standard_normal((40, 3, 8, 8))).astype(np.float32)
        ds = Dataset(images, np.zeros(40, dtype=np.int64),
                     np.arange(40, dtype=np.int64), 2)
        normed, _, mean, std = normalize_per_channel(ds)
        np.testing.assert_allclose(normed.images.mean(axis=(0, 2, 3)), 0.0,
                                   atol=1e-5)
        np.testing.assert_allclose(normed.images.std(axis=(0, 2, 3)), 1.0,
                                   atol=1e-4)

    def test_other_splits_use_train_statistics(self):
        rng = np.random.default_rng(5)
        train = Dataset(rng.standard_normal((10, 3, 4, 4)).astype(np.float32),
                        np.zeros(10, dtype=np.int64), np.arange(10), 2)
        other = Dataset(rng.standard_normal((6, 3, 4, 4)).astype(np.float32),
                        np.zeros(6, dtype=np.int64), np.arange(6), 2)
        _, (other_n,), mean, std = normalize_per_channel(train, other)
        expected = (other.images - mean[None, :, None, None]) / std[None, :, None, None]
        np.testing.assert_allclose(other_n.images, expected, rtol=1e-6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_apply_channel_stats_copies_and_keeps_the_formula(self, dtype):
        rng = np.random.default_rng(6)
        images = rng.standard_normal((5, 3, 4, 4)).astype(dtype)
        before = images.copy()
        mean = np.array([0.1, -0.2, 0.3], dtype=np.float32)
        std = np.array([0.5, 1.5, 2.0], dtype=np.float32)
        ds = Dataset(images, np.zeros(5, dtype=np.int64), np.arange(5), 2)
        out = apply_channel_stats(ds, mean, std)
        expected = ((images - mean[None, :, None, None])
                    / std[None, :, None, None]).astype(np.float32)
        assert out.images.dtype == np.float32
        assert out.images.tobytes() == expected.tobytes()
        assert ds.images is images
        assert images.tobytes() == before.tobytes()

    def test_zero_variance_channel_clamps_and_warns(self, caplog):
        images = np.zeros((4, 3, 2, 2), dtype=np.float32)
        images[:, 0] = 1.0  # channel 0 constant
        with caplog.at_level("WARNING"):
            mean, std = channel_stats(images)
        assert std[0] == 1.0
        assert "zero variance" in caplog.text


class TestAugment:
    def test_outputs_stay_within_pad_crop_flip_family(self):
        rng = np.random.default_rng(6)
        image = rng.standard_normal((3, 8, 8)).astype(np.float32)
        seen = {augment(image, np.random.default_rng(i), pad=2).tobytes()
                for i in range(400)}
        # 5x5 crop grid, each optionally flipped
        assert len(seen) <= 50
        assert image.tobytes() in seen

    def test_same_generator_state_reproduces_output(self):
        image = np.random.default_rng(7).standard_normal((3, 8, 8)).astype(np.float32)
        a = augment(image, np.random.default_rng(42))
        b = augment(image, np.random.default_rng(42))
        assert a.tobytes() == b.tobytes()

    def test_corner_crop_exposes_zero_padding(self):
        image = np.ones((1, 4, 4), dtype=np.float32)

        class Corner:
            def integers(self, lo, hi):
                return 0

            def random(self):
                return 0.9  # no flip

        out = augment(image, Corner(), pad=2)
        assert out[0, 0, 0] == 0.0
        assert out[0, 3, 3] == 1.0

    def test_double_flip_restores_image(self):
        image = np.random.default_rng(8).standard_normal((3, 5, 5))
        np.testing.assert_array_equal(image[:, :, ::-1][:, :, ::-1], image)


class TestGlyphRendering:
    def test_coverage_bounded_by_brightness(self):
        for glyph in GLYPHS:
            plane = render_glyph(glyph, 32, 0.8, 16.0, 16.0, 0.9)
            assert plane.min() >= 0.0
            assert plane.max() <= 0.9 + 1e-6
            assert plane.max() > 0.5  # the glyph is actually visible

    def test_larger_scale_covers_more_area(self):
        small = render_glyph("disc", 32, 0.4, 16.0, 16.0, 1.0).sum()
        large = render_glyph("disc", 32, 0.9, 16.0, 16.0, 1.0).sum()
        assert large > 3.0 * small

    def test_glyphs_are_mutually_distinct(self):
        planes = [render_glyph(g, 32, 0.8, 16.0, 16.0, 1.0) for g in GLYPHS]
        for i in range(len(planes)):
            for j in range(i + 1, len(planes)):
                assert np.abs(planes[i] - planes[j]).max() > 0.5

    def test_sub_resolution_scale_rejected(self):
        with pytest.raises(ValueError, match="2 pixels"):
            render_glyph("disc", 8, 0.05, 4.0, 4.0, 1.0)

    @pytest.mark.parametrize("glyph", GLYPHS)
    def test_array_call_equals_stacked_scalar_calls(self, glyph):
        rng = np.random.default_rng(7)
        scale = rng.uniform(0.3, 1.0, size=(2, 3))
        cx, cy = rng.uniform(12.0, 20.0, size=(2, 2, 3))
        brightness = rng.uniform(0.75, 1.0, size=(2, 3))
        planes = render_glyph(glyph, 32, scale, cx, cy, brightness)
        expected = np.stack([render_glyph(glyph, 32, *args) for args in
                             zip(*(v.ravel() for v in (scale, cx, cy, brightness)))])
        assert planes.shape == (2, 3, 32, 32)
        assert planes.dtype == expected.dtype == np.float32
        assert planes.reshape(6, 32, 32).tobytes() == expected.tobytes()

    def test_array_call_rejects_any_sub_resolution_scale(self):
        scale = np.array([0.9, 0.8, 0.05, 0.7])
        ones = np.full(4, 4.0)
        with pytest.raises(ValueError, match="2 pixels"):
            render_glyph("disc", 8, scale, ones, ones, ones)


# SHA-256 of the synthetic splits' bytes, recorded with numpy 2.4.6 before the
# renderer drew examples in chunks: the images and labels of the three splits
# in order, then their normalize_per_channel images. The small config's
# per-class counts end partway through a render chunk, and noise=0.0 meets
# the -0.0 products of the noise draw.
PINNED_SYNTH = [
    (SynthScaleConfig(seed=0),
     "b1ab4034f32a0ff101252254bf489444e3c62cf4979d1f9e392cba36ba6aebcd",
     "53e8938d516ab5494d266994d9466baf06e544ccfe8fb1f4e24b2bdf28f23e0d"),
    (SynthScaleConfig(image_size=16, class_count=3, train_per_class=37,
                      test_per_class=3, noise=0.0),
     "3f1444cf5efb70121b42209746bd02e0d1a610bde793394a7ea770d05962110a",
     "75112dfbb2c1be0be59aa70b9c2c6acb689af451e9498deaa449671c019271e2"),
]


def sha256_of(arrays):
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(a.tobytes())
    return digest.hexdigest()


class TestSynthBenchmark:
    @pytest.mark.parametrize("cfg,raw,normed", PINNED_SYNTH, ids=["seed0", "small"])
    def test_bytes_match_pinned_digests(self, cfg, raw, normed):
        splits = synth_scale_dataset(cfg)
        train, others, _, _ = normalize_per_channel(*splits)
        assert sha256_of(a for ds in splits for a in (ds.images, ds.labels)) == raw
        assert sha256_of(ds.images for ds in (train, *others)) == normed

    def test_generation_is_deterministic(self):
        cfg = SynthScaleConfig(train_per_class=6, test_per_class=3, seed=11)
        first = synth_scale_dataset(cfg)
        second = synth_scale_dataset(cfg)
        for a, b in zip(first, second):
            assert a.images.tobytes() == b.images.tobytes()
            np.testing.assert_array_equal(a.labels, b.labels)

    def test_split_sizes_and_class_balance(self):
        cfg = SynthScaleConfig(train_per_class=8, test_per_class=4, seed=0)
        train, seen, held = synth_scale_dataset(cfg)
        assert (len(train), len(seen), len(held)) == (40, 20, 20)
        for ds in (train, seen, held):
            counts = np.bincount(ds.labels, minlength=5)
            assert set(counts) == {len(ds) // 5}
            assert ds.class_count == 5

    def test_seed_changes_pixels(self):
        cfg_a = SynthScaleConfig(train_per_class=4, test_per_class=2, seed=0)
        cfg_b = SynthScaleConfig(train_per_class=4, test_per_class=2, seed=1)
        a = synth_scale_dataset(cfg_a)[0]
        b = synth_scale_dataset(cfg_b)[0]
        assert a.images.tobytes() != b.images.tobytes()

    def test_overlapping_scale_ranges_rejected(self):
        with pytest.raises(ValueError, match="disjoint"):
            SynthScaleConfig(train_scales=(0.5, 1.0), test_scales=(0.3, 0.6))

    def test_unresolvable_scale_rejected(self):
        with pytest.raises(ValueError, match="2 pixels"):
            SynthScaleConfig(image_size=8, test_scales=(0.05, 0.1), train_scales=(0.6, 1.0))

    def test_class_count_bounds(self):
        with pytest.raises(ValueError, match="class_count"):
            SynthScaleConfig(class_count=1)
        with pytest.raises(ValueError, match="class_count"):
            SynthScaleConfig(class_count=6)

    def test_save_and_load_round_trip(self, tmp_path):
        cfg = SynthScaleConfig(train_per_class=5, test_per_class=2, seed=3)
        manifest = save_synth(tmp_path, cfg)
        assert set(manifest["splits"]) == {"train", "test_seen", "test_held_out"}
        saved = json.loads((tmp_path / "manifest.json").read_text())
        loaded_cfg = SynthScaleConfig.from_dict(saved["config"])
        assert loaded_cfg == cfg
        assert loaded_cfg.class_count == 5
        fresh = dict(zip(("train", "test_seen", "test_held_out"),
                         synth_scale_dataset(cfg)))
        for split, info in saved["splits"].items():
            ds = load_cifar(tmp_path / info["file"])
            reference = np.clip(np.rint(fresh[split].images * 255.0),
                                0, 255).astype(np.float32) / 255.0
            np.testing.assert_allclose(ds.images, reference, atol=1e-7)
            np.testing.assert_array_equal(ds.labels, fresh[split].labels)

    def test_manifest_digests_match_files(self, tmp_path):
        import hashlib

        cfg = SynthScaleConfig(train_per_class=3, test_per_class=2, seed=4)
        save_synth(tmp_path, cfg)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        for info in manifest["splits"].values():
            digest = hashlib.sha256((tmp_path / info["file"]).read_bytes()).hexdigest()
            assert digest == info["sha256"]
