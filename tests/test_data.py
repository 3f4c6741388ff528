import numpy as np
import pytest

from fmbff import data
from fmbff.errors import ConfigurationError, ParseError, ValidationError


class TestGenerateSynthetic:
    def test_deterministic(self):
        a = data.generate_synthetic(6, size=(32, 32), seed=5)
        b = data.generate_synthetic(6, size=(32, 32), seed=5)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.image, sb.image)
            np.testing.assert_array_equal(sa.mask, sb.mask)
            assert sa.id == sb.id

    def test_masks_binary_nonempty(self):
        for s in data.generate_synthetic(10, size=(32, 32), seed=1):
            assert set(np.unique(s.mask)) <= {0.0, 1.0}
            assert s.mask.sum() > 0

    def test_foreground_fraction_bounds(self):
        samples = data.generate_synthetic(200, size=(32, 32), seed=7)
        for s in samples:
            frac = s.mask.mean()
            assert 0.02 <= frac <= 0.6, f"{s.id}: fraction {frac}"

    def test_image_range(self):
        for s in data.generate_synthetic(5, size=(16, 16), seed=2):
            assert s.image.min() >= 0 and s.image.max() <= 1
            assert s.image.shape == (3, 16, 16)


class TestAugment:
    def test_identity(self):
        s = data.generate_synthetic(1, size=(32, 32), seed=3)[0]
        out = data.augment(s, 0, 1.0)
        np.testing.assert_array_equal(out.image, s.image)
        np.testing.assert_array_equal(out.mask, s.mask)
        assert out.id == s.id

    def test_four_quarter_turns(self):
        s = data.generate_synthetic(1, size=(32, 32), seed=4)[0]
        out = s
        for _ in range(4):
            out = data.augment(out, 90, 1.0)
        np.testing.assert_array_equal(out.image, s.image)
        np.testing.assert_array_equal(out.mask, s.mask)

    def test_quarter_turn_preserves_mask_count(self):
        s = data.generate_synthetic(1, size=(32, 32), seed=5)[0]
        for deg in (90, 180, 270):
            out = data.augment(s, deg, 1.0)
            assert out.mask.sum() == s.mask.sum()

    def test_brightness(self):
        s = data.generate_synthetic(1, size=(16, 16), seed=6)[0]
        s.image[:] = 0.5
        out = data.augment(s, 0, 0.8)
        np.testing.assert_allclose(out.image, 0.4, atol=1e-6)

    def test_brightness_clamps(self):
        s = data.generate_synthetic(1, size=(16, 16), seed=6)[0]
        s.image[:] = 0.9
        out = data.augment(s, 0, 1.2)
        assert out.image.max() <= 1.0

    def test_masks_stay_binary(self):
        s = data.generate_synthetic(1, size=(32, 32), seed=8)[0]
        for deg in range(0, 360, 30):
            out = data.augment(s, deg, 1.0)
            assert set(np.unique(out.mask)) <= {0.0, 1.0}

    def test_invalid_args(self):
        s = data.generate_synthetic(1, size=(16, 16), seed=9)[0]
        with pytest.raises(ConfigurationError):
            data.augment(s, 45, 1.0)
        with pytest.raises(ConfigurationError):
            data.augment(s, 0, 0.5)

    def test_expansion_count(self):
        s = data.generate_synthetic(1, size=(16, 16), seed=10)[0]
        expanded = data.expand_augmentations(s)
        assert len(expanded) == 36
        assert len({e.id for e in expanded}) == 36


class TestSplits:
    def test_80_20(self):
        ids = [f"s{i}" for i in range(100)]
        train_ids, val_ids = data.split(ids, seed=0)
        assert len(train_ids) == 80 and len(val_ids) == 20
        assert set(train_ids) | set(val_ids) == set(ids)
        assert not set(train_ids) & set(val_ids)

    def test_kfold_103(self):
        ids = [f"s{i}" for i in range(103)]
        folds = data.kfold(ids, k=5)
        sizes = sorted(len(f) for f in folds)
        assert sizes == [20, 20, 21, 21, 21]
        combined = [i for f in folds for i in f]
        assert sorted(combined) == sorted(ids)

    def test_kfold_contents_and_order(self):
        # the first n mod k folds take one id more; ids keep the shuffle's order
        folds = data.kfold([f"s{i}" for i in range(7)], k=3)
        assert folds == [["s2", "s4", "s3"], ["s6", "s5"], ["s0", "s1"]]

    def test_same_seed_same_plan(self):
        ids = [f"s{i}" for i in range(37)]
        assert data.split(ids, seed=3) == data.split(ids, seed=3)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one(self, k):
        with pytest.raises(ConfigurationError, match="k must be >= 1"):
            data.kfold(["a", "b"], k=k)

    def test_k_too_large(self):
        with pytest.raises(ConfigurationError):
            data.kfold(["a", "b"], k=5)


class TestNetpbmIO:
    def test_image_roundtrip_quantization(self, tmp_path):
        rng = np.random.default_rng(11)
        image = rng.random((3, 7, 9)).astype(np.float32)
        path = tmp_path / "img.ppm"
        data.write_image(path, image)
        back = data.read_image(path)
        assert np.abs(back - image).max() <= 1 / 255 + 1e-6

    def test_roundtrip_idempotent(self, tmp_path):
        rng = np.random.default_rng(12)
        image = rng.random((3, 5, 5)).astype(np.float32)
        p1, p2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
        data.write_image(p1, image)
        data.write_image(p2, data.read_image(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_zero_mask_roundtrip(self, tmp_path):
        mask = np.zeros((1, 4, 4), dtype=np.float32)
        path = tmp_path / "m.pgm"
        data.write_mask(path, mask)
        np.testing.assert_array_equal(data.read_mask(path), mask)

    def test_threshold_rule(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 255, 0]))
        np.testing.assert_array_equal(data.read_mask(path)[0], [[0, 1], [1, 0]])

    def test_threshold_at_127(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n2 1\n255\n" + bytes([127, 128]))
        np.testing.assert_array_equal(data.read_mask(path)[0], [[0, 1]])

    def test_malformed_header_offset(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n2 x\n255\n\x00\x00")
        with pytest.raises(ParseError, match="byte offset"):
            data.read_mask(path)

    @pytest.mark.parametrize("header,offset", [(b"P6", 2), (b"P6 4", 4), (b"P6 4 4", 6)])
    def test_truncated_header_offset(self, tmp_path, header, offset):
        path = tmp_path / "short.ppm"
        path.write_bytes(header)
        with pytest.raises(ParseError, match="truncated header") as exc:
            data.read_image(path)
        assert exc.value.offset == offset

    @pytest.mark.parametrize("header,field,offset", [
        (b"P6 0 0 255 ", "width 0", 3),
        (b"P6 4 0 255 ", "height 0", 5),
        (b"P6 -2 -2 255 ", "width -2", 3),
        (b"P6\n# c\n4\n-1\n255\n", "height -1", 9),
    ])
    def test_nonpositive_extent_rejected(self, tmp_path, header, field, offset):
        path = tmp_path / "empty.ppm"
        path.write_bytes(header + bytes(12))
        with pytest.raises(ParseError, match=field) as exc:
            data.read_image(path)
        assert exc.value.offset == offset

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(ParseError):
            data.read_image(path)

    @pytest.mark.parametrize("blob, offset", [
        (b"P6\n2 1\n255", 10),  # no byte after maxval: the offset is the file's end
        (b"P5\n2 1\n255\n\x01\x02\x03", 13),
        (b"P5\n2 1\n255\n\x01\x02\n", 13),
        (b"P6\r\n1 1\r\n255\r\n\x01\x02\x03", 16),  # CRLF: '\n' would be the first sample
    ], ids=["ends-at-maxval", "extra-byte", "extra-newline", "crlf-header"])
    def test_payload_size_mismatch_offset(self, tmp_path, blob, offset):
        """A short payload is reported at the file's end, a long one at its
        first stray byte; neither offset lies past the end of the file."""
        path = tmp_path / "bad.pnm"
        path.write_bytes(blob)
        read = data.read_mask if blob.startswith(b"P5") else data.read_image
        with pytest.raises(ParseError, match="payload has") as exc:
            read(path)
        assert exc.value.offset == offset <= len(blob)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n4 4\n255\n\x00\x00")
        with pytest.raises(ParseError):
            data.read_mask(path)


class TestDatasetDir:
    def test_write_load_roundtrip(self, tmp_path):
        samples = data.generate_synthetic(4, size=(16, 16), seed=13)
        data.write_dataset(tmp_path, samples)
        loaded = data.load_dataset(tmp_path)
        assert [s.id for s in loaded] == [s.id for s in samples]
        for a, b in zip(loaded, samples):
            np.testing.assert_array_equal(a.mask, b.mask)
            assert np.abs(a.image - b.image).max() <= 1 / 255 + 1e-6

    def test_load_without_manifest_sorts_image_ids(self, tmp_path):
        samples = data.generate_synthetic(3, size=(16, 16), seed=13)
        data.write_dataset(tmp_path, samples[::-1])
        (tmp_path / "manifest.txt").unlink()
        (tmp_path / "images" / "notes.txt").write_text("not an image\n")
        loaded = data.load_dataset(tmp_path)
        assert [s.id for s in loaded] == ["synth0000", "synth0001", "synth0002"]

    def test_repeated_manifest_id_rejected(self, tmp_path):
        data.write_dataset(tmp_path, data.generate_synthetic(4, size=(16, 16), seed=13))
        with open(tmp_path / "manifest.txt", "a") as fh:
            fh.write("\nsynth0000\n")
        with pytest.raises(ParseError, match="id 'synth0000' on line 6 repeats line 1"):
            data.load_dataset(tmp_path)

    def test_manifest_not_utf8_rejected(self, tmp_path):
        data.write_dataset(tmp_path, data.generate_synthetic(2, size=(16, 16), seed=13))
        (tmp_path / "manifest.txt").write_bytes(b"synth0000\nsynth\xff0001\n")
        with pytest.raises(ParseError, match="not UTF-8") as exc:
            data.load_dataset(tmp_path)
        assert exc.value.offset == 15
        assert str(tmp_path / "manifest.txt") in str(exc.value)

    @pytest.mark.parametrize("emptied", ["manifest", "images"])
    def test_empty_dataset_rejected(self, tmp_path, emptied):
        data.write_dataset(tmp_path, data.generate_synthetic(2, size=(16, 16), seed=13))
        if emptied == "manifest":
            (tmp_path / "manifest.txt").write_text("")
        else:
            (tmp_path / "manifest.txt").unlink()
            for path in (tmp_path / "images").iterdir():
                path.unlink()
        with pytest.raises(ParseError, match="no sample ids") as exc:
            data.load_dataset(tmp_path)
        assert str(tmp_path) in str(exc.value)

    def test_sample_validation(self):
        s = data.Sample(
            image=np.zeros((3, 4, 4), dtype=np.float32),
            mask=np.zeros((1, 5, 4), dtype=np.float32),
            id="bad",
        )
        with pytest.raises(ValidationError):
            s.validate()
