import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from selfonn_kit import data as d
from selfonn_kit.synth import SynthConfig, synth_generate

u16_images = hnp.arrays(np.uint16, hnp.array_shapes(min_dims=2, max_dims=2,
                                                    min_side=1, max_side=12),
                        elements=st.integers(0, 65535))


def img(arr):
    return d.ThermalImage(np.asarray(arr, dtype=np.uint16))


class TestPgm:
    def test_canonical_bytes(self):
        image = img([[0, 1], [258, 65535]])
        raw = d.pgm16_bytes(image)
        assert raw == b"P5\n2 2\n65535\n" + bytes(
            [0, 0, 0, 1, 1, 2, 255, 255])

    @settings(max_examples=40, deadline=None)
    @given(u16_images)
    def test_roundtrip_byte_exact(self, pixels):
        image = d.ThermalImage(pixels)
        raw = d.pgm16_bytes(image)
        back = d.parse_pgm16(raw)
        assert np.array_equal(back.pixels, pixels)
        assert d.pgm16_bytes(back) == raw

    def test_file_roundtrip(self, tmp_path):
        image = img(np.arange(12).reshape(3, 4) * 999)
        path = tmp_path / "x.pgm"
        d.write_pgm16(image, path)
        assert np.array_equal(d.load_pgm16(path).pixels, image.pixels)

    def test_header_comments_and_whitespace(self):
        raw = b"P5 # binary graymap\n # size next\n 2\t1 \n65535\n" + b"\x00\x01\x00\x02"
        back = d.parse_pgm16(raw)
        assert back.pixels.tolist() == [[1, 2]]

    @pytest.mark.parametrize("raw,message", [
        (b"P5 4 4", "header ends prematurely at byte 6"),
        (b"P5 0 4 65535\n", "image dimensions 0x4 are not positive"),
        (b"P5 4 4 65535", "expected single whitespace after maxval at byte 12"),
    ], ids=["no_maxval", "zero_width", "no_separator"])
    def test_header_rejected(self, raw, message):
        with pytest.raises(d.PgmError, match=message):
            d.parse_pgm16(raw)

    def test_bad_magic_offset(self):
        with pytest.raises(d.PgmError, match="byte 0"):
            d.parse_pgm16(b"P6\n1 1\n65535\n\x00\x00")

    def test_eight_bit_rejected(self):
        with pytest.raises(d.PgmError, match="maxval 255"):
            d.parse_pgm16(b"P5\n1 1\n255\n\x00")

    def test_truncated_payload_reports_counts(self):
        with pytest.raises(d.PgmError, match="need 8 bytes, have 7"):
            d.parse_pgm16(b"P5\n2 2\n65535\n" + b"\x00" * 7)

    def test_trailing_bytes_rejected(self):
        with pytest.raises(d.PgmError, match="trailing"):
            d.parse_pgm16(b"P5\n1 1\n65535\n\x00\x00\x00")

    def test_non_numeric_header(self):
        with pytest.raises(d.PgmError, match="width"):
            d.parse_pgm16(b"P5\nwide 1\n65535\n\x00\x00")

    def test_big_endian_order(self):
        back = d.parse_pgm16(b"P5\n1 1\n65535\n\x01\x00")
        assert back.pixels[0, 0] == 256


class TestResizeHalf:
    def test_checkerboard_averages_to_midpoint(self):
        board = np.zeros((4, 4), dtype=np.uint16)
        board[0::2, 1::2] = 65535
        board[1::2, 0::2] = 65535
        half = d.resize_half(img(board))
        assert np.all(half.pixels == 32768)

    def test_round_half_up(self):
        block = img([[0, 0], [0, 1]])      # mean 0.25 -> 0
        assert d.resize_half(block).pixels[0, 0] == 0
        block = img([[1, 0], [1, 0]])      # mean 0.5 -> 1
        assert d.resize_half(block).pixels[0, 0] == 1
        block = img([[1, 1], [1, 0]])      # mean 0.75 -> 1
        assert d.resize_half(block).pixels[0, 0] == 1

    def test_extremes_preserved(self):
        half = d.resize_half(img(np.full((2, 2), 65535)))
        assert half.pixels[0, 0] == 65535

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2 ** 31 - 1))
    def test_mean_preserved_within_half_level(self, h2, w2, seed):
        r = np.random.default_rng(seed)
        pixels = r.integers(0, 65536, size=(2 * h2, 2 * w2)).astype(np.uint16)
        half = d.resize_half(img(pixels))
        assert abs(float(half.pixels.mean()) - float(pixels.mean())) <= 0.5

    def test_odd_dimensions_rejected(self):
        with pytest.raises(ValueError, match="3x4"):
            d.resize_half(img(np.zeros((3, 4), dtype=np.uint16)))


class TestNormalize:
    @settings(max_examples=40, deadline=None)
    @given(u16_images)
    def test_range_and_min(self, pixels):
        out = d.normalize_minmax(d.ThermalImage(pixels))
        assert out.dtype == np.float64
        assert np.all(out >= 0.0)
        assert np.all(out < 1.0)
        if pixels.max() > pixels.min():
            assert out.min() == 0.0

    def test_constant_image_maps_to_zero(self):
        out = d.normalize_minmax(img(np.full((4, 4), 1234)))
        assert np.all(out == 0.0)

    def test_epsilon_keeps_max_below_one(self):
        out = d.normalize_minmax(img([[0, 65535]]))
        assert out[0, 1] == 65535 / (65535 + 1e-8)


class TestManifest:
    def test_roundtrip(self, tmp_path):
        records = [d.SampleRecord("a/0.pgm", "healthy"),
                   d.SampleRecord("b/1.pgm", "broken_rotor")]
        path = tmp_path / "m.tsv"
        d.write_manifest(records, path)
        assert d.read_manifest(path) == records

    def test_labels_follow_class_order(self):
        assert d.SampleRecord("x", "healthy").label == 0
        assert d.SampleRecord("x", "misalignment").label == 1
        assert d.SampleRecord("x", "broken_rotor").label == 2

    def test_unknown_class_names_line(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("a.pgm\thealthy\nb.pgm\trusty\n")
        with pytest.raises(d.ManifestError, match="line 2"):
            d.read_manifest(path)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("a.pgm healthy\n")
        with pytest.raises(d.ManifestError, match="line 1"):
            d.read_manifest(path)

    def test_blank_lines_skipped_but_empty_rejected(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("\na.pgm\thealthy\n\n")
        assert len(d.read_manifest(path)) == 1
        path.write_text("\n\n")
        with pytest.raises(d.ManifestError, match="no samples"):
            d.read_manifest(path)

    def test_byte_order_mark_skipped(self, tmp_path):
        plain = tmp_path / "m.tsv"
        plain.write_text("a/0.pgm\thealthy\nb/1.pgm\tbroken_rotor\n")
        marked = tmp_path / "marked.tsv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert d.read_manifest(marked) == d.read_manifest(plain)


class TestFolds:
    def test_reference_distribution(self):
        # class totals 2244 / 1799 / 1610 split five ways: the oversized
        # folds rotate by the cumulative offset of earlier classes
        labels = [0] * 2244 + [1] * 1799 + [2] * 1610
        plan = d.stratified_ordered_kfold(labels, 5)
        per_class = [[sum(1 for i in fold if labels[i] == c)
                      for fold in plan.folds] for c in range(3)]
        assert per_class[0] == [449, 449, 449, 449, 448]
        assert per_class[1] == [360, 360, 360, 359, 360]
        assert per_class[2] == [322, 322, 322, 322, 322]

    def test_folds_partition_everything(self):
        labels = [0] * 13 + [1] * 9 + [2] * 11
        plan = d.stratified_ordered_kfold(labels, 4)
        seen = sorted(i for fold in plan.folds for i in fold)
        assert seen == list(range(33))

    def test_per_class_segments_are_contiguous(self):
        labels = [0] * 11 + [1] * 7
        plan = d.stratified_ordered_kfold(labels, 3)
        for fold in plan.folds:
            for c in (0, 1):
                seg = [i for i in fold if labels[i] == c]
                assert seg == list(range(min(seg), max(seg) + 1))

    def test_segments_follow_dataset_order(self):
        labels = [0] * 10
        plan = d.stratified_ordered_kfold(labels, 5)
        assert [list(f) for f in plan.folds] == [[0, 1], [2, 3], [4, 5],
                                                 [6, 7], [8, 9]]

    def test_interleaved_labels_still_stratify(self):
        labels = [0, 1] * 10
        plan = d.stratified_ordered_kfold(labels, 5)
        for fold in plan.folds:
            classes = [labels[i] for i in fold]
            assert classes.count(0) == 2 and classes.count(1) == 2

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            d.stratified_ordered_kfold([0, 1], 3)
        with pytest.raises(ValueError):
            d.stratified_ordered_kfold([0] * 10, 1)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=2, max_size=40),
           st.integers(2, 8))
    def test_no_fold_left_empty(self, labels, k):
        # the leftovers of all classes walk the folds as one staggered run,
        # so any k samples, whatever their classes, reach every fold
        if len(labels) < k:
            return
        plan = d.stratified_ordered_kfold(labels, k)
        assert all(plan.folds)
        assert sorted(i for f in plan.folds for i in f) == list(range(len(labels)))


class TestCvSplits:
    def test_rotation_and_partition(self):
        labels = [0] * 10 + [1] * 10
        plan = d.stratified_ordered_kfold(labels, 5)
        splits = d.make_cv_splits(plan)
        assert len(splits) == 5
        for i, sp in enumerate(splits):
            assert sp.test_fold == i
            assert sp.val_fold == (i + 1) % 5
            assert sp.test_indices == plan.folds[i]
            assert sp.val_indices == plan.folds[(i + 1) % 5]
            combined = sorted(sp.train_indices + sp.val_indices + sp.test_indices)
            assert combined == list(range(20))
            assert set(sp.train_indices).isdisjoint(sp.test_indices)
            assert set(sp.train_indices).isdisjoint(sp.val_indices)


class TestLoadDataset:
    def make_corpus(self, tmp_path, shapes=((4, 4),) * 4):
        records = []
        for i, shape in enumerate(shapes):
            name = f"img{i}.pgm"
            pixels = np.full(shape, 1000 * (i + 1), dtype=np.uint16)
            pixels[0, 0] = 0
            d.write_pgm16(d.ThermalImage(pixels), tmp_path / name)
            records.append(d.SampleRecord(name, d.CLASS_NAMES[i % 3]))
        manifest = tmp_path / "manifest.tsv"
        d.write_manifest(records, manifest)
        return manifest

    def test_basic_load(self, tmp_path):
        manifest = self.make_corpus(tmp_path)
        ds = d.load_dataset(manifest)
        assert len(ds) == 4
        assert ds.images[0].shape == (1, 4, 4)
        assert ds.labels.tolist() == [0, 1, 2, 0]
        for i, image in enumerate(ds.images):
            raw = d.load_pgm16(tmp_path / f"img{i}.pgm")
            assert np.array_equal(image[0], d.normalize_minmax(raw))

    def test_shared_bounds(self, tmp_path):
        manifest = self.make_corpus(tmp_path)
        ds = d.load_dataset(manifest, shared_bounds=True)
        # one scale for the corpus: the images side by side, rescaled as one
        raw = np.hstack([d.load_pgm16(tmp_path / f"img{i}.pgm").pixels
                         for i in range(4)])
        assert np.array_equal(np.hstack([image[0] for image in ds.images]),
                              d.normalize_minmax(d.ThermalImage(raw)))
        # the brightest pixel of the dimmest image is far below 1
        assert ds.images[0].max() < 0.5

    def test_half_resolution(self, tmp_path):
        manifest = self.make_corpus(tmp_path)
        ds = d.load_dataset(manifest, half_resolution=True)
        assert ds.images[0].shape == (1, 2, 2)

    # Pins every float the load path returns for a synthetic corpus.
    @pytest.mark.parametrize("kwargs,digest", [
        (dict(half_resolution=True),
         "105969987c1e85122dd9882a92ba4b64b90b3cd4bd5ddfe07f96e3d73517dfb5"),
        (dict(shared_bounds=True),
         "59a662e3d189b3b17a9323d864f1c405eff30adcc8749b2f71058ab4985d958f"),
    ], ids=["half_resolution", "shared_bounds"])
    def test_golden_digest(self, kwargs, digest, tmp_path):
        manifest = synth_generate(tmp_path, SynthConfig(per_class=3, height=32,
                                                        width=40, seed=7))
        ds = d.load_dataset(manifest, **kwargs)
        h = hashlib.sha256(np.stack(ds.images).tobytes())
        h.update(ds.labels.tobytes())
        assert h.hexdigest() == digest

    def test_shape_mismatch_names_file(self, tmp_path):
        manifest = self.make_corpus(tmp_path,
                                    shapes=((4, 4), (4, 4), (4, 6), (4, 4)))
        with pytest.raises(d.ManifestError, match="img2.pgm"):
            d.load_dataset(manifest)

    def test_odd_size_under_half_names_file(self, tmp_path):
        manifest = self.make_corpus(tmp_path,
                                    shapes=((4, 4), (17, 20), (4, 4), (4, 4)))
        with pytest.raises(d.ManifestError, match="img1.pgm.*17x20"):
            d.load_dataset(manifest, half_resolution=True)

    def test_missing_image_names_file(self, tmp_path):
        manifest = tmp_path / "manifest.tsv"
        d.write_manifest([d.SampleRecord("ghost.pgm", "healthy")], manifest)
        with pytest.raises(d.ManifestError, match="ghost.pgm"):
            d.load_dataset(manifest)

    def test_subset(self, tmp_path):
        manifest = self.make_corpus(tmp_path)
        ds = d.load_dataset(manifest)
        images, labels = ds.subset([2, 0])
        assert labels.tolist() == [2, 0]
        assert np.array_equal(images[1], ds.images[0])

    @pytest.mark.parametrize("shared", [False, True], ids=["image", "dataset"])
    def test_one_buffer_while_loading(self, shared, tmp_path):
        # The corpus is held once, as the normalized floats: the traced
        # peak beyond that buffer stays under four float images.
        manifest = synth_generate(tmp_path, SynthConfig(per_class=14, height=64,
                                                        width=80, seed=3))
        tracemalloc.start()
        try:
            ds = d.load_dataset(manifest, shared_bounds=shared)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert isinstance(ds.images, np.ndarray)
        assert ds.images.shape == (42, 1, 64, 80)
        assert peak - ds.images.nbytes < 4 * 64 * 80 * 8
