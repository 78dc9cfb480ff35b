import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from selfonn_kit import data as d
from selfonn_kit import synth as s


def small_config(**overrides):
    defaults = dict(per_class=4, height=32, width=40, seed=7)
    defaults.update(overrides)
    return s.SynthConfig(**defaults)


class TestTemperatureScale:
    def test_range_endpoints(self):
        lo, hi = s.CAMERA_RANGE_C
        assert s.temperature_to_pixel(np.array([lo]))[0] == 0
        assert s.temperature_to_pixel(np.array([hi]))[0] == 65535

    def test_rounding_to_nearest_level(self):
        lo, hi = s.CAMERA_RANGE_C
        step = (hi - lo) / 65535.0
        temps = np.array([lo + 10.4 * step, lo + 10.6 * step])
        assert s.temperature_to_pixel(temps).tolist() == [10, 11]

    def test_out_of_range_clamped(self):
        pixels = s.temperature_to_pixel(np.array([-500.0, 1000.0]))
        assert pixels.tolist() == [0, 65535]

    def test_inverse_within_quantization(self):
        r = np.random.default_rng(0)
        temps = r.uniform(-40.0, 550.0, size=1000)
        back = s.pixel_to_temperature(s.temperature_to_pixel(temps))
        step = (550.0 - (-40.0)) / 65535.0
        assert np.max(np.abs(back - temps)) <= step / 2 + 1e-9


class TestClassStats:
    def test_all_classes_present(self):
        assert set(s.DEFAULT_CLASS_STATS) == set(d.CLASS_NAMES)
        for stats in s.DEFAULT_CLASS_STATS.values():
            assert stats.t_min < stats.mean < stats.t_max and stats.std > 0


class TestRenderPattern:
    # _to_temperatures divides by the pattern's std, by its mean and by one
    # minus its mean; this is what keeps all three away from zero.
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(d.CLASS_NAMES), st.integers(8, 40),
           st.integers(8, 40), st.integers(0, 2 ** 63 - 1))
    def test_spans_exactly_unit_interval(self, class_name, height, width, seed):
        pattern = s._render_pattern(class_name, height, width,
                                    np.random.default_rng(seed))
        assert pattern.min() == 0.0 and pattern.max() == 1.0
        assert 0.0 < pattern.mean() < 1.0


class TestRenderImage:
    def test_deterministic_per_index(self):
        cfg = small_config()
        a = s.render_image("healthy", cfg, 2)
        b = s.render_image("healthy", cfg, 2)
        assert np.array_equal(a.pixels, b.pixels)

    def test_index_and_seed_change_pixels(self):
        cfg = small_config()
        base = s.render_image("healthy", cfg, 0)
        other_index = s.render_image("healthy", cfg, 1)
        other_seed = s.render_image("healthy", small_config(seed=8), 0)
        assert not np.array_equal(base.pixels, other_index.pixels)
        assert not np.array_equal(base.pixels, other_seed.pixels)

    def test_golden_digest(self):
        # pins every RNG draw and the hotspot geometry of all three classes
        cfg = small_config(seed=5)
        digest = hashlib.sha256()
        for name in d.CLASS_NAMES:
            for i in range(cfg.per_class):
                digest.update(d.pgm16_bytes(s.render_image(name, cfg, i)))
        assert digest.hexdigest() == (
            "07a4e8ee041fd75c9b10f28f9566573976ad3e90e66aaa8bcb37683bc559bf8c")

    def test_unknown_class(self):
        with pytest.raises(ValueError, match="unknown class"):
            s.render_image("rusty", small_config(), 0)

    def test_shape_follows_config(self):
        image = s.render_image("broken_rotor", small_config(height=16,
                                                            width=24), 0)
        assert image.pixels.shape == (16, 24)

    @pytest.mark.parametrize("class_name", d.CLASS_NAMES)
    def test_temperatures_respect_class_envelope(self, class_name):
        cfg = small_config(per_class=8, height=64, width=80)
        stats = s.DEFAULT_CLASS_STATS[class_name]
        step = (s.CAMERA_RANGE_C[1] - s.CAMERA_RANGE_C[0]) / 65535.0
        for index in range(cfg.per_class):
            image = s.render_image(class_name, cfg, index)
            temps = s.pixel_to_temperature(image.pixels)
            # quantization may push a boundary pixel by half a level
            assert temps.min() >= stats.t_min - step / 2 - 1e-9
            assert temps.max() <= stats.t_max + step / 2 + 1e-9

    @pytest.mark.parametrize("class_name", d.CLASS_NAMES)
    def test_mean_matches_target_to_quantization(self, class_name):
        cfg = small_config(per_class=6, height=64, width=80)
        stats = s.DEFAULT_CLASS_STATS[class_name]
        step = (s.CAMERA_RANGE_C[1] - s.CAMERA_RANGE_C[0]) / 65535.0
        for index in range(cfg.per_class):
            temps = s.pixel_to_temperature(
                s.render_image(class_name, cfg, index).pixels)
            assert abs(float(temps.mean()) - stats.mean) <= step

    @pytest.mark.parametrize("class_name", d.CLASS_NAMES)
    def test_spread_never_exceeds_target(self, class_name):
        cfg = small_config(per_class=6, height=64, width=80)
        stats = s.DEFAULT_CLASS_STATS[class_name]
        for index in range(cfg.per_class):
            temps = s.pixel_to_temperature(
                s.render_image(class_name, cfg, index).pixels)
            assert float(temps.std()) <= stats.std * 1.05

    def test_classes_are_visually_distinct(self):
        cfg = small_config(per_class=5, height=64, width=80)
        means = {}
        for name in d.CLASS_NAMES:
            stack = np.stack([
                d.normalize_minmax(s.render_image(name, cfg, i))
                for i in range(cfg.per_class)])
            means[name] = stack.mean(axis=0)
        names = list(d.CLASS_NAMES)
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                gap = float(np.abs(means[names[i]] - means[names[j]]).mean())
                assert gap > 0.01, (names[i], names[j], gap)


class TestConfigValidation:
    @pytest.mark.parametrize("field,value", [
        ("per_class", 0), ("height", 0), ("width", -2),
        ("height", 7), ("width", 4),
    ])
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError):
            small_config(**{field: value})


class TestGenerateCorpus:
    def test_layout_and_manifest(self, tmp_path):
        cfg = small_config(per_class=3)
        manifest = s.synth_generate(tmp_path / "corpus", cfg)
        records = d.read_manifest(manifest)
        assert len(records) == 9
        per_class = {name: [r for r in records if r.class_name == name]
                     for name in d.CLASS_NAMES}
        for name in d.CLASS_NAMES:
            assert len(per_class[name]) == 3
            assert per_class[name][0].path == f"{name}/00000.pgm"
        for record in records:
            image = d.load_pgm16(manifest.parent / record.path)
            assert image.pixels.shape == (cfg.height, cfg.width)

    def test_byte_determinism(self, tmp_path):
        cfg = small_config(per_class=2)
        m1 = s.synth_generate(tmp_path / "a", cfg)
        m2 = s.synth_generate(tmp_path / "b", cfg)
        assert m1.read_bytes() == m2.read_bytes()
        for record in d.read_manifest(m1):
            raw1 = (m1.parent / record.path).read_bytes()
            raw2 = (m2.parent / record.path).read_bytes()
            assert raw1 == raw2, record.path

    def test_seed_changes_corpus(self, tmp_path):
        m1 = s.synth_generate(tmp_path / "a", small_config(per_class=1))
        m2 = s.synth_generate(tmp_path / "b",
                              small_config(per_class=1, seed=8))
        record = d.read_manifest(m1)[0]
        assert ((m1.parent / record.path).read_bytes()
                != (m2.parent / record.path).read_bytes())

    def test_generated_corpus_feeds_loader(self, tmp_path):
        manifest = s.synth_generate(tmp_path / "corpus",
                                    small_config(per_class=2))
        ds = d.load_dataset(manifest, half_resolution=True)
        assert len(ds) == 6
        assert ds.images[0].shape == (1, 16, 20)
        assert sorted(ds.labels.tolist()) == [0, 0, 1, 1, 2, 2]
