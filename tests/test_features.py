import struct

import numpy as np
import pytest

from crossemo import features
from crossemo.audio import AudioBuffer, apply_volume, write_wav
from crossemo.errors import ValidationFailure
from crossemo.features import (
    FbankConfig,
    FeatureCache,
    FeatureStore,
    compute_features,
    extract_fbank,
    fix_length,
    frame_count,
    mel_filterbank,
    znorm_per_file,
)
from conftest import make_manifest, tone

DEFAULT = FbankConfig()


def loop_frame_count(n_samples, window, shift):
    count = 0
    start = 0
    while start + window <= n_samples:
        count += 1
        start += shift
    return count


class TestFixLength:
    def test_truncates_long_input(self):
        buf = AudioBuffer(np.arange(8 * 16000, dtype=float) / (8 * 16000), 16000)
        out = fix_length(buf, DEFAULT)
        assert out.n_samples == 112000
        assert np.array_equal(out.samples, buf.samples[:112000])

    def test_pads_short_input(self):
        buf = tone(440, 1.0)
        out = fix_length(buf, DEFAULT)
        assert out.n_samples == 112000
        assert np.array_equal(out.samples[:16000], buf.samples)
        assert np.all(out.samples[16000:] == 0.0)

    def test_exact_length_unchanged(self):
        buf = tone(440, 7.0)
        out = fix_length(buf, DEFAULT)
        assert np.array_equal(out.samples, buf.samples)

    def test_empty_rejected(self):
        with pytest.raises(ValidationFailure, match="cannot fix the length of an empty buffer"):
            fix_length(AudioBuffer(np.array([]), 16000), DEFAULT)


class TestFrameCount:
    def test_default_frame_count_775(self):
        assert frame_count(112000, 416, 144) == 775
        assert DEFAULT.n_frames == 775

    def test_formula_matches_loop_oracle(self):
        # duration sweep 0.03 s .. 10 s
        for n in [480, 500, 416, 417, 1000, 7777, 16000, 112000, 160000]:
            assert frame_count(n, 416, 144) == loop_frame_count(n, 416, 144)

    def test_window_and_shift_samples(self):
        assert DEFAULT.window_samples == 416
        assert DEFAULT.shift_samples == 144

    def test_invalid_config(self):
        # at 48 kHz the 26-ms window is 1,248 samples, more than the 512-point
        # FFT; at 50 Hz the 9-ms shift rounds to 0 samples
        for rate in (48000, 50):
            with pytest.raises(ValidationFailure, match=f"at {rate} Hz"):
                FbankConfig(sample_rate=rate)


class TestMelFilterbank:
    def test_rows_sum_positive(self):
        bank = mel_filterbank(DEFAULT)
        assert bank.shape == (23, 257)
        assert np.all(bank.sum(axis=1) > 0)

    def test_adjacent_filters_overlap(self):
        bank = mel_filterbank(DEFAULT)
        for m in range(22):
            both = (bank[m] > 0) & (bank[m + 1] > 0)
            assert both.any()

    def test_built_once_per_config_and_read_only(self, monkeypatch):
        bank = mel_filterbank(DEFAULT)
        assert mel_filterbank(FbankConfig()) is bank
        with pytest.raises(ValueError):
            bank[0, 0] = 1.0
        buf = tone(523, 1.3, amp=0.2)
        cached = compute_features(buf, DEFAULT)
        monkeypatch.setattr(features, "mel_filterbank", mel_filterbank.__wrapped__)
        assert np.array_equal(cached, compute_features(buf, DEFAULT))


class TestExtractFbank:
    def test_shape_and_silence_floor(self):
        buf = AudioBuffer(np.zeros(112000), 16000)
        feats = extract_fbank(buf, DEFAULT)
        assert feats.shape == (775, 23)
        assert np.allclose(feats, np.log(1e-10))

    def test_gain_adds_constant_log_shift(self):
        buf = tone(523, 7.0, amp=0.2)
        base = extract_fbank(buf, DEFAULT)
        scaled = extract_fbank(apply_volume(buf, 3.0), DEFAULT)
        floored = base <= np.log(1e-10) + 1e-9
        shift = scaled[~floored] - base[~floored]
        assert np.allclose(shift, 2.0 * np.log(3.0), atol=1e-6)

    def test_sample_rate_mismatch(self):
        with pytest.raises(ValidationFailure, match="buffer at 8000 Hz, config expects 16000 Hz"):
            extract_fbank(AudioBuffer(np.zeros(8000), 8000), DEFAULT)


class TestZnorm:
    def test_direct_arithmetic(self):
        feats = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = znorm_per_file(feats)
        expected = np.array([[-1.342, -0.447], [0.447, 1.342]])
        assert np.allclose(out, expected, atol=1e-3)

    def test_constant_matrix_maps_to_zero(self):
        out = znorm_per_file(np.full((5, 3), 7.0))
        assert np.all(out == 0.0)

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        feats = rng.normal(2.0, 3.0, size=(50, 23))
        once = znorm_per_file(feats)
        twice = znorm_per_file(once)
        assert np.max(np.abs(twice - once)) < 1e-9

    def test_moments(self):
        rng = np.random.default_rng(6)
        out = znorm_per_file(rng.normal(size=(100, 23)))
        assert abs(out.mean()) < 1e-6
        assert abs(out.std() - 1.0) < 1e-6


class TestPipeline:
    @pytest.mark.parametrize("seconds", [0.05, 0.5, 3.3, 7.0, 9.5])
    def test_fixed_shape_for_any_duration(self, seconds):
        buf = tone(300, seconds)
        feats = compute_features(buf, DEFAULT)
        assert feats.shape == (775, 23)

    def test_gain_invariance_on_unpadded_input(self):
        buf = tone(523, 7.0, amp=0.2)
        base = compute_features(buf, DEFAULT)
        scaled = compute_features(apply_volume(buf, 2.5), DEFAULT)
        assert np.max(np.abs(base - scaled)) < 1e-5


class TestFeatureCache:
    def test_round_trip(self, tmp_path):
        cache = FeatureCache(tmp_path, DEFAULT)
        values = np.random.default_rng(0).normal(size=(775, 23)).astype(np.float32)
        cache.put("utt1", values)
        assert "utt1" in cache
        assert np.array_equal(cache.get("utt1"), values)
        # reopening rebuilds the index from disk
        cache2 = FeatureCache(tmp_path, DEFAULT)
        assert np.array_equal(cache2.get("utt1"), values)

    def test_config_change_invalidates(self, tmp_path):
        cache = FeatureCache(tmp_path, DEFAULT)
        cache.put("utt1", np.zeros((775, 23), dtype=np.float32))
        other = FeatureCache(tmp_path, FbankConfig(max_seconds=1.4))
        assert "utt1" not in other

    def test_missing_sidecar_starts_fresh(self, tmp_path):
        # two configs of one shape: only the sidecar tells their records apart
        wide, narrow = FbankConfig(max_seconds=1.2), FbankConfig(max_seconds=1.2, sample_rate=8000)
        shape = (wide.n_frames, wide.n_bands)
        assert shape == (narrow.n_frames, narrow.n_bands)
        FeatureCache(tmp_path, wide).put("utt1", np.ones(shape, dtype=np.float32))
        (tmp_path / "features.json").unlink()
        FeatureCache(tmp_path, narrow)
        assert "utt1" not in FeatureCache(tmp_path, narrow)

    def test_missing_returns_none(self, tmp_path):
        cache = FeatureCache(tmp_path, DEFAULT)
        assert cache.get("nope") is None

    # offsets into the second record: inside its id-length field, its id,
    # its shape fields, and its cell data
    @pytest.mark.parametrize("cut", [2, 6, 12, 100], ids=["length", "id", "shape", "data"])
    def test_torn_tail_dropped_on_open(self, tmp_path, cut):
        first = np.random.default_rng(1).normal(size=(775, 23)).astype(np.float32)
        second = np.random.default_rng(2).normal(size=(775, 23)).astype(np.float32)
        cache = FeatureCache(tmp_path, DEFAULT)
        cache.put("utt1", first)
        boundary = cache.bin_path.stat().st_size
        cache.put("utt2", second)
        with open(cache.bin_path, "r+b") as fh:
            fh.truncate(boundary + cut)

        reopened = FeatureCache(tmp_path, DEFAULT)
        assert "utt2" not in reopened
        assert np.array_equal(reopened.get("utt1"), first)
        assert cache.bin_path.stat().st_size == boundary
        # the lost entry is written again and later appends stay aligned
        reopened.put("utt2", second)
        reopened.put("utt3", first)
        again = FeatureCache(tmp_path, DEFAULT)
        assert np.array_equal(again.get("utt2"), second)
        assert np.array_equal(again.get("utt3"), first)

    # the second record's first id byte set to 0xFF, or its n_frames lowered
    # by 1: damage that once raised a raw UnicodeDecodeError or ValueError
    @pytest.mark.parametrize("offset,patch", [(4, b"\xff"), (8, struct.pack("<I", 774))],
                             ids=["id-not-utf8", "n-frames"])
    def test_damaged_record_dropped_on_open(self, tmp_path, offset, patch):
        first = np.random.default_rng(1).normal(size=(775, 23)).astype(np.float32)
        second = np.random.default_rng(2).normal(size=(775, 23)).astype(np.float32)
        cache = FeatureCache(tmp_path, DEFAULT)
        cache.put("utt1", first)
        boundary = cache.bin_path.stat().st_size
        cache.put("utt2", second)
        cache.put("utt3", first)
        with open(cache.bin_path, "r+b") as fh:
            fh.seek(boundary + offset)
            fh.write(patch)

        reopened = FeatureCache(tmp_path, DEFAULT)
        assert "utt2" not in reopened and "utt3" not in reopened
        assert np.array_equal(reopened.get("utt1"), first)
        assert cache.bin_path.stat().st_size == boundary
        reopened.put("utt2", second)
        again = FeatureCache(tmp_path, DEFAULT)
        assert np.array_equal(again.get("utt2"), second)

    def test_non_finite_record_recomputed(self, tmp_path):
        # a NaN cell once reached training and surfaced as a non-finite training loss
        write_wav(tone(300, 0.5), tmp_path / "a.wav")
        manifest = make_manifest(1, audio_path=str(tmp_path / "a.wav"))
        values = FeatureStore(manifest, DEFAULT, tmp_path / "cache").get("u0000")
        bin_path = tmp_path / "cache" / "features.bin"
        with open(bin_path, "r+b") as fh:
            fh.seek(4 + len("u0000") + 8 + 4 * 100)  # cell 100 of the only record
            fh.write(struct.pack("<f", float("nan")))
        assert FeatureCache(tmp_path / "cache", DEFAULT).get("u0000") is None

        size = bin_path.stat().st_size
        store = FeatureStore(manifest, DEFAULT, tmp_path / "cache")
        assert np.array_equal(store.get("u0000"), values)
        assert bin_path.stat().st_size == size  # written over the damaged copy
        assert np.array_equal(FeatureCache(tmp_path / "cache", DEFAULT).get("u0000"), values)
