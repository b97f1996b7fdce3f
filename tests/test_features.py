import os
import tracemalloc
import zlib

import numpy as np
import pytest

from crossemo import features
from crossemo.audio import AudioBuffer, apply_volume, write_wav
from crossemo.errors import RuntimeFailure, ValidationFailure
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
from crossemo.ioutil import config_digest, read_json
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


IDS = ("utt3", "utt1", "utt2")  # the cache sorts them: utt1, utt2, utt3
RECORD = 4 * DEFAULT.n_frames * DEFAULT.n_bands + 8  # cells, marker, CRC


def random_rows(n, cfg=DEFAULT, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(cfg.n_frames, cfg.n_bands)).astype(np.float32) for _ in range(n)]


def filled_cache(directory):
    """A cache over IDS with every row written, and the rows in sorted order."""
    cache = FeatureCache(directory, DEFAULT, IDS)
    rows = random_rows(3)
    for utt_id, values in zip(sorted(IDS), rows):
        cache.put(utt_id, values)
    return cache, rows


class TestFeatureCache:
    def test_round_trip(self, tmp_path):
        cache = FeatureCache(tmp_path, DEFAULT, IDS)
        (values,) = random_rows(1)
        cache.put("utt2", values)
        assert np.array_equal(cache.get("utt2"), values)
        assert cache.get("utt1") is None  # never written
        assert cache.get("nope") is None  # not one of the ids
        # reopening, with the ids in any order, reads the same rows
        reopened = FeatureCache(tmp_path, DEFAULT, reversed(IDS))
        assert np.array_equal(reopened.get("utt2"), values)
        assert reopened.get("utt1") is None

    def test_one_fixed_record_per_sorted_id(self, tmp_path):
        cache = FeatureCache(tmp_path, DEFAULT, IDS)
        assert cache.bin_path.stat().st_size == 3 * RECORD
        (values,) = random_rows(1)
        cache.put("utt2", values)
        cache.put("utt2", values)
        data = cache.bin_path.read_bytes()
        assert len(data) == 3 * RECORD  # written in place, never appended
        record = data[RECORD:2 * RECORD]
        assert record[:-8] == values.astype("<f4").tobytes()
        assert record[-8:] == b"FROW" + zlib.crc32(record[:-8]).to_bytes(4, "little")
        assert data[:RECORD] == data[2 * RECORD:] == bytes(RECORD)

    def test_put_refuses_another_shape(self, tmp_path):
        cache = FeatureCache(tmp_path, DEFAULT, IDS)
        with pytest.raises(RuntimeFailure, match="shape"):
            cache.put("utt1", np.zeros((774, 23), dtype=np.float32))

    # each case would read utt1's row back intact without the sidecar's rule:
    # another config of the same shape, a manifest that adds an id after it,
    # and a sidecar lost or damaged
    @pytest.mark.parametrize("case", ["config", "ids", "missing", "unreadable"])
    def test_sidecar_mismatch_starts_fresh(self, tmp_path, case):
        cfg, ids = FbankConfig(max_seconds=1.2), IDS
        shape = (cfg.n_frames, cfg.n_bands)
        FeatureCache(tmp_path, cfg, ids).put("utt1", np.ones(shape))
        sidecar = tmp_path / "features.json"
        if case == "config":
            cfg = FbankConfig(max_seconds=1.2, sample_rate=8000)
            assert (cfg.n_frames, cfg.n_bands) == shape
        elif case == "ids":
            ids = IDS + ("utt4",)
        elif case == "missing":
            sidecar.unlink()
        else:
            sidecar.write_text("{")
        assert FeatureCache(tmp_path, cfg, ids).get("utt1") is None
        assert read_json(sidecar) == {"features": cfg.to_json(), "ids": config_digest(sorted(ids))}

    # cuts inside utt2's record: in its cells, its marker and its CRC
    @pytest.mark.parametrize("cut", [100, RECORD - 6, RECORD - 2], ids=["cells", "marker", "crc"])
    def test_cut_rows_read_as_missing_and_the_size_is_restored(self, tmp_path, cut):
        cache, rows = filled_cache(tmp_path)
        os.truncate(cache.bin_path, RECORD + cut)
        reopened = FeatureCache(tmp_path, DEFAULT, IDS)
        assert cache.bin_path.stat().st_size == 3 * RECORD
        assert np.array_equal(reopened.get("utt1"), rows[0])
        assert reopened.get("utt2") is None and reopened.get("utt3") is None
        reopened.put("utt2", rows[1])
        assert np.array_equal(FeatureCache(tmp_path, DEFAULT, IDS).get("utt2"), rows[1])

    # one byte of utt2's record inverted: its first and last cell, its marker, its CRC
    @pytest.mark.parametrize("offset", [0, RECORD - 9, RECORD - 8, RECORD - 1],
                             ids=["first-cell", "last-cell", "marker", "crc"])
    def test_damaged_byte_fails_its_row_only(self, tmp_path, offset):
        cache, rows = filled_cache(tmp_path)
        with open(cache.bin_path, "r+b") as fh:
            fh.seek(RECORD + offset)
            byte = fh.read(1)[0]
            fh.seek(RECORD + offset)
            fh.write(bytes([byte ^ 0xFF]))
        reopened = FeatureCache(tmp_path, DEFAULT, IDS)
        assert reopened.get("utt2") is None
        assert np.array_equal(reopened.get("utt1"), rows[0])
        assert np.array_equal(reopened.get("utt3"), rows[2])
        reopened.put("utt2", rows[1])
        assert np.array_equal(reopened.get("utt2"), rows[1])

    def test_every_single_bit_flip_fails_its_row(self, tmp_path):
        # one seeded bit in each byte of a short record: none loads silently
        cfg = FbankConfig(max_seconds=0.1)
        cache = FeatureCache(tmp_path, cfg, ["utt1"])
        (values,) = random_rows(1, cfg)
        cache.put("utt1", values)
        record = cache.bin_path.read_bytes()
        bits = np.random.default_rng(5).integers(0, 8, size=len(record))
        for offset, bit in enumerate(bits):
            damaged = bytearray(record)
            damaged[offset] ^= 1 << int(bit)
            cache.bin_path.write_bytes(damaged)
            assert cache.get("utt1") is None, offset
        cache.bin_path.write_bytes(record)
        assert np.array_equal(cache.get("utt1"), values)

    def test_non_finite_record_recomputed(self, tmp_path):
        # a NaN cell once reached training and surfaced as a non-finite training loss
        write_wav(tone(300, 0.5), tmp_path / "a.wav")
        manifest = make_manifest(1, audio_path=str(tmp_path / "a.wav"))
        values = FeatureStore(manifest, DEFAULT, tmp_path / "cache").get("u0000")
        bin_path = tmp_path / "cache" / "features.bin"
        with open(bin_path, "r+b") as fh:
            fh.seek(4 * 100)  # cell 100 of the only record
            fh.write(np.float32("nan").tobytes())
        assert FeatureCache(tmp_path / "cache", DEFAULT, ["u0000"]).get("u0000") is None

        size = bin_path.stat().st_size
        store = FeatureStore(manifest, DEFAULT, tmp_path / "cache")
        assert np.array_equal(store.get("u0000"), values)
        assert bin_path.stat().st_size == size  # written over the damaged copy
        assert np.array_equal(FeatureCache(tmp_path / "cache", DEFAULT, ["u0000"]).get("u0000"),
                              values)


def test_store_holds_no_rows_once_cached(tmp_path):
    # reading every id of a warm cache adds under two rows to what the store
    # holds, whether it has n or 4n ids: each row lives only as long as its caller
    cfg = FbankConfig(max_seconds=1.2)
    write_wav(tone(300, 1.2), tmp_path / "a.wav")
    row_bytes = 4 * cfg.n_frames * cfg.n_bands
    for n in (16, 64):
        manifest = make_manifest(n, audio_path=str(tmp_path / "a.wav"))
        ids = [r.id for r in manifest.records]
        warm = FeatureStore(manifest, cfg, tmp_path / f"cache{n}")
        for utt_id in ids:
            warm.get(utt_id)
        tracemalloc.start()
        try:
            store = FeatureStore(manifest, cfg, tmp_path / f"cache{n}")
            before, _ = tracemalloc.get_traced_memory()
            for utt_id in ids:
                assert store.get(utt_id).shape == (cfg.n_frames, cfg.n_bands)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held - before < 2 * row_bytes, n
