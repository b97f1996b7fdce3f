import math
import struct
import tracemalloc
import wave

import numpy as np
import pytest

from crossemo.audio import (
    BASS_CORNER_HZ,
    KAISER_BETA,
    RESAMPLE_BLOCK,
    SHELF_Q,
    SINC_TAPS,
    TREBLE_CORNER_HZ,
    AudioBuffer,
    EffectSpec,
    apply_effect,
    apply_overdrive,
    apply_shelf,
    apply_speed,
    apply_tempo,
    apply_volume,
    _kaiser_sinc_resample,
    _shelf_coefficients,
    _wsola,
    read_wav,
    shelf_gain_db,
    write_wav,
)
from crossemo.augment import FACTOR_RANGE
from crossemo.errors import ValidationFailure
from conftest import tone


def write_pcm16(path, samples, sr=16000, channels=1):
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(channels)
        wf.setsampwidth(2)
        wf.setframerate(sr)
        wf.writeframes(np.asarray(samples, dtype="<i2").tobytes())


class TestReadWav:
    def test_silence_file(self, tmp_path):
        path = tmp_path / "silence.wav"
        write_pcm16(path, np.zeros(16000, dtype=np.int16))
        buf = read_wav(path)
        assert buf.n_samples == 16000
        assert buf.sample_rate == 16000
        assert np.all(buf.samples == 0.0)

    def test_pcm16_scale(self, tmp_path):
        path = tmp_path / "half.wav"
        write_pcm16(path, np.array([16384], dtype=np.int16))
        buf = read_wav(path)
        assert buf.samples[0] == pytest.approx(0.5)

    def test_stereo_downmix(self, tmp_path):
        path = tmp_path / "stereo.wav"
        left = int(round(0.4 * 32768))
        interleaved = np.array([left, 0], dtype=np.int16)
        write_pcm16(path, interleaved, channels=2)
        buf = read_wav(path)
        assert buf.samples[0] == pytest.approx(0.2, abs=1e-4)

    @staticmethod
    def write_float32(path, samples, fmt_size=16, data_first=False):
        data = np.asarray(samples, dtype="<f4").tobytes()
        fmt = struct.pack("<HHIIHH", 3, 1, 16000, 16000 * 4, 4, 32)
        chunks = [b"fmt " + struct.pack("<I", fmt_size) + fmt,
                  b"data" + struct.pack("<I", len(data)) + data]
        payload = b"WAVE" + b"".join(chunks[::-1] if data_first else chunks)
        path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(payload)) + payload)

    def test_float32_input(self, tmp_path):
        path = tmp_path / "f32.wav"
        self.write_float32(path, [0.25, -0.75])
        buf = read_wav(path)
        assert np.allclose(buf.samples, [0.25, -0.75])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_float32_sample_rejected(self, tmp_path, bad):
        path = tmp_path / "f32.wav"
        self.write_float32(path, [0.25, bad, -0.75])
        with pytest.raises(ValidationFailure, match="non-finite"):
            read_wav(path)

    def test_fmt_chunk_past_the_end_rejected(self, tmp_path):
        # the last chunk declares an 18-byte fmt (with cbSize) but holds 16
        path = tmp_path / "f32.wav"
        self.write_float32(path, [0.25, -0.75], fmt_size=18, data_first=True)
        with pytest.raises(ValidationFailure, match="runs past the end"):
            read_wav(path)

    @pytest.mark.parametrize("keep", [0.5, 0.99])
    def test_cut_file_rejected(self, tmp_path, keep):
        path = tmp_path / "cut.wav"
        write_pcm16(path, np.arange(19200) % 1000)
        raw = path.read_bytes()
        path.write_bytes(raw[: int(len(raw) * keep)])
        with pytest.raises(ValidationFailure, match="runs past the end"):
            read_wav(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"not a riff file at all")
        with pytest.raises(ValidationFailure, match="not a RIFF/WAVE file"):
            read_wav(path)

    def test_unsupported_encoding(self, tmp_path):
        path = tmp_path / "8bit.wav"
        with wave.open(str(path), "wb") as wf:
            wf.setnchannels(1)
            wf.setsampwidth(1)
            wf.setframerate(16000)
            wf.writeframes(bytes([128] * 100))
        with pytest.raises(ValidationFailure, match="format tag 1 at 8 bit not supported"):
            read_wav(path)

    def test_empty_data(self, tmp_path):
        path = tmp_path / "empty.wav"
        write_pcm16(path, np.array([], dtype=np.int16))
        with pytest.raises(ValidationFailure, match="zero samples"):
            read_wav(path)


class TestWriteWav:
    def test_round_trip_quantization(self, tmp_path):
        rng = np.random.default_rng(0)
        samples = rng.uniform(-0.99, 0.99, size=100)
        buf = AudioBuffer(samples, 16000)
        path = tmp_path / "rt.wav"
        write_wav(buf, path)
        back = read_wav(path)
        assert back.n_samples == 100
        assert np.max(np.abs(back.samples - samples)) <= 1.0 / 32768

    def test_empty_buffer_rejected(self, tmp_path):
        with pytest.raises(ValidationFailure, match="refusing to write an empty buffer"):
            write_wav(AudioBuffer(np.array([]), 16000), tmp_path / "x.wav")

    def test_full_scale_clips_to_max(self, tmp_path):
        path = tmp_path / "one.wav"
        write_wav(AudioBuffer(np.array([1.0]), 16000), path)
        with wave.open(str(path), "rb") as wf:
            raw = wf.readframes(1)
        assert struct.unpack("<h", raw)[0] == 32767


class TestVolume:
    def test_linear_gain(self):
        buf = AudioBuffer(np.array([0.5, -0.25]), 16000)
        out = apply_volume(buf, 0.5)
        assert np.allclose(out.samples, [0.25, -0.125])

    def test_identity(self):
        buf = tone(440, 0.5)
        out = apply_volume(buf, 1.0)
        assert np.array_equal(out.samples, buf.samples)

    def test_clipping(self):
        out = apply_volume(AudioBuffer(np.array([0.9]), 16000), 1.5)
        assert out.samples[0] == 1.0

    def test_non_positive_factor(self):
        with pytest.raises(ValidationFailure, match=r"factor must be > 0, got 0\.0"):
            apply_volume(tone(440, 0.1), 0.0)

    def test_inverse_recovery_without_clipping(self):
        buf = tone(300, 0.3, amp=0.4)
        out = apply_volume(apply_volume(buf, 1.25), 1 / 1.25)
        assert np.allclose(out.samples, buf.samples, atol=1e-12)


class TestSpeed:
    def test_duration_halves(self):
        buf = AudioBuffer(np.zeros(112000), 16000)
        out = apply_speed(buf, 2.0)
        assert abs(out.n_samples - 56000) <= 1

    def test_identity(self):
        buf = tone(440, 1.0)
        out = apply_speed(buf, 1.0)
        rms = np.sqrt(np.mean((out.samples - buf.samples) ** 2))
        assert rms <= 1e-6

    def test_pitch_shifts_with_speed(self):
        buf = tone(440, 2.0)
        out = apply_speed(buf, 1.5)
        spectrum = np.abs(np.fft.rfft(out.samples))
        freqs = np.fft.rfftfreq(out.n_samples, 1 / 16000)
        peak = freqs[np.argmax(spectrum)]
        assert abs(peak - 660.0) < 5.0

    def test_result_too_short(self):
        with pytest.raises(ValidationFailure, match=r"speed 10\.0 would leave 50 samples"):
            apply_speed(AudioBuffer(np.zeros(500), 16000), 10.0)

    def test_non_positive_factor(self):
        with pytest.raises(ValidationFailure, match=r"factor must be > 0, got -1\.0"):
            apply_speed(tone(440, 0.5), -1.0)


def direct_kaiser_sinc_resample(x, factor, outputs=None):
    """Oracle: the Kaiser-windowed sinc evaluated directly at every tap of
    every output sample, or of the output indices given."""
    n = x.size
    n_out = int(round(n / factor))
    rho = min(1.0, 1.0 / factor)
    half = SINC_TAPS / rho
    n_taps = 2 * int(math.ceil(half)) + 1
    centers = (np.arange(n_out) if outputs is None else np.asarray(outputs)) * factor
    k = np.ceil(centers - half).astype(np.int64)[:, None] + np.arange(n_taps)[None, :]
    t = k - centers[:, None]
    u = t / half
    inside = np.abs(u) <= 1.0
    win = np.zeros_like(t)
    win[inside] = np.i0(KAISER_BETA * np.sqrt(1.0 - u[inside] ** 2)) / np.i0(KAISER_BETA)
    kernel = rho * np.sinc(rho * t) * win
    xv = np.where((k >= 0) & (k < n), x[np.clip(k, 0, n - 1)], 0.0)
    return np.einsum("ij,ij->i", xv, kernel)


class TestKaiserSincResample:
    # 1.17 puts the window edge inside a tap's phase range (2*half = 74.88),
    # where the kernel has a kink that one polynomial piece cannot follow
    @pytest.mark.parametrize("factor", [0.6, 0.77, 1.0, 1.17, 1.31, 1.5])
    def test_matches_direct_formula(self, factor):
        x = np.random.default_rng(5).uniform(-1, 1, size=4000)
        out = _kaiser_sinc_resample(x, factor)
        expected = direct_kaiser_sinc_resample(x, factor)
        assert out.shape == expected.shape
        assert np.max(np.abs(out - expected)) <= 1e-9

    def test_matches_direct_formula_across_the_augmentation_range(self):
        # desk-scale 1.2-s input; the oracle runs at both edges and at 200
        # outputs drawn between them
        rng = np.random.default_rng(11)
        x = rng.uniform(-1, 1, size=19200)
        for factor in rng.uniform(*FACTOR_RANGE, size=50):
            out = _kaiser_sinc_resample(x, factor)
            n_out = int(round(x.size / factor))
            assert out.size == n_out
            picks = np.concatenate([
                np.arange(40), rng.choice(n_out, 200, replace=False), np.arange(n_out - 40, n_out)
            ])
            expected = direct_kaiser_sinc_resample(x, factor, picks)
            assert np.max(np.abs(out[picks] - expected)) <= 1e-9, factor

    def test_output_spanning_several_blocks(self):
        x = np.random.default_rng(7).uniform(-1, 1, size=24000)
        out = _kaiser_sinc_resample(x, 0.6)
        assert out.size == 40000 > RESAMPLE_BLOCK
        assert np.max(np.abs(out - direct_kaiser_sinc_resample(x, 0.6))) <= 1e-9

    @pytest.mark.parametrize("factor", [0.6, 1.0, 1.17, 1.5])
    def test_memory_bounded_on_a_long_input(self, factor):
        x = np.random.default_rng(9).uniform(-1, 1, size=112000)  # 7 s
        tracemalloc.start()
        try:
            _kaiser_sinc_resample(x, factor)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 10 * 2**20

    def test_unit_factor_is_identity(self):
        x = np.random.default_rng(6).uniform(-1, 1, size=4000)
        assert np.max(np.abs(_kaiser_sinc_resample(x, 1.0) - x)) <= 1e-12

    def test_repeats_bit_for_bit(self):
        x = np.random.default_rng(8).uniform(-1, 1, size=4000)
        assert np.array_equal(_kaiser_sinc_resample(x, 1.31), _kaiser_sinc_resample(x, 1.31))

    def test_decimation_removes_tone_above_new_nyquist(self):
        # speed 1.5 moves Nyquist to 8 kHz / 1.5 = 5.33 kHz of the input
        buf = tone(7000, 1.0)
        out = apply_speed(buf, 1.5).samples[100:-100]  # past the edge transients
        ratio = np.sqrt(np.mean(out**2)) / np.sqrt(np.mean(buf.samples**2))
        assert ratio < 1e-3


def matmul_wsola(x, factor, window, search):
    """Oracle: WSOLA with each frame's candidate windows scored by one
    matrix-vector product over a sliding-window view of the padded input."""
    hop = window // 2
    target = int(round(x.size / factor))
    xp = np.concatenate([x, np.zeros(window + 2 * search)])
    windows_view = np.lib.stride_tricks.sliding_window_view(xp, window)
    han = np.hanning(window)
    out = np.zeros(target + window)
    norm = np.zeros(target + window)
    out[:window] += han * xp[:window]
    norm[:window] += han
    prev = 0
    m = 1
    while m * hop < target:
        syn = m * hop
        nominal = int(round(syn * factor))
        ref_start = prev + hop
        if ref_start + window > xp.size:
            break
        ref = xp[ref_start : ref_start + window]
        lo = max(0, nominal - search)
        hi = min(windows_view.shape[0] - 1, nominal + search)
        if lo > hi:
            break
        best = lo + int(np.argmax(windows_view[lo : hi + 1] @ ref))
        out[syn : syn + window] += han * xp[best : best + window]
        norm[syn : syn + window] += han
        prev = best
        m += 1
    covered = (m - 1) * hop + window
    return out[: min(target, covered)] / np.maximum(norm[: min(target, covered)], 1e-9)


class TestTempo:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_matmul_scoring(self, seed):
        # voiced-like input: a few harmonics of a gliding f0 under an
        # envelope, plus noise; 1 to 3 s, factors across the augmentation range
        rng = np.random.default_rng(seed)
        window, search = 480, 120  # 30 and 7.5 ms at 16 kHz
        for seconds in rng.uniform(1.0, 3.0, size=2):
            t = np.arange(int(seconds * 16000)) / 16000
            f0 = rng.uniform(90, 250) * (1 + 0.2 * np.sin(2 * np.pi * rng.uniform(0.5, 3) * t))
            phase = 2 * np.pi * np.cumsum(f0) / 16000
            x = sum(np.sin(k * phase) / k for k in range(1, 6))
            x = 0.3 * x * (0.6 + 0.4 * np.sin(2 * np.pi * 2.5 * t)) + rng.normal(0, 0.02, t.size)
            for factor in rng.uniform(*FACTOR_RANGE, size=2):
                assert np.array_equal(_wsola(x, factor, window, search),
                                      matmul_wsola(x, factor, window, search))

    def test_identity_exact(self):
        buf = tone(440, 1.0)
        out = apply_tempo(buf, 1.0)
        assert np.array_equal(out.samples, buf.samples)

    def test_pitch_preserved(self):
        buf = tone(440, 2.0)
        out = apply_tempo(buf, 1.5)
        assert abs(out.n_samples - round(buf.n_samples / 1.5)) <= 480
        spectrum = np.abs(np.fft.rfft(out.samples))
        freqs = np.fft.rfftfreq(out.n_samples, 1 / 16000)
        peak = freqs[np.argmax(spectrum)]
        bin_width = 16000 / out.n_samples
        assert abs(peak - 440.0) <= bin_width + 1e-9

    def test_duration_scaling_slowdown(self):
        buf = AudioBuffer(np.random.default_rng(3).uniform(-0.5, 0.5, 112000), 16000)
        out = apply_tempo(buf, 0.8)
        assert abs(out.n_samples - 140000) <= 480

    def test_result_too_short(self):
        with pytest.raises(ValidationFailure, match=r"tempo 2\.0 would leave 350 samples"):
            apply_tempo(AudioBuffer(np.zeros(700), 16000), 2.0)


class TestShelf:
    def test_zero_gain_is_identity(self):
        buf = tone(440, 0.5)
        out = apply_shelf(buf, "bass", 0.0)
        assert np.max(np.abs(out.samples - buf.samples)) < 1e-9

    def test_bass_boost_low_tone(self):
        buf = tone(50, 2.0, amp=0.3)
        out = apply_shelf(buf, "bass", 6.0)
        ratio = np.sqrt(np.mean(out.samples**2)) / np.sqrt(np.mean(buf.samples**2))
        assert 1.8 <= ratio <= 2.2

    def test_bass_leaves_high_tone(self):
        buf = tone(6000, 2.0, amp=0.3)
        out = apply_shelf(buf, "bass", 6.0)
        ratio = np.sqrt(np.mean(out.samples**2)) / np.sqrt(np.mean(buf.samples**2))
        assert 0.95 <= ratio <= 1.05

    def test_treble_boost_high_tone(self):
        buf = tone(6000, 2.0, amp=0.3)
        out = apply_shelf(buf, "treble", 6.0)
        ratio = np.sqrt(np.mean(out.samples**2)) / np.sqrt(np.mean(buf.samples**2))
        assert ratio > 1.5

    def test_gain_out_of_range(self):
        with pytest.raises(ValidationFailure, match=r"\|gain\| must be <= 20 dB, got 25\.0"):
            apply_shelf(tone(440, 0.1), "bass", 25.0)

    def test_factor_to_gain_mapping(self):
        assert shelf_gain_db(1.05) == pytest.approx(0.0)
        assert shelf_gain_db(1.5) == pytest.approx(12.0)
        assert shelf_gain_db(0.6) == pytest.approx(-12.0)
        assert shelf_gain_db(5.0) == 12.0  # clamped

    def test_coefficients_match_the_cookbook_per_band(self):
        """The signed form equals the cookbook's separate bass and treble
        formulas bit for bit over every augmentation factor and common rate."""
        for band, corner in (("bass", BASS_CORNER_HZ), ("treble", TREBLE_CORNER_HZ)):
            for rate in (8000, 16000, 22050, 44100):
                for factor in np.linspace(0.6, 1.5, 2001):
                    gain_db = shelf_gain_db(factor)
                    b, a = _shelf_coefficients(band, gain_db, rate)
                    want_b, want_a = cookbook_shelf(band, corner, gain_db, rate)
                    assert np.array_equal(b, want_b) and np.array_equal(a, want_a)


def cookbook_shelf(band, corner, gain_db, sample_rate):
    """Oracle: the audio-EQ-cookbook low- and high-shelf biquads as two
    separate sets of formulas, normalised by a0."""
    a_lin = 10.0 ** (gain_db / 40.0)
    w0 = 2.0 * math.pi * corner / sample_rate
    alpha = math.sin(w0) / (2.0 * SHELF_Q)
    cosw = math.cos(w0)
    two_rt = 2.0 * math.sqrt(a_lin) * alpha
    if band == "bass":
        b0 = a_lin * ((a_lin + 1) - (a_lin - 1) * cosw + two_rt)
        b1 = 2 * a_lin * ((a_lin - 1) - (a_lin + 1) * cosw)
        b2 = a_lin * ((a_lin + 1) - (a_lin - 1) * cosw - two_rt)
        a0 = (a_lin + 1) + (a_lin - 1) * cosw + two_rt
        a1 = -2 * ((a_lin - 1) + (a_lin + 1) * cosw)
        a2 = (a_lin + 1) + (a_lin - 1) * cosw - two_rt
    else:
        b0 = a_lin * ((a_lin + 1) + (a_lin - 1) * cosw + two_rt)
        b1 = -2 * a_lin * ((a_lin - 1) + (a_lin + 1) * cosw)
        b2 = a_lin * ((a_lin + 1) + (a_lin - 1) * cosw - two_rt)
        a0 = (a_lin + 1) - (a_lin - 1) * cosw + two_rt
        a1 = 2 * ((a_lin - 1) - (a_lin + 1) * cosw)
        a2 = (a_lin + 1) - (a_lin - 1) * cosw - two_rt
    return np.array([b0, b1, b2]) / a0, np.array([1.0, a1 / a0, a2 / a0])


class TestOverdrive:
    def test_zero_maps_to_zero(self):
        out = apply_overdrive(AudioBuffer(np.array([0.0, 0.5]), 16000), 1.0)
        assert out.samples[0] == 0.0

    def test_unit_maps_to_unit(self):
        out = apply_overdrive(AudioBuffer(np.array([1.0, -1.0]), 16000), 1.2)
        assert out.samples[0] == pytest.approx(1.0, abs=1e-12)
        assert out.samples[1] == pytest.approx(-1.0, abs=1e-12)

    def test_monotone(self):
        rng = np.random.default_rng(7)
        x = np.sort(rng.uniform(-1, 1, size=10000))
        out = apply_overdrive(AudioBuffer(x, 16000), 0.9)
        assert np.all(np.diff(out.samples) > 0)

    def test_non_positive_factor(self):
        with pytest.raises(ValidationFailure, match=r"factor must be > 0, got 0\.0"):
            apply_overdrive(tone(440, 0.1), 0.0)


class TestEffectInvariants:
    @pytest.mark.parametrize(
        "spec",
        [
            EffectSpec("speed", 0.7),
            EffectSpec("speed", 1.4),
            EffectSpec("volume", 1.5),
            EffectSpec("tempo", 0.8),
            EffectSpec("tempo", 1.3),
            EffectSpec("bass", 1.5),
            EffectSpec("treble", 0.6),
            EffectSpec("overdrive", 1.2),
        ],
    )
    def test_output_bounded(self, spec):
        rng = np.random.default_rng(11)
        buf = AudioBuffer(rng.uniform(-1, 1, size=16000), 16000)
        out = apply_effect(buf, spec)
        assert np.all(out.samples <= 1.0) and np.all(out.samples >= -1.0)
        assert out.sample_rate == buf.sample_rate

    @pytest.mark.parametrize("kind", ["volume", "bass", "treble", "overdrive"])
    def test_length_preserved(self, kind):
        buf = tone(523, 0.7)
        out = apply_effect(buf, EffectSpec(kind, 1.3))
        assert out.n_samples == buf.n_samples

    @pytest.mark.parametrize("kind,factor", [("speed", 1.25), ("tempo", 1.25)])
    def test_duration_scaling(self, kind, factor):
        buf = tone(440, 2.0)
        out = apply_effect(buf, EffectSpec(kind, factor))
        assert abs(out.n_samples - buf.n_samples / factor) <= 480

    def test_determinism(self):
        rng = np.random.default_rng(13)
        buf = AudioBuffer(rng.uniform(-0.8, 0.8, size=12000), 16000)
        for spec in (EffectSpec("speed", 1.21), EffectSpec("tempo", 0.84)):
            a = apply_effect(buf, spec)
            b = apply_effect(buf, spec)
            assert np.array_equal(a.samples, b.samples)

    def test_unknown_effect_kind(self):
        with pytest.raises(ValidationFailure, match="unknown effect 'reverse'"):
            EffectSpec("reverse", 1.0)
