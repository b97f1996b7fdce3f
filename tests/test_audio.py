import math
import struct
import wave

import numpy as np
import pytest

from crossemo.audio import (
    KAISER_BETA,
    SINC_TAPS,
    AudioBuffer,
    EffectSpec,
    apply_effect,
    apply_overdrive,
    apply_shelf,
    apply_speed,
    apply_tempo,
    apply_volume,
    _kaiser_sinc_resample,
    read_wav,
    shelf_gain_db,
    write_wav,
)
from crossemo.errors import (
    EmptyAudio,
    GainOutOfRange,
    MalformedHeader,
    NonPositiveFactor,
    ResultTooShort,
    UnsupportedEncoding,
)
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

    def test_float32_input(self, tmp_path):
        path = tmp_path / "f32.wav"
        data = np.array([0.25, -0.75], dtype="<f4").tobytes()
        fmt = struct.pack("<HHIIHH", 3, 1, 16000, 16000 * 4, 4, 32)
        payload = (
            b"WAVE"
            + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(data)) + data
        )
        path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(payload)) + payload)
        buf = read_wav(path)
        assert np.allclose(buf.samples, [0.25, -0.75])

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"not a riff file at all")
        with pytest.raises(MalformedHeader):
            read_wav(path)

    def test_unsupported_encoding(self, tmp_path):
        path = tmp_path / "8bit.wav"
        with wave.open(str(path), "wb") as wf:
            wf.setnchannels(1)
            wf.setsampwidth(1)
            wf.setframerate(16000)
            wf.writeframes(bytes([128] * 100))
        with pytest.raises(UnsupportedEncoding):
            read_wav(path)

    def test_empty_data(self, tmp_path):
        path = tmp_path / "empty.wav"
        write_pcm16(path, np.array([], dtype=np.int16))
        with pytest.raises(EmptyAudio):
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
        with pytest.raises(EmptyAudio):
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
        with pytest.raises(NonPositiveFactor):
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
        with pytest.raises(ResultTooShort):
            apply_speed(AudioBuffer(np.zeros(500), 16000), 10.0)

    def test_non_positive_factor(self):
        with pytest.raises(NonPositiveFactor):
            apply_speed(tone(440, 0.5), -1.0)


def direct_kaiser_sinc_resample(x, factor):
    """Oracle: the Kaiser-windowed sinc evaluated directly at every tap of
    every output sample."""
    n = x.size
    n_out = int(round(n / factor))
    rho = min(1.0, 1.0 / factor)
    half = SINC_TAPS / rho
    n_taps = 2 * int(math.ceil(half)) + 1
    centers = np.arange(n_out) * factor
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
    @pytest.mark.parametrize("factor", [0.6, 0.77, 1.0, 1.31, 1.5])
    def test_matches_direct_formula(self, factor):
        x = np.random.default_rng(5).uniform(-1, 1, size=4000)
        out = _kaiser_sinc_resample(x, factor)
        expected = direct_kaiser_sinc_resample(x, factor)
        assert out.shape == expected.shape
        assert np.max(np.abs(out - expected)) <= 1e-7

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


class TestTempo:
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
        with pytest.raises(ResultTooShort):
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
        with pytest.raises(GainOutOfRange):
            apply_shelf(tone(440, 0.1), "bass", 25.0)

    def test_factor_to_gain_mapping(self):
        assert shelf_gain_db(1.05) == pytest.approx(0.0)
        assert shelf_gain_db(1.5) == pytest.approx(12.0)
        assert shelf_gain_db(0.6) == pytest.approx(-12.0)
        assert shelf_gain_db(5.0) == 12.0  # clamped


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
        with pytest.raises(NonPositiveFactor):
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
        with pytest.raises(UnsupportedEncoding):
            EffectSpec("reverse", 1.0)
