"""WAV ingest/emit and the six signal-level augmentation effects.

Every effect is a pure function of (buffer, parameters): identical inputs
give identical outputs on every run and platform. All effects clip their
output to [-1, 1] and never change the declared sample rate; only speed and
tempo change the duration.
"""

from __future__ import annotations

import functools
import io
import math
import struct
import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.signal import lfilter

from .errors import (
    EmptyAudio,
    GainOutOfRange,
    IoFailure,
    MalformedHeader,
    NonPositiveFactor,
    ResultTooShort,
    UnsupportedEncoding,
)
from .ioutil import atomic_write_bytes

PCM16_SCALE = 32768.0
# shortest usable result: one analysis frame of the downstream front-end
MIN_RESULT_SAMPLES = 416

EFFECT_KINDS = ("speed", "volume", "tempo", "bass", "treble", "overdrive")

BASS_CORNER_HZ = 100.0
TREBLE_CORNER_HZ = 3000.0
SHELF_Q = 0.707

# windowed-sinc resampler: Kaiser window, 32 taps per side at unit rate,
# kernel tabulated at 4096 points per zero crossing
SINC_TAPS = 32
KAISER_BETA = 8.6
SINC_TABLE_DENSITY = 4096

# time-scale modification: 30 ms window, 50% overlap, +-7.5 ms search
WSOLA_WINDOW_MS = 30.0
WSOLA_SEARCH_MS = 7.5


@dataclass(frozen=True)
class AudioBuffer:
    """Mono audio: float samples in [-1, 1] plus a sample rate in Hz."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float64).reshape(-1)
        object.__setattr__(self, "samples", arr)
        if self.sample_rate <= 0:
            raise MalformedHeader(f"non-positive sample rate {self.sample_rate}")

    @property
    def n_samples(self) -> int:
        return int(self.samples.size)

    @property
    def duration(self) -> float:
        return self.n_samples / self.sample_rate


@dataclass(frozen=True)
class EffectSpec:
    """One concrete effect application: which effect and its factor."""

    kind: str
    factor: float

    def __post_init__(self):
        if self.kind not in EFFECT_KINDS:
            raise UnsupportedEncoding(
                f"unknown effect {self.kind!r}; expected one of {EFFECT_KINDS}"
            )


def read_wav(path: str | Path) -> AudioBuffer:
    """Read a RIFF/WAVE file (PCM16 or IEEE float32, mono or multichannel).

    Multichannel input is downmixed by channel averaging; samples end up
    in [-1, 1].
    """
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    if len(raw) < 12 or raw[0:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise MalformedHeader(f"{path}: not a RIFF/WAVE file")

    fmt_chunk = None
    data_chunk = None
    pos = 12
    while pos + 8 <= len(raw):
        cid = raw[pos : pos + 4]
        (size,) = struct.unpack_from("<I", raw, pos + 4)
        body = raw[pos + 8 : pos + 8 + size]
        if cid == b"fmt ":
            fmt_chunk = body
        elif cid == b"data":
            data_chunk = body
        pos += 8 + size + (size & 1)
    if fmt_chunk is None or len(fmt_chunk) < 16 or data_chunk is None:
        raise MalformedHeader(f"{path}: missing fmt/data chunk")

    audio_format, n_channels, sample_rate, _, _, bits = struct.unpack_from(
        "<HHIIHH", fmt_chunk, 0
    )
    if n_channels < 1 or sample_rate < 1:
        raise MalformedHeader(f"{path}: bad fmt chunk")
    if audio_format == 1 and bits == 16:
        usable = (len(data_chunk) // 2) * 2
        x = np.frombuffer(data_chunk[:usable], dtype="<i2").astype(np.float64)
        x /= PCM16_SCALE
    elif audio_format == 3 and bits == 32:
        usable = (len(data_chunk) // 4) * 4
        x = np.frombuffer(data_chunk[:usable], dtype="<f4").astype(np.float64)
    else:
        raise UnsupportedEncoding(
            f"{path}: format tag {audio_format} at {bits} bit not supported "
            "(PCM16 or float32 only)"
        )

    frames = x.size // n_channels
    if frames == 0:
        raise EmptyAudio(f"{path}: zero samples")
    x = x[: frames * n_channels].reshape(frames, n_channels).mean(axis=1)
    return AudioBuffer(np.clip(x, -1.0, 1.0), int(sample_rate))


def write_wav(buffer: AudioBuffer, path: str | Path) -> None:
    """Write mono PCM16 little-endian. Values clip to [-1, 1]; +1.0 encodes
    as 32767."""
    if buffer.n_samples == 0:
        raise EmptyAudio("refusing to write an empty buffer")
    q = np.clip(np.rint(np.clip(buffer.samples, -1.0, 1.0) * PCM16_SCALE), -32768, 32767)
    q = q.astype("<i2")
    data = io.BytesIO()
    with wave.open(data, "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(buffer.sample_rate)
        wf.writeframes(q.tobytes())
    try:
        atomic_write_bytes(path, data.getvalue())
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def _check_factor(factor: float) -> None:
    if not factor > 0:
        raise NonPositiveFactor(f"factor must be > 0, got {factor}")


def apply_volume(buffer: AudioBuffer, factor: float) -> AudioBuffer:
    """Scale samples by `factor`, clipping to [-1, 1]."""
    _check_factor(factor)
    return AudioBuffer(np.clip(buffer.samples * factor, -1.0, 1.0), buffer.sample_rate)


@functools.cache
def _kaiser_sinc_table() -> tuple[np.ndarray, np.ndarray]:
    """The Kaiser-windowed sinc g(u) = sinc(SINC_TAPS*u) * I0(beta*sqrt(1-u^2))
    / I0(beta) on u in [0, 1] at SINC_TABLE_DENSITY entries per zero crossing,
    then one zero guard entry; and the slope from each entry to the next. g
    is even and the same for every speed factor. Built on first use."""
    x = np.arange(SINC_TAPS * SINC_TABLE_DENSITY + 1) / SINC_TABLE_DENSITY
    window = np.i0(KAISER_BETA * np.sqrt(1.0 - (x / SINC_TAPS) ** 2)) / np.i0(KAISER_BETA)
    g = np.append(np.sinc(x) * window, 0.0)
    g[SINC_TABLE_DENSITY::SINC_TABLE_DENSITY] = 0.0  # sinc's zeros, exactly
    slope = np.append(np.diff(g), 0.0)
    g.flags.writeable = slope.flags.writeable = False  # shared by every caller
    return g, slope


def _kaiser_sinc_resample(x: np.ndarray, factor: float) -> np.ndarray:
    # Smith's bandlimited interpolation: with half = SINC_TAPS / rho the kernel
    # at offset t is rho * g(t / half), so one table of g serves every factor;
    # weights interpolate linearly between its entries
    n = x.size
    n_out = int(round(n / factor))
    rho = min(1.0, 1.0 / factor)  # cutoff scale: anti-alias when decimating
    half = SINC_TAPS / rho
    n_taps = 2 * int(math.ceil(half)) + 1
    table, slope = _kaiser_sinc_table()
    last = table.size - 2  # the entry at |u| = 1; beyond it g is 0
    centers = np.arange(n_out) * factor
    k0 = np.ceil(centers - half).astype(np.int64)  # first tap of each output
    t0 = k0 - centers
    lead = max(0, -int(k0[0]))
    trail = max(0, int(k0[-1]) + n_taps - n)
    xp = np.concatenate([np.zeros(lead), x, np.zeros(trail)])
    first = k0 + lead
    out = np.zeros(n_out, dtype=np.float64)
    for offset in range(n_taps):
        pos = np.abs(t0 + offset) * (rho * SINC_TABLE_DENSITY)
        i = np.minimum(pos.astype(np.int64), last)
        out += (table[i] + (pos - i) * slope[i]) * xp[first + offset]
    return rho * out


def apply_speed(buffer: AudioBuffer, factor: float) -> AudioBuffer:
    """Resampled playback: factor > 1 speeds up, < 1 slows down. Pitch and
    duration change together. Band-limited windowed-sinc interpolation."""
    _check_factor(factor)
    n_out = int(round(buffer.n_samples / factor))
    if n_out < MIN_RESULT_SAMPLES:
        raise ResultTooShort(
            f"speed {factor} would leave {n_out} samples (< {MIN_RESULT_SAMPLES})"
        )
    y = _kaiser_sinc_resample(buffer.samples, factor)
    return AudioBuffer(np.clip(y, -1.0, 1.0), buffer.sample_rate)


def apply_tempo(buffer: AudioBuffer, factor: float) -> AudioBuffer:
    """Time-scale modification (WSOLA): duration scales by 1/factor, pitch
    is preserved. factor 1.0 is an exact pass-through."""
    _check_factor(factor)
    x = buffer.samples
    sr = buffer.sample_rate
    if factor == 1.0:
        return AudioBuffer(x.copy(), sr)
    target = int(round(x.size / factor))
    if target < MIN_RESULT_SAMPLES:
        raise ResultTooShort(
            f"tempo {factor} would leave {target} samples (< {MIN_RESULT_SAMPLES})"
        )
    window = int(round(WSOLA_WINDOW_MS * sr / 1000.0))
    search = int(round(WSOLA_SEARCH_MS * sr / 1000.0))
    if x.size < window + 2 * search:
        raise ResultTooShort(
            f"input of {x.size} samples is too short for time-scale modification "
            f"(needs >= {window + 2 * search})"
        )
    y = _wsola(x, factor, window, search)
    y = y[: min(target, y.size)]
    return AudioBuffer(np.clip(y, -1.0, 1.0), sr)


def _wsola(x: np.ndarray, factor: float, window: int, search: int) -> np.ndarray:
    hop = window // 2
    target = int(round(x.size / factor))
    # zero tail so analysis can cover the very end of the input
    xp = np.concatenate([x, np.zeros(window + 2 * search)])
    windows_view = np.lib.stride_tricks.sliding_window_view(xp, window)
    han = np.hanning(window)

    out = np.zeros(target + window, dtype=np.float64)
    norm = np.zeros(target + window, dtype=np.float64)
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
        scores = windows_view[lo : hi + 1] @ ref
        best = lo + int(np.argmax(scores))
        out[syn : syn + window] += han * xp[best : best + window]
        norm[syn : syn + window] += han
        prev = best
        m += 1
    covered = (m - 1) * hop + window
    y = out[: min(target, covered)] / np.maximum(norm[: min(target, covered)], 1e-9)
    return y


def _shelf_coefficients(band: str, gain_db: float, sample_rate: int):
    # audio-EQ-cookbook second-order shelving filters
    corner = BASS_CORNER_HZ if band == "bass" else TREBLE_CORNER_HZ
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
    b = np.array([b0, b1, b2]) / a0
    a = np.array([1.0, a1 / a0, a2 / a0])
    return b, a


def apply_shelf(buffer: AudioBuffer, band: str, gain_db: float) -> AudioBuffer:
    """Second-order shelving filter; `band` is "bass" (corner 100 Hz) or
    "treble" (corner 3 kHz)."""
    if band not in ("bass", "treble"):
        raise UnsupportedEncoding(f"shelf band must be bass or treble, got {band!r}")
    if abs(gain_db) > 20.0:
        raise GainOutOfRange(f"|gain| must be <= 20 dB, got {gain_db}")
    b, a = _shelf_coefficients(band, gain_db, buffer.sample_rate)
    y = lfilter(b, a, buffer.samples)
    return AudioBuffer(np.clip(y, -1.0, 1.0), buffer.sample_rate)


def apply_overdrive(buffer: AudioBuffer, factor: float) -> AudioBuffer:
    """Soft-clip distortion: y = tanh(g*x)/tanh(g) with drive g derived from
    the factor. Odd, monotone, maps +-1 to +-1 exactly."""
    _check_factor(factor)
    g = 1.0 + 9.0 * min(max(factor, 0.0), 1.5) / 1.5
    y = np.tanh(g * buffer.samples) / math.tanh(g)
    return AudioBuffer(np.clip(y, -1.0, 1.0), buffer.sample_rate)


def shelf_gain_db(factor: float) -> float:
    """Map an augmentation factor in [0.6, 1.5] onto a shelf gain in dB,
    clamped to +-12 dB (factor 1.05 is neutral)."""
    return float(np.clip(12.0 * (factor - 1.05) / 0.45, -12.0, 12.0))


def apply_effect(buffer: AudioBuffer, spec: EffectSpec) -> AudioBuffer:
    """Dispatch an EffectSpec onto the matching effect function."""
    if spec.kind == "speed":
        return apply_speed(buffer, spec.factor)
    if spec.kind == "volume":
        return apply_volume(buffer, spec.factor)
    if spec.kind == "tempo":
        return apply_tempo(buffer, spec.factor)
    if spec.kind == "bass":
        return apply_shelf(buffer, "bass", shelf_gain_db(spec.factor))
    if spec.kind == "treble":
        return apply_shelf(buffer, "treble", shelf_gain_db(spec.factor))
    if spec.kind == "overdrive":
        return apply_overdrive(buffer, spec.factor)
    raise UnsupportedEncoding(f"unknown effect kind {spec.kind!r}")
