"""WAV ingest/emit and the six signal-level augmentation effects.

Every effect is a pure function of (buffer, parameters): identical inputs
give bit-identical outputs on every run with one numpy and BLAS build. Across
builds outputs agree within rounding, since the speed effect sums through a
matrix product whose summation order is the BLAS library's. All effects clip
their output to [-1, 1] and never change the declared sample rate; only speed
and tempo change the duration.
"""

from __future__ import annotations

import io
import math
import struct
import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import RuntimeFailure, ValidationFailure
from .ioutil import atomic_write_bytes

PCM16_SCALE = 32768.0
# shortest usable result: one analysis frame of the downstream front-end
MIN_RESULT_SAMPLES = 416

BASS_CORNER_HZ = 100.0
TREBLE_CORNER_HZ = 3000.0
SHELF_Q = 0.707

# windowed-sinc resampler: Kaiser window, 32 taps per side at unit rate;
# each tap's weight is a degree-12 Chebyshev polynomial in the output phase
SINC_TAPS = 32
KAISER_BETA = 8.6
FARROW_DEGREE = 12
RESAMPLE_BLOCK = 1024  # outputs per GEMM: their input windows stay in cache

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
            raise ValidationFailure(f"non-positive sample rate {self.sample_rate}")

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
        if self.kind not in EFFECTS:
            raise ValidationFailure(
                f"unknown effect {self.kind!r}; expected one of {tuple(EFFECTS)}"
            )


def read_wav(path: str | Path) -> AudioBuffer:
    """Read a RIFF/WAVE file (PCM16 or IEEE float32, mono or multichannel).

    Multichannel input is downmixed by channel averaging; samples end up
    in [-1, 1]. A `fmt ` or `data` chunk that runs past the end of the file
    (a cut file) and a non-finite float sample raise ValidationFailure.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise RuntimeFailure(f"cannot read {path}: {exc}") from exc
    if len(raw) < 12 or raw[0:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise ValidationFailure(f"{path}: not a RIFF/WAVE file")

    fmt_chunk = None
    data_chunk = None
    pos = 12
    while pos + 8 <= len(raw):
        cid = raw[pos : pos + 4]
        (size,) = struct.unpack_from("<I", raw, pos + 4)
        if cid in (b"fmt ", b"data") and pos + 8 + size > len(raw):
            raise ValidationFailure(f"{path}: its {size}-byte {cid.decode().strip()!r} chunk "
                                  f"runs past the end of the {len(raw)}-byte file")
        body = raw[pos + 8 : pos + 8 + size]
        if cid == b"fmt ":
            fmt_chunk = body
        elif cid == b"data":
            data_chunk = body
        pos += 8 + size + (size & 1)
    if fmt_chunk is None or len(fmt_chunk) < 16 or data_chunk is None:
        raise ValidationFailure(f"{path}: missing fmt/data chunk")

    audio_format, n_channels, sample_rate, _, _, bits = struct.unpack_from(
        "<HHIIHH", fmt_chunk, 0
    )
    if n_channels < 1 or sample_rate < 1:
        raise ValidationFailure(f"{path}: bad fmt chunk")
    if audio_format == 1 and bits == 16:
        usable = (len(data_chunk) // 2) * 2
        x = np.frombuffer(data_chunk[:usable], dtype="<i2").astype(np.float64)
        x /= PCM16_SCALE
    elif audio_format == 3 and bits == 32:
        usable = (len(data_chunk) // 4) * 4
        x = np.frombuffer(data_chunk[:usable], dtype="<f4").astype(np.float64)
        if not np.isfinite(x).all():
            raise ValidationFailure(f"{path}: non-finite float sample")
    else:
        raise ValidationFailure(
            f"{path}: format tag {audio_format} at {bits} bit not supported "
            "(PCM16 or float32 only)"
        )

    frames = x.size // n_channels
    if frames == 0:
        raise ValidationFailure(f"{path}: zero samples")
    x = x[: frames * n_channels].reshape(frames, n_channels).mean(axis=1)
    return AudioBuffer(np.clip(x, -1.0, 1.0), int(sample_rate))


def write_wav(buffer: AudioBuffer, path: str | Path) -> None:
    """Write mono PCM16 little-endian. Values clip to [-1, 1]; +1.0 encodes
    as 32767."""
    if buffer.n_samples == 0:
        raise ValidationFailure("refusing to write an empty buffer")
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
        raise RuntimeFailure(f"cannot write {path}: {exc}") from exc


def _check_factor(factor: float) -> None:
    if not factor > 0:
        raise ValidationFailure(f"factor must be > 0, got {factor}")


def apply_volume(buffer: AudioBuffer, factor: float) -> AudioBuffer:
    """Scale samples by `factor`, clipping to [-1, 1]."""
    _check_factor(factor)
    return AudioBuffer(np.clip(buffer.samples * factor, -1.0, 1.0), buffer.sample_rate)


def _kaiser_sinc_kernel(t: np.ndarray, rho: float, half: float) -> np.ndarray:
    """rho * sinc(rho*t) * I0(beta*sqrt(1 - (t/half)^2)) / I0(beta), and 0
    where |t| > half."""
    u = np.minimum(np.abs(t) / half, 1.0)
    window = np.i0(KAISER_BETA * np.sqrt(1.0 - u**2)) / np.i0(KAISER_BETA)
    return np.where(np.abs(t) <= half, rho * np.sinc(rho * t) * window, 0.0)


def _clenshaw(c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """sum_d c[d, i] * T_d(s[i]) for each column i: Clenshaw's recurrence."""
    s2 = 2.0 * s
    b1, b2 = c[-1].copy(), np.zeros_like(s)
    for d in range(c.shape[0] - 2, 0, -1):
        np.subtract(c[d], b2, out=b2)
        b2 += s2 * b1
        b1, b2 = b2, b1
    return c[0] + s * b1 - b2


def _kaiser_sinc_resample(x: np.ndarray, factor: float) -> np.ndarray:
    # Farrow structure: output n sits at c = n*factor, its first tap at
    # k0 = ceil(c - half), and tap j weighs kernel(j - half + theta) with phase
    # theta = k0 - c + half in [0, 1). Each tap's weight is fitted once per call
    # as a Chebyshev polynomial in theta, so a block of outputs is one GEMM of
    # their input windows with the fixed coefficients, then Clenshaw's
    # recurrence in theta. Tap floor(2*half) leaves the window at
    # theta = 2*half - floor(2*half), a kink no polynomial follows, so each side
    # of that phase gets its own fit and its own GEMM.
    n = x.size
    n_out = int(round(n / factor))
    rho = min(1.0, 1.0 / factor)  # cutoff scale: anti-alias when decimating
    half = SINC_TAPS / rho
    n_taps = int(math.floor(2.0 * half)) + 1  # taps that can fall inside the window
    kink = 2.0 * half - math.floor(2.0 * half)
    pieces = [(0.0, kink), (kink, 1.0)] if kink > 0.0 else [(0.0, 1.0)]
    nodes = -np.cos(np.pi * np.arange(FARROW_DEGREE + 1) / FARROW_DEGREE)  # Lobatto, from -1
    theta_nodes = np.array([lo + (hi - lo) * (nodes + 1.0) / 2.0 for lo, hi in pieces])
    values = _kaiser_sinc_kernel(
        theta_nodes[:, :, None] + (np.arange(n_taps) - half), rho, half
    )  # [piece, node, tap]
    # interpolate at the nodes: coefs[p, d, j] of T_d in piece p's own variable
    coefs = np.linalg.solve(np.polynomial.chebyshev.chebvander(nodes, FARROW_DEGREE), values)
    windows = np.lib.stride_tricks.sliding_window_view(
        np.concatenate([np.zeros(n_taps), x, np.zeros(n_taps)]), n_taps
    )
    cuts = np.array([lo for lo, _ in pieces[1:]])
    out = np.empty(n_out, dtype=np.float64)
    for start in range(0, n_out, RESAMPLE_BLOCK):
        c = np.arange(start, min(start + RESAMPLE_BLOCK, n_out)) * factor
        k0 = np.ceil(c - half)
        theta = (k0 - c) + half
        first = k0.astype(np.int64) + n_taps
        piece = np.searchsorted(cuts, theta, side="right")
        for p, (lo, hi) in enumerate(pieces):
            rows = np.flatnonzero(piece == p)
            g = coefs[p] @ windows[first[rows]].T  # [FARROW_DEGREE + 1, rows]
            out[start + rows] = _clenshaw(g, (2.0 * theta[rows] - lo - hi) / (hi - lo))
    return out


def apply_speed(buffer: AudioBuffer, factor: float) -> AudioBuffer:
    """Resampled playback: factor > 1 speeds up, < 1 slows down. Pitch and
    duration change together. Band-limited Kaiser-windowed sinc interpolation
    in the Farrow structure (C. W. Farrow, ISCAS 1988): each tap's weight is a
    degree-FARROW_DEGREE polynomial in the output's fractional phase, within
    1e-9 of the kernel evaluated directly at every tap (about 1e-11 measured
    over factors 0.5 to 2)."""
    _check_factor(factor)
    n_out = int(round(buffer.n_samples / factor))
    if n_out < MIN_RESULT_SAMPLES:
        raise ValidationFailure(
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
        raise ValidationFailure(
            f"tempo {factor} would leave {target} samples (< {MIN_RESULT_SAMPLES})"
        )
    window = int(round(WSOLA_WINDOW_MS * sr / 1000.0))
    search = int(round(WSOLA_SEARCH_MS * sr / 1000.0))
    if x.size < window + 2 * search:
        raise ValidationFailure(
            f"input of {x.size} samples is too short for time-scale modification "
            f"(needs >= {window + 2 * search})"
        )
    y = _wsola(x, factor, window, search)
    y = y[: min(target, y.size)]
    return AudioBuffer(np.clip(y, -1.0, 1.0), sr)


def _wsola(x: np.ndarray, factor: float, window: int, search: int) -> np.ndarray:
    """Waveform-similarity overlap-add: Hann windows every `hop` = window/2
    output samples. Each is the input window, within `search` samples of its
    nominal position, whose inner product with the natural continuation of
    the previous pick is largest; `np.correlate` scores all candidates in
    one call on the contiguous input, and ties go to the earliest."""
    hop = window // 2
    target = int(round(x.size / factor))
    # zero tail so analysis can cover the very end of the input
    xp = np.concatenate([x, np.zeros(window + 2 * search)])
    last_start = xp.size - window
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
        hi = min(last_start, nominal + search)
        if lo > hi:
            break
        scores = np.correlate(xp[lo : hi + window], ref, "valid")
        best = lo + int(np.argmax(scores))
        out[syn : syn + window] += han * xp[best : best + window]
        norm[syn : syn + window] += han
        prev = best
        m += 1
    covered = (m - 1) * hop + window
    y = out[: min(target, covered)] / np.maximum(norm[: min(target, covered)], 1e-9)
    return y


def _shelf_coefficients(band: str, gain_db: float, sample_rate: int):
    # audio-EQ-cookbook second-order shelving filters: the treble shelf is the
    # bass one with cos(w0), b1 and a1 negated (s = -1); a sign flip is exact
    s = 1 if band == "bass" else -1
    corner = BASS_CORNER_HZ if band == "bass" else TREBLE_CORNER_HZ
    a_lin = 10.0 ** (gain_db / 40.0)
    w0 = 2.0 * math.pi * corner / sample_rate
    alpha = math.sin(w0) / (2.0 * SHELF_Q)
    cosw = s * math.cos(w0)
    two_rt = 2.0 * math.sqrt(a_lin) * alpha
    b0 = a_lin * ((a_lin + 1) - (a_lin - 1) * cosw + two_rt)
    b1 = 2 * s * a_lin * ((a_lin - 1) - (a_lin + 1) * cosw)
    b2 = a_lin * ((a_lin + 1) - (a_lin - 1) * cosw - two_rt)
    a0 = (a_lin + 1) + (a_lin - 1) * cosw + two_rt
    a1 = -2 * s * ((a_lin - 1) + (a_lin + 1) * cosw)
    a2 = (a_lin + 1) + (a_lin - 1) * cosw - two_rt
    b = np.array([b0, b1, b2]) / a0
    a = np.array([1.0, a1 / a0, a2 / a0])
    return b, a


def apply_shelf(buffer: AudioBuffer, band: str, gain_db: float) -> AudioBuffer:
    """Second-order shelving filter; `band` is "bass" (corner 100 Hz) or
    "treble" (corner 3 kHz)."""
    if band not in ("bass", "treble"):
        raise ValidationFailure(f"shelf band must be bass or treble, got {band!r}")
    if abs(gain_db) > 20.0:
        raise ValidationFailure(f"|gain| must be <= 20 dB, got {gain_db}")
    from scipy.signal import lfilter  # 1.3 s to import; only the shelves need it
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


# effect kind -> f(buffer, factor); the one place an effect name is resolved
EFFECTS = {
    "speed": apply_speed,
    "volume": apply_volume,
    "tempo": apply_tempo,
    "bass": lambda buffer, factor: apply_shelf(buffer, "bass", shelf_gain_db(factor)),
    "treble": lambda buffer, factor: apply_shelf(buffer, "treble", shelf_gain_db(factor)),
    "overdrive": apply_overdrive,
}


def apply_effect(buffer: AudioBuffer, spec: EffectSpec) -> AudioBuffer:
    """Apply `spec` through its kind's entry in EFFECTS (EffectSpec admits no other kind)."""
    return EFFECTS[spec.kind](buffer, spec.factor)
