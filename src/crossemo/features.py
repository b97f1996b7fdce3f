"""Log-Mel filterbank front-end.

Pipeline: fix_length -> extract_fbank -> znorm_per_file; the last two return
plain n_frames x n_bands float64 arrays. Under a fixed FbankConfig every
utterance yields the same shape (775 x 23 at the default settings),
z-normalized over all cells of the file.
"""

from __future__ import annotations

import functools
import os
import weakref
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .audio import AudioBuffer, read_wav
from .errors import RuntimeFailure, ValidationFailure
from .ioutil import config_digest, read_json, write_json

# the paper's front-end: 26-ms Hamming windows every 9 ms, a 512-point FFT,
# and a floor on the Mel energies before the natural log
WINDOW_MS = 26.0
SHIFT_MS = 9.0
FFT_SIZE = 512
LOG_FLOOR = 1e-10


@dataclass(frozen=True)
class FbankConfig:
    n_bands: int = 23
    max_seconds: float = 7.0
    sample_rate: int = 16000

    def __post_init__(self):
        if self.n_bands < 1 or self.max_seconds <= 0 or self.sample_rate <= 0:
            raise ValidationFailure("n_bands, max_seconds and sample_rate must be positive")
        if FFT_SIZE < self.window_samples or self.shift_samples < 1:
            raise ValidationFailure(f"at {self.sample_rate} Hz the window exceeds the FFT size "
                                    "or the shift is under one sample")

    @property
    def window_samples(self) -> int:
        return int(round(WINDOW_MS * self.sample_rate / 1000.0))

    @property
    def shift_samples(self) -> int:
        return int(round(SHIFT_MS * self.sample_rate / 1000.0))

    @property
    def max_samples(self) -> int:
        return int(round(self.max_seconds * self.sample_rate))

    @property
    def n_frames(self) -> int:
        return frame_count(self.max_samples, self.window_samples, self.shift_samples)

    def to_json(self) -> dict:
        # kept, unlike other codecs, for the cache's sidecar and the benchmark's set-up
        return asdict(self)


def frame_count(n_samples: int, window: int, shift: int) -> int:
    """Number of full analysis frames: floor((N - W)/H) + 1 for N >= W."""
    if n_samples < window:
        return 0
    return (n_samples - window) // shift + 1


def fix_length(buffer: AudioBuffer, cfg: FbankConfig) -> AudioBuffer:
    """Truncate at the end or zero-pad at the end to exactly
    cfg.max_samples samples."""
    if buffer.n_samples == 0:
        raise ValidationFailure("cannot fix the length of an empty buffer")
    n = cfg.max_samples
    x = buffer.samples
    if x.size >= n:
        out = x[:n].copy()
    else:
        out = np.zeros(n, dtype=np.float64)
        out[: x.size] = x
    return AudioBuffer(out, buffer.sample_rate)


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@functools.cache
def mel_filterbank(cfg: FbankConfig) -> np.ndarray:
    """Triangular Mel filters, shape [n_bands, FFT_SIZE//2 + 1], spanning
    0 Hz to Nyquist. Adjacent triangles share edges. Built once per config;
    every caller shares the one read-only array."""
    nyquist = cfg.sample_rate / 2.0
    mel_points = np.linspace(hz_to_mel(0.0), hz_to_mel(nyquist), cfg.n_bands + 2)
    hz_points = mel_to_hz(mel_points)
    bin_freqs = np.fft.rfftfreq(FFT_SIZE, d=1.0 / cfg.sample_rate)
    bank = np.zeros((cfg.n_bands, bin_freqs.size), dtype=np.float64)
    for m in range(cfg.n_bands):
        left, center, right = hz_points[m], hz_points[m + 1], hz_points[m + 2]
        rising = (bin_freqs - left) / (center - left)
        falling = (right - bin_freqs) / (right - center)
        bank[m] = np.clip(np.minimum(rising, falling), 0.0, None)
    bank.flags.writeable = False
    return bank


def extract_fbank(buffer: AudioBuffer, cfg: FbankConfig) -> np.ndarray:
    """Hamming-windowed frames -> power spectrum -> Mel energies -> natural
    log with a floor, n_frames x n_bands. No pre-emphasis, no dithering."""
    if buffer.sample_rate != cfg.sample_rate:
        raise ValidationFailure(
            f"buffer at {buffer.sample_rate} Hz, config expects {cfg.sample_rate} Hz"
        )
    window = cfg.window_samples
    shift = cfg.shift_samples
    x = buffer.samples
    n_frames = frame_count(x.size, window, shift)
    if n_frames < 1:
        raise ValidationFailure(f"{x.size} samples is shorter than one analysis window")
    frames = np.lib.stride_tricks.sliding_window_view(x, window)[::shift][:n_frames]
    ham = np.hamming(window)
    spectrum = np.fft.rfft(frames * ham, n=FFT_SIZE, axis=1)
    power = spectrum.real**2 + spectrum.imag**2
    mel_energy = power @ mel_filterbank(cfg).T
    return np.log(np.maximum(mel_energy, LOG_FLOOR))


def znorm_per_file(features: np.ndarray) -> np.ndarray:
    """Subtract the file-global mean and divide by the file-global population
    std into a new float64 array. A constant input maps to zeros."""
    x = np.array(features, dtype=np.float64)
    std = x.std()
    if std < 1e-12:
        return np.zeros_like(x)
    return (x - x.mean()) / std


def compute_features(buffer: AudioBuffer, cfg: FbankConfig) -> np.ndarray:
    """Full front-end: fix_length -> extract_fbank -> znorm_per_file."""
    raw = extract_fbank(fix_length(buffer, cfg), cfg)
    return znorm_per_file(raw)


class FeatureCache:
    """Fixed-row feature cache for one manifest's ids, plus a JSON sidecar.

    `features.bin` holds one record per id, at offset i * record_size for
    the i-th id in sorted order: the n_frames x n_bands `<f4` cells in row
    order, the 4-byte marker `ROW_MARKER`, then the little-endian
    `zlib.crc32` of the cells. The file is sized to every record on open,
    sparse and never growing. A never-written row reads as zeros and lacks
    the marker; a torn or damaged one fails its CRC. Either way `get`
    returns None and the caller computes the row again.

    `features.json` holds {"features": the FbankConfig, "ids": the
    `config_digest` of the sorted ids}. A cache directory serves one
    manifest: a missing, unreadable or different sidecar, as another
    config or another manifest's ids make it, starts the cache fresh.
    """

    ROW_MARKER = b"FROW"

    def __init__(self, directory: str | Path, cfg: FbankConfig, ids):
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        self.bin_path = directory / "features.bin"
        sidecar_path = directory / "features.json"
        ids = sorted(ids)
        self._rows = {utt_id: i for i, utt_id in enumerate(ids)}
        self._shape = (cfg.n_frames, cfg.n_bands)
        self._record_size = 4 * cfg.n_frames * cfg.n_bands + 8
        sidecar = {"features": cfg.to_json(), "ids": config_digest(ids)}
        try:
            same = sidecar_path.exists() and read_json(sidecar_path) == sidecar
        except ValidationFailure:
            same = False
        if not same:
            self.bin_path.unlink(missing_ok=True)
            write_json(sidecar_path, sidecar)
        self._fd = os.open(self.bin_path, os.O_RDWR | os.O_CREAT, 0o666)
        weakref.finalize(self, os.close, self._fd)
        os.truncate(self._fd, len(ids) * self._record_size)

    def _trailer(self, cells) -> bytes:
        return self.ROW_MARKER + zlib.crc32(cells).to_bytes(4, "little")

    def get(self, utt_id: str) -> np.ndarray | None:
        """The cached features, or None for an id not cached, never
        written, torn or damaged."""
        row = self._rows.get(utt_id)
        if row is None:
            return None
        record = np.empty(self._record_size, dtype=np.uint8)
        cells = record[:-8]
        if (os.preadv(self._fd, [record], row * self._record_size) != record.size
                or record[-8:].tobytes() != self._trailer(cells)):
            return None
        return cells.view("<f4").reshape(self._shape)

    def put(self, utt_id: str, values: np.ndarray) -> None:
        """Write the id's whole record with one positional write."""
        if values.shape != self._shape:
            raise RuntimeFailure(f"features of shape {values.shape} for {utt_id!r}, "
                                 f"the cache holds {self._shape}")
        cells = np.ascontiguousarray(values, dtype="<f4")
        os.pwritev(self._fd, [cells, self._trailer(cells)], self._rows[utt_id] * self._record_size)


class _Memo(dict):
    """The in-process cache of a store without a cache directory."""

    put = dict.__setitem__


class FeatureStore:
    """Feature provider for training/evaluation: computes the front-end per
    utterance on demand and keeps it in a FeatureCache over `cache_dir`, or
    without one in memory."""

    def __init__(self, manifest, cfg: FbankConfig, cache_dir: str | Path | None = None):
        self.cfg = cfg
        self._records = {r.id: r for r in manifest.records}
        self._cache = FeatureCache(cache_dir, cfg, self._records) if cache_dir else _Memo()

    def get(self, utt_id: str) -> np.ndarray:
        values = self._cache.get(utt_id)
        if values is None:
            record = self._records.get(utt_id)
            if record is None:
                raise RuntimeFailure(f"utterance {utt_id!r} not present in the manifest")
            values = compute_features(read_wav(record.audio_path), self.cfg).astype(np.float32)
            self._cache.put(utt_id, values)
        return values

    def batch(self, utt_ids) -> np.ndarray:
        return np.stack([self.get(u) for u in utt_ids], dtype=np.float32)
