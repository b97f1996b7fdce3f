"""Log-Mel filterbank front-end.

Pipeline: fix_length -> extract_fbank -> znorm_per_file; the last two return
plain n_frames x n_bands float64 arrays. Under a fixed FbankConfig every
utterance yields the same shape (775 x 23 at the default settings),
z-normalized over all cells of the file.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .audio import AudioBuffer, read_wav
from .errors import EmptyAudio, IoFailure, SampleRateMismatch, ValidationFailure
from .ioutil import read_json, write_json

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
        raise EmptyAudio("cannot fix the length of an empty buffer")
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
        raise SampleRateMismatch(
            f"buffer at {buffer.sample_rate} Hz, config expects {cfg.sample_rate} Hz"
        )
    window = cfg.window_samples
    shift = cfg.shift_samples
    x = buffer.samples
    n_frames = frame_count(x.size, window, shift)
    if n_frames < 1:
        raise EmptyAudio(f"{x.size} samples is shorter than one analysis window")
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
    """Single-file feature cache plus a JSON sidecar recording the
    FbankConfig. A sidecar mismatch invalidates the cache.

    Record layout: u32 id length, id bytes, u32 n_frames, u32 n_bands,
    float32 row-major cells.
    """

    def __init__(self, directory: str | Path, cfg: FbankConfig):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.cfg = cfg
        self.bin_path = self.directory / "features.bin"
        self.sidecar_path = self.directory / "features.json"
        self._index: dict[str, tuple[int, int, int]] = {}
        if self.sidecar_path.exists():
            try:
                sidecar = read_json(self.sidecar_path)
            except ValidationFailure:
                sidecar = None
            if sidecar == cfg.to_json() and self.bin_path.exists():
                self._load_index()
            else:  # config changed: start fresh
                self.bin_path.unlink(missing_ok=True)
        write_json(self.sidecar_path, cfg.to_json())

    def _load_index(self):
        """Index every complete record. A torn tail, left by an append that
        was cut short, is truncated away so its entry is recomputed and the
        next append starts on a record boundary. A record whose id is not
        UTF-8, or whose shape is not the config's (n_frames, n_bands), is
        damage: the file is truncated there in the same way."""
        size = self.bin_path.stat().st_size
        shape = (self.cfg.n_frames, self.cfg.n_bands)
        end = 0
        with open(self.bin_path, "r+b") as fh:
            while True:
                head = fh.read(4)
                if len(head) < 4:
                    break
                (id_len,) = struct.unpack("<I", head)
                id_bytes = fh.read(id_len)
                dims = fh.read(8)
                if len(id_bytes) < id_len or len(dims) < 8:
                    break
                n_frames, n_bands = struct.unpack("<II", dims)
                offset = fh.tell()
                if (n_frames, n_bands) != shape or offset + 4 * n_frames * n_bands > size:
                    break
                try:
                    utt_id = id_bytes.decode("utf-8")
                except UnicodeDecodeError:
                    break
                end = fh.seek(4 * n_frames * n_bands, 1)
                self._index[utt_id] = (offset, n_frames, n_bands)
            fh.truncate(end)

    def get(self, utt_id: str) -> np.ndarray | None:
        """The cached features, or None when there are none or a cell is
        not finite; the caller then computes them again."""
        entry = self._index.get(utt_id)
        if entry is None:
            return None
        offset, n_frames, n_bands = entry
        with open(self.bin_path, "rb") as fh:
            fh.seek(offset)
            data = fh.read(4 * n_frames * n_bands)
        values = np.frombuffer(data, dtype="<f4").reshape(n_frames, n_bands).copy()
        return values if np.isfinite(values).all() else None

    def put(self, utt_id: str, values: np.ndarray) -> None:
        encoded = values.astype("<f4").tobytes()
        idb = utt_id.encode("utf-8")
        with open(self.bin_path, "ab") as fh:
            fh.write(struct.pack("<I", len(idb)))
            fh.write(idb)
            fh.write(struct.pack("<II", values.shape[0], values.shape[1]))
            offset = fh.tell()
            fh.write(encoded)
        self._index[utt_id] = (offset, values.shape[0], values.shape[1])

    def __contains__(self, utt_id: str) -> bool:
        return utt_id in self._index


class FeatureStore:
    """Feature provider for training/evaluation: computes the front-end per
    utterance on demand, optionally backed by a FeatureCache."""

    def __init__(self, manifest, cfg: FbankConfig, cache_dir: str | Path | None = None):
        self.cfg = cfg
        self._records = {r.id: r for r in manifest.records}
        self._cache = FeatureCache(cache_dir, cfg) if cache_dir else None
        self._memo: dict[str, np.ndarray] = {}

    def get(self, utt_id: str) -> np.ndarray:
        hit = self._memo.get(utt_id)
        if hit is not None:
            return hit
        if self._cache is not None:
            cached = self._cache.get(utt_id)
            if cached is not None:
                self._memo[utt_id] = cached
                return cached
        record = self._records.get(utt_id)
        if record is None:
            raise IoFailure(f"utterance {utt_id!r} not present in the manifest")
        buffer = read_wav(record.audio_path)
        values = compute_features(buffer, self.cfg).astype(np.float32)
        if self._cache is not None:
            self._cache.put(utt_id, values)
        self._memo[utt_id] = values
        return values

    def batch(self, utt_ids) -> np.ndarray:
        return np.stack([self.get(u) for u in utt_ids], dtype=np.float32)
