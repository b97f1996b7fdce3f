"""Log-Mel filterbank front-end.

Pipeline: fix_length -> extract_fbank -> znorm_per_file; the last two return
plain n_frames x n_bands float64 arrays. Under a fixed FbankConfig every
utterance yields the same shape (775 x 23 at the default settings),
z-normalized over all cells of the file.
"""

from __future__ import annotations

import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .audio import AudioBuffer
from .errors import EmptyAudio, IoFailure, SampleRateMismatch, ValidationFailure, from_fields
from .ioutil import read_json, write_json


@dataclass(frozen=True)
class FbankConfig:
    window_ms: float = 26.0
    shift_ms: float = 9.0
    n_bands: int = 23
    max_seconds: float = 7.0
    sample_rate: int = 16000
    fft_size: int = 512
    log_floor: float = 1e-10
    per_band_norm: bool = False  # sensitivity-study variant of the file-global z-norm

    def __post_init__(self):
        if not (self.window_ms > self.shift_ms > 0):
            raise ValidationFailure("need window_ms > shift_ms > 0")
        if self.n_bands < 1:
            raise ValidationFailure("n_bands must be >= 1")
        if self.fft_size < self.window_samples:
            raise ValidationFailure("fft_size must cover the analysis window")
        if self.max_seconds <= 0 or self.sample_rate <= 0:
            raise ValidationFailure("max_seconds and sample_rate must be positive")

    @property
    def window_samples(self) -> int:
        return int(round(self.window_ms * self.sample_rate / 1000.0))

    @property
    def shift_samples(self) -> int:
        return int(round(self.shift_ms * self.sample_rate / 1000.0))

    @property
    def max_samples(self) -> int:
        return int(round(self.max_seconds * self.sample_rate))

    @property
    def n_frames(self) -> int:
        return frame_count(self.max_samples, self.window_samples, self.shift_samples)

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "FbankConfig":
        return from_fields(cls, obj, "features")


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


def mel_filterbank(cfg: FbankConfig) -> np.ndarray:
    """Triangular Mel filters, shape [n_bands, fft_size//2 + 1], spanning
    0 Hz to Nyquist. Adjacent triangles share edges."""
    nyquist = cfg.sample_rate / 2.0
    mel_points = np.linspace(hz_to_mel(0.0), hz_to_mel(nyquist), cfg.n_bands + 2)
    hz_points = mel_to_hz(mel_points)
    bin_freqs = np.fft.rfftfreq(cfg.fft_size, d=1.0 / cfg.sample_rate)
    bank = np.zeros((cfg.n_bands, bin_freqs.size), dtype=np.float64)
    for m in range(cfg.n_bands):
        left, center, right = hz_points[m], hz_points[m + 1], hz_points[m + 2]
        rising = (bin_freqs - left) / (center - left)
        falling = (right - bin_freqs) / (right - center)
        bank[m] = np.clip(np.minimum(rising, falling), 0.0, None)
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
    spectrum = np.fft.rfft(frames * ham, n=cfg.fft_size, axis=1)
    power = spectrum.real**2 + spectrum.imag**2
    mel_energy = power @ mel_filterbank(cfg).T
    return np.log(np.maximum(mel_energy, cfg.log_floor))


def znorm_per_file(features: np.ndarray, per_band: bool = False) -> np.ndarray:
    """Subtract the file-global mean and divide by the file-global population
    std (per band instead when `per_band`) into a new float64 array. A
    constant input maps to zeros."""
    x = np.array(features, dtype=np.float64)
    if per_band:
        mean = x.mean(axis=0, keepdims=True)
        std = x.std(axis=0, keepdims=True)
        return np.where(std < 1e-12, 0.0, (x - mean) / np.where(std < 1e-12, 1.0, std))
    std = x.std()
    if std < 1e-12:
        return np.zeros_like(x)
    return (x - x.mean()) / std


def compute_features(buffer: AudioBuffer, cfg: FbankConfig) -> np.ndarray:
    """Full front-end: fix_length -> extract_fbank -> znorm_per_file."""
    raw = extract_fbank(fix_length(buffer, cfg), cfg)
    return znorm_per_file(raw, per_band=cfg.per_band_norm)


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
            else:
                # config changed: start fresh
                if self.bin_path.exists():
                    self.bin_path.unlink()
        write_json(self.sidecar_path, cfg.to_json())

    def _load_index(self):
        """Index every complete record. A torn tail, left by an append that
        was cut short, is truncated away so its entry is recomputed and the
        next append starts on a record boundary."""
        size = self.bin_path.stat().st_size
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
                if offset + 4 * n_frames * n_bands > size:
                    break
                end = fh.seek(4 * n_frames * n_bands, 1)
                self._index[id_bytes.decode("utf-8")] = (offset, n_frames, n_bands)
            fh.truncate(end)

    def get(self, utt_id: str) -> np.ndarray | None:
        entry = self._index.get(utt_id)
        if entry is None:
            return None
        offset, n_frames, n_bands = entry
        with open(self.bin_path, "rb") as fh:
            fh.seek(offset)
            data = fh.read(4 * n_frames * n_bands)
        return np.frombuffer(data, dtype="<f4").reshape(n_frames, n_bands).copy()

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
        from .audio import read_wav  # local import keeps module load cheap

        self._read_wav = read_wav
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
        buffer = self._read_wav(record.audio_path)
        values = compute_features(buffer, self.cfg).astype(np.float32)
        if self._cache is not None:
            self._cache.put(utt_id, values)
        self._memo[utt_id] = values
        return values

    def batch(self, utt_ids) -> np.ndarray:
        return np.stack([self.get(u) for u in utt_ids], dtype=np.float32)
