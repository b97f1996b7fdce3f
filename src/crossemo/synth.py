"""Synthetic emotional-speech-like corpora for desk-scale experiments.

Class identity lives in prosody-like parameters (pitch contour, amplitude
envelope, noise level, spectral tilt); speaker identity lives in spectral
shaping (formant-like resonance positions and a voice pitch multiplier).
Deriving a timbre-shifted sibling corpus therefore moves exactly the axis a
speaker/recording change would move, while class signatures stay put, so
matched/mismatched gaps emerge for the right reason.

Generation is deterministic: every utterance is rendered from an RNG seeded
by a stable hash of (spec seed, utterance id), so re-running a spec yields
byte-identical WAV files. The voiced part is a sum of up to 40 harmonics,
evaluated with a rotating-phasor recurrence (J. O. Smith III, "Physical Audio
Signal Processing", Digital Sinusoid Generators) rather than one `sin` per
harmonic. On every corpus measured it stayed within 3.5e-12 of the direct
sum, and tests hold it to 1e-9; one PCM16 step is 3.1e-5, so the WAV bytes
on those corpora are the ones the direct sum gives.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .audio import AudioBuffer, write_wav
from .corpus import EMOTIONS_4, CorpusManifest, UtteranceRecord, save_manifest
from .errors import ValidationFailure, from_fields
from .ioutil import read_json, stable_hash64, write_json


@dataclass(frozen=True)
class ClassSignature:
    f0_hz: float
    f0_slope: float  # Hz per second
    attack_s: float
    decay_s: float
    snr_db: float
    tilt: float  # harmonic rolloff exponent: higher = darker
    tremolo_hz: float = 0.0
    tremolo_depth: float = 0.0


# class cues are chosen to survive frequency scaling (speed perturbation,
# timbre-shifted siblings): noise level and spectral tilt are scale-invariant,
# attack times of adjacent classes differ by >= 3x, tremolo marks happy
DEFAULT_SIGNATURES = {
    "angry": ClassSignature(215.0, 5.0, 0.012, 0.08, 8.0, 0.45),
    "happy": ClassSignature(275.0, 95.0, 0.04, 0.15, 20.0, 1.0, 5.0, 0.4),
    "sad": ClassSignature(125.0, -35.0, 0.36, 0.45, 26.0, 1.8),
    "neutral": ClassSignature(175.0, 0.0, 0.12, 0.20, 34.0, 1.2),
}

# samples per pass of the harmonic recurrence: each complex128 block
# temporary (64 KB) stays below glibc's mmap threshold, so no pass maps and
# unmaps pages
SYNTH_BLOCK = 4096

_BASE_FORMANTS = (500.0, 1500.0, 2500.0)
_BASE_BANDWIDTHS = (90.0, 140.0, 220.0)
_FORMANT_GAINS = (1.0, 0.63, 0.35)


@dataclass(frozen=True)
class SynthCorpusSpec:
    name: str
    n_speakers: int = 4
    utterances_per_class_per_speaker: int = 10
    classes: tuple[str, ...] = EMOTIONS_4
    duration_range: tuple[float, float] = (1.0, 1.4)
    seed: int = 0
    speaker_timbre_spread: float = 0.08
    timbre_scale: float = 1.0
    pitch_scale: float = 1.0
    reverb_seconds: float = 0.0
    sample_rate: int = 16000
    signatures: dict = field(default_factory=lambda: dict(DEFAULT_SIGNATURES))

    def __post_init__(self):
        object.__setattr__(self, "classes", tuple(self.classes))
        object.__setattr__(self, "duration_range", tuple(self.duration_range))
        if self.n_speakers < 1 or self.utterances_per_class_per_speaker < 1:
            raise ValidationFailure("speaker and utterance counts must be >= 1")
        if not self.sample_rate >= 1:
            raise ValidationFailure(f"sample_rate must be >= 1, got {self.sample_rate}")
        lo, hi = self.duration_range
        if not (0.5 < lo <= hi <= 10.0):
            raise ValidationFailure("durations must lie within (0.5, 10] seconds")
        for cls in self.classes:
            if cls not in self.signatures:
                raise ValidationFailure(f"no class signature for {cls!r}")

    def to_json(self) -> dict:
        obj = asdict(self)
        obj["classes"] = list(self.classes)
        obj["duration_range"] = list(self.duration_range)
        obj["signatures"] = {c: asdict(s) for c, s in self.signatures.items()}
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "SynthCorpusSpec":
        obj = dict(obj)
        if "signatures" in obj:
            obj["signatures"] = {
                c: from_fields(ClassSignature, s, "synth signature")
                for c, s in obj["signatures"].items()
            }
        return from_fields(cls, obj, "synth")


def load_spec(path: str | Path) -> SynthCorpusSpec:
    return SynthCorpusSpec.from_json(read_json(path))


def derive_shifted_corpus(
    spec: SynthCorpusSpec, timbre_shift: float, name: str | None = None
) -> SynthCorpusSpec:
    """A "mismatched" sibling: same class signatures and counts, new speaker
    ids (the name feeds the speaker hash) with formant positions scaled by
    (1 + timbre_shift) and voice pitch by (1 + timbre_shift/2)."""
    new_name = name or f"{spec.name}-shift"
    return replace(
        spec,
        name=new_name,
        timbre_scale=spec.timbre_scale * (1.0 + timbre_shift),
        pitch_scale=spec.pitch_scale * (1.0 + 0.5 * timbre_shift),
    )


@dataclass(frozen=True)
class SpeakerVoice:
    formants: tuple
    bandwidths: tuple
    gains: tuple
    pitch_mult: float


def _speaker_voice(spec: SynthCorpusSpec, speaker_id: str) -> SpeakerVoice:
    rng = np.random.default_rng(stable_hash64(spec.seed, "speaker", speaker_id))
    u = rng.uniform(-1.0, 1.0, size=7)
    spread = spec.speaker_timbre_spread
    formants = tuple(
        spec.timbre_scale * f * (1.0 + spread * u[i]) for i, f in enumerate(_BASE_FORMANTS)
    )
    gains = tuple(g * (1.0 + 0.15 * u[3 + i]) for i, g in enumerate(_FORMANT_GAINS))
    # keep per-speaker pitch variation tighter than the cross-corpus shift
    pitch_mult = spec.pitch_scale * (1.0 + 0.06 * u[6])
    bandwidths = tuple(b * spec.timbre_scale for b in _BASE_BANDWIDTHS)
    return SpeakerVoice(formants, bandwidths, gains, pitch_mult)


def _spectral_envelope(freqs: np.ndarray, voice: SpeakerVoice) -> np.ndarray:
    env = np.full_like(freqs, 0.05)
    for f0, bw, g in zip(voice.formants, voice.bandwidths, voice.gains):
        env += g * np.exp(-0.5 * ((freqs - f0) / bw) ** 2)
    return env


def _render_utterance(
    spec: SynthCorpusSpec, voice: SpeakerVoice, sig: ClassSignature, utt_id: str
) -> np.ndarray:
    """One utterance as float64 samples in [-0.75, 0.75].

    The harmonic sum sum_k a_k sin(k*phase + phi_k) is taken as
    Im sum_k (a_k e^{i phi_k}) z^k with z = e^{i phase}: one complex `exp`
    per sample, then one complex multiply-add per harmonic, over blocks of
    SYNTH_BLOCK samples."""
    rng = np.random.default_rng(stable_hash64(spec.seed, "utterance", utt_id))
    sr = spec.sample_rate
    duration = rng.uniform(*spec.duration_range)
    n = int(round(duration * sr))
    t = np.arange(n) / sr

    f0_start = sig.f0_hz * voice.pitch_mult * (1.0 + 0.05 * rng.uniform(-1, 1))
    slope = sig.f0_slope * (1.0 + 0.2 * rng.uniform(-1, 1))
    f0 = np.maximum(f0_start + slope * t, 50.0)
    phase = 2.0 * np.pi * np.cumsum(f0) / sr

    f0_mean = float(f0.mean())
    n_harmonics = max(1, min(40, int(7600.0 / f0_mean)))
    k = np.arange(1, n_harmonics + 1)
    amps = _spectral_envelope(k * f0_mean, voice) / k**sig.tilt
    # one draw per harmonic, in harmonic order: the stream the noise draws follow
    coeffs = amps * np.exp(1j * rng.uniform(0, 2 * np.pi, size=n_harmonics))
    x = np.empty(n)
    for start in range(0, n, SYNTH_BLOCK):
        e1 = np.exp(1j * phase[start : start + SYNTH_BLOCK])
        z = np.ones_like(e1)
        acc = np.zeros_like(e1)
        for c in coeffs:
            z *= e1  # z = e^{ik*phase}
            acc += c * z
        x[start : start + SYNTH_BLOCK] = acc.imag

    envelope = (1.0 - np.exp(-t / sig.attack_s)) * (
        1.0 - np.exp(-np.maximum(duration - t, 0.0) / sig.decay_s)
    )
    if sig.tremolo_depth > 0:
        envelope = envelope * (1.0 + sig.tremolo_depth * np.sin(2 * np.pi * sig.tremolo_hz * t))
    x = x * envelope

    rms = float(np.sqrt(np.mean(x**2))) or 1.0
    noise = rng.normal(0.0, 1.0, size=n)
    x = x + noise * rms * 10.0 ** (-sig.snr_db / 20.0)

    if spec.reverb_seconds > 0:
        ir_len = int(spec.reverb_seconds * sr)
        ir = rng.normal(0.0, 1.0, size=ir_len) * np.exp(-6.0 * np.arange(ir_len) / ir_len)
        ir[0] = 1.0
        x = np.convolve(x, ir)[:n]  # tail truncated at the nominal duration

    peak = float(np.max(np.abs(x))) or 1.0
    return np.clip(0.75 * x / peak, -1.0, 1.0)


def generate_corpus(spec: SynthCorpusSpec, out_dir: str | Path) -> CorpusManifest:
    """Render every utterance to WAV under `out_dir` and write
    manifest.jsonl next to them. Class balance is exact by construction."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = []
    for s in range(spec.n_speakers):
        speaker_id = f"{spec.name}_s{s:02d}"
        voice = _speaker_voice(spec, speaker_id)
        for cls in spec.classes:
            for j in range(spec.utterances_per_class_per_speaker):
                utt_id = f"{spec.name}_{cls}_{speaker_id}_u{j:03d}"
                samples = _render_utterance(spec, voice, spec.signatures[cls], utt_id)
                path = out_dir / f"{utt_id}.wav"
                write_wav(AudioBuffer(samples, spec.sample_rate), path)
                records.append(
                    UtteranceRecord(
                        id=utt_id,
                        audio_path=str(path),
                        corpus=spec.name,
                        speaker=speaker_id,
                        style="acted",
                        emotion=cls,
                    )
                )
    manifest = CorpusManifest(name=spec.name, records=tuple(records))
    save_manifest(manifest, out_dir / "manifest.jsonl")
    write_json(out_dir / "spec.json", spec.to_json())
    return manifest
