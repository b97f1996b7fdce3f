"""Synthetic emotional-speech-like corpora for desk-scale experiments.

Class identity lives in prosody-like parameters (pitch contour, amplitude
envelope, noise level, spectral tilt); speaker identity lives in spectral
shaping (formant-like resonance positions and a voice pitch multiplier).
Deriving a timbre-shifted sibling corpus therefore moves exactly the axis a
speaker/recording change would move, while class signatures stay put, so
matched/mismatched gaps emerge for the right reason.

Generation is deterministic: every utterance is rendered from an RNG seeded
by a stable hash of (spec seed, utterance id), so re-running a spec yields
byte-identical WAV files on one numpy and BLAS build, whichever thread renders
them: `generate_corpus` takes records[0::2] in the caller and records[1::2] on
the ops worker. Across builds the samples agree within rounding, since the
harmonic sum is a matrix product whose summation order is the BLAS library's.

The voiced part is a sum of up to 40 harmonics, taken as a polynomial in the
phasor e^{i phase} and evaluated baby-step/giant-step (Paterson & Stockmeyer,
SIAM J. Comput. 2(1), 1973): a few complex multiplies and one small GEMM per
block of samples rather than one `sin` per harmonic. Over the six benchmark
corpora at seeds 0, 1 and 7 (22.4 M samples) it stayed within 3.5e-12 of
the per-harmonic `sin` loop, a figure set by that loop's own rounding of
k*phase; tests hold it to 1e-9. One PCM16 step is 3.1e-5, so the WAV bytes
on those corpora are the ones the direct sum gives.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .audio import AudioBuffer, write_wav
from .corpus import EMOTIONS_4, CorpusManifest, UtteranceRecord, save_manifest
from .errors import ValidationFailure, from_fields
from .ioutil import read_json, stable_hash64, write_json
from .nn import ops


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

# samples per block of the harmonic sum: its workspace, ceil(sqrt(K)) rows of
# phasor powers and ceil(K/s) rows of GEMM output at 64 KB of complex128 each
# (832 KB at K = 40), is allocated once per utterance and fits a 2-MB L2
# cache while the block's passes sweep it; 2,048- and 8,192-sample blocks
# were no faster
SYNTH_BLOCK = 4096

_BASE_FORMANTS = (500.0, 1500.0, 2500.0)
_BASE_BANDWIDTHS = (90.0, 140.0, 220.0)
_FORMANT_GAINS = (1.0, 0.63, 0.35)
# each speaker's formants sit within +-8 % of the corpus's (timbre-scaled) base
SPEAKER_TIMBRE_SPREAD = 0.08


@dataclass(frozen=True)
class SynthCorpusSpec:
    name: str
    n_speakers: int = 4
    utterances_per_class_per_speaker: int = 10
    classes: tuple[str, ...] = EMOTIONS_4
    duration_range: tuple[float, float] = (1.0, 1.4)
    seed: int = 0
    timbre_scale: float = 1.0
    pitch_scale: float = 1.0
    reverb_seconds: float = 0.0
    sample_rate: int = 16000
    signatures: dict[str, ClassSignature] = field(
        default_factory=lambda: dict(DEFAULT_SIGNATURES)
    )

    def __post_init__(self):
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


def load_spec(path: str | Path) -> SynthCorpusSpec:
    return from_fields(SynthCorpusSpec, read_json(path), "synth")


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
    formants = tuple(
        spec.timbre_scale * f * (1.0 + SPEAKER_TIMBRE_SPREAD * u[i])
        for i, f in enumerate(_BASE_FORMANTS)
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


def _harmonic_sum(coeffs: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """Im sum_{k=1..K} coeffs[k-1] z^k with z = e^{i phase}, per sample.

    Baby-step/giant-step evaluation (Paterson & Stockmeyer, "On the number
    of nonscalar multiplications necessary to evaluate polynomials", SIAM J.
    Comput. 2(1), 1973). With s = ceil(sqrt(K)), m = ceil(K/s) and
    k = g*s + j, the sum is sum_{g<m} w^g (sum_{j=1..s} c_{gs+j} z^j) with
    w = z^s. Per block of SYNTH_BLOCK samples: z from `cos` and `sin`, the
    baby steps z^2..z^s by s-1 complex multiplies, all m inner sums as one
    GEMM `C [m, s] @ Z [s, block]` (C is `coeffs` zero-padded to m*s), then
    Horner in w over the m giant steps. No array grows with K times the
    signal length."""
    n_harmonics = len(coeffs)
    s = math.isqrt(n_harmonics - 1) + 1
    m = -(-n_harmonics // s)
    c = np.zeros(m * s, dtype=np.complex128)
    c[:n_harmonics] = coeffs
    c = c.reshape(m, s)
    width = min(len(phase), SYNTH_BLOCK)
    powers = np.empty((s, width), dtype=np.complex128)
    sums = np.empty((m, width), dtype=np.complex128)
    out = np.empty(len(phase))
    for start in range(0, len(phase), SYNTH_BLOCK):
        block = phase[start : start + SYNTH_BLOCK]
        z = powers[:, : len(block)]
        p = sums[:, : len(block)]
        np.cos(block, out=z[0].real)
        np.sin(block, out=z[0].imag)
        for j in range(1, s):
            np.multiply(z[j - 1], z[0], out=z[j])
        np.matmul(c, z, out=p)
        acc = p[m - 1]
        for g in range(m - 2, -1, -1):
            acc *= z[s - 1]
            acc += p[g]
        out[start : start + len(block)] = acc.imag
    return out


def _render_utterance(
    spec: SynthCorpusSpec, voice: SpeakerVoice, sig: ClassSignature, utt_id: str
) -> np.ndarray:
    """One utterance as float64 samples in [-0.75, 0.75].

    The harmonic sum sum_k a_k sin(k*phase + phi_k) is taken as
    Im sum_k (a_k e^{i phi_k}) z^k with z = e^{i phase}, by `_harmonic_sum`.
    The rest runs in place on five full-length buffers. Each step keeps the
    operation order of the plain-expression renderer the tests compare
    against (`sin_loop_render`), since the WAV bytes depend on it."""
    rng = np.random.default_rng(stable_hash64(spec.seed, "utterance", utt_id))
    sr = spec.sample_rate
    duration = rng.uniform(*spec.duration_range)
    n = int(round(duration * sr))
    t = np.arange(n, dtype=np.float64)
    t /= sr

    f0_start = sig.f0_hz * voice.pitch_mult * (1.0 + 0.05 * rng.uniform(-1, 1))
    slope = sig.f0_slope * (1.0 + 0.2 * rng.uniform(-1, 1))
    f0 = np.multiply(t, slope)
    f0 += f0_start
    np.maximum(f0, 50.0, out=f0)
    f0_mean = float(f0.mean())
    phase = np.cumsum(f0, out=f0)
    phase *= 2.0 * np.pi
    phase /= sr

    n_harmonics = max(1, min(40, int(7600.0 / f0_mean)))
    k = np.arange(1, n_harmonics + 1)
    amps = _spectral_envelope(k * f0_mean, voice) / k**sig.tilt
    # one draw per harmonic, in harmonic order: the stream the noise draws follow
    coeffs = amps * np.exp(1j * rng.uniform(0, 2 * np.pi, size=n_harmonics))
    x = _harmonic_sum(coeffs, phase)

    # envelope = (1 - exp(-t/attack)) * (1 - exp(-max(duration - t, 0)/decay))
    envelope = np.negative(t, out=phase)
    envelope /= sig.attack_s
    np.exp(envelope, out=envelope)
    np.subtract(1.0, envelope, out=envelope)
    scratch = np.subtract(duration, t)
    np.maximum(scratch, 0.0, out=scratch)
    np.negative(scratch, out=scratch)
    scratch /= sig.decay_s
    np.exp(scratch, out=scratch)
    np.subtract(1.0, scratch, out=scratch)
    envelope *= scratch
    if sig.tremolo_depth > 0:
        # envelope *= 1 + depth * sin(2 pi tremolo_hz t)
        np.multiply(t, 2 * np.pi * sig.tremolo_hz, out=scratch)
        np.sin(scratch, out=scratch)
        scratch *= sig.tremolo_depth
        scratch += 1.0
        envelope *= scratch
    x *= envelope

    rms = float(np.sqrt(np.mean(np.square(x, out=scratch)))) or 1.0
    noise = rng.normal(0.0, 1.0, size=n)
    noise *= rms
    noise *= 10.0 ** (-sig.snr_db / 20.0)
    x += noise

    if spec.reverb_seconds > 0:
        ir_len = int(spec.reverb_seconds * sr)
        ir = rng.normal(0.0, 1.0, size=ir_len) * np.exp(-6.0 * np.arange(ir_len) / ir_len)
        ir[0] = 1.0
        x = np.convolve(x, ir)[:n]  # tail truncated at the nominal duration

    peak = float(np.max(np.abs(x, out=scratch))) or 1.0
    x *= 0.75
    x /= peak
    return np.clip(x, -1.0, 1.0, out=x)


def corpus_manifest(spec: SynthCorpusSpec, out_dir: str | Path) -> CorpusManifest:
    """The records `generate_corpus` writes under `out_dir`, from the spec
    alone, with nothing rendered. Class balance is exact by construction."""
    records = []
    for s in range(spec.n_speakers):
        speaker_id = f"{spec.name}_s{s:02d}"
        for cls in spec.classes:
            for j in range(spec.utterances_per_class_per_speaker):
                utt_id = f"{spec.name}_{cls}_{speaker_id}_u{j:03d}"
                records.append(UtteranceRecord(
                    id=utt_id, audio_path=str(Path(out_dir) / f"{utt_id}.wav"),
                    corpus=spec.name, speaker=speaker_id, style="acted", emotion=cls))
    return CorpusManifest(name=spec.name, records=tuple(records))


def generate_corpus(spec: SynthCorpusSpec, out_dir: str | Path) -> CorpusManifest:
    """Render each record of `corpus_manifest`; then, if none failed, write
    manifest.jsonl and spec.json. The caller writes every WAV, the worker's
    after each of its own renders: a `write_wav` wrapper may keep one span
    stack, as perfbench's tracer does. A failure stops both halves."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = corpus_manifest(spec, out_dir)
    threaded = ops._cores() >= 2 and len(manifest) >= 2
    rendered, failed = [], []  # the caller alone pops; list calls are atomic

    def run(k):
        try:
            for r in manifest.records[k::2]:
                if failed:
                    return
                voice = _speaker_voice(spec, r.speaker)
                samples = _render_utterance(spec, voice, spec.signatures[r.emotion], r.id)
                rendered.append((AudioBuffer(samples, spec.sample_rate), r.audio_path))
                while rendered and (k == 0 or not threaded):
                    write_wav(*rendered.pop(0))
        except BaseException:
            failed.append(k)
            raise

    ops._run_pair(run, threaded)
    while rendered:
        write_wav(*rendered.pop(0))
    save_manifest(manifest, out_dir / "manifest.jsonl")
    write_json(out_dir / "spec.json", asdict(spec))  # tuples are written as JSON arrays
    return manifest
