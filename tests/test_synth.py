import sys
import threading
import time
import tracemalloc
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from crossemo import synth
from crossemo.audio import PCM16_SCALE, read_wav
from crossemo.corpus import load_manifest
from crossemo.errors import RuntimeFailure, ValidationFailure, from_fields
from crossemo.features import FbankConfig, compute_features
from crossemo.ioutil import sha256_file, stable_hash64
from crossemo.nn import ops
from crossemo.synth import (
    ClassSignature,
    SynthCorpusSpec,
    derive_shifted_corpus,
    generate_corpus,
    load_spec,
)


class TestSpec:
    def test_counts_validation(self):
        with pytest.raises(ValidationFailure):
            SynthCorpusSpec(name="x", n_speakers=0)

    def test_duration_bounds(self):
        with pytest.raises(ValidationFailure):
            SynthCorpusSpec(name="x", duration_range=(0.2, 0.4))
        with pytest.raises(ValidationFailure):
            SynthCorpusSpec(name="x", duration_range=(2.0, 11.0))

    def test_json_round_trip(self):
        spec = SynthCorpusSpec(name="rt", n_speakers=3, seed=5)
        back = from_fields(SynthCorpusSpec, asdict(spec), "synth")
        assert back == spec


class TestGenerate:
    def test_counts_and_balance(self, tmp_path):
        spec = SynthCorpusSpec(name="g", n_speakers=2, utterances_per_class_per_speaker=10, seed=1)
        manifest = generate_corpus(spec, tmp_path)
        assert len(manifest) == 80
        assert set(manifest.class_counts.values()) == {20}
        assert len(list(tmp_path.glob("*.wav"))) == 80

    def test_deterministic_bytes(self, tmp_path):
        spec = SynthCorpusSpec(name="d", n_speakers=1, utterances_per_class_per_speaker=2, seed=3)
        m1 = generate_corpus(spec, tmp_path / "a")
        m2 = generate_corpus(spec, tmp_path / "b")
        for r1, r2 in zip(m1.records, m2.records):
            assert sha256_file(r1.audio_path) == sha256_file(r2.audio_path)

    def test_audio_contract(self, tmp_path):
        spec = SynthCorpusSpec(name="c", n_speakers=1, utterances_per_class_per_speaker=1, seed=2)
        manifest = generate_corpus(spec, tmp_path)
        for record in manifest.records:
            buf = read_wav(record.audio_path)
            assert buf.sample_rate == 16000
            assert np.max(np.abs(buf.samples)) <= 1.0
            assert 1.0 <= buf.duration <= 1.4 + 1e-3

    def test_manifest_valid_and_loadable(self, tmp_path):
        spec = SynthCorpusSpec(name="m", n_speakers=2, utterances_per_class_per_speaker=1, seed=4)
        generate_corpus(spec, tmp_path)
        manifest = load_manifest(tmp_path / "manifest.jsonl")
        assert manifest.name == "m"
        assert len(manifest) == 8
        assert all(r.emotion in spec.classes for r in manifest.records)

    def test_class_separability_on_reference_spec(self, tmp_path, desk_fbank):
        from crossemo.config import reference_synth_spec_dict

        spec = from_fields(SynthCorpusSpec, reference_synth_spec_dict(), "synth")
        manifest = generate_corpus(spec, tmp_path)
        means = {}
        for cls in spec.classes:
            vecs = [
                compute_features(read_wav(r.audio_path), desk_fbank).mean(axis=0)
                for r in manifest.records
                if r.emotion == cls
            ]
            means[cls] = np.mean(vecs, axis=0)
        classes = list(spec.classes)
        for i, a in enumerate(classes):
            for b in classes[i + 1 :]:
                distance = float(np.sqrt(np.mean((means[a] - means[b]) ** 2)))
                assert distance >= 0.5, f"{a} vs {b}: {distance}"


def sin_loop_render(spec, voice, sig, utt_id):
    """The renderer as one float64 `np.sin` per harmonic: the oracle for the
    phasor recurrence in `synth._render_utterance`."""
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
    x = np.zeros(n)
    for k in range(1, n_harmonics + 1):
        amp = synth._spectral_envelope(np.array([k * f0_mean]), voice)[0] / k**sig.tilt
        x += amp * np.sin(k * phase + rng.uniform(0, 2 * np.pi))

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
        x = np.convolve(x, ir)[:n]

    peak = float(np.max(np.abs(x))) or 1.0
    return np.clip(0.75 * x / peak, -1.0, 1.0)


def pcm16(x):
    return np.rint(np.clip(x, -1.0, 1.0) * PCM16_SCALE).astype(np.int32)


class TestRendererOracle:
    """The phasor recurrence against the per-harmonic `sin` loop: the float64
    signal within 1e-9 and every PCM16 sample the same."""

    ONE_HARMONIC = ClassSignature(5000.0, 0.0, 0.01, 0.1, 20.0, 1.0)

    @staticmethod
    def check(spec, classes=None, n_utts=2):
        for cls in classes or spec.classes:
            sig = spec.signatures[cls]
            for s in range(min(spec.n_speakers, 2)):
                speaker_id = f"{spec.name}_s{s:02d}"
                voice = synth._speaker_voice(spec, speaker_id)
                for j in range(n_utts):
                    utt_id = f"{spec.name}_{cls}_{speaker_id}_u{j:03d}"
                    got = synth._render_utterance(spec, voice, sig, utt_id)
                    want = sin_loop_render(spec, voice, sig, utt_id)
                    assert got.shape == want.shape
                    np.testing.assert_allclose(got, want, rtol=0, atol=1e-9, err_msg=utt_id)
                    np.testing.assert_array_equal(pcm16(got), pcm16(want), err_msg=utt_id)

    def test_reference_spec(self):
        from crossemo.config import reference_synth_spec_dict

        spec = from_fields(
            SynthCorpusSpec, {**reference_synth_spec_dict(), "duration_range": [1.0, 1.4]}, "synth"
        )
        self.check(spec)

    def test_long_utterances_span_many_blocks(self):
        spec = SynthCorpusSpec(name="long", n_speakers=1, duration_range=(7.0, 7.0), seed=8)
        n = int(round(7.0 * spec.sample_rate))
        assert n > 20 * synth.SYNTH_BLOCK and n % synth.SYNTH_BLOCK
        self.check(spec, n_utts=1)

    @pytest.mark.parametrize("sample_rate", [
        synth.SYNTH_BLOCK,  # exactly one block
        2 * synth.SYNTH_BLOCK,  # exactly two
        synth.SYNTH_BLOCK + 1,  # one block and one sample
    ])
    def test_block_edges(self, sample_rate):
        spec = SynthCorpusSpec(name="edge", n_speakers=1, duration_range=(1.0, 1.0),
                               sample_rate=sample_rate, seed=9)
        self.check(spec, n_utts=1)

    def test_tremolo_class(self):
        assert synth.DEFAULT_SIGNATURES["happy"].tremolo_depth > 0
        self.check(SynthCorpusSpec(name="trem", seed=10), classes=["happy"], n_utts=4)

    def test_reverb_sibling(self):
        spec = derive_shifted_corpus(SynthCorpusSpec(name="dry", seed=11), 0.25)
        self.check(replace(spec, reverb_seconds=0.3))

    def test_one_harmonic_signature(self):
        spec = SynthCorpusSpec(name="one", seed=12, classes=("high",),
                               signatures={"high": self.ONE_HARMONIC})
        self.check(spec, n_utts=4)


def sin_loop_sum(coeffs, phase):
    """sum_k |c_k| sin(k*phase + arg c_k) as one float64 `np.sin` per
    harmonic: the oracle for `synth._harmonic_sum`."""
    x = np.zeros(len(phase))
    for k, c in enumerate(coeffs, start=1):
        x += abs(c) * np.sin(k * phase + np.angle(c))
    return x


class TestHarmonicSum:
    """The baby-step/giant-step sum against the per-harmonic `sin` loop,
    within the renderer oracle's 1e-9."""

    LENGTHS = (1, synth.SYNTH_BLOCK - 1, synth.SYNTH_BLOCK, synth.SYNTH_BLOCK + 1,
               3 * synth.SYNTH_BLOCK + 17)

    # with s = ceil(sqrt(K)) baby steps, K = 1..40 holds K = s (1, 2), K a
    # multiple of s (4, 6, 9, 12, ...) and one past one (3, 7, 13, 21, 31);
    # K < s cannot occur
    @pytest.mark.parametrize("n_harmonics", range(1, 41))
    def test_every_harmonic_count(self, n_harmonics):
        rng = np.random.default_rng(stable_hash64(n_harmonics, "harmonic-sum"))
        coeffs = rng.uniform(0.0, 1.0, n_harmonics) * np.exp(
            1j * rng.uniform(0, 2 * np.pi, n_harmonics)
        )
        sr = 16000
        for n in self.LENGTHS:
            f0 = 90.0 + 300.0 * np.arange(n) / n  # a chirp, 90 to 390 Hz
            phase = 2.0 * np.pi * np.cumsum(f0) / sr + rng.uniform(0, 2 * np.pi)
            got = synth._harmonic_sum(coeffs, phase)
            assert got.shape == (n,)
            np.testing.assert_allclose(got, sin_loop_sum(coeffs, phase), rtol=0, atol=1e-9,
                                       err_msg=f"K={n_harmonics} n={n}")


class TestRenderMemory:
    def test_peak_stays_within_ten_signal_lengths(self):
        """A 7.5-s render allocates a few full-length float64 buffers; a
        [K, n] matrix of harmonic powers would be 40 or more of them."""
        spec = SynthCorpusSpec(name="mem", n_speakers=1, duration_range=(7.5, 7.5), seed=13)
        n = int(round(7.5 * spec.sample_rate))
        voice = synth._speaker_voice(spec, "mem_s00")
        for cls in spec.classes:
            tracemalloc.start()
            try:
                samples = synth._render_utterance(spec, voice, spec.signatures[cls], f"mem_{cls}")
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert samples.shape == (n,)
            assert peak <= 10 * n * 8, f"{cls}: peak {peak} bytes"


# 9 records, each 0.6-0.7 s (over two SYNTH_BLOCKs), and a reverb sibling
ODD_SPEC = SynthCorpusSpec(name="odd", n_speakers=1, utterances_per_class_per_speaker=3,
                           classes=("angry", "happy", "sad"), duration_range=(0.6, 0.7), seed=4)
THREAD_SPECS = [ODD_SPEC, replace(derive_shifted_corpus(ODD_SPEC, 0.25), reverb_seconds=0.2)]


class TestThreadedRender:
    """`generate_corpus` with records[0::2] rendered in the caller and
    records[1::2] on the ops worker."""

    @staticmethod
    def spy_renders(monkeypatch, calls, fail_on=None):
        """Record (utterance id, thread) for each render; raise
        RuntimeFailure for `fail_on`'s id once its render has started."""
        render = synth._render_utterance

        def spy(spec, voice, sig, utt_id):
            calls.append((utt_id, threading.current_thread()))
            if utt_id == fail_on:
                raise RuntimeFailure(f"cannot render {utt_id}")
            return render(spec, voice, sig, utt_id)

        monkeypatch.setattr(synth, "_render_utterance", spy)

    @pytest.mark.parametrize("spec", THREAD_SPECS, ids=["dry", "reverb"])
    def test_bytes_do_not_depend_on_the_split(self, spec, tmp_path, monkeypatch):
        assert len(synth.corpus_manifest(spec, tmp_path).records) % 2 == 1
        out, outputs = tmp_path / "out", []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # the two threads take turns as often as they can
        try:
            for cores in (1, 2):
                monkeypatch.setattr(ops, "_cores", lambda: cores)
                generate_corpus(spec, out)
                outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
                for p in out.iterdir():
                    p.unlink()
        finally:
            sys.setswitchinterval(interval)
        assert {"manifest.jsonl", "spec.json"} < set(outputs[0])
        assert len(outputs[0]) == 9 + 2
        assert outputs[0] == outputs[1]

    def test_worker_renders_the_odd_records(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ops, "_cores", lambda: 2)
        renders, writes = [], []
        self.spy_renders(monkeypatch, renders)
        write = synth.write_wav
        monkeypatch.setattr(synth, "write_wav", lambda buf, path: (
            writes.append((Path(path).stem, threading.current_thread())), write(buf, path)))
        records = generate_corpus(ODD_SPEC, tmp_path).records
        main = threading.current_thread()
        assert [u for u, t in renders if t is main] == [r.id for r in records[0::2]]
        assert [u for u, t in renders if t is not main] == [r.id for r in records[1::2]]
        # the caller writes every WAV, the worker's too
        assert sorted(u for u, _ in writes) == sorted(r.id for r in records)
        assert all(t is main for _, t in writes)

    def test_worker_failure_surfaces_after_both_halves_stop(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ops, "_cores", lambda: 2)
        records = synth.corpus_manifest(ODD_SPEC, tmp_path).records
        renders = []
        self.spy_renders(monkeypatch, renders, fail_on=records[3].id)
        with pytest.raises(RuntimeFailure, match=f"cannot render {records[3].id}"):
            generate_corpus(ODD_SPEC, tmp_path)
        main = threading.current_thread()
        assert [u for u, t in renders if t is not main] == [records[1].id, records[3].id]
        mine = [u for u, t in renders if t is main]
        assert mine == [r.id for r in records[0::2]][: len(mine)]
        # every WAV written is a render that finished
        written = {p.stem for p in tmp_path.glob("*.wav")}
        assert records[0].id in written and written <= {u for u, _ in renders} - {records[3].id}
        assert not (tmp_path / "manifest.jsonl").exists()
        assert not (tmp_path / "spec.json").exists()

    def test_caller_failure_stops_the_worker_at_its_next_record(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ops, "_cores", lambda: 2)
        records = synth.corpus_manifest(ODD_SPEC, tmp_path).records
        worker_started, caller_failed = threading.Event(), threading.Event()
        renders = []
        render = synth._render_utterance

        def spy(spec, voice, sig, utt_id):
            renders.append(utt_id)
            if utt_id == records[0].id:
                worker_started.wait(10)
                caller_failed.set()
                raise RuntimeFailure("caller failed")
            if utt_id == records[1].id:
                worker_started.set()
                caller_failed.wait(10)
                time.sleep(0.2)  # the caller's half ends meanwhile
            samples = render(spec, voice, sig, utt_id)
            renders.append(f"{utt_id} done")
            return samples

        monkeypatch.setattr(synth, "_render_utterance", spy)
        with pytest.raises(RuntimeFailure, match="caller failed"):
            generate_corpus(ODD_SPEC, tmp_path)
        # raised once the worker's render had finished, and it began no other
        assert sorted(renders) == sorted([records[0].id, records[1].id, f"{records[1].id} done"])
        assert not (tmp_path / "manifest.jsonl").exists()

    @pytest.mark.parametrize("cores, n_classes", [(1, 3), (2, 1)], ids=["one-core", "one-record"])
    def test_serial_never_submits(self, cores, n_classes, tmp_path, monkeypatch):
        monkeypatch.setattr(ops, "_cores", lambda: cores)

        def refuse(*args):
            raise AssertionError("the worker was used")

        monkeypatch.setattr(ops._WORKER, "submit", refuse)
        spec = replace(ODD_SPEC, utterances_per_class_per_speaker=1,
                       classes=ODD_SPEC.classes[:n_classes])
        manifest = generate_corpus(spec, tmp_path)
        assert len(list(tmp_path.glob("*.wav"))) == len(manifest) == n_classes


class TestDeriveShifted:
    def test_zero_shift_same_except_name(self):
        spec = SynthCorpusSpec(name="base", seed=9)
        sibling = derive_shifted_corpus(spec, 0.0)
        assert sibling.name != spec.name
        assert sibling.timbre_scale == spec.timbre_scale
        assert sibling.pitch_scale == spec.pitch_scale
        assert sibling.seed == spec.seed
        assert sibling.classes == spec.classes

    def test_speaker_ids_disjoint(self, tmp_path):
        spec = SynthCorpusSpec(name="s1", n_speakers=2, utterances_per_class_per_speaker=1, seed=5)
        sibling = derive_shifted_corpus(spec, 0.0, name="s2")
        m1 = generate_corpus(spec, tmp_path / "a")
        m2 = generate_corpus(sibling, tmp_path / "b")
        assert not set(m1.speakers) & set(m2.speakers)

    def test_shift_scales_timbre(self):
        spec = SynthCorpusSpec(name="base", seed=9)
        sibling = derive_shifted_corpus(spec, 0.3)
        assert sibling.timbre_scale == pytest.approx(1.3)
        assert sibling.pitch_scale == pytest.approx(1.15)

    def test_reverb_sibling_keeps_lengths(self, tmp_path):
        spec = SynthCorpusSpec(
            name="dry", n_speakers=1, utterances_per_class_per_speaker=1, seed=6
        )
        wet_spec = from_fields(SynthCorpusSpec, {**asdict(spec), "reverb_seconds": 0.3}, "synth")
        dry = generate_corpus(spec, tmp_path / "dry")
        wet = generate_corpus(wet_spec, tmp_path / "wet")
        for r_dry, r_wet in zip(dry.records, wet.records):
            assert read_wav(r_dry.audio_path).n_samples == read_wav(r_wet.audio_path).n_samples


class TestLoadSpec:
    def test_reference_spec_ships(self, tmp_path):
        from crossemo.config import reference_synth_spec_dict

        spec = from_fields(SynthCorpusSpec, reference_synth_spec_dict(), "synth")
        assert spec.n_speakers == 4
        assert spec.classes == ("angry", "happy", "sad", "neutral")

    def test_load_from_file(self, tmp_path):
        import json

        spec = SynthCorpusSpec(name="file", seed=1)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(asdict(spec)))
        assert load_spec(path) == spec
