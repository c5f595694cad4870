"""The three workloads: inputs, one closed-loop operation, and output checks.

Each workload is driven by one client that sends its next operation only
after the previous one returned (a closed loop). An operation is an
in-process ``speechmotion infer`` request for the inference workloads, and
one ``speechmotion.train`` job of ``JOB_EPOCHS`` epochs for ``train_short``,
whose optimizer steps are timed one by one.
"""

from __future__ import annotations

import json
import math
import tracemalloc
from pathlib import Path
from time import perf_counter

import numpy as np

import inputs
import oracle
from spans import patched

# Inference outputs against the reference model. Output files hold float32,
# whose rounding is below 6e-8 relative; float64 summation-order changes are
# smaller still. A wrong bias, window or weight moves outputs by >1e-2.
OUT_RTOL = OUT_ATOL = 1e-5
# Training losses against the reference model (same parameters, so only
# rounding differs) and against the stored loss history (rounding differences
# compound over the job's Adam steps; see README.md for the measurement).
ORACLE_LOSS_RTOL = 1e-9
HISTORY_RTOL = 1e-8

CLIPS = 4
REFERENCE_SEED = 0
REFERENCE_FILE = Path(__file__).resolve().parent / "reference" / "train_short.json"


class Failures:
    """Operation counts plus the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, attempted: int, failed: int, message: str | None = None):
        self.attempted += attempted
        self.failed += failed
        if message and len(self.messages) < 20:
            self.messages.append(message)


def _close(got: np.ndarray, want: np.ndarray) -> bool:
    return (got.shape == want.shape and bool(np.isfinite(got).all())
            and bool(np.allclose(got, want, rtol=OUT_RTOL, atol=OUT_ATOL)))


# ---------------------------------------------------------------------------
# inference


class Inference:
    """``speechmotion infer`` on CLIPS seeded clips, cycled in order; clip c
    is always rendered with identity c % 2."""

    name = profile = suffix = ""

    def __init__(self, work: Path, seed: int, failures: Failures):
        self.work, self.seed, self.failures = work, seed, failures
        self.sent = 0
        self.first: dict[int, np.ndarray] = {}
        self.requests = [0] * CLIPS
        self.bad = [0] * CLIPS

    @classmethod
    def config(cls):
        import speechmotion as sm
        return sm.profile(cls.profile)

    @classmethod
    def arrays(cls, seed: int) -> dict:
        import speechmotion as sm
        cfg = cls.config()
        return inputs.model_arrays(sm.param_shapes(cfg), inputs.rng_for(seed, 1),
                                   1.0 / math.sqrt(cfg.dim))

    @classmethod
    def prepare(cls, work: Path, seed: int) -> None:
        """Write the checkpoint and the clips."""
        import speechmotion as sm
        params = {k: sm.Var(v) for k, v in cls.arrays(seed).items()}
        sm.save_checkpoint(work / "model.ckpt", params, cls.config())
        rng = inputs.rng_for(seed, 2)
        for clip in range(CLIPS):
            cls.write_clip(work / f"clip{clip}{cls.suffix}", rng)

    def warm_up(self) -> None:
        self.run_op()

    def run_op(self):
        """One request; returns (latencies in s, frames, busy seconds)."""
        from speechmotion import cli
        clip = self.sent % CLIPS
        self.sent += 1
        out = self.work / f"out{clip}.f32mat"
        argv = ["infer", "--ckpt", str(self.work / "model.ckpt"),
                "--audio", str(self.work / f"clip{clip}{self.suffix}"),
                "--identity", str(clip % 2), "--out", str(out)]
        out.unlink(missing_ok=True)  # each request is checked on what it wrote
        start = perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # an escaped exception fails the request
            code = repr(exc)
        elapsed = perf_counter() - start
        return [elapsed], self._check(clip, code, out), elapsed

    def _check(self, clip: int, code, out: Path) -> int:
        """Per-request check; returns the frames produced."""
        self.requests[clip] += 1
        if code != 0 or not out.exists():
            self.bad[clip] += 1
            self.failures.add(0, 0, f"clip {clip}: infer ended with {code}"
                              + ("" if out.exists() else ", no output written"))
            return 0
        motion = inputs.read_f32m(out)
        if clip not in self.first:
            self.first[clip] = motion
        elif not _close(motion, self.first[clip]):
            self.bad[clip] += 1
            self.failures.add(0, 0, f"clip {clip}: output differs from its first request")
        return motion.shape[0]

    def finish(self) -> None:
        """Compare each clip's output with the reference model; a clip that
        disagrees fails every request made on it."""
        p, cfg = self.arrays(self.seed), self.config()
        for clip in range(CLIPS):
            bad = self.bad[clip]
            if clip in self.first:
                got, want = self.first[clip], self.reference(clip, p, cfg)
                if not _close(got, want):
                    err = np.abs(got - want).max() if got.shape == want.shape else math.nan
                    self.failures.add(0, 0, f"clip {clip}: output {got.shape} vs reference "
                                      f"{want.shape}, max abs error {err:.3g}")
                    bad = self.requests[clip]
            self.failures.add(self.requests[clip], bad)


class InferLong(Inference):
    """T = 160 frames (6.4 s) of feature rows on the desk-scale profile."""

    name = "infer_long"
    profile = "synthetic"
    suffix = ".f32mat"
    frames = 160

    @classmethod
    def write_clip(cls, path: Path, rng) -> None:
        cfg = cls.config()
        rows = math.ceil(cfg.feature_rate / cfg.motion_rate) * cls.frames
        inputs.write_f32m(path, inputs.speech_features(rng, rows, cfg.feature_dim))

    def reference(self, clip: int, p: dict, cfg) -> np.ndarray:
        feats = inputs.read_f32m(self.work / f"clip{clip}.f32mat").astype(np.float64)
        return oracle.infer_features(feats, clip % 2, p, cfg)


class InferWavBiwi(Inference):
    """1 s 16-bit mono WAV clips against a full-scale ``biwi`` checkpoint."""

    name = "infer_wav_biwi"
    profile = "biwi"
    suffix = ".wav"

    @classmethod
    def write_clip(cls, path: Path, rng) -> None:
        inputs.write_wav(path, inputs.speech_waveform(rng, 1.0))

    def reference(self, clip: int, p: dict, cfg) -> np.ndarray:
        samples = inputs.read_wav(self.work / f"clip{clip}.wav")
        return oracle.infer_wave(samples, inputs.WAV_RATE, clip % 2, p, cfg)


# ---------------------------------------------------------------------------
# training


class TrainShort:
    """The acceptance-criterion-6 recipe (2 identities x 4 sequences, T = 20,
    lr 8e-4, beta1 0.97, keep_best) for JOB_EPOCHS epochs per job."""

    name = "train_short"
    identities, sequences, frames, vertices, feature_dim = 2, 8, 20, 10, 8
    JOB_EPOCHS = 3
    RECIPE = dict(lr=8e-4, beta1=0.97, keep_best=True)

    def __init__(self, work: Path, seed: int, failures: Failures):
        import speechmotion as sm
        self.work, self.seed, self.failures = work, seed, failures
        self.cfg = self.config()
        self.dataset, self.params = self.load(work / "train.npz")
        self.steps = self.JOB_EPOCHS * self.sequences
        self.expected: list | None = None
        self.track_memory = False
        self.step_peak = 0
        self._sm = sm

    @classmethod
    def config(cls):
        import speechmotion as sm
        return sm.ModelConfig(vertices=cls.vertices, identities=cls.identities,
                              feature_dim=cls.feature_dim).validate()

    @classmethod
    def prepare(cls, work: Path, seed: int) -> None:
        """Write the training set and the initial parameters."""
        import speechmotion as sm
        cfg = cls.config()
        rng = inputs.rng_for(seed, 3)
        data = inputs.training_set(rng, cls.identities, cls.sequences, cls.frames,
                                   cls.vertices, cls.feature_dim, cfg.frame_ratio)
        arrays = inputs.model_arrays(sm.param_shapes(cfg), inputs.rng_for(seed, 1), 0.0)
        blobs = {f"param:{k}": v for k, v in arrays.items()}
        for i, (feats, motion, identity) in enumerate(data):
            blobs[f"feats{i}"], blobs[f"motion{i}"] = feats, motion
            blobs[f"identity{i}"] = np.array(identity)
        np.savez(work / "train.npz", **blobs)

    def load(self, path: Path):
        import speechmotion as sm
        with np.load(path) as blobs:
            dataset = [
                sm.TrainingSample(
                    audio=sm.AudioInput.from_features(blobs[f"feats{i}"], self.cfg.feature_rate),
                    motion=blobs[f"motion{i}"], identity=int(blobs[f"identity{i}"]))
                for i in range(self.sequences)
            ]
            params = {k[6:]: sm.Var(blobs[k]) for k in blobs.files if k.startswith("param:")}
        return dataset, params

    def job(self, dataset, params, seed, capture=None):
        """One train() call with each optimizer step timed from the entry of
        ``rollout_loss`` to the return of ``adam_step``."""
        from speechmotion import training
        starts, lat = [], []
        rollout_loss, adam_step = training.rollout_loss, training.adam_step

        def timed_loss(sample, params, *args, **kwargs):
            if self.track_memory:
                tracemalloc.reset_peak()
            starts.append(perf_counter())
            if capture is not None:
                capture.append((sample, params))
            return rollout_loss(sample, params, *args, **kwargs)

        def timed_adam(*args, **kwargs):
            out = adam_step(*args, **kwargs)
            lat.append(perf_counter() - starts[-1])
            if self.track_memory:
                self.step_peak = max(self.step_peak, tracemalloc.get_traced_memory()[1])
            return out

        start = perf_counter()
        with patched([(training, "rollout_loss", timed_loss), (training, "adam_step", timed_adam)]):
            _, history = self._sm.train(dataset, params, self.cfg, self.JOB_EPOCHS, seed, **self.RECIPE)
        return history, lat, perf_counter() - start

    def run_op(self):
        try:
            history, lat, busy = self.job(self.dataset, self.params, self.seed)
        except Exception as exc:  # a failed job counts its steps as failed
            self.failures.add(self.steps, self.steps, f"train job raised {exc!r}")
            return [], 0, 0.0
        problem = self._check_history(history)
        if problem is None and self.expected is not None:
            problem = _compare_history(history, self.expected, HISTORY_RTOL)
        if problem is None and self.expected is None:
            self.expected = history
        self.failures.add(self.steps, self.steps if problem else 0, problem)
        self.last_rmse = float(np.mean([h.rmse for h in history[-self.sequences:]]))
        return lat, len(history) * self.frames, busy

    def _check_history(self, history) -> str | None:
        if len(history) != self.steps:
            return f"history has {len(history)} steps, expected {self.steps}"
        for h in history:
            if not (math.isfinite(h.loss) and math.isfinite(h.rmse)):
                return f"non-finite loss or rmse at step {h.step}"
            implied = h.rmse ** 2 * self.frames * self.vertices
            if not math.isclose(implied, h.loss, rel_tol=ORACLE_LOSS_RTOL):
                return f"step {h.step}: rmse {h.rmse} inconsistent with loss {h.loss}"
        return None

    def warm_up(self) -> None:
        """First job; its steps are checked against the reference model in
        ``finish``, outside every timer."""
        self.capture: list = []
        try:
            self.warm_history, _, _ = self.job(self.dataset, self.params, self.seed, self.capture)
        except Exception as exc:  # reported as a failed job, like run_op
            self.warm_history = []
            self.warm_problem = f"warm-up train job raised {exc!r}"
        else:
            self.warm_problem = self._check_history(self.warm_history)
        self.expected = None if self.warm_problem else self.warm_history
        self.failures.add(self.steps, self.steps if self.warm_problem else 0, self.warm_problem)

    def oracle_problem(self) -> str | None:
        """The warm-up job's losses, each recomputed by the reference model
        from the parameters that step saw; the job must also learn."""
        history = self.warm_history
        for h, (sample, params) in zip(history, self.capture):
            p = {k: v.data for k, v in params.items()}
            want = oracle.rollout_loss(sample.audio.features, sample.motion, sample.identity, p, self.cfg)
            if not math.isclose(h.loss, want, rel_tol=ORACLE_LOSS_RTOL):
                return f"step {h.step}: loss {h.loss!r} but the reference model gives {want!r}"
        first = np.mean([h.loss for h in history[: self.sequences]])
        last = np.mean([h.loss for h in history[-self.sequences:]])
        if not last < first:
            return f"mean loss rose from {first:.6g} in epoch 0 to {last:.6g} in the last epoch"
        return None

    def memory_probe(self) -> float:
        """tracemalloc peak of the largest step in one extra job, in MB."""
        self.track_memory = True
        tracemalloc.start()
        try:
            self.job(self.dataset, self.params, self.seed)
        finally:
            tracemalloc.stop()
            self.track_memory = False
        return self.step_peak / 2**20

    def finish(self) -> None:
        """Fail every step if the warm-up job failed its checks or the
        reference job disagrees with its stored loss history."""
        problem = self.warm_problem or self.oracle_problem() or self.reference_problem()
        if problem:
            self.failures.add(0, self.failures.attempted - self.failures.failed, problem)

    def reference_problem(self) -> str | None:
        stored = json.loads(REFERENCE_FILE.read_text())
        history = self.history_for(stored["seed"])
        return _compare_history(history, stored["history"], HISTORY_RTOL, "stored reference")

    def history_for(self, seed: int) -> list:
        """Loss history of one job on the inputs of ``seed``."""
        work = self.work / f"seed{seed}"
        work.mkdir(exist_ok=True)
        self.prepare(work, seed)
        dataset, params = self.load(work / "train.npz")
        history, _, _ = self.job(dataset, params, seed)
        return [list(h) for h in history]


def _compare_history(got, want, rtol, what="first job") -> str | None:
    if len(got) != len(want):
        return f"history has {len(got)} steps, {what} has {len(want)}"
    for g, w in zip(got, want):
        step, epoch, sample, loss, rmse = g
        if (step, epoch, sample) != tuple(w[:3]):
            return f"step {step}: visits (epoch, sample) {(epoch, sample)}, {what} {tuple(w[1:3])}"
        if not (math.isclose(loss, w[3], rel_tol=rtol) and math.isclose(rmse, w[4], rel_tol=rtol)):
            return f"step {step}: loss {loss!r} vs {what} {w[3]!r} (rtol {rtol:g})"
    return None


WORKLOADS = {w.name: w for w in (InferLong, TrainShort, InferWavBiwi)}
