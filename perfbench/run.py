"""speechmotion benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload infer_long --seed 1 --seconds 20 --trace 0

Builds the package from ``src/`` of the checkout it sits in, sets up in a
fresh process that generates the workload's inputs from ``--seed`` and warms
up, warms up itself, then runs operations back to back for ``--seconds`` and
checks every output. ``--trace 0`` reports the end-to-end metrics; its
measured loop is split into parts, each followed by one more set-up pass,
and the median pass is reported as ``setup_s``. ``--trace 1`` traces every other operation and reports the per-layer
metrics plus the tracing overhead. Human-readable lines go first;
the last line of standard output is the JSON result. Spans, the environment
and the report are also written to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 3
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from spans import Tracer, layer_hooks, layer_metrics, patched  # noqa: E402
from workloads import WORKLOADS, Failures  # noqa: E402


def import_package():
    """The package must come from this checkout's ``src/``."""
    try:
        import speechmotion
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import speechmotion from {SRC}: {exc}")
    where = Path(speechmotion.__file__).resolve()
    if SRC.resolve() not in where.parents:
        sys.exit(f"perfbench: speechmotion was imported from {where}, not from {SRC}")
    return speechmotion


def prepare(name: str, work: Path, seed: int) -> float:
    """Seconds of one set-up pass into ``work``, run in a child process
    (``prepare.py``)."""
    cmd = [sys.executable, str(HERE / "prepare.py"), name, str(work), str(seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=40)
    if proc.returncode != 0:
        sys.exit(f"perfbench: set-up failed:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout)


def measure(workload, seconds: float, set_up) -> dict:
    """Closed loop for ``seconds``: latencies (s), frames, busy time, and
    each operation's frames per second.

    The CPU speed of a shared host flips between levels every few seconds,
    and one set-up pass takes about a second, so passes made back to back
    all see one level. The loop therefore runs in SETUP_REPEATS - 1 equal
    parts, each followed by an untimed ``set_up()`` pass."""
    lat: list[float] = []
    rates: list[float] = []
    frames, busy = 0, 0.0
    parts = SETUP_REPEATS - 1
    for _ in range(parts):
        end = perf_counter() + seconds / parts
        while perf_counter() < end:
            op_lat, op_frames, op_busy = workload.run_op()
            lat += op_lat
            frames += op_frames
            busy += op_busy
            if op_busy:
                rates.append(op_frames / op_busy)
        set_up()
    return {"lat": lat, "frames": frames, "busy": busy, "rates": rates}


def measure_traced(workload, seconds: float, tracer: Tracer) -> tuple[list, list]:
    """Closed loop for ``seconds`` in which every other operation runs with
    the layer hooks installed, so traced and untraced operations see the same
    machine conditions; returns the untraced and the traced latencies (s).
    At least one operation of each kind runs."""
    hooks = layer_hooks(tracer)
    lat: tuple[list, list] = ([], [])
    end = perf_counter() + seconds
    while perf_counter() < end or tracer.op < 2:
        traced = tracer.op % 2
        if traced:
            with patched(hooks):
                lat[1].extend(workload.run_op()[0])
        else:
            lat[0].extend(workload.run_op()[0])
        tracer.op += 1
    return lat


def tail_percentile(n: int) -> float:
    """Highest whole percentile with at least ten samples beyond it (never
    below the median)."""
    return max(50.0, math.floor(100.0 * (1.0 - 10.0 / n))) if n else 50.0


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS library numpy loaded, if it is one."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def git_commit() -> str:
    """HEAD of the checkout's repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none (not a git checkout)"


def environment(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas.get("name"),
        "blas_version": blas.get("version"), "blas_threads": blas_threads(),
        "git_commit": git_commit(), "src_sha256": digest.hexdigest()[:16],
        "machine": platform.machine(), "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_package()
    os.environ["FF_LOG"] = "quiet"
    env = environment(args)
    cls = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{os.getpid()}"
    work.mkdir()
    try:
        result, report, extra = run(cls, work, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("# env " + json.dumps(env, sort_keys=True))
    for line in report:
        print("# " + line)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"env": env, "result": result, "report": report, **extra}))
    print(json.dumps(result))
    return 0


def run(cls, work: Path, args):
    failures = Failures()
    prepare_times = [prepare(cls.name, work, args.seed)]
    workload = cls(work, args.seed, failures)
    workload.warm_up()
    extra: dict = {"setup_passes_s": prepare_times}
    report: list[str] = []

    if args.trace:
        tracer = Tracer()
        base, traced = measure_traced(workload, args.seconds, tracer)
        if not base or not traced:
            sys.exit(f"perfbench: no operation completed; {failures.messages[:3]}")
        metrics = layer_metrics(tracer, len(traced))
        peak = workload.memory_probe() if hasattr(workload, "memory_probe") else 0.0
        metrics["training.step_peak_mb"] = (peak, "MB")
        untraced_ms = 1e3 * statistics.median(base)
        overhead_ms = 1e3 * statistics.median(traced) - untraced_ms
        metrics["trace.overhead_ms"] = (overhead_ms, "ms")
        metrics["trace.overhead_share"] = (overhead_ms / untraced_ms, "share")
        incl, self_t, calls = tracer.times()
        per = 1e3 / len(traced)
        extra["layers"] = {k: {"incl_ms_per_op": incl[k] * per, "self_ms_per_op": self_t[k] * per,
                               "calls": calls[k]} for k in sorted(calls)}
        extra["counts"] = dict(tracer.counts)
        extra["spans"] = tracer.spans
        report.append(f"{len(traced)} traced and {len(base)} untraced latencies, "
                      "alternating; per-layer values are per traced operation "
                      "(request or optimizer step)")
        for k in sorted(extra["layers"]):
            v = extra["layers"][k]
            report.append(f"span {k}: {v['incl_ms_per_op']:.4f} ms incl, "
                          f"{v['self_ms_per_op']:.4f} ms self per op, {v['calls']} calls")
        workload.finish()
    else:
        def set_up():
            again = work / f"setup{len(prepare_times)}"
            again.mkdir()
            prepare_times.append(prepare(cls.name, again, args.seed))
            shutil.rmtree(again)

        res = measure(workload, args.seconds, set_up)
        setup_s = statistics.median(prepare_times)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        extra["latencies_ms"] = [1e3 * x for x in res["lat"]]
        extra["op_frames_per_s"] = res["rates"]
        workload.finish()
        if not res["lat"] or not res["busy"]:
            sys.exit(f"perfbench: no operation completed; {failures.messages[:3]}")
        lat_ms = np.array(res["lat"]) * 1e3
        pct = tail_percentile(len(lat_ms))
        tail_ms = float(np.percentile(lat_ms, pct))
        # The result carries the fastest operation's latency, not the mean,
        # median, tail or a frame rate: on a shared host the CPU speed drops
        # by up to 1.6x for seconds to minutes at a time, which moves every
        # other statistic of a run with the share of the run spent slow,
        # while the fastest operation stays near the program's own cost (see
        # README.md). The others are printed on report lines.
        metrics = {
            "latency_ms.min": (float(lat_ms.min()), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (setup_s, "s"),
        }
        kind = "train.step_ms" if cls.name == "train_short" else "infer.latency_ms"
        fps = "train.frames_per_s" if cls.name == "train_short" else "infer.frames_per_s"
        beyond = len(lat_ms) * (1 - pct / 100.0)
        report += [
            f"{kind}.p50 = {float(np.median(lat_ms)):.4f} ms (n={len(lat_ms)})",
            f"{kind}.mean = {float(np.mean(lat_ms)):.4f} ms (n={len(lat_ms)})",
            f"{kind}.min = {metrics['latency_ms.min'][0]:.4f} ms (n={len(lat_ms)})",
            f"{kind}.tail = {tail_ms:.4f} ms "
            f"(p{pct:g} of n={len(lat_ms)}, {beyond:.1f} samples beyond)",
            f"{fps} = {res['frames'] / res['busy']:.4f} 1/s (whole run)",
            f"{fps}.best = {max(res['rates']):.4f} 1/s "
            f"(fastest of {len(res['rates'])} {'jobs' if cls.name == 'train_short' else 'requests'})",
        ]
        if hasattr(workload, "last_rmse"):
            report.append(f"train.rmse_end = {workload.last_rmse:.6g} (mean rollout RMSE, last epoch)")
        report += [f"peak_rss_mb = {peak_rss_mb:.2f} MB",
                   f"setup_s = {setup_s:.4f} s (median of {SETUP_REPEATS} set-ups, each input "
                   f"generation + warm-up in a fresh process, one before the measured loop and "
                   f"one after each of its {SETUP_REPEATS - 1} parts: "
                   f"{[round(t, 4) for t in prepare_times]})"]
    fail_share = failures.failed / failures.attempted if failures.attempted else 1.0
    report.append(f"fail_share = {fail_share:.6g} share ({failures.failed} of {failures.attempted} "
                  "operations failed)")
    report += [f"failure: {m}" for m in failures.messages]
    correct = failures.failed == 0 and failures.attempted > 0
    result = {
        "correct": correct,
        "attempted": failures.attempted,
        "failed": failures.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, report, extra


if __name__ == "__main__":
    sys.exit(main())
