"""Run-to-run spread of the end-to-end metrics, and agreement between two
sets of runs.

    python3 perfbench/stability.py --seeds 1-10 --out A.json
    python3 perfbench/stability.py --seeds 11-20 --out B.json --against A.json

Runs ``run.py`` once per workload and seed (``--trace 0``, ``run_seconds``
from BENCHMARK.json), one run at a time. For every end-to-end metric it
prints the median and the spread, which is the distance between the first
and third quartiles (``statistics.quantiles(values, n=4)``) over the median.
A spread above a third of the metric's bound is flagged as a warning, and a
spread above the bound fails (``setup_s`` is exempt from both). With
``--against`` it also checks that each median is within the bound of the
other set's median, in either direction. Exits 1 if any run fails or is
incorrect, or if a spread or agreement check does not hold.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(bench: dict, workload: str, seed: int) -> dict:
    cmd = [sys.executable, *bench["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range such as 1-10")
    parser.add_argument("--out", required=True, help="JSON file for the results")
    parser.add_argument("--against", help="results of an earlier set to compare medians with")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    ok = True
    results: dict = {}
    for workload in [w["name"] for w in bench["workloads"]]:
        runs = []
        for seed in parse_seeds(args.seeds):
            res = run_once(bench, workload, seed)
            ok &= res["correct"] and res["failed"] == 0
            runs.append(res)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)
        results[workload] = {k: summarize([r["metrics"][k]["value"] for r in runs]) for k in bounds}
        for k, s in results[workload].items():
            bound = bounds[k]["bound"]
            held = k != "setup_s"
            outside = held and s["spread"] > bound
            ok &= not outside
            flag = ("  OUTSIDE the bound" if outside
                    else "  warning: above a third of the bound" if held and s["spread"] >= bound / 3
                    else "")
            print(f"  {k}: median {s['median']:.4g} {bounds[k]['unit']}, spread {s['spread']:.4f} "
                  f"(bound {bound}){flag}")
    Path(args.out).write_text(json.dumps({"seeds": args.seeds, "results": results}, indent=1))
    if args.against:
        earlier = json.loads(Path(args.against).read_text())["results"]
        for workload, metrics in results.items():
            for k, s in metrics.items():
                if workload not in earlier:
                    continue
                base = earlier[workload][k]["median"]
                change = (s["median"] - base) / base
                holds = abs(change) <= bounds[k]["bound"]
                ok &= holds
                print(f"{workload} {k}: {base:.4g} -> {s['median']:.4g} ({change:+.2%}), "
                      f"{'within' if holds else 'OUTSIDE'} bound {bounds[k]['bound']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
