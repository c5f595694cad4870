"""Set-up process: one timed set-up pass of a workload, which writes its
inputs (checkpoint and clips, or training set and initial parameters) and
runs its warm-up operation. Prints the seconds the pass took.

    python3 perfbench/prepare.py <workload> <directory> <seed>

``run.py`` starts it several times, each pass in a fresh process so that
each pays the first-call costs a user pays, and reports the median as
``setup_s``. The checkpoint build's memory does not count in the measuring
process's peak RSS. The warm-up's outputs are checked by the measuring
process, on its own warm-up and operations.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS, Failures  # noqa: E402


def main(name: str, work: str, seed: str) -> int:
    cls = WORKLOADS[name]
    start = perf_counter()
    cls.prepare(Path(work), int(seed))
    cls(Path(work), int(seed), Failures()).warm_up()
    print(json.dumps(perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
