"""Regenerate reference/train_short.json, the stored loss history that every
train_short run compares its reference job against.

    python3 perfbench/make_reference.py

Run it only on a commit whose training results are known to be right, and
say in the change that did so why the reference moved.
"""

import json
import shutil
import sys

import run  # sets up sys.path for the package
from workloads import HISTORY_RTOL, REFERENCE_FILE, REFERENCE_SEED, Failures, TrainShort


def main() -> int:
    run.import_package()
    work = run.OUT_DIR / "reference-work"
    work.mkdir(parents=True, exist_ok=True)
    try:
        TrainShort.prepare(work, REFERENCE_SEED)
        history = TrainShort(work, REFERENCE_SEED, Failures()).history_for(REFERENCE_SEED)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    header = {"seed": REFERENCE_SEED, "epochs": TrainShort.JOB_EPOCHS, "rtol": HISTORY_RTOL,
              "columns": ["step", "epoch", "sample", "loss", "rmse"]}
    rows = ",\n  ".join(json.dumps(row) for row in history)
    REFERENCE_FILE.write_text(json.dumps(header)[:-1] + f', "history": [\n  {rows}\n]}}\n')
    print(f"wrote {len(history)} steps to {REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
