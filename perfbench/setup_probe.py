"""Time one cold set-up of a benchmark workload in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload>

Prints the seconds from the first import to a workload ready to run: the
safegrasp imports (numpy included), the env build and its home-IK solve, and
for train-b256 also the TQC agent and replay-buffer init.  ``run.py`` starts
it several times, one after another, and reports the median as ``setup_s``.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from safegrasp import fsa, training  # noqa: E402,F401  (every module the workloads use)
from safegrasp.config import RunConfig  # noqa: E402


def main(workload: str) -> None:
    config = RunConfig()
    config.build_env().reset(seed=0)  # env build plus the home-IK solve
    if workload == "train-b256":
        # agent and replay buffer; the run directory is never created
        training.Trainer(config, Path("unused"), total_steps=config.tqc.warmup_steps + 1)
    print(time.perf_counter() - START)


if __name__ == "__main__":
    main(sys.argv[1])
