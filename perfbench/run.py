"""safegrasp benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload rollout-random --seed 1 --seconds 36 --trace 0

``--trace 0`` measures for ``--seconds`` untraced (``audit-scripted``: a fixed
number of rounds per requested second) and reports the end-to-end metrics.
``--trace 1`` runs a fixed amount of work three times -- traced, traced,
untraced -- and reports per-layer calls, self times and counts from the
second pass, plus the tracing overhead against the third.  Workloads are
described in ``workloads.py``.  Human-readable lines come first; the last
line of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every correctness
check passed.
"""

import os

# pin BLAS threading before numpy loads, as the safegrasp CLI does; the
# benchmark itself starts no threads, and its set-up probes run one at a time
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import array  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"  # run outputs (removed after each run) and span dumps
WORKLOAD_NAMES = ("rollout-random", "audit-scripted", "train-b256")
SETUP_PROBES = 7
STEP_BLOCK = 2000  # consecutive step calls per block: 20 beyond its p99


def use_checkout_program() -> None:
    """Import safegrasp from this checkout's ``src/`` and from nowhere else."""
    package = SRC / "safegrasp" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"error: {package} not found; run from a safegrasp checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import safegrasp

    if Path(safegrasp.__file__).resolve() != package.resolve():
        raise SystemExit(f"error: safegrasp was imported from {safegrasp.__file__}")


def provenance() -> dict:
    import numpy
    import safegrasp
    from safegrasp import accel

    return {
        "safegrasp": safegrasp.__version__,
        "kernel_mode": "numba" if accel.NUMBA_ENABLED else "numpy",
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


class StepTimer:
    """Times every ``GraspEnv.step`` call that returns, from outside the env."""

    def __enter__(self):
        from safegrasp.env import GraspEnv

        self._env_class = GraspEnv
        self._original = original = vars(GraspEnv)["step"]
        # 8 bytes a sample, so that the timer adds little to peak_rss_mb
        self.samples = samples = array.array("q")
        clock = time.perf_counter_ns

        def timed_step(env, action):
            start = clock()
            result = original(env, action)
            samples.append(clock() - start)
            return result

        GraspEnv.step = timed_step
        return self

    def __exit__(self, *exc):
        self._env_class.step = self._original


def probe_setup(workload: str) -> float:
    """Seconds of one cold set-up, measured in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return float(done.stdout.split()[-1])


def same_outputs(label: str, first, second) -> list:
    """Problems when two runs of the same rounds differ in outputs or failures."""
    problems = []
    for index, (a, b) in enumerate(zip(first, second)):
        if a.digests != b.digests:
            changed = sorted(k for k in a.digests.keys() | b.digests.keys()
                             if a.digests.get(k) != b.digests.get(k))
            problems.append(f"{label}: round {index} outputs differ: {changed}")
        if a.failures != b.failures:
            problems.append(f"{label}: round {index} failures differ")
    if len(first) != len(second):
        problems.append(f"{label}: round counts differ")
    return problems


def measure_untraced(bench, seconds: float, setup_probes: int):
    """Rounds for ``seconds`` of round time, at least one.

    A workload with ``rounds_per_second`` runs that many rounds per requested
    second instead, so that the operations it attempts -- and those that fail
    -- are the same in every run of one seed.  Machine speed on a shared VM
    drifts by a quarter and more within a run, so rates are totals over every
    round (work over time), the typical step latency is the mean of the
    per-block medians (it moves in proportion to the share of the run spent
    slow, where one median over the run jumps between a fast and a slow
    mode), and the cold set-ups are spread over the run instead of all at its
    start.
    """
    target = round(bench.rounds_per_second * seconds) if bench.rounds_per_second else 0
    # warm-up round in its own env; it is also the determinism reference
    reference = bench.run_round(bench.prepare(), 0)
    ctx = bench.prepare()
    rounds, setup = [], []
    measured = 0.0
    with StepTimer() as timer:
        while not rounds or (len(rounds) < target if target else measured < seconds):
            start = time.perf_counter()
            rounds.append(bench.run_round(ctx, len(rounds)))
            measured += time.perf_counter() - start
            if target:
                done = len(rounds) / target
            else:
                done = min(1.0, measured / seconds) if seconds > 0 else 1.0
            while len(setup) < setup_probes * done:
                setup.append(probe_setup(bench.name))
    problems = same_outputs("determinism", [reference], rounds[:1])
    steps = sum(r.env_steps for r in rounds)
    audited = sum(r.audit_records for r in rounds)
    if not (steps and audited):
        raise RuntimeError("no env step or audited record completed; nothing to report")
    step_us = np.frombuffer(timer.samples, dtype=np.int64) / 1e3
    # a slow second on the host lands in one block, not in the reported p99;
    # the calls after the last full block join it
    blocks = np.split(step_us, range(STEP_BLOCK, len(step_us) - STEP_BLOCK + 1, STEP_BLOCK))
    p50s = [float(np.median(b)) for b in blocks]
    p99s = [float(np.percentile(b, 99)) for b in blocks]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "env_steps_per_s": (steps / sum(r.rollout_s for r in rounds), "1/s"),
        "step_p50_us": (float(np.mean(p50s)), "us"),
        "step_p99_us": (statistics.median(p99s), "us"),
        "audit_records_per_s": (audited / sum(r.audit_s for r in rounds), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [
        f"setup_s: median of {len(setup)} cold set-ups",
        f"{steps} env steps and {audited} audited records in {len(rounds)} rounds",
        f"over {len(step_us)} GraspEnv.step calls in {len(blocks)} blocks of "
        f"{STEP_BLOCK} consecutive calls: step_p50_us is the mean of the block "
        f"medians, step_p99_us the median of the block p99s",
    ]
    return rounds, metrics, problems, notes


def measure_traced(bench, provenance_doc: dict):
    from spans import Tracer, call_counts, instrument, layer_metrics, write_spans

    # three passes over the same rounds -- traced, traced, untraced -- each in
    # its own env, interleaved round by round so that machine-speed drift hits
    # the traced and the untraced pass alike
    tracer_a, tracer = Tracer(), Tracer()
    contexts = [bench.prepare() for _ in range(3)]
    rounds_a, rounds, rounds_c = passes = ([], [], [])
    seconds = ([], [], [])
    for index in range(bench.traced_rounds):
        for ctx, pass_rounds, pass_s, pass_tracer in zip(
            contexts, passes, seconds, (tracer_a, tracer, None)
        ):
            with instrument(pass_tracer) if pass_tracer else nullcontext():
                start = time.perf_counter()
                pass_rounds.append(bench.run_round(ctx, index))
                pass_s.append(time.perf_counter() - start)
    traced_s, untraced_s = sum(seconds[1]), sum(seconds[2])

    problems = same_outputs("determinism (traced twice)", rounds_a, rounds)
    problems += same_outputs("tracing changed outputs", rounds, rounds_c)
    counts_a, counts = call_counts(tracer_a), call_counts(tracer)
    if counts_a != counts:
        changed = sorted(k for k in counts_a.keys() | counts.keys()
                         if counts_a.get(k) != counts.get(k))
        problems.append(f"per-layer counts did not repeat: {changed}")
    for name in sorted(bench.exercised):
        if not counts.get(name):
            problems.append(f"wiring: {name} has 0 calls on {bench.name}, predicted > 0")
    for name in sorted(bench.bypassed):
        if counts.get(name):
            problems.append(
                f"wiring: {name} has {counts[name]} calls on {bench.name}, predicted 0"
            )

    metrics = layer_metrics(tracer)
    ops = sum(r.ops for r in rounds)
    metrics["ops.error_rate"] = (sum(len(r.failures) for r in rounds) / ops, "ratio")
    overheads = [t / u - 1.0 for t, u in zip(seconds[1], seconds[2])]
    metrics["trace.overhead_frac"] = (statistics.median(overheads), "ratio")
    spans_path = OUT / f"spans-{bench.name}-seed{bench.seed}.jsonl"
    write_spans(tracer, spans_path, provenance_doc)
    notes = [
        f"traced pass {traced_s:.3f} s, untraced pass {untraced_s:.3f} s; "
        f"trace.overhead_frac: median over {len(overheads)} round pairs",
        f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}",
    ]
    return rounds, metrics, problems, notes


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  setup_probes: int = SETUP_PROBES, **size) -> dict:
    """Run one workload; print the report lines and return the result object.

    ``size`` overrides the workload's round size (tests use tiny ones).
    """
    use_checkout_program()
    import workloads

    doc = provenance()
    print("provenance:", json.dumps(doc, sort_keys=True))
    OUT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    try:
        bench = workloads.WORKLOADS[workload](seed, work_dir, **size)
        if trace:
            rounds, metrics, problems, notes = measure_traced(bench, doc)
        else:
            rounds, metrics, problems, notes = measure_untraced(bench, seconds, setup_probes)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    problems += [p for r in rounds for p in r.problems]
    attempted = sum(r.ops for r in rounds)
    failures = Counter(name for r in rounds for name in r.failures)
    failed = sum(failures.values())
    print(f"workload: {workload} seed={seed} trace={int(trace)} rounds={len(rounds)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for note in notes:
        print(f"  ({note})")
    print(f"error_rate = {failed}/{attempted} operations failed"
          + "".join(f"; {name} x{count}" for name, count in sorted(failures.items())))
    tracebacks = {}
    for r in rounds:
        for name, text in r.tracebacks.items():
            tracebacks.setdefault(name, text)
    for name, text in sorted(tracebacks.items()):
        print(f"first {name} traceback:\n{text}", file=sys.stderr)
    audited = sum(r.audit_records for r in rounds)
    print(f"checks: {audited} step records re-scored; "
          + ("all passed" if not problems else f"{len(problems)} FAILED"))
    for problem in problems[:20]:
        print(f"  FAILED {problem}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
