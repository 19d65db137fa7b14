"""Tests of the benchmark itself: tiny-size passes of every workload.

    python3 -m pytest perfbench

Each workload runs once untraced and once traced at a tiny size.  Every
metric named in BENCHMARK.json must come out with its unit, and every
correctness check (reward replay, determinism, repeated counts, wiring) must
pass.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run

run.use_checkout_program()

import spans  # noqa: E402  (needs safegrasp on the path)
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = {
    "rollout-random": {"episodes": 2, "traced_rounds": 1},
    "audit-scripted": {"episodes": 1, "traced_rounds": 1},
    "train-b256": {"updates": 2, "traced_rounds": 1},
}


def test_spec_names_the_runnable_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(workloads.WORKLOADS) == sorted(run.WORKLOAD_NAMES)
    assert sorted(TINY) == sorted(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_tiny_pass_emits_every_named_metric(workload, trace, capsys):
    result = run.run_benchmark(
        workload, seed=7, seconds=0, trace=trace, setup_probes=1, **TINY[workload]
    )
    report = capsys.readouterr().out
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert result["correct"], report
    assert 0 <= result["failed"] <= result["attempted"]
    assert result["attempted"] >= 1
    json.dumps(result, allow_nan=False)


def test_fixed_round_workload_repeats_its_operations(capsys):
    # audit-scripted runs rounds_per_second x seconds rounds, whatever the
    # machine speed, so one seed attempts and fails the same operations
    results = [
        run.run_benchmark("audit-scripted", seed=3, seconds=1, trace=False,
                          setup_probes=1, episodes=1)
        for _ in range(2)
    ]
    capsys.readouterr()
    rounds = round(workloads.AuditScripted.rounds_per_second)
    assert results[0]["attempted"] == rounds * 4  # 4 (scenario, disturbance) pairs
    first, second = ((r["attempted"], r["failed"]) for r in results)
    assert first == second


def test_instrument_restores_every_binding():
    from safegrasp import env, tqc

    before = (vars(env.GraspEnv)["step"], env.inverse_kinematics, tqc.forward_tape)
    with spans.instrument(spans.Tracer()):
        assert vars(env.GraspEnv)["step"] is not before[0]
    assert (vars(env.GraspEnv)["step"], env.inverse_kinematics, tqc.forward_tape) == before


def test_self_time_subtracts_child_spans():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.002))

    def body():
        inner()
        inner()
        time.sleep(0.002)

    tracer.wrap("outer", body)()
    calls, self_ns, durations = spans.span_tables(tracer.spans)
    assert dict(calls) == {"outer": 1, "inner": 2}
    assert [parent for _, _, _, parent in tracer.spans] == [-1, 0, 0]
    assert self_ns["outer"] + self_ns["inner"] == durations["outer"][0]
    assert self_ns["outer"] >= 2_000_000


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__", ".*")
    )
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "rollout-random",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
