"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.

Criterion 10 (the directional desk-scale training comparison) trains six
200k-step runs: about 20 min of learner time on one CPU core, plus env
steps and evaluation (the whole test has not been timed).  It is therefore
gated behind ``SAFEGRASP_RUN_TRAINING_ACCEPTANCE=1``; everything else runs
by default.
"""

import itertools
import json
import os
from pathlib import Path

import numpy as np
import pytest

from safegrasp import kernels
from safegrasp.cli import main as cli_main
from safegrasp.env import (
    EnvConfig,
    GraspEnv,
    RewardConfig,
    TransitionEvents,
    compute_reward,
)
from safegrasp.fsa import FsaInput, assign_sil, build_report
from safegrasp.kinematics import ArmModel, eef_position, inverse_kinematics
from safegrasp.metrics import safety_driven_success_rate, success_rate
from safegrasp.nn import forward, gradients, init_mlp_params
from safegrasp.runlog import EpisodeRecord, ViolationCounts, read_log
from safegrasp.tqc import quantile_fractions, quantile_huber_loss, truncated_target
from safegrasp.world import contact_force, detect_collisions

SD = RewardConfig(mode="sd-drl")
DRL = RewardConfig(mode="drl")


def ok(message: str) -> None:
    print(f"[PASS] {message}")


def events(**kwargs) -> TransitionEvents:
    return TransitionEvents(**kwargs)


class TestCriterion01RewardEngine:
    FIXTURES = [
        # (events, sd_expected, drl_expected)
        (events(distance_d=0.5), -0.5, -0.5),
        (events(distance_d=0.5, grasp_attempt_failed=True), -0.51, -0.51),
        (
            events(distance_d=0.1, collision_env=True, collision_velocity_exceeded=True),
            -5.6,
            -0.1,
        ),
        (events(distance_d=0.0, grasp_success=True, lift_success=True), 15.0, 15.0),
        (events(distance_d=0.0), 0.0, 0.0),
        (events(distance_d=1.0), -1.0, -1.0),
        (events(distance_d=0.2, speed_violation=True), -0.7, -0.2),
        (events(distance_d=0.2, ik_failure=True), -0.7, -0.2),
        (events(distance_d=0.0, collision_env=True), -5.0, 0.0),
        (events(distance_d=0.0, collision_cube=True), -0.01, 0.0),
        (events(distance_d=0.0, collision_obstacle=True), -0.5, 0.0),
        (
            events(distance_d=0.0, collision_cube=True, collision_velocity_exceeded=True),
            -0.51,
            0.0,
        ),
        (events(distance_d=0.3, grasp_success=True), 4.7, 4.7),
        (events(distance_d=0.0, lift_success=True), 10.0, 10.0),
        (
            events(distance_d=0.25, grasp_attempt_failed=True, speed_violation=True),
            -0.76,
            -0.26,
        ),
        (
            events(
                distance_d=0.1,
                collision_obstacle=True,
                collision_velocity_exceeded=True,
            ),
            -1.1,
            -0.1,
        ),
        (
            events(
                distance_d=0.4,
                collision_env=True,
                collision_cube=True,
                collision_obstacle=True,
            ),
            -5.91,
            -0.4,
        ),
        (
            events(distance_d=0.05, grasp_success=True, collision_cube=True),
            4.94,
            4.95,
        ),
        (
            events(distance_d=0.0, speed_violation=True, ik_failure=True),
            -1.0,
            0.0,
        ),
        (
            events(
                distance_d=0.15,
                grasp_attempt_failed=True,
                collision_cube=True,
                collision_velocity_exceeded=True,
            ),
            -0.67,
            -0.16,
        ),
    ]

    def test_criterion_1_reward_engine(self):
        assert len(self.FIXTURES) == 20
        for ev, sd_expected, drl_expected in self.FIXTURES:
            assert compute_reward(ev, SD) == pytest.approx(sd_expected, abs=1e-12)
            assert compute_reward(ev, DRL) == pytest.approx(drl_expected, abs=1e-12)
        rng = np.random.default_rng(1001)
        for _ in range(1000):
            ev = events(
                distance_d=float(rng.uniform(0, 2)),
                grasp_success=bool(rng.integers(2)),
                lift_success=bool(rng.integers(2)),
                grasp_attempt_failed=bool(rng.integers(2)),
            )
            assert compute_reward(ev, DRL) == compute_reward(ev, SD)
        ok(
            "criterion 1: 20 reward fixtures exact to 1e-12; DRL/SD-DRL agree "
            "on 1000 safe transitions"
        )


class TestCriterion02FsaArithmetic:
    def test_criterion_2_fsa_reproduces_reference_table(self):
        report = build_report(FsaInput(59353, 100))
        assert report.mttf == pytest.approx(593.53)
        assert 0.00165 <= report.pfd <= 0.00172
        assert 580.0 <= report.rrf <= 607.0
        assert report.sil == 2
        synthetic = build_report(FsaInput(1000, 2))
        assert synthetic.mttf == 500.0
        assert synthetic.pfd == pytest.approx(0.002)
        assert synthetic.rrf == pytest.approx(500.0)
        assert synthetic.sil == 2
        ok(
            "criterion 2: 59353/100 -> MTTF 593.53, PFD 0.0017, RRF 593.5, SIL 2; "
            "1000/2 -> 500 / 0.002 / 500 / SIL 2"
        )


class TestCriterion03ShieldSoundness:
    def test_criterion_3_shield_soundness_10k_commands(self):
        rng = np.random.default_rng(3003)
        checked = 0

        # over-speed commands: a speed limit far below any feasible motion
        env = GraspEnv(
            arm=ArmModel.default_ur5(max_joint_speed=1e-9),
            env_config=EnvConfig(max_steps=10_000),
        )
        env.reset(seed=0)
        q_home = env.joints
        for _ in range(5000):
            direction = rng.uniform(-1.0, 1.0, 3)
            direction[np.argmax(np.abs(direction))] = np.sign(
                direction[np.argmax(np.abs(direction))]
            )
            result = env.step(np.array([*direction, -1.0]))
            ev = result.events
            assert ev.speed_violation != ev.ik_failure  # exactly one flag
            assert np.array_equal(env.joints, q_home)
            checked += 1

        # IK-infeasible commands: joints pinned so no target is trackable
        env = GraspEnv(
            arm=ArmModel.default_ur5(ik_max_iterations=25),
            env_config=EnvConfig(max_steps=10_000),
        )
        env.reset(seed=0)
        q_home = env.joints
        env.arm = ArmModel(
            dh=env.arm.dh,
            joint_limits=np.column_stack([q_home - 1e-12, q_home + 1e-12]),
            ik_max_iterations=25,
        )
        for _ in range(5000):
            direction = rng.uniform(-1.0, 1.0, 3)
            direction[np.argmax(np.abs(direction))] = np.sign(
                direction[np.argmax(np.abs(direction))]
            )
            result = env.step(np.array([*direction, -1.0]))
            ev = result.events
            assert ev.ik_failure != ev.speed_violation
            assert np.array_equal(env.joints, q_home)
            checked += 1

        assert checked == 10_000
        ok(
            "criterion 3: 10000/10000 rejected commands left joints unchanged "
            "with exactly one shield flag"
        )


class TestCriterion04HardLimits:
    def test_criterion_4_force_threshold_and_coupling(self):
        assert contact_force(0.25, 400.0) == 100.0

        rng = np.random.default_rng(4004)
        from test_world import make_scene

        contacts = 0
        for _ in range(1000):
            scene = make_scene(obstacle=bool(rng.integers(2)))
            center = rng.uniform([0.12, -0.3, -0.17], [0.7, 0.3, 0.1])
            velocity = rng.normal(scale=0.4, size=3)
            for report in detect_collisions(scene, center, 0.02, velocity):
                contacts += 1
                stiffness = 40.0 if report.body == "cube" else 400.0
                assert report.force == pytest.approx(
                    stiffness * report.impact_speed, rel=1e-12
                )
                if report.body != "cube":
                    # workcell force/velocity limits coincide by construction
                    assert (report.force > 100.0) == (report.impact_speed > 0.25)
        assert contacts >= 100  # the sweep genuinely exercised contacts

        # at the environment level, any contact force above the threshold ends
        # the episode
        env = GraspEnv()
        terminations = 0
        for seed in range(25):
            env.reset(seed=seed)
            for _ in range(300):
                result = env.step(np.array([0.6, 0.0, -1.0, -1.0]))
                if result.events.collision_force > 100.0:
                    assert result.terminated
                    terminations += 1
                if result.terminated or result.truncated:
                    break
        assert terminations >= 10
        ok(
            "criterion 4: contact at 0.25 m/s is exactly 100 N; force > 100 N "
            f"always terminated ({terminations} episodes checked)"
        )


class TestCriterion05GradientVerification:
    def test_criterion_5_gradients_match_finite_differences(self):
        from test_nn import draw_kink_clear_input, finite_difference

        rng = np.random.default_rng(5005)
        worst = 0.0
        for trial in range(50):
            if trial % 2 == 0:
                # actor-shaped: obs -> 2 * act head
                sizes = (17, 12, 12, 8)
            else:
                # critic-shaped: obs+act -> quantile atoms
                sizes = (21, 12, 12, 25)
            params = init_mlp_params(sizes, rng)
            x = draw_kink_clear_input(params, rng, batch=2)
            target = rng.normal(size=(2, sizes[-1]))
            grads = gradients(params, x, lambda out: (out - target).square().mean())

            def loss_value():
                return float(np.mean((forward(params, x) - target) ** 2))

            for name in params:
                numeric = finite_difference(loss_value, params[name])
                scale = np.maximum(np.abs(numeric), 1.0)
                worst = max(
                    worst, float(np.max(np.abs(grads[name] - numeric) / scale))
                )
        assert worst < 1e-4
        ok(
            "criterion 5: analytic vs central-difference gradients, "
            f"max relative error {worst:.2e} < 1e-4 over 50 instantiations"
        )


class TestCriterion06TqcOracles:
    def test_criterion_6_truncation_and_loss_match_oracles(self):
        rng = np.random.default_rng(6006)
        for _ in range(1000):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 9))
            d = int(rng.integers(0, m))
            atoms = rng.normal(size=(n, m)) * 5.0
            reward = float(rng.normal())
            terminated = bool(rng.integers(2))
            discount = float(rng.uniform(0.05, 1.0))
            out = truncated_target(atoms, reward, terminated, discount, d)
            kept = sorted(atoms.reshape(-1).tolist())[: (m - d) * n]
            cont = 0.0 if terminated else discount
            expected = np.array([reward + cont * a for a in kept])
            assert np.array_equal(np.sort(out), out)  # ascending
            assert out.shape == expected.shape
            assert np.allclose(out, expected, atol=0.0)  # exact multiset match

        for _ in range(1000):
            m = int(rng.integers(1, 8))
            k = int(rng.integers(1, 8))
            preds = rng.normal(size=m) * 3.0
            targets = rng.normal(size=k) * 3.0
            got = quantile_huber_loss(preds, targets)
            taus = quantile_fractions(m)
            total = 0.0
            for i in range(m):
                for j in range(k):
                    u = targets[j] - preds[i]
                    weight = (1.0 - taus[i]) if u < 0.0 else taus[i]
                    huber = 0.5 * u * u if abs(u) <= 1.0 else abs(u) - 0.5
                    total += weight * huber
            assert got == pytest.approx(total / (m * k), abs=1e-10)
        ok(
            "criterion 6: truncation exact on 1000 cases; quantile-Huber loss "
            "within 1e-10 of the brute-force oracle on 1000 cases"
        )


class TestCriterion07IkConvergence:
    def test_criterion_7_ik_converges_on_reachable_targets(self):
        arm = ArmModel.default_ur5()
        rng = np.random.default_rng(7007)
        converged = 0
        trials = 1000
        for _ in range(trials):
            q_true = rng.uniform(-np.pi, np.pi, 6)
            target = eef_position(arm, q_true)
            seed = rng.uniform(-np.pi, np.pi, 6)
            result = inverse_kinematics(arm, target, seed=seed)
            if result.status == "converged":
                back = eef_position(arm, result.solution)
                assert np.linalg.norm(back - target) < 1e-3
                converged += 1
        rate = converged / trials
        assert rate >= 0.95
        ok(f"criterion 7: IK converged on {100 * rate:.1f}% of 1000 reachable targets")


class TestCriterion08Metrics:
    def test_criterion_8_metrics_ordering_and_fixtures(self):
        rng = np.random.default_rng(8008)
        for _ in range(1000):
            n = int(rng.integers(1, 30))
            records = [
                EpisodeRecord(
                    return_sum=float(rng.normal()),
                    steps=int(rng.integers(1, 200)),
                    success=bool(rng.integers(2)),
                    violations=ViolationCounts(
                        collision=int(rng.integers(0, 3)),
                        obstacle_collision=int(rng.integers(0, 3)),
                        speed=int(rng.integers(0, 3)),
                        velocity=int(rng.integers(0, 3)),
                        velocity_during_collision=int(rng.integers(0, 3)),
                    ),
                    terminated_by_failure=bool(rng.integers(2)),
                )
                for _ in range(n)
            ]
            assert safety_driven_success_rate(records) <= success_rate(records)

        clean = [
            EpisodeRecord(0.0, 10, True, ViolationCounts(), False)
            for _ in range(150)
        ]
        dirty = [
            EpisodeRecord(0.0, 10, True, ViolationCounts(speed=1), False)
            for _ in range(7)
        ]
        failed = [
            EpisodeRecord(0.0, 10, False, ViolationCounts(), True)
            for _ in range(436 - 157)
        ]
        records = clean + dirty + failed
        assert success_rate(records) == pytest.approx(0.36, abs=0.005)
        assert safety_driven_success_rate(records) == pytest.approx(0.34, abs=0.005)
        ok(
            "criterion 8: ordering held on 1000 random logs; 157/436 -> 0.36 "
            "and 150/436 -> 0.34 within 0.005"
        )


class TestCriterion09Determinism:
    def test_criterion_9_smoke_training_runs_bit_identical(self, tmp_path):
        config_path = tmp_path / "smoke.ini"
        config_path.write_text(
            "[tqc]\n"
            "batch_size = 64\n"
            "hidden_sizes = 32 32\n"
            "warmup_steps = 500\n"
            "replay_capacity = 10000\n"
            "train_freq = 2\n"
        )
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / f"run_{run}"
            code = cli_main(
                [
                    "train",
                    "--config", str(config_path),
                    "--steps", "5000",
                    "--eval-every", "20",
                    "--eval-episodes", "2",
                    "--seed", "99",
                    "--out", str(out),
                ]
            )
            assert code == 0
            outputs.append(
                {
                    path.relative_to(out).as_posix(): path.read_bytes()
                    for path in out.rglob("*")
                    if path.is_file()
                }
            )
        names = sorted(outputs[0])
        required = {"checkpoint.ckpt", "diagnostics.jsonl", "metrics.json", "train_episodes.jsonl"}
        assert required <= set(names)
        assert any(name.startswith("eval/eval_") for name in names)
        assert sorted(outputs[1]) == names
        assert [name for name in names if outputs[0][name] != outputs[1][name]] == []
        ok(
            "criterion 9: two 5k-step runs produced byte-identical run directories "
            f"({len(names)} files: checkpoint, episode and diagnostics streams, "
            "eval logs, metrics)"
        )


RUN_TRAINING = os.environ.get("SAFEGRASP_RUN_TRAINING_ACCEPTANCE", "") == "1"


@pytest.mark.skipif(
    not RUN_TRAINING,
    reason=(
        "desk-scale directional training check (~20 min of learner time on one core); "
        "set SAFEGRASP_RUN_TRAINING_ACCEPTANCE=1 to run"
    ),
)
class TestCriterion10DeskScaleTraining:
    STEPS = 200_000
    SEEDS = (101, 202, 303)

    def _train_and_evaluate(self, tmp_path: Path, mode: str, seed: int) -> dict:
        config_path = tmp_path / f"{mode}_{seed}.ini"
        config_path.write_text(
            "[run]\n"
            f"reward_mode = {mode}\n"
            "[tqc]\n"
            "batch_size = 128\n"
            "train_freq = 2\n"
            "warmup_steps = 2000\n"
            "replay_capacity = 200000\n"
            "entropy_target = -2.0\n"
        )
        out = tmp_path / f"run_{mode}_{seed}"
        code = cli_main(
            [
                "train",
                "--config", str(config_path),
                "--steps", str(self.STEPS),
                "--eval-every", "25",
                "--eval-episodes", "4",
                "--seed", str(seed),
                "--out", str(out),
            ]
        )
        assert code == 0
        eval_out = out / "final_eval"
        code = cli_main(
            [
                "evaluate",
                "--checkpoint", str(out / "checkpoint.ckpt"),
                "--episodes", "100",
                "--seed", str(seed),
                "--out", str(eval_out),
            ]
        )
        assert code == 0
        return json.loads((eval_out / "metrics.json").read_text())

    def test_criterion_10_directional_training_comparison(self, tmp_path):
        random_out = tmp_path / "random_baseline"
        code = cli_main(
            [
                "evaluate", "--policy", "random", "--episodes", "300",
                "--seed", "7", "--out", str(random_out),
            ]
        )
        assert code == 0
        random_metrics = json.loads((random_out / "metrics.json").read_text())
        random_success = random_metrics["success_rate"]

        results = {"sd-drl": [], "drl": []}
        for mode in results:
            for seed in self.SEEDS:
                results[mode].append(self._train_and_evaluate(tmp_path, mode, seed))

        sd_success = float(
            np.median([m["success_rate"] for m in results["sd-drl"]])
        )
        sd_collisions = float(
            np.median(
                [m["average_violations"]["collision"] for m in results["sd-drl"]]
            )
        )
        drl_collisions = float(
            np.median(
                [m["average_violations"]["collision"] for m in results["drl"]]
            )
        )
        print(
            f"criterion 10 raw: random={random_success:.3f} "
            f"sd_success={sd_success:.3f} sd_coll={sd_collisions:.3f} "
            f"drl_coll={drl_collisions:.3f}"
        )
        assert sd_success > 0.0
        assert sd_success >= 5.0 * random_success
        assert sd_collisions <= drl_collisions
        ok(
            "criterion 10: SD-DRL median success "
            f"{sd_success:.3f} >= 5x random ({random_success:.3f}) with "
            f"collision violations {sd_collisions:.3f} <= DRL {drl_collisions:.3f}"
        )


class TestCriterion11ReplayAudit:
    def test_criterion_11_replay_audit(self, tmp_path):
        out = tmp_path / "audit_eval"
        code = cli_main(
            [
                "evaluate", "--policy", "scripted", "--episodes", "3",
                "--seed", "31", "--out", str(out),
            ]
        )
        assert code == 0
        log = next(out.glob("eval_*.jsonl"))
        assert cli_main(["replay", "--log", str(log)]) == 0

        lines = log.read_text().splitlines()
        record = json.loads(lines[10])
        record["reward"] += 1e-12
        lines[10] = json.dumps(record, sort_keys=True, separators=(",", ":"))
        tampered = tmp_path / "tampered.jsonl"
        tampered.write_text("\n".join(lines) + "\n")
        assert cli_main(["replay", "--log", str(tampered)]) == 1
        ok(
            "criterion 11: untampered log audited clean (exit 0); a single "
            "mutated reward was detected (exit 1)"
        )
