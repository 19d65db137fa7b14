"""Configuration loading, log IO, and the command-line surface."""

import configparser
import contextlib
import copy
import io
import json
import os
import shlex
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import safegrasp
from safegrasp.cli import _build_parser, main
from safegrasp.config import ConfigError, RunConfig, default_config_text, load_config
from safegrasp.env import (
    EnvConfig, GraspEnv, RewardConfig, SceneConfig, TransitionEvents,
)
from safegrasp.kinematics import ArmModel
from safegrasp.nn import CHECKPOINT_MAGIC, load_checkpoint, save_checkpoint
from safegrasp import runlog
from safegrasp.runlog import (
    EpisodeLogWriter,
    EpisodeRecord,
    ViolationCounts,
    read_log,
    records_to_episodes,
)
from safegrasp.tqc import TqcAgent, TqcConfig
from safegrasp.training import Trainer


class TestConfig:
    def test_defaults_without_file(self):
        config = load_config(None)
        assert config.seed == 0
        assert config.reward.coll_cost == -5.0
        assert config.tqc.quantiles_per_critic == 25
        assert config.arm.max_joint_speed == 2.97

    def test_default_text_round_trips(self, tmp_path):
        path = tmp_path / "default.ini"
        path.write_text(default_config_text())
        assert load_config(path) == RunConfig()

    def test_run_config_coerces_scenario(self):
        assert RunConfig(scenario=" Obstacle ").scenario == "obstacle"
        assert RunConfig(scenario="obstacle") == RunConfig(scenario="OBSTACLE")
        assert replace(RunConfig(), scenario="normal").scenario == "normal"

    def test_run_config_refuses_unknown_scenario(self):
        with pytest.raises(ValueError, match="unknown scenario 'bogus'"):
            RunConfig(scenario="bogus")
        with pytest.raises(ValueError, match="unknown scenario"):
            replace(RunConfig(), scenario="bogus")

    def test_run_configs_compare_by_value(self):
        assert RunConfig() == RunConfig()
        assert RunConfig(seed=1) != RunConfig()
        tight = replace(ArmModel.default_ur5(), joint_limits=((-1.0, 1.0),) * 6)
        assert RunConfig(arm=tight) != RunConfig()

    def test_default_text_names_every_field(self):
        parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
        parser.read_string(default_config_text())
        sections = {
            "run": RunConfig,
            "reward": RewardConfig,
            "env": EnvConfig,
            "scene": SceneConfig,
            "tqc": TqcConfig,
            "kinematics": ArmModel,
        }
        # fields set elsewhere: the config objects of [run] are the other
        # sections, the reward mode is [run] reward_mode, the DH table and
        # the joint limits are the per-joint rows
        elsewhere = {
            ("run", "reward"): ("reward", None),
            ("run", "env"): ("env", None),
            ("run", "scene"): ("scene", None),
            ("run", "tqc"): ("tqc", None),
            ("run", "arm"): ("kinematics", None),
            ("reward", "mode"): ("run", "reward_mode"),
            ("kinematics", "dh"): ("kinematics", "joint6"),
            ("kinematics", "joint_limits"): ("kinematics", "joint6"),
        }
        for section, cls in sections.items():
            for f in fields(cls):
                if not f.init:
                    continue
                where, key = elsewhere.get((section, f.name), (section, f.name))
                if (where, key) == ("tqc", "entropy_target"):
                    # unset by default, so named in a comment only
                    assert "; entropy_target is unset by default" in default_config_text()
                elif key is None:
                    assert parser.has_section(where), where
                else:
                    assert parser.has_option(where, key), f"{cls.__name__}.{f.name}"

    def test_reward_mode_is_a_run_key_only(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[reward]\nmode = drl\n")
        code = run_cli(
            "evaluate", "--policy", "random", "--episodes", "1",
            "--config", path, "--out", tmp_path / "out",
        )
        assert code == 2

    @pytest.mark.parametrize(
        "text",
        [
            "[reward]\ncoll_cost = nan\n",
            "[reward]\ngrip_rew = inf\n",
            "[tqc]\nlearning_rate = nan\n",
            "[kinematics]\nik_tolerance = nan\n",
            "[scene]\nworkspace_min = 0.1 nan 0.2\n",
        ],
    )
    def test_non_finite_number_rejected(self, tmp_path, capsys, text):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        with pytest.raises(ConfigError, match="finite"):
            load_config(path)
        code = run_cli(
            "evaluate", "--policy", "random", "--episodes", "2",
            "--config", path, "--out", tmp_path / "out",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "cls,kwargs",
        [
            (RewardConfig, {"coll_cost": float("nan")}),
            (RewardConfig, {"grip_rew": float("nan")}),
            (SceneConfig, {"table_height": float("nan")}),
            (SceneConfig, {"workspace_min": (float("nan"), 0.0, 0.0)}),
            (TqcConfig, {"entropy_target": float("nan")}),
        ],
        ids=["coll_cost", "grip_rew", "table_height", "workspace_min", "entropy_target"],
    )
    def test_dataclass_built_directly_refuses_nan(self, cls, kwargs):
        # the INI parser refuses non-finite numbers; so must the classes
        (name,) = kwargs
        with pytest.raises(ValueError, match=name):
            cls(**kwargs)

    @pytest.mark.parametrize(
        "cls,kwargs",
        [
            (RewardConfig, {"coll_cost": float("-inf")}),
            (RewardConfig, {"grip_prop_rew": float("inf")}),
            (RewardConfig, {"force_failure_threshold": float("inf")}),
            (EnvConfig, {"action_scale": float("inf")}),
            (EnvConfig, {"proximity_threshold": float("inf")}),
        ],
        ids=["coll_cost", "grip_prop_rew", "force_failure_threshold", "action_scale",
             "proximity_threshold"],
    )
    def test_dataclass_built_directly_refuses_infinity(self, cls, kwargs):
        (name,) = kwargs
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            cls(**kwargs)

    def test_file_overrides(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(
            "[run]\nseed = 7\nscenario = obstacle\nreward_mode = drl\n\n"
            "[reward]\ncoll_cost = -9.0\n\n"
            "[tqc]\nbatch_size = 64\nhidden_sizes = 32 32\n\n"
            "[kinematics]\nmax_joint_speed = 1.5\n"
        )
        config = load_config(path)
        assert config.seed == 7
        assert config.scenario == "obstacle"
        assert config.reward.mode == "drl"
        assert config.reward.coll_cost == -9.0
        assert config.tqc.batch_size == 64
        assert config.tqc.hidden_sizes == (32, 32)
        assert config.arm.max_joint_speed == 1.5

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[reward]\ntypo_cost = -1\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[rewards]\ncoll_cost = -1\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_invalid_value_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[reward]\ncoll_cost = five\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_joint_row_override(self, tmp_path):
        path = tmp_path / "arm.ini"
        path.write_text("[kinematics]\njoint2 = -0.5 0 0 0 -3.0 3.0\n")
        config = load_config(path)
        assert config.arm.dh[1][0] == -0.5
        assert config.arm.joint_limits[1] == (-3.0, 3.0)

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            load_config("/nonexistent/run.ini")


def reference_records_to_episodes(step_records: list[dict]) -> list[EpisodeRecord]:
    """Per-episode aggregation through an accumulator dict: the reference
    that ``records_to_episodes`` must match."""
    episodes: list[EpisodeRecord] = []
    current_id = None
    acc = None

    def flush():
        if acc is not None and acc["steps"] > 0:
            episodes.append(
                EpisodeRecord(
                    return_sum=acc["return"],
                    steps=acc["steps"],
                    success=acc["success"],
                    violations=acc["violations"],
                    terminated_by_failure=acc["failed"],
                )
            )

    for rec in step_records:
        ep = rec.get("episode")
        if ep != current_id:
            flush()
            current_id = ep
            acc = {
                "return": 0.0,
                "steps": 0,
                "success": False,
                "violations": ViolationCounts(),
                "failed": False,
            }
        events = rec.get("events", {})
        acc["return"] += float(rec.get("reward", 0.0))
        acc["steps"] += 1
        v = acc["violations"]
        v.collision += bool(events.get("collision_env"))
        v.obstacle_collision += bool(events.get("collision_obstacle"))
        v.speed += bool(events.get("speed_violation"))
        v.velocity += bool(events.get("velocity_violation"))
        v.velocity_during_collision += bool(events.get("collision_velocity_exceeded"))
        if events.get("lift_success"):
            acc["success"] = True
        if rec.get("terminated") and not events.get("lift_success"):
            acc["failed"] = True
    flush()
    return episodes


class TestRunLog:
    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "log.jsonl"
        writer = EpisodeLogWriter(path, header={"seed": 1})
        writer.write_step({"episode": 0, "step": 1, "reward": -0.25, "events": {}})
        writer.close()
        header, records = read_log(path)
        assert header["seed"] == 1
        assert records[0]["reward"] == -0.25

    def test_episode_aggregation(self):
        records = [
            {"episode": 0, "reward": -1.0, "terminated": False, "events": {}},
            {
                "episode": 0,
                "reward": -2.0,
                "terminated": True,
                "events": {"collision_env": True},
            },
            {
                "episode": 1,
                "reward": 15.0,
                "terminated": True,
                "events": {"lift_success": True},
            },
        ]
        episodes = records_to_episodes(records)
        assert len(episodes) == 2
        assert episodes[0].return_sum == -3.0
        assert episodes[0].terminated_by_failure
        assert episodes[0].violations.collision == 1
        assert episodes[1].success
        assert not episodes[1].terminated_by_failure

    @pytest.mark.parametrize(
        "argv",
        [
            ("--policy", "scripted", "--seed", "3"),
            ("--policy", "scripted", "--scenario", "obstacle", "--seed", "4",
             "--disturb-surface", "0.075", "--disturb-object", "0.005"),
            ("--policy", "random", "--seed", "5"),
            ("--policy", "random", "--scenario", "obstacle", "--seed", "6"),
        ],
        ids=["scripted", "scripted-obstacle-disturbed", "random", "random-obstacle"],
    )
    def test_episode_aggregation_matches_reference_on_eval_logs(self, tmp_path, argv):
        assert run_cli("evaluate", *argv, "--episodes", "6", "--out", tmp_path) == 0
        _, records = read_log(next(tmp_path.glob("eval_*.jsonl")))
        expected = reference_records_to_episodes(records)
        assert len(expected) == 6
        assert repr(records_to_episodes(records)) == repr(expected)

    def test_episode_aggregation_matches_reference_on_edge_cases(self):
        def step(episode, reward=-0.5, terminated=False, **events):
            return {"episode": episode, "reward": reward, "terminated": terminated,
                    "events": events}

        cases = [
            # ids A, B, A: a repeated id after another episode is a new episode
            [step(7), step(7), step(3), step(7, terminated=True)],
            # terminated without a lift is a failure
            [step(0), step(0, terminated=True, collision_env=True)],
            # lift on the terminal step is a success, not a failure
            [step(0), step(0, reward=15.0, terminated=True, lift_success=True)],
            # truthy values that are not bool count like True, falsy like False
            [
                step(1, collision_env=1, collision_obstacle="yes", speed_violation=2.5,
                     velocity_violation=[0], collision_velocity_exceeded={"a": 1}),
                step(1, collision_env=0, collision_obstacle="", speed_violation=0.0,
                     velocity_violation=[], collision_velocity_exceeded=None,
                     lift_success=1),
                step(1, terminated=1, lift_success=0),
            ],
            # single-step episodes, and an integer reward
            [
                step(0, reward=-1, terminated=True),
                step(1),
                step(2, terminated=True, lift_success=True),
            ],
            [],
        ]
        for records in cases:
            assert repr(records_to_episodes(records)) == repr(
                reference_records_to_episodes(records)
            )

    def test_env_logs_parse_back(self, tmp_path):
        path = tmp_path / "episode.jsonl"
        env = GraspEnv()
        writer = EpisodeLogWriter(path, header={"seed": 5})
        env.set_log_writer(writer)
        obs = env.reset(seed=5)
        for _ in range(5):
            env.step(np.array([0.2, 0.0, 0.1, -1.0]))
        env.set_log_writer(None)
        writer.close()
        episodes = records_to_episodes(read_log(path)[1])
        assert len(episodes) == 1
        assert episodes[0].steps == 5


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def scripted_eval_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("scripted_eval")
    code = run_cli(
        "evaluate", "--policy", "scripted", "--episodes", "4",
        "--seed", "17", "--out", out,
    )
    assert code == 0
    return out


class TestCli:
    def test_version_and_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("--version")
        assert exc.value.code == 0

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("frobnicate")
        assert exc.value.code == 2

    def test_init_config_prints_default(self, capsys):
        assert run_cli("init-config") == 0
        text = capsys.readouterr().out
        assert "[reward]" in text
        assert "grip_prop_rew = 10.0" in text

    def test_evaluate_scripted_writes_metrics(self, scripted_eval_dir):
        metrics = json.loads((scripted_eval_dir / "metrics.json").read_text())
        assert metrics["episodes"] == 4
        assert metrics["success_rate"] == 1.0
        logs = list(scripted_eval_dir.glob("eval_*.jsonl"))
        assert len(logs) == 1

    def test_evaluate_missing_checkpoint_exit_2(self, tmp_path):
        code = run_cli(
            "evaluate", "--checkpoint", tmp_path / "missing.ckpt",
            "--episodes", "1", "--out", tmp_path,
        )
        assert code == 2

    def test_obstacle_flag_places_bar(self, tmp_path):
        code = run_cli(
            "evaluate", "--policy", "scripted", "--episodes", "2",
            "--scenario", "obstacle", "--seed", "2", "--out", tmp_path,
        )
        assert code == 0
        log = next(tmp_path.glob("eval_*.jsonl"))
        header, records = read_log(log)
        assert header["scenario"] == "obstacle"
        # scene introspection: obstacle collisions are at least representable
        env = GraspEnv()
        env.reset(seed=2, scenario="obstacle")
        assert env.scene.obstacle_present

    def test_replay_clean_log_exits_0(self, scripted_eval_dir):
        log = next(scripted_eval_dir.glob("eval_*.jsonl"))
        assert run_cli("replay", "--log", log) == 0

    def test_replay_tampered_reward_exits_1(self, scripted_eval_dir, tmp_path):
        log = next(scripted_eval_dir.glob("eval_*.jsonl"))
        lines = log.read_text().splitlines()
        record = json.loads(lines[4])
        record["reward"] += 1e-9
        lines[4] = json.dumps(record, sort_keys=True, separators=(",", ":"))
        tampered = tmp_path / "tampered.jsonl"
        tampered.write_text("\n".join(lines) + "\n")
        assert run_cli("replay", "--log", tampered) == 1

    def test_replay_coefficient_override_detects_divergence(
        self, scripted_eval_dir, tmp_path
    ):
        log = next(scripted_eval_dir.glob("eval_*.jsonl"))
        override = tmp_path / "override.ini"
        override.write_text("[reward]\ncube_coll_cost = -0.02\n")
        assert run_cli("replay", "--log", log, "--config", override) == 1

    def test_replay_missing_log_exit_2(self, tmp_path):
        assert run_cli("replay", "--log", tmp_path / "none.jsonl") == 2

    def test_assess_from_log_matches_rollout_path(self, tmp_path):
        out_roll = tmp_path / "rollout"
        code = run_cli(
            "assess", "--policy", "scripted", "--episodes", "4",
            "--scenarios", "normal", "--disturb-surface", "0", "--disturb-object", "0",
            "--seed", "23",
            "--out", out_roll,
        )
        assert code == 0
        report_roll = json.loads((out_roll / "fsa_report.json").read_text())
        log = next(out_roll.glob("assess_*.jsonl"))
        out_log = tmp_path / "fromlog"
        assert run_cli("assess", "--log", log, "--out", out_log) == 0
        report_log = json.loads((out_log / "fsa_report.json").read_text())
        assert report_log == report_roll

    def test_assess_log_header_names_its_disturbance(self, tmp_path):
        zero = ["--disturb-surface", "0", "--disturb-object", "0"]
        for extra, expected in (([], (0.075, 0.005)), (zero, (0.0, 0.0))):
            out = tmp_path / f"assess{len(extra)}"
            code = run_cli(
                "assess", "--policy", "scripted", "--episodes", "1",
                "--scenarios", "normal", "--seed", "23", "--out", out, *extra,
            )
            assert code == 0
            log = next(out.glob("assess_*.jsonl"))
            header, _ = read_log(log)
            disturbance = header["disturbance"]
            assert (
                disturbance["surface_height_delta"], disturbance["object_size_delta"]
            ) == expected
            assert run_cli("replay", "--log", log) == 0

    def test_assess_refuses_scenario(self, tmp_path):
        # assess runs the --scenarios set; --scenario, even as an
        # abbreviation of --scenarios, is not one of its flags
        with pytest.raises(SystemExit) as exc:
            run_cli(
                "assess", "--policy", "scripted", "--episodes", "1",
                "--scenarios", "normal", "--scenario", "obstacle", "--out", tmp_path,
            )
        assert exc.value.code == 2
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv",
        [("bench",), ("assess", "--no-disturb"), ("init-config", "--out", os.devnull)],
        ids=["bench", "no-disturb", "init-config-out"],
    )
    def test_removed_command_and_flag_are_usage_errors(self, argv):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2

    def test_assess_empty_log_exit_2(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert run_cli("assess", "--log", empty, "--out", tmp_path) == 2

    def test_assess_report_contains_sil2_column(self, tmp_path):
        out = tmp_path / "assess"
        run_cli(
            "assess", "--policy", "scripted", "--episodes", "2",
            "--scenarios", "normal", "--seed", "29", "--out", out,
        )
        text = (out / "fsa_report.txt").read_text()
        assert "SIL 2 Range" in text

    def test_reward_mode_flag_sets_reward_config(self, tmp_path):
        config_path = tmp_path / "run.ini"
        config_path.write_text("[run]\nreward_mode = sd-drl\n[reward]\ncoll_cost = -9.0\n")
        code = run_cli(
            "evaluate", "--policy", "scripted", "--episodes", "1",
            "--config", config_path, "--reward-mode", "drl", "--out", tmp_path,
        )
        assert code == 0
        header, _ = read_log(next(tmp_path.glob("eval_*.jsonl")))
        assert header["reward"]["mode"] == "drl"
        assert header["reward"]["coll_cost"] == -9.0

    def test_run_labels_in_any_case_reach_the_log_header(self, tmp_path):
        config_path = tmp_path / "run.ini"
        config_path.write_text("[run]\nreward_mode = SD-DRL\nscenario = Obstacle \n")
        code = run_cli(
            "evaluate", "--policy", "scripted", "--episodes", "1",
            "--config", config_path, "--out", tmp_path / "out",
        )
        assert code == 0
        log = next((tmp_path / "out").glob("eval_*.jsonl"))
        header = log.read_text().splitlines()[0]
        assert '"scenario":"obstacle"' in header and '"mode":"sd-drl"' in header

    def test_replay_smaller_than_batch_exit_2(self, tmp_path):
        # no batch could ever be drawn, so training would run 0 updates
        config_path = tmp_path / "run.ini"
        config_path.write_text("[tqc]\nreplay_capacity = 50\nbatch_size = 64\n")
        code = run_cli(
            "train", "--config", config_path, "--steps", "100",
            "--out", tmp_path / "out",
        )
        assert code == 2

    def test_negative_ik_tolerance_exit_2(self, tmp_path):
        config_path = tmp_path / "run.ini"
        config_path.write_text("[kinematics]\nik_tolerance = -1\n")
        code = run_cli(
            "evaluate", "--policy", "random", "--episodes", "1",
            "--config", config_path, "--out", tmp_path / "out",
        )
        assert code == 2

    def test_scripted_policy_follows_configured_speed_limit(self, tmp_path):
        config_path = tmp_path / "run.ini"
        config_path.write_text("[reward]\ncollision_velocity_threshold = 0.1\n")
        code = run_cli(
            "evaluate", "--policy", "scripted", "--scenario", "obstacle",
            "--episodes", "4", "--config", config_path, "--out", tmp_path,
        )
        assert code == 0
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["average_violations"]["velocity"] == 0.0
        assert metrics["safety_driven_success_rate"] == 1.0


def run_python(*argv, timeout=120, unset=()) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports safegrasp from this source tree,
    with the environment variables named in ``unset`` removed."""
    src = str(Path(safegrasp.__file__).resolve().parents[1])
    env = {name: value for name, value in os.environ.items() if name not in unset}
    return subprocess.run(
        [sys.executable, *map(str, argv)],
        capture_output=True,
        text=True,
        env={**env, "PYTHONPATH": src},
        timeout=timeout,
    )


def run_cli_process(*argv) -> subprocess.CompletedProcess:
    """Run the CLI in a fresh interpreter, as a shell user would."""
    return run_python("-m", "safegrasp.cli", *argv)


HEADER = '{"reward":{"mode":"sd-drl"},"scenario":"normal","seed":0,"type":"header"}'
# every event the env writes, as it writes them
EVENTS = (
    '{"collision_cube":false,"collision_env":false,"collision_force":0.0,'
    '"collision_impact_speed":0.0,"collision_obstacle":false,'
    '"collision_velocity_exceeded":false,"distance_d":0.25,"grasp_attempt_failed":false,'
    '"grasp_success":false,"ik_failure":false,"lift_success":false,'
    '"speed_violation":false,"velocity_violation":false}'
)
STEP = (
    '{"action":[0.0,0.0,0.0,0.0],"cube":[0.5,0.0,-0.075],"eef":[0.3,0.0,0.15],'
    f'"episode":0,"events":{EVENTS},"reward":-0.25,"step":1,"terminated":false}}'
)
MALFORMED_LOGS = {
    "invalid_json": f"{HEADER}\n{STEP}\n{{not json\n",
    "trailing_data": f"{HEADER}\n{STEP} {{}}\n",
    "not_an_object": f"{HEADER}\n{STEP}\n[1, 2]\n",
    "missing_events": HEADER + "\n" + STEP.replace(f'"events":{EVENTS},', "") + "\n",
    "missing_reward": HEADER + "\n" + STEP.replace('"reward":-0.25,', "") + "\n",
    "string_reward": HEADER + "\n" + STEP.replace('"reward":-0.25', '"reward":"-0.25"') + "\n",
    "missing_episode": HEADER + "\n" + STEP.replace('"episode":0,', "") + "\n",
    "non_int_episode": HEADER + "\n" + STEP.replace('"episode":0', '"episode":0.0') + "\n",
    "utf8_bom": "\ufeff" + HEADER + "\n" + STEP + "\n",
    "empty": "",
    "header_only": HEADER + "\n",
    "second_header": f"{HEADER}\n{HEADER}\n{STEP}\n",
    "late_header": f"{HEADER}\n{STEP}\n{HEADER}\n",
    # lines Python cannot decode: surrogate escapes stand for the raw bytes
    "invalid_utf8": f"{HEADER}\n\udcff\udcfe\n",
    "deep_nesting": f"{HEADER}\n{'[' * 100_000}{']' * 100_000}\n",
    "long_integer": HEADER + "\n" + STEP.replace("-0.25", "9" * 5000) + "\n",
    # JSON has no Infinity: the reward is not a number
    "infinite_reward": HEADER + "\n" + STEP.replace("-0.25", "Infinity") + "\n",
}


def write_log(path: Path, text: str) -> Path:
    """Write a log's text, each surrogate escape as the byte it stands for."""
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    return path



def record_index(records, episode, step) -> int:
    return next(
        i for i, r in enumerate(records) if (r["episode"], r["step"]) == (episode, step)
    )


def drop_a_step(records):
    index = record_index(records, 1, 3)
    del records[index]
    return index, "expected step 3"


def repeat_a_step(records):
    index = record_index(records, 1, 3)
    records.insert(index + 1, dict(records[index]))
    return index + 1, "expected step 4"


def split_an_episode(records):
    index = record_index(records, records[-1]["episode"], 1)
    for record in records[index:]:
        record["episode"] = records[0]["episode"]
    return index, "episode resumes after another episode"


def cut_the_last_record(records):
    records.pop()
    return len(records) - 1, "episode ends without terminated or truncated"


def clear_an_episode_end(records):
    index = record_index(records, 1, 1) - 1
    records[index]["terminated"] = records[index]["truncated"] = False
    return index, "episode ends without terminated or truncated"


def end_an_episode_early(records):
    index = record_index(records, 1, 3)
    records[index]["terminated"] = True
    return index + 1, "record after the episode's last step"


class TestReplayStructure:
    """``replay`` fails a log whose episodes are not whole: records of one
    episode apart, a missing or repeated step, or an episode without its
    end.  Each tampered log keeps every reward reproducible."""

    @pytest.mark.parametrize(
        "edit",
        [
            drop_a_step,
            repeat_a_step,
            split_an_episode,
            cut_the_last_record,
            clear_an_episode_end,
            end_an_episode_early,
        ],
    )
    def test_defect_exits_1_naming_the_record(self, scripted_eval_dir, tmp_path, capsys, edit):
        lines = next(scripted_eval_dir.glob("eval_*.jsonl")).read_text().splitlines()
        records = [json.loads(line) for line in lines[1:]]
        index, message = edit(records)
        body = [json.dumps(r, sort_keys=True, separators=(",", ":")) for r in records]
        tampered = tmp_path / "tampered.jsonl"
        tampered.write_text("\n".join([lines[0], *body]) + "\n")
        assert run_cli("replay", "--log", tampered) == 1
        record = records[index]
        assert capsys.readouterr().err == (
            f"audit failure at record {index} "
            f"(episode {record['episode']}, step {record['step']}): {message}\n"
        )

    def test_lowest_record_index_defect_is_reported(self, scripted_eval_dir, tmp_path, capsys):
        """The audit checks each record in one pass, its structure first: a
        structure defect is reported before a mistyped event in the same
        record and a tampered reward in a later one."""
        lines = next(scripted_eval_dir.glob("eval_*.jsonl")).read_text().splitlines()
        records = [json.loads(line) for line in lines[1:]]
        index, message = drop_a_step(records)
        records[index]["events"]["lift_success"] = 1
        records[-1]["reward"] += 1.0
        body = [json.dumps(r, sort_keys=True, separators=(",", ":")) for r in records]
        tampered = tmp_path / "tampered.jsonl"
        tampered.write_text("\n".join([lines[0], *body]) + "\n")
        assert run_cli("replay", "--log", tampered) == 1
        record = records[index]
        assert capsys.readouterr().err == (
            f"audit failure at record {index} "
            f"(episode {record['episode']}, step {record['step']}): {message}\n"
        )

MISSING = object()  # a header field to delete


class TestReplayHeader:
    """``replay`` refuses (exit 2, one line) a header whose ``seed`` is not
    an integer or whose ``scenario`` is unknown, and a present ``policy``
    that is not a string or ``disturbance`` that is not two finite numbers,
    and a ``reward`` table with an unknown mode or a coefficient that is not
    a finite number.  The clean headers of ``evaluate``, ``assess`` and
    training evaluation logs pass (see the clean-log tests)."""

    @pytest.mark.parametrize(
        "field,value",
        [
            ("seed", "17"),
            ("seed", True),
            ("seed", 17.0),
            ("seed", MISSING),
            ("scenario", "both"),
            ("scenario", MISSING),
            ("policy", 3),
            ("policy", None),
            ("disturbance", {"surface_height_delta": float("nan"), "object_size_delta": 0.0}),
            ("disturbance", {"surface_height_delta": 0.0, "object_size_delta": float("inf")}),
            ("disturbance", {"surface_height_delta": 0.0}),
            ("disturbance", {"surface_height_delta": "0", "object_size_delta": 0.0}),
            ("disturbance", {"surface_height_delta": False, "object_size_delta": 0.0}),
            ("disturbance", [0.0, 0.0]),
            ("seed", -1),
        ],
        ids=lambda v: "missing" if v is MISSING else None,
    )
    def test_bad_header_exits_2(self, scripted_eval_dir, tmp_path, capsys, field, value):
        lines = next(scripted_eval_dir.glob("eval_*.jsonl")).read_text().splitlines()
        header = json.loads(lines[0])
        if value is MISSING:
            del header[field]
        else:
            header[field] = value
        lines[0] = json.dumps(header, sort_keys=True, separators=(",", ":"))
        tampered = tmp_path / "tampered.jsonl"
        tampered.write_text("\n".join(lines) + "\n")
        assert run_cli("replay", "--log", tampered) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tampered}: log header: '{field}' must ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("mode", "bogus", "unknown reward mode 'bogus'; expected 'drl' or 'sd-drl'"),
            ("grip_rew", True, "'grip_rew' must be a finite number"),
            ("grip_rew", None, "'grip_rew' must be a finite number"),
            ("speed_cost", "-0.5", "'speed_cost' must be a finite number"),
        ],
        ids=["unknown_mode", "bool", "null", "string"],
    )
    def test_bad_reward_table_exits_2(
        self, scripted_eval_dir, tmp_path, capsys, key, value, message
    ):
        lines = next(scripted_eval_dir.glob("eval_*.jsonl")).read_text().splitlines()
        header = json.loads(lines[0])
        header["reward"][key] = value
        lines[0] = json.dumps(header, sort_keys=True, separators=(",", ":"))
        tampered = tmp_path / "tampered.jsonl"
        tampered.write_text("\n".join(lines) + "\n")
        assert run_cli("replay", "--log", tampered) == 2
        assert capsys.readouterr().err == (
            f"error: {tampered}: invalid reward header: {message}\n"
        )


def tamper_a_reward(header, records):
    records[4]["reward"] += 1e-9
    return 1, "audit failure at record 4 "


def add_an_event_key(header, records):
    records[4]["events"]["typo"] = 1
    return 2, "unknown event fields: ['typo']"


def drop_the_seed(header, records):
    del header["seed"]
    return 2, "log header: 'seed' must be an integer"


def cut_the_last_episode_end(header, records):
    records.pop()
    return 1, "episode ends without terminated or truncated"


@pytest.mark.parametrize(
    "edit", [cut_the_last_episode_end, tamper_a_reward, add_an_event_key, drop_the_seed]
)
def test_assess_refuses_what_replay_refuses(scripted_eval_dir, tmp_path, capsys, edit):
    """``assess --log`` runs the ``replay`` audit: the same exit code and
    one-line message, and no report for a refused log."""
    lines = next(scripted_eval_dir.glob("eval_*.jsonl")).read_text().splitlines()
    header, *records = [json.loads(line) for line in lines]
    code, message = edit(header, records)
    tampered = tmp_path / "tampered.jsonl"
    body = [json.dumps(r, sort_keys=True, separators=(",", ":")) for r in [header, *records]]
    tampered.write_text("\n".join(body) + "\n")
    assert run_cli("replay", "--log", tampered) == code
    replay_err = capsys.readouterr().err
    out = tmp_path / "out"
    assert run_cli("assess", "--log", tampered, "--out", out) == code
    err = capsys.readouterr().err
    assert err == replay_err
    assert message in err and len(err.splitlines()) == 1
    assert not out.exists()


def test_log_without_reward_table_names_the_log(scripted_eval_dir, tmp_path, capsys):
    """A header without ``reward`` exits 2 from both readers with one line
    that names the log; ``replay --config`` then scores it, while assess's
    ``--config`` stays its run config and cannot."""
    lines = next(scripted_eval_dir.glob("eval_*.jsonl")).read_text().splitlines()
    header = json.loads(lines[0])
    del header["reward"]
    lines[0] = json.dumps(header, sort_keys=True, separators=(",", ":"))
    bare = tmp_path / "bare.jsonl"
    bare.write_text("\n".join(lines) + "\n")
    ini = tmp_path / "run.ini"
    ini.write_text(default_config_text())
    for argv in (("replay",), ("assess", "--out", tmp_path / "out"),
                 ("assess", "--out", tmp_path / "out", "--config", ini)):
        assert run_cli(*argv, "--log", bare) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bare}: log header has no 'reward' table; ")
        assert len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()
    assert run_cli("replay", "--log", bare, "--config", ini) == 0
    assert capsys.readouterr().out.startswith("audit ok: ")


class TestBadNumbers:
    """A count below 1, or a disturbance that is not finite, shrinks the cube
    to nothing or lets the table or the cube of some reset scene leave the
    workspace, exits 2 with one line before any output, whatever the
    episode count and seed."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("evaluate", "--policy", "random", "--episodes", "0"),
            ("train", "--steps", "0"),
            ("train", "--eval-every", "0"),
            ("train", "--eval-episodes", "-1"),
            ("train", "--checkpoint-every", "-5"),
            ("evaluate", "--policy", "random", "--disturb-surface", "nan"),
            ("evaluate", "--policy", "random", "--disturb-object", "inf"),
            ("evaluate", "--policy", "random", "--disturb-surface", "5"),
            # a cube sampled near the region's edge would not fit: refused
            # even where no sampled episode comes near it
            ("evaluate", "--policy", "random", "--seed", "7", "--episodes", "30",
             "--disturb-object", "0.3"),
            ("evaluate", "--policy", "random", "--seed", "7", "--episodes", "1",
             "--disturb-object", "0.3"),
            ("assess", "--policy", "random", "--seed", "3", "--episodes", "2",
             "--disturb-object", "0.28"),
            ("assess", "--policy", "random", "--seed", "3", "--episodes", "500",
             "--disturb-object", "0.28"),
            # a cube shrunk to zero or negative size
            ("evaluate", "--policy", "random", "--disturb-object", "-0.05"),
            ("evaluate", "--policy", "random", "--disturb-object", "-0.06"),
            ("assess", "--policy", "random", "--disturb-surface", "5"),
            ("assess", "--policy", "random", "--scenarios", "obstacle", "--disturb-surface", "-1"),
            # a table raised into the tool's home sphere
            ("assess", "--policy", "scripted", "--episodes", "2", "--disturb-surface", "0.25"),
            # a cube grown into the tool's home sphere
            ("evaluate", "--policy", "scripted", "--episodes", "2", "--disturb-object", "0.25",
             "--seed", "7"),
            ("assess", "--policy", "random", "--episodes", "0"),
            ("assess", "--policy", "random", "--episodes", "-3"),
            # two scenarios by default: a count they do not split evenly
            ("assess", "--policy", "random", "--episodes", "1"),
            ("assess", "--policy", "random", "--episodes", "3"),
        ],
        ids=" ".join,
    )
    def test_exit_2_with_one_line(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert run_cli(*argv, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_largest_admitted_object_delta_runs(self, tmp_path):
        argv = ("assess", "--policy", "random", "--seed", "3", "--episodes", "2",
                "--disturb-object", "0.2")
        assert run_cli(*argv, "--out", tmp_path) == 0


# config file text (surrogate escapes stand for raw bytes), extra flags, and
# what the one-line message names
BAD_CONFIGS = {
    "invalid_utf8": ("[run]\nseed = 1\n\udcff\udcfe\n", (), "cannot parse"),
    "negative_seed_file": ("[run]\nseed = -5\n", (), "seed must be a non-negative integer"),
    "negative_seed_flag": ("", ("--seed", "-5"), "seed must be a non-negative integer"),
    "unreachable_home": (
        "[scene]\nhome_position = 5.0 5.0 5.0\n", (), "home position (5.0, 5.0, 5.0)"
    ),
    "cube_region_off_workspace": (
        "[scene]\ncube_region_min = 0.45 -0.5\n", (), "the cube, resting on the table"
    ),
    # a reset would build an obstacle of negative width
    "nonpositive_obstacle": (
        "[scene]\nobstacle_half_extents = 0.025 -0.2 0.025\n",
        (),
        "obstacle_half_extents must be positive",
    ),
    # the obstacle region lies over the whole cube region
    "cube_region_under_obstacle": (
        "[scene]\ncube_region_min = 0.36 -0.04\ncube_region_max = 0.38 0.04\n",
        (),
        "some obstacle placement overlaps every cube placement",
    ),
    # the tool sphere would start every episode inside the table
    "home_in_the_table": (
        "[scene]\nhome_position = 0.30 0.0 -0.085\n", (),
        "the tool at its home position must clear the table",
    ),
    "tool_as_large_as_the_home_height": (
        "[scene]\neef_radius = 0.5\n", (), "the tool at its home position must clear the table"
    ),
    # TqcConfig refuses these widths at load, whichever command runs
    "zero_hidden_width": ("[tqc]\nhidden_sizes = 64 0\n", (), "hidden_sizes must hold"),
    "negative_hidden_width": ("[tqc]\nhidden_sizes = 64 -1\n", (), "hidden_sizes must hold"),
    "no_hidden_layer": ("[tqc]\nhidden_sizes =\n", (), "hidden_sizes must hold"),
    # would train with no warm-up at all
    "negative_warmup": ("[tqc]\nwarmup_steps = -5\n", (), "warmup_steps must be >= 0"),
    "unknown_scenario": (
        "[run]\nscenario = Bogus\n", (),
        "error: [run] scenario: unknown scenario 'Bogus'; expected 'normal' or 'obstacle'\n",
    ),
}


class TestBadConfig:
    """A config file or seed that cannot make a run exits 2 with one line
    naming it before any file is written; a scene config is not reported as
    a disturbance."""

    COMMANDS = {
        "train": ("train", "--steps", "10"),
        "evaluate": ("evaluate", "--policy", "random", "--episodes", "2"),
        "assess": ("assess", "--policy", "random", "--episodes", "2"),
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
    def test_exit_2_with_one_line(self, tmp_path, capsys, case, command):
        text, flags, message = BAD_CONFIGS[case]
        ini = tmp_path / "run.ini"
        ini.write_bytes(text.encode("utf-8", "surrogateescape"))
        out = tmp_path / "out"
        argv = (*self.COMMANDS[command], "--config", ini, *flags, "--out", out)
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and not err.startswith("error: --disturb")
        assert message in err and len(err.splitlines()) == 1
        assert not out.exists()

    def test_directory_is_not_a_config_file(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ("evaluate", "--policy", "random", "--config", tmp_path, "--out", out)
        assert run_cli(*argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("io error: ") and len(err.splitlines()) == 1
        assert not out.exists()


# a [scene] that leaves the cube only a 2 mm sliver of its region beside the
# obstacle: x >= 0.618 m, with the obstacle 0.386 m wide at x = 0.40 m
THIN_SLIVER_SCENE = (
    "[scene]\nobstacle_half_extents = 0.193 0.2 0.025\n"
    "obstacle_region_min = 0.40 -0.05\nobstacle_region_max = 0.40001 0.05\n"
)


class TestThinSliverScene:
    """Every reset draws the cube from the free region, so a scene config
    that leaves it a thin sliver runs to the end."""

    def test_evaluate_runs_every_episode(self, tmp_path):
        ini = tmp_path / "sliver.ini"
        ini.write_text(THIN_SLIVER_SCENE)
        out = tmp_path / "out"
        argv = ("evaluate", "--config", ini, "--scenario", "obstacle", "--policy", "random",
                "--episodes", "40", "--out", out)
        assert run_cli(*argv) == 0
        (log,) = out.glob("eval_*.jsonl")
        _, records = read_log(log)
        starts = [r["cube"][0] for r in records if r["step"] == 1]
        assert len(starts) == 40 and min(starts) >= 0.618
        assert run_cli("replay", "--log", log) == 0

    def test_train_runs_to_the_end(self, tmp_path):
        ini = tmp_path / "sliver.ini"
        ini.write_text(
            THIN_SLIVER_SCENE + "[tqc]\nbatch_size = 32\nhidden_sizes = 16 16\n"
            "warmup_steps = 50\nreplay_capacity = 5000\n"
        )
        out = tmp_path / "run"
        argv = ("train", "--config", ini, "--scenario", "obstacle", "--steps", "300",
                "--eval-every", "2", "--eval-episodes", "1", "--out", out)
        assert run_cli(*argv) == 0
        assert json.loads((out / "metrics.json").read_text())["total_steps"] == 300

    def test_a_grown_cube_with_no_room_is_refused(self, tmp_path, capsys):
        ini = tmp_path / "sliver.ini"
        ini.write_text(THIN_SLIVER_SCENE)
        out = tmp_path / "out"
        assert run_cli("assess", "--config", ini, "--policy", "random", "--out", out) == 2
        err = capsys.readouterr().err
        assert err == (
            "error: --disturb-surface/--disturb-object: some obstacle placement "
            "overlaps every cube placement\n"
        )
        assert not out.exists()


class TestMalformedLogs:
    """A log the audit commands cannot read is a usage error (exit 2) with a
    one-line message, not a traceback or an audit failure (exit 1)."""

    @pytest.mark.parametrize("command", ["replay", "assess"])
    @pytest.mark.parametrize("case", sorted(MALFORMED_LOGS))
    def test_exit_2_with_one_line(self, tmp_path, case, command):
        log = write_log(tmp_path / f"{case}.jsonl", MALFORMED_LOGS[case])
        argv = [command, "--log", log]
        if command == "assess":
            argv += ["--out", tmp_path / "out"]
        proc = run_cli_process(*argv)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")
        assert len(proc.stderr.splitlines()) == 1
        assert log.name in proc.stderr

    def test_message_names_the_line(self, tmp_path):
        log = tmp_path / "log.jsonl"
        log.write_text(MALFORMED_LOGS["missing_events"])
        with pytest.raises(runlog.LogFormatError, match=r"log\.jsonl:2: .*'events'"):
            read_log(log)

    @pytest.mark.parametrize(
        "case,message",
        [
            (
                "invalid_json",
                "3: invalid JSON: Expecting property name enclosed in double quotes: "
                "line 1 column 2 (char 1)",
            ),
            ("trailing_data",
             f"2: invalid JSON: Extra data: line 1 column {len(STEP) + 2} (char {len(STEP) + 1})"),
            ("not_an_object", "3: not a JSON object"),
            ("missing_events", "2: step record has no 'events' object"),
            ("string_reward", "2: step record has no numeric 'reward'"),
            ("missing_episode", "2: step record has no integer 'episode'"),
            ("non_int_episode", "2: step record has no integer 'episode'"),
            ("second_header", "2: header after the first record"),
            ("late_header", "3: header after the first record"),
            ("invalid_utf8", "2: not UTF-8 text"),
            ("infinite_reward", "2: step record has no numeric 'reward'"),
        ],
    )
    def test_message_text(self, tmp_path, case, message):
        log = write_log(tmp_path / "log.jsonl", MALFORMED_LOGS[case])
        with pytest.raises(runlog.LogFormatError) as info:
            read_log(log)
        assert str(info.value) == f"{log}:{message}"

    @pytest.mark.parametrize(
        "case,message",
        [("deep_nesting", "maximum recursion depth"), ("long_integer", "4300 digits")],
    )
    def test_undecodable_json_names_the_line(self, tmp_path, case, message):
        log = write_log(tmp_path / "log.jsonl", MALFORMED_LOGS[case])
        with pytest.raises(runlog.LogFormatError) as info:
            read_log(log)
        assert str(info.value).startswith(f"{log}:2: invalid JSON: ")
        assert message in str(info.value)

    def test_undecodable_line_is_found_past_the_read_ahead(self, tmp_path):
        log = write_log(tmp_path / "log.jsonl", HEADER + f"\n{STEP}" * 3000 + "\n\udcff\n")
        with pytest.raises(runlog.LogFormatError, match=r"log\.jsonl:3002: not UTF-8 text$"):
            read_log(log)

    @pytest.mark.parametrize(
        "text,message",
        [
            (HEADER + "\n" + STEP.replace('"events":{', '"events":{"typo":1,'), "step record 0"),
            (HEADER.replace('"mode":"sd-drl"', '"typo":1') + "\n" + STEP, "invalid reward header"),
        ],
        ids=["unknown_event_field", "unknown_reward_field"],
    )
    def test_replay_unknown_fields_exit_2(self, tmp_path, text, message):
        log = tmp_path / "log.jsonl"
        log.write_text(text + "\n")
        proc = run_cli_process("replay", "--log", log)
        assert proc.returncode == 2
        assert message in proc.stderr and "Traceback" not in proc.stderr


def retyped(key: str, value: str | None) -> str:
    """A one-step log whose step record holds ``key`` (an event, or a
    top-level key of the record) with the JSON text ``value``, or lacks
    ``key`` when ``value`` is None."""
    record = json.loads(STEP)
    holder = record["events"] if key in TransitionEvents().as_dict() else record
    holder.pop(key, None)
    if value is not None:
        holder[key] = "<value>"
    step = json.dumps(record, separators=(",", ":")).replace('"<value>"', value or "")
    return f"{HEADER}\n{step}\n"


class TestMistypedRecords:
    """A step record whose event or end flag has the wrong JSON type exits 2
    with one line naming the record and the key: a flag is a bool, a
    measure a finite number (not a bool, ``NaN``, or a literal such as
    ``1e400`` that decodes to infinity).  So does a record whose ``action``
    is not a list of 4 finite numbers, whose ``eef`` or ``cube`` is not a
    list of 3, that lacks one of the 13 events the env writes, or that holds
    a key the env does not write."""

    @pytest.mark.parametrize(
        "key,value",
        [
            ("distance_d", '"0.3"'),
            ("distance_d", "null"),
            ("distance_d", "[1]"),
            ("distance_d", "true"),
            ("distance_d", "NaN"),
            ("distance_d", "1e400"),
            ("collision_force", "{}"),
            ("collision_impact_speed", "false"),
            ("grasp_success", '"false"'),
            ("lift_success", "1"),
            ("ik_failure", "null"),
            ("distance_d", None),
            ("velocity_violation", None),
            ("terminated", '"yes"'),
            ("terminated", "1"),
            ("truncated", "null"),
            ("action", '[null,"x",null]'),
            ("action", "[0.0,0.0,0.0]"),
            ("action", "[true,0.0,0.0,0.0]"),
            ("action", "[0.0,NaN,0.0,0.0]"),
            ("eef", '"nowhere"'),
            ("eef", "[0.3,0.0,0.15,1.0]"),
            ("cube", None),
            ("cube", '{"x":0.5}'),
            ("extra", "{}"),
            ("type", '"step"'),
        ],
    )
    @pytest.mark.parametrize("command", ["replay", "assess"])
    def test_exit_2_with_one_line(self, tmp_path, capsys, command, key, value):
        log = write_log(tmp_path / "log.jsonl", retyped(key, value))
        argv = [command, "--log", log]
        if command == "assess":
            argv += ["--out", tmp_path / "out"]
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {log}: step record 0: ")
        assert repr(key) in err and len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    def test_edited_eval_log_exits_2(self, tmp_path, capsys, scripted_eval_dir):
        """One record of a written log with a bad ``action`` and ``eef``, no
        ``cube`` and an extra key: the first bad key is named."""
        (source,) = scripted_eval_dir.glob("eval_*.jsonl")
        lines = source.read_text().splitlines()
        record = json.loads(lines[6])
        record.update(action=[None, "x", None], eef="nowhere", extra=1)
        del record["cube"]
        lines[6] = json.dumps(record)
        log = write_log(tmp_path / "log.jsonl", "\n".join(lines) + "\n")
        for argv in (("replay",), ("assess", "--out", tmp_path / "out")):
            assert run_cli(*argv, "--log", log) == 2
            err = capsys.readouterr().err
            assert err == (
                f"error: {log}: step record 5: 'action' must be a list of 4 finite numbers\n"
            )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["replay", "assess"])
    def test_missing_events_name_the_first_in_sorted_order(
        self, tmp_path, capsys, scripted_eval_dir, command
    ):
        """A written record without three of its events: the one line names
        the record and the first missing event in sorted order."""
        (source,) = scripted_eval_dir.glob("eval_*.jsonl")
        lines = source.read_text().splitlines()
        record = json.loads(lines[6])
        for key in ("lift_success", "speed_violation", "collision_force"):
            del record["events"][key]
        lines[6] = json.dumps(record)
        log = write_log(tmp_path / "log.jsonl", "\n".join(lines) + "\n")
        argv = [command, "--log", log]
        if command == "assess":
            argv += ["--out", tmp_path / "out"]
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err == (
            f"error: {log}: step record 5: missing event 'collision_force'\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("missing,tampered,code", [(2, 5, 2), (5, 2, 1)])
    def test_lowest_record_index_defect_wins_over_a_missing_event(
        self, tmp_path, capsys, scripted_eval_dir, missing, tampered, code
    ):
        (source,) = scripted_eval_dir.glob("eval_*.jsonl")
        header, *records = source.read_text().splitlines()
        records = [json.loads(line) for line in records]
        del records[missing]["events"]["distance_d"]
        records[tampered]["reward"] += 1.0
        log = write_log(
            tmp_path / "log.jsonl", "\n".join([header, *map(json.dumps, records)]) + "\n"
        )
        assert run_cli("replay", "--log", log) == code
        assert f"record {min(missing, tampered)}" in capsys.readouterr().err

    def test_well_typed_record_passes_the_type_check(self, tmp_path, capsys):
        # an int measure is a number: the audit goes on to the reward
        log = write_log(tmp_path / "log.jsonl", retyped("distance_d", "0"))
        assert run_cli("replay", "--log", log) == 1
        assert "logged reward -0.25 != recomputed" in capsys.readouterr().err


@pytest.fixture(scope="module")
def small_log(tmp_path_factory) -> list[dict]:
    """The header and step records of a valid log: two random-policy
    episodes of at most four steps."""
    out = tmp_path_factory.mktemp("small_log")
    ini = out / "short.ini"
    ini.write_text("[env]\nmax_steps = 4\n")
    argv = ("evaluate", "--policy", "random", "--episodes", "2", "--seed", "3")
    assert run_cli(*argv, "--config", ini, "--out", out) == 0
    (log,) = out.glob("eval_*.jsonl")
    return [json.loads(line) for line in log.read_text().splitlines()]


# mutations of one value: JSON values of other types, and two raw texts
# that Python's decoder cannot hold, spliced in through a placeholder
RETYPED = (None, True, False, 0, -1, 2.5, 10**400, float("nan"), "0.3", "false", [1], {})
RAW_TEXTS = {"deep": "[" * 100_000 + "]" * 100_000, "long": "9" * 5000}


def mutated(data, records: list[dict]) -> bytes:
    """``records`` as JSONL with one drawn mutation: a value retyped or
    replaced by a raw text, a key dropped, the file cut, or invalid UTF-8
    spliced in."""
    kind = data.draw(st.sampled_from(["retype", "drop", "cut", "utf8", *RAW_TEXTS]))
    records = copy.deepcopy(records)
    if kind not in ("cut", "utf8"):
        record = data.draw(st.sampled_from(records))
        holder = data.draw(
            st.sampled_from([record, *(v for v in record.values() if type(v) is dict)])
        )
        key = data.draw(st.sampled_from(sorted(holder)))
        if kind == "drop":
            del holder[key]
        elif kind == "retype":
            holder[key] = data.draw(st.sampled_from(RETYPED))
        else:
            holder[key] = f"<{kind}>"
    blob = "".join(json.dumps(record) + "\n" for record in records).encode()
    for name, text in RAW_TEXTS.items():
        blob = blob.replace(f'"<{name}>"'.encode(), text.encode())
    if kind in ("cut", "utf8"):
        at = data.draw(st.integers(0, len(blob)))
        blob = blob[:at] if kind == "cut" else blob[:at] + b"\xff\xfe" + blob[at:]
    return blob


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_replay_of_a_mutated_log_exits_with_a_code(small_log, tmp_path_factory, data):
    """Whatever the mutation, ``replay`` returns 0, 1 or 2, and a refusal is
    one line: it never raises."""
    log = tmp_path_factory.getbasetemp() / "mutated.jsonl"
    log.write_bytes(mutated(data, small_log))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["replay", "--log", str(log)])
    assert code in (0, 1, 2)
    assert len(err.getvalue().splitlines()) == (code != 0)


class TestBadCheckpoint:
    """An unreadable checkpoint, or one whose arrays do not fit its own
    config, is a usage error (exit 2) with a one-line message, not a
    traceback with the audit-failure code 1."""

    # what the one-line message must name, per case; critics/w0 is
    # (2, 21, 8) for 17 + 4 inputs and 8 hidden units
    EXPECTED = {
        "junk": ("bad magic",),
        "truncated": ("truncated",),
        "misshapen": ("critics/w0", "(2, 21, 9)", "(2, 21, 8)"),
        "missing": ("no array 'targets/w0'",),
        "deep_header": ("malformed header",),
        "wrong_obs_dim": ("obs_dim 5 and act_dim 4", "env's 17 and 4"),
        "wrong_act_dim": ("obs_dim 17 and act_dim 3", "env's 17 and 4"),
        "nan_weight": ("'actor/w0' holds a non-finite value",),
        "infinite_alpha": ("'log_alpha' holds a non-finite value",),
        # init_mlp_params refuses a network whose input width is 0
        "zero_obs_dim": ("all widths must be >= 1",),
    }
    # well-formed agents for another env's dimensions
    DIMS = {"wrong_obs_dim": (5, 4), "wrong_act_dim": (17, 3)}

    @staticmethod
    def write_case(tmp_path, case) -> Path:
        path = tmp_path / f"{case}.ckpt"
        if case == "junk":
            path.write_bytes(b"NOTACKPT" + b"\x00" * 16)
            return path
        if case == "deep_header":
            header = b"[" * 100_000 + b"]" * 100_000
            path.write_bytes(CHECKPOINT_MAGIC + len(header).to_bytes(8, "little") + header)
            return path
        obs_dim, act_dim = TestBadCheckpoint.DIMS.get(case, (17, 4))
        agent = TqcAgent(obs_dim, act_dim, TqcConfig(hidden_sizes=(8, 8)), seed=0)
        agent.save(path)
        if case == "truncated":
            path.write_bytes(path.read_bytes()[:-9])
            return path
        if case in TestBadCheckpoint.DIMS:
            return path
        # a well-formed file with an array or a meta value the agent cannot take
        arrays, meta = load_checkpoint(path)
        if case == "misshapen":
            arrays["critics/w0"] = np.zeros((2, 21, 9))
        elif case == "nan_weight":
            arrays["actor/w0"][3, 2] = np.nan
        elif case == "infinite_alpha":
            arrays["log_alpha"] = np.array(-np.inf)
        elif case == "zero_obs_dim":
            meta["obs_dim"] = 0
        else:
            del arrays["targets/w0"]
        save_checkpoint(path, arrays, meta)
        return path

    @pytest.mark.parametrize("command", ["evaluate", "assess"])
    @pytest.mark.parametrize("case", sorted(EXPECTED))
    def test_exit_2_with_one_line(self, tmp_path, case, command):
        path = self.write_case(tmp_path, case)
        proc = run_cli_process(
            command, "--checkpoint", path, "--episodes", "1", "--out", tmp_path / "out"
        )
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: cannot load checkpoint")
        assert len(proc.stderr.splitlines()) == 1
        assert all(part in proc.stderr for part in self.EXPECTED[case])
        # refused before any file is written
        assert not (tmp_path / "out").exists()


def test_modules_import_without_warnings():
    """Every safegrasp module imports cleanly with warnings made errors."""
    code = (
        "import importlib, pkgutil, safegrasp\n"
        "for module in pkgutil.iter_modules(safegrasp.__path__):\n"
        "    importlib.import_module('safegrasp.' + module.name)\n"
    )
    proc = run_python("-W", "error", "-c", code)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="counts threads in /proc")
def test_import_pins_blas_to_one_thread():
    """Importing the package sets the BLAS thread variables before numpy
    loads, so a fresh interpreter with none of them set runs one thread."""
    code = "import os, safegrasp.cli\nprint(len(os.listdir('/proc/self/task')))"
    unset = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    proc = run_python("-c", code, unset=unset)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1"


class TestTrainerSmoke:
    def test_tiny_training_run_produces_outputs(self, tmp_path):
        config_path = tmp_path / "tiny.ini"
        config_path.write_text(
            "[tqc]\nbatch_size = 32\nhidden_sizes = 16 16\nwarmup_steps = 50\n"
            "replay_capacity = 5000\n"
        )
        out = tmp_path / "run"
        code = run_cli(
            "train", "--config", config_path, "--steps", "300",
            "--eval-every", "2", "--eval-episodes", "1",
            "--seed", "1", "--out", out,
        )
        assert code == 0
        assert (out / "checkpoint.ckpt").exists()
        assert (out / "metrics.json").exists()
        assert (out / "train_episodes.jsonl").exists()
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["total_steps"] == 300
        assert metrics["updates"] > 0
        eval_logs = sorted((out / "eval").glob("eval_*.jsonl"))
        assert eval_logs
        for log in eval_logs:
            assert run_cli("replay", "--log", log) == 0
        # the checkpoint loads and evaluates
        code = run_cli(
            "evaluate", "--checkpoint", out / "checkpoint.ckpt",
            "--episodes", "1", "--seed", "5", "--out", tmp_path / "eval",
        )
        assert code == 0

    def test_episode_steps_sum_to_total_steps(self, tmp_path):
        """Each episode summary counts only the transitions the learner used."""
        config_path = tmp_path / "tiny.ini"
        config_path.write_text(
            "[tqc]\nbatch_size = 32\nhidden_sizes = 16 16\nwarmup_steps = 50\n"
            "replay_capacity = 5000\n"
        )
        out = tmp_path / "run"
        code = run_cli(
            "train", "--config", config_path, "--steps", "250",
            "--eval-every", "100", "--eval-episodes", "1",
            "--seed", "2", "--out", out,
        )
        assert code == 0
        lines = (out / "train_episodes.jsonl").read_text().splitlines()
        steps = [json.loads(line)["steps"] for line in lines]
        metrics = json.loads((out / "metrics.json").read_text())
        assert sum(steps) == metrics["total_steps"] == 250
        assert len(steps) == metrics["episodes"]

    def test_workers_flag_is_gone(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("train", "--steps", "10", "--workers", "2", "--out", tmp_path)
        assert exc.value.code == 2

    def test_scenario_name_trains_like_the_member(self, tmp_path):
        """A Trainer built from ``RunConfig(scenario="obstacle")`` writes the
        bytes of one built from the same name in another case and spacing."""
        tqc = TqcConfig(batch_size=16, hidden_sizes=(8,), warmup_steps=30, replay_capacity=500)
        outputs = []
        for scenario in ("obstacle", " Obstacle "):
            out = tmp_path / str(len(outputs))
            Trainer(
                RunConfig(seed=4, scenario=scenario, tqc=tqc), out, total_steps=120,
                eval_every_episodes=1, eval_episodes=1,
            ).run()
            outputs.append({
                path.relative_to(out): path.read_bytes()
                for path in sorted(out.rglob("*")) if path.is_file()
            })
        assert outputs[0] == outputs[1]
        metrics = json.loads(outputs[0][Path("metrics.json")])
        assert metrics["scenario"] == "obstacle"
        assert Path("eval/eval_0001.jsonl") in outputs[0]

    def test_trainer_refuses_more_than_one_worker(self, tmp_path):
        with pytest.raises(ValueError, match="workers must be 1"):
            Trainer(RunConfig(seed=1), tmp_path, total_steps=10, workers=2)

    @pytest.mark.parametrize("every", [0, -3])
    def test_trainer_refuses_a_checkpoint_cadence_below_1(self, tmp_path, every):
        """As the CLI's ``--checkpoint-every`` does: 0 would write no
        checkpoint and -3 one every third step."""
        with pytest.raises(ValueError, match="checkpoint_every_steps must be >= 1"):
            Trainer(RunConfig(seed=1), tmp_path, total_steps=10, checkpoint_every_steps=every)
        assert not any(tmp_path.iterdir())


def fail_metrics_replace(monkeypatch, name="metrics.json"):
    """Make moving a finished ``name`` (``metrics.json``) into place fail."""
    real_replace = os.replace

    def replace_or_fail(src, dst):
        if Path(dst).name == name:
            raise OSError("disk full")
        real_replace(src, dst)

    monkeypatch.setattr(runlog.os, "replace", replace_or_fail)


class TestAtomicMetrics:
    """A failed write leaves the previous metrics.json (or fsa_report.json)
    whole and no temporary."""

    def test_evaluate(self, tmp_path, monkeypatch):
        args = ("evaluate", "--policy", "scripted", "--out", tmp_path)
        assert run_cli(*args, "--episodes", "1", "--seed", "3") == 0
        before = (tmp_path / "metrics.json").read_bytes()
        fail_metrics_replace(monkeypatch)
        assert run_cli(*args, "--episodes", "2", "--seed", "4") == 3  # io error
        assert (tmp_path / "metrics.json").read_bytes() == before
        assert json.loads(before)["episodes"] == 1
        assert not list(tmp_path.glob("*.tmp"))

    def test_trainer(self, tmp_path, monkeypatch):
        config_path = tmp_path / "tiny.ini"
        config_path.write_text(
            "[tqc]\nbatch_size = 32\nhidden_sizes = 16 16\nwarmup_steps = 40\n"
            "replay_capacity = 1000\n"
        )
        config = load_config(config_path)
        out = tmp_path / "run"

        def train(seed):
            Trainer(
                replace(config, seed=seed), out, total_steps=50,
                eval_every_episodes=100, eval_episodes=1,
            ).run()

        train(1)
        before = (out / "metrics.json").read_bytes()
        fail_metrics_replace(monkeypatch)
        with pytest.raises(OSError, match="disk full"):
            train(2)
        assert (out / "metrics.json").read_bytes() == before
        assert json.loads(before)["seed"] == 1
        assert not list(out.glob("*.tmp"))

    def test_assess(self, tmp_path, monkeypatch):
        args = ("assess", "--policy", "scripted", "--scenarios", "normal", "--out", tmp_path)
        assert run_cli(*args, "--episodes", "1", "--seed", "3") == 0
        before = (tmp_path / "fsa_report.json").read_bytes()
        fail_metrics_replace(monkeypatch, "fsa_report.json")
        assert run_cli(*args, "--episodes", "2", "--seed", "4") == 3  # io error
        assert (tmp_path / "fsa_report.json").read_bytes() == before
        assert not list(tmp_path.glob("*.tmp"))

    def test_json_layout(self, tmp_path):
        doc = {"b": [1, 2.5], "a": {"c": None}}
        runlog.write_json_atomically(tmp_path / "doc.json", doc)
        expected = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        assert (tmp_path / "doc.json").read_bytes() == expected.encode("utf-8")


def test_readme_quick_start_parses():
    """Every ``safegrasp ...`` line of the README's Quick start block is a
    command line the CLI accepts, so a removed command or flag cannot stay
    in the docs."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Quick start", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    commands = [line for line in block.splitlines() if line.startswith("safegrasp ")]
    assert len(commands) >= 6
    parser = _build_parser()
    for line in commands:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README Quick start line does not parse: {line}")


def test_package_import_loads_no_submodule():
    """``import safegrasp`` pins the BLAS thread variables and loads nothing
    else of the package: each submodule is imported where it is used."""
    code = (
        "import os, sys, safegrasp\n"
        "print(sorted(name for name in sys.modules if name.startswith('safegrasp.')))\n"
        "print([os.environ.get(name) for name in "
        "('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS', 'MKL_NUM_THREADS')])\n"
    )
    unset = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    proc = run_python("-c", code, unset=unset)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "['1', '1', '1']"]
