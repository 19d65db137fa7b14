"""Run configuration: defaults, file loading, strict validation.

The config file is flat key-value text with INI sections.  Every reward
coefficient, scene dimension, arm parameter and learner hyperparameter is a
named key; unknown sections or keys are rejected so typos fail loudly.

Example (all keys optional, shown with their defaults)::

    [run]
    seed = 0
    scenario = normal
    reward_mode = sd-drl
    out_dir = runs

    [reward]
    speed_cost = -0.5
    grip_rew = 5.0
    ...

    [kinematics]
    ; per-joint rows: a d alpha theta_offset limit_min limit_max
    joint1 = 0.0 0.089159 1.5707963267948966 0.0 -6.283185307179586 6.283185307179586
    ...
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .env import EnvConfig, RewardConfig, SceneConfig, Scenario, _as_reward_mode, _as_scenario
from .kinematics import (
    ArmModel,
    DEFAULT_IK_DAMPING,
    DEFAULT_IK_MAX_ITERATIONS,
    DEFAULT_IK_TOLERANCE,
    DEFAULT_MAX_JOINT_SPEED,
    TWO_PI,
    UR5_DH,
)
from .tqc import TqcConfig


class ConfigError(ValueError):
    """Raised for malformed or unknown configuration content."""


@dataclass
class RunConfig:
    seed: int = 0
    scenario: Scenario = Scenario.NORMAL
    out_dir: str = "runs"
    reward: RewardConfig = field(default_factory=RewardConfig)
    env: EnvConfig = field(default_factory=EnvConfig)
    scene: SceneConfig = field(default_factory=SceneConfig)
    tqc: TqcConfig = field(default_factory=TqcConfig)
    arm: ArmModel = field(default_factory=ArmModel.default_ur5)

    def build_env(self):
        from .env import GraspEnv

        return GraspEnv(
            arm=self.arm,
            scene_config=self.scene,
            env_config=self.env,
            reward_config=self.reward,
        )


def _parse_float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"expected a number, got {text!r}") from None


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"expected an integer, got {text!r}") from None


def _parse_floats(text: str, count: int) -> tuple:
    parts = text.split()
    if len(parts) != count:
        raise ConfigError(f"expected {count} numbers, got {text!r}")
    return tuple(_parse_float(p) for p in parts)


_REWARD_KEYS = {
    "mode": None,  # handled via [run] reward_mode as well; kept here for overrides
    "speed_cost": _parse_float,
    "coll_cost": _parse_float,
    "cube_coll_cost": _parse_float,
    "obstacle_coll_cost": _parse_float,
    "coll_vel_cost": _parse_float,
    "gripper_cost": _parse_float,
    "grip_rew": _parse_float,
    "grip_prop_rew": _parse_float,
    "ik_cost": _parse_float,
    "collision_velocity_threshold": _parse_float,
    "force_failure_threshold": _parse_float,
}

_ENV_KEYS = {
    "action_scale": _parse_float,
    "dt": _parse_float,
    "max_steps": _parse_int,
    "grasp_radius": _parse_float,
    "lift_height": _parse_float,
    "proximity_threshold": _parse_float,
}

_SCENE_KEYS = {
    "table_height": _parse_float,
    "workspace_min": lambda t: _parse_floats(t, 3),
    "workspace_max": lambda t: _parse_floats(t, 3),
    "cube_half_extent": _parse_float,
    "cube_region_min": lambda t: _parse_floats(t, 2),
    "cube_region_max": lambda t: _parse_floats(t, 2),
    "obstacle_half_extents": lambda t: _parse_floats(t, 3),
    "obstacle_region_min": lambda t: _parse_floats(t, 2),
    "obstacle_region_max": lambda t: _parse_floats(t, 2),
    "contact_stiffness": _parse_float,
    "cube_stiffness": _parse_float,
    "eef_radius": _parse_float,
    "home_position": lambda t: _parse_floats(t, 3),
}

_TQC_KEYS = {
    "n_critics": _parse_int,
    "quantiles_per_critic": _parse_int,
    "dropped_per_critic": _parse_int,
    "discount": _parse_float,
    "target_smoothing": _parse_float,
    "learning_rate": _parse_float,
    "batch_size": _parse_int,
    "entropy_target": _parse_float,
    "replay_capacity": _parse_int,
    "warmup_steps": _parse_int,
    "hidden_sizes": lambda t: tuple(_parse_int(p) for p in t.split()),
    "train_freq": _parse_int,
}

_RUN_KEYS = {
    "seed": _parse_int,
    "scenario": str,
    "reward_mode": str,
    "out_dir": str,
}

_KIN_SCALAR_KEYS = {
    "max_joint_speed": _parse_float,
    "ik_damping": _parse_float,
    "ik_tolerance": _parse_float,
    "ik_max_iterations": _parse_int,
}
_JOINT_KEYS = tuple(f"joint{i}" for i in range(1, 7))


def load_config(path=None) -> RunConfig:
    """Build a :class:`RunConfig` from defaults plus an optional file."""
    if path is None:
        return RunConfig()
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None

    known_sections = {"run", "reward", "env", "scene", "tqc", "kinematics"}
    unknown = set(parser.sections()) - known_sections
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")

    def section_values(name: str, schema: dict) -> dict:
        if not parser.has_section(name):
            return {}
        out = {}
        for key, raw in parser.items(name):
            if key not in schema:
                raise ConfigError(f"unknown key [{name}] {key}")
            out[key] = raw
        return out

    run_raw = section_values("run", _RUN_KEYS)
    reward_raw = section_values("reward", _REWARD_KEYS)
    env_raw = section_values("env", _ENV_KEYS)
    scene_raw = section_values("scene", _SCENE_KEYS)
    tqc_raw = section_values("tqc", _TQC_KEYS)

    kin_raw = {}
    if parser.has_section("kinematics"):
        for key, raw in parser.items("kinematics"):
            if key not in _KIN_SCALAR_KEYS and key not in _JOINT_KEYS:
                raise ConfigError(f"unknown key [kinematics] {key}")
            kin_raw[key] = raw

    try:
        run_kwargs = {k: _RUN_KEYS[k](v) for k, v in run_raw.items()}
        reward_kwargs = {
            k: (_REWARD_KEYS[k](v) if _REWARD_KEYS[k] else v)
            for k, v in reward_raw.items()
        }
        env_kwargs = {k: _ENV_KEYS[k](v) for k, v in env_raw.items()}
        scene_kwargs = {k: _SCENE_KEYS[k](v) for k, v in scene_raw.items()}
        tqc_kwargs = {k: _TQC_KEYS[k](v) for k, v in tqc_raw.items()}

        dh = np.array(UR5_DH)
        limits = np.tile((-TWO_PI, TWO_PI), (6, 1))
        arm_kwargs = {}
        for i, key in enumerate(_JOINT_KEYS):
            if key in kin_raw:
                row = _parse_floats(kin_raw[key], 6)
                dh[i] = row[:4]
                limits[i] = row[4:]
        for key, parse in _KIN_SCALAR_KEYS.items():
            if key in kin_raw:
                arm_kwargs[key] = parse(kin_raw[key])
        arm = ArmModel(dh=dh, joint_limits=limits, **arm_kwargs)

        scenario = _as_scenario(run_kwargs.pop("scenario", "normal"))
        reward_mode = run_kwargs.pop("reward_mode", "sd-drl")
        mode = _as_reward_mode(reward_kwargs.pop("mode", reward_mode))
        return RunConfig(
            scenario=scenario,
            reward=RewardConfig(mode=mode, **reward_kwargs),
            env=EnvConfig(**env_kwargs),
            scene=SceneConfig(**scene_kwargs),
            tqc=TqcConfig(**tqc_kwargs),
            arm=arm,
            **run_kwargs,
        )
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from None


def apply_overrides(
    config: RunConfig,
    seed: int | None = None,
    scenario=None,
    reward_mode=None,
    out_dir=None,
) -> RunConfig:
    """Fold command-line overrides into a loaded configuration."""
    if seed is not None:
        config.seed = int(seed)
    if scenario is not None:
        config.scenario = _as_scenario(scenario)
    if reward_mode is not None:
        mode = _as_reward_mode(reward_mode)
        config.reward = RewardConfig(
            **{
                **{
                    k: getattr(config.reward, k)
                    for k in _REWARD_KEYS
                    if k != "mode"
                },
                "mode": mode,
            }
        )
    if out_dir is not None:
        config.out_dir = str(out_dir)
    return config


def default_config_text() -> str:
    """Render the full default configuration as a commented file."""
    scene = SceneConfig()
    tqc = TqcConfig()
    reward = RewardConfig()
    env = EnvConfig()
    lines = [
        "; safegrasp run configuration (all keys optional; defaults shown)",
        "[run]",
        "seed = 0",
        "scenario = normal          ; normal | obstacle",
        "reward_mode = sd-drl       ; drl | sd-drl",
        "out_dir = runs",
        "",
        "[reward]",
    ]
    for key in _REWARD_KEYS:
        if key == "mode":
            continue
        lines.append(f"{key} = {getattr(reward, key)}")
    lines += ["", "[env]"]
    for key in _ENV_KEYS:
        lines.append(f"{key} = {getattr(env, key)}")
    lines += ["", "[scene]"]
    for key in _SCENE_KEYS:
        value = getattr(scene, key)
        if isinstance(value, tuple):
            value = " ".join(str(v) for v in value)
        lines.append(f"{key} = {value}")
    lines += ["", "[tqc]"]
    for key in _TQC_KEYS:
        value = getattr(tqc, key)
        if key == "entropy_target":
            lines.append("; entropy_target defaults to -action_dim when omitted")
            if value is None:
                continue
        if isinstance(value, tuple):
            value = " ".join(str(v) for v in value)
        lines.append(f"{key} = {value}")
    lines += [
        "",
        "[kinematics]",
        "; per-joint rows: a d alpha theta_offset limit_min limit_max",
    ]
    limits = (-TWO_PI, TWO_PI)
    for i, row in enumerate(UR5_DH, start=1):
        values = " ".join(repr(v) for v in (*row, *limits))
        lines.append(f"joint{i} = {values}")
    lines.append(f"max_joint_speed = {DEFAULT_MAX_JOINT_SPEED}")
    lines.append(f"ik_damping = {DEFAULT_IK_DAMPING}")
    lines.append(f"ik_tolerance = {DEFAULT_IK_TOLERANCE}")
    lines.append(f"ik_max_iterations = {DEFAULT_IK_MAX_ITERATIONS}")
    lines.append("")
    return "\n".join(lines)
