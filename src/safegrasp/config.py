"""Run configuration: defaults, file loading, strict validation.

The config file is flat key-value text with INI sections.  The config
dataclasses are the schema: each section's keys are the init fields of one
class (``[reward]`` :class:`RewardConfig`, ``[env]`` :class:`EnvConfig`,
``[scene]`` :class:`SceneConfig`, ``[tqc]`` :class:`TqcConfig`,
``[kinematics]`` the scalar fields of :class:`ArmModel` plus one row per
joint), parsed by their annotations: ``int``; ``float`` or
``float | None``; ``tuple[float, float, float]``, exactly that many numbers;
``tuple[int, ...]``, any number of ints.  ``[run]`` holds the seed, scenario,
reward mode and output directory.  Unknown sections or keys and non-finite
numbers are rejected, so typos fail loudly; :func:`default_config_text`
renders every key from the class defaults.

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
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .env import (
    REWARD_MODES, SCENARIOS, EnvConfig, GraspEnv, RewardConfig, SceneConfig, _as_reward_mode,
    _as_scenario,
)
from .kinematics import ArmModel
from .tqc import TqcConfig


class ConfigError(ValueError):
    """Raised for malformed or unknown configuration content."""


@dataclass
class RunConfig:
    seed: int = 0
    scenario: str = "normal"
    out_dir: str = "runs"
    reward: RewardConfig = field(default_factory=RewardConfig)
    env: EnvConfig = field(default_factory=EnvConfig)
    scene: SceneConfig = field(default_factory=SceneConfig)
    tqc: TqcConfig = field(default_factory=TqcConfig)
    arm: ArmModel = field(default_factory=ArmModel.default_ur5)

    def __post_init__(self):
        if not self.seed >= 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")
        self.scenario = _as_scenario(self.scenario)

    def build_env(self):
        return GraspEnv(
            arm=self.arm,
            scene_config=self.scene,
            env_config=self.env,
            reward_config=self.reward,
        )


def _parse_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {text!r}")
    return value


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


_SCALAR_PARSERS = {int: _parse_int, float: _parse_float, float | None: _parse_float}


def _field_parser(hint):
    """Parser for one annotated field, or None when the type has no INI form."""
    if get_origin(hint) is tuple:
        args = get_args(hint)
        if args[-1] is Ellipsis:
            item = _SCALAR_PARSERS[args[0]]
            return lambda text: tuple(item(p) for p in text.split())
        return lambda text: _parse_floats(text, len(args))
    return _SCALAR_PARSERS.get(hint)


def _schema(cls) -> dict:
    """Key -> parser for every init field of ``cls`` that has an INI form."""
    hints = get_type_hints(cls)
    parsers = {f.name: _field_parser(hints[f.name]) for f in fields(cls) if f.init}
    return {key: parse for key, parse in parsers.items() if parse is not None}


# INI section -> RunConfig field; the field's dataclass is the section's
# schema.  [reward] leaves out ``mode`` (a label, set by [run] reward_mode)
# and [kinematics] the DH and limit tables (set by the joint rows).
_SECTIONS = {
    "reward": "reward",
    "env": "env",
    "scene": "scene",
    "tqc": "tqc",
    "kinematics": "arm",
}
_JOINT_KEYS = tuple(f"joint{i}" for i in range(1, 7))
_RUN_HINTS = get_type_hints(RunConfig)
_SCHEMAS = {name: _schema(_RUN_HINTS[attr]) for name, attr in _SECTIONS.items()}
_SCHEMAS["kinematics"].update(
    {key: lambda text: _parse_floats(text, 6) for key in _JOINT_KEYS}
)
_SCHEMAS["run"] = {
    "seed": _parse_int,
    "scenario": _as_scenario,
    "reward_mode": _as_reward_mode,
    "out_dir": str,
}


def load_config(path=None) -> RunConfig:
    """Build a :class:`RunConfig` from defaults plus an optional file."""
    if path is None:
        return RunConfig()
    path = Path(path)
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        # not parser.read, which skips a path it cannot open (missing, a directory)
        with path.open(encoding="utf-8") as fh:
            parser.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None

    unknown = set(parser.sections()) - set(_SCHEMAS)
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")

    def section(name: str) -> dict:
        schema = _SCHEMAS[name]
        if not parser.has_section(name):
            return {}
        out = {}
        for key, raw in parser.items(name):
            if key not in schema:
                raise ConfigError(f"unknown key [{name}] {key}")
            try:
                out[key] = schema[key](raw)
            except ValueError as exc:
                raise ConfigError(f"[{name}] {key}: {exc}") from None
        return out

    try:
        run = section("run")
        values = {attr: section(name) for name, attr in _SECTIONS.items()}
        if "reward_mode" in run:
            values["reward"]["mode"] = run.pop("reward_mode")
        config = RunConfig(**run)
        arm = values["arm"]
        rows = [
            arm.pop(key, dh + limits)
            for key, dh, limits in zip(_JOINT_KEYS, config.arm.dh, config.arm.joint_limits)
        ]
        arm.update(dh=[row[:4] for row in rows], joint_limits=[row[4:] for row in rows])
        for attr, overrides in values.items():
            setattr(config, attr, replace(getattr(config, attr), **overrides))
        config.build_env()  # solves the home position, or refuses it
        return config
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from None


def default_config_text() -> str:
    """Render the full default configuration as a commented file."""
    def choice(key: str, value: str, options: tuple) -> str:
        return f"{f'{key} = {value}':<26} ; {' | '.join(options)}"

    config = RunConfig()
    lines = [
        "; safegrasp run configuration (all keys optional; defaults shown)",
        "[run]",
        f"seed = {config.seed}",
        choice("scenario", config.scenario, SCENARIOS),
        choice("reward_mode", config.reward.mode, REWARD_MODES),
        f"out_dir = {config.out_dir}",
    ]
    for name, attr in _SECTIONS.items():
        defaults = getattr(config, attr)
        lines += ["", f"[{name}]"]
        if name == "kinematics":
            lines.append("; per-joint rows: a d alpha theta_offset limit_min limit_max")
            for key, dh, limits in zip(_JOINT_KEYS, defaults.dh, defaults.joint_limits):
                lines.append(f"{key} = {' '.join(repr(v) for v in dh + limits)}")
        for f in fields(defaults):
            if f.name not in _SCHEMAS[name]:
                continue
            value = getattr(defaults, f.name)
            if value is None:
                lines.append(f"; {f.name} is unset by default")
                continue
            if isinstance(value, tuple):
                value = " ".join(str(v) for v in value)
            lines.append(f"{f.name} = {value}")
    lines.append("")
    return "\n".join(lines)
