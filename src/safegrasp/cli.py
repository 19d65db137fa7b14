"""Command-line entry point.

Subcommands::

    safegrasp train        train an agent, with periodic deterministic evaluation
    safegrasp evaluate     roll out a policy (checkpoint/scripted/random), write metrics
    safegrasp assess       functional-safety assessment from rollouts or an audited log
    safegrasp replay       audit a log: recompute rewards from the logged events
    safegrasp init-config  print the default configuration file

Exit codes: 0 success, 1 audit/assertion failure, 2 usage or configuration
error, 3 IO failure.
"""

from __future__ import annotations

import ctypes

# keep up to 64 MiB of free heap top instead of returning it to the OS after
# each learner update, which the next update would fault back in page by
# page: glibc's mallopt(M_TRIM_THRESHOLD, bytes), skipped where it is absent
try:
    _mallopt = ctypes.CDLL(None).mallopt
except (AttributeError, OSError, TypeError):
    pass
else:
    _mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    _mallopt.restype = ctypes.c_int
    _mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD is -1 in glibc's malloc.h

import argparse
import functools
import json
import sys
from dataclasses import replace
from datetime import datetime
from pathlib import Path

from . import __version__
from .config import ConfigError, RunConfig, default_config_text, load_config
from .env import ACTION_DIM, OBSERVATION_DIM, REWARD_MODES, SCENARIOS
from .fsa import build_report, format_report_text, inputs_from_episodes
from .metrics import summarize
from .rollout import ASSESSMENT_SEED_STREAM, EVAL_SEED_STREAM, rollout_episodes
from .runlog import (
    AuditFailure,
    EpisodeLogWriter,
    LogFormatError,
    audit_log,
    log_header,
    records_to_episodes,
    replace_atomically,
    write_json_atomically,
)
from .tqc import RandomPolicy, ScriptedGraspPolicy, TqcAgent
from .training import EVAL_EPISODES, EVAL_EVERY_EPISODES, Trainer
from .world import DisturbanceSpec

EXIT_OK = 0
EXIT_AUDIT = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _timestamp() -> str:
    return datetime.now().strftime("%Y%m%d-%H%M%S")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None, help="config file (INI)")
    parser.add_argument("--seed", type=int, default=None, help="run seed override")
    parser.add_argument(
        "--reward-mode",
        choices=REWARD_MODES,
        default=None,
        help="reward engine mode",
    )
    parser.add_argument("--out", type=Path, default=None, help="output directory")


def _add_rollout_flags(
    parser: argparse.ArgumentParser, episodes: int, surface: float, size: float
) -> None:
    """The policy, episode count and disturbance flags of evaluate and assess."""
    parser.add_argument("--checkpoint", type=Path, default=None, help="agent checkpoint")
    parser.add_argument(
        "--policy",
        choices=("checkpoint", "scripted", "random"),
        default="checkpoint",
        help="policy source",
    )
    parser.add_argument("--episodes", type=int, default=episodes)
    parser.add_argument(
        "--disturb-surface", type=float, default=surface, help="surface height delta (m)"
    )
    parser.add_argument(
        "--disturb-object", type=float, default=size, help="object size delta (m)"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="safegrasp", description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version=f"safegrasp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # no abbreviated flags: --scenario would pass silently for --scenarios
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    p_train = add_parser("train", help="train an agent")
    _add_common(p_train)
    p_train.add_argument("--steps", type=int, default=200_000, help="environment steps")
    p_train.add_argument(
        "--eval-every", type=int, default=EVAL_EVERY_EPISODES, help="episodes between evaluations"
    )
    p_train.add_argument(
        "--eval-episodes", type=int, default=EVAL_EPISODES, help="episodes per evaluation block"
    )
    p_train.add_argument(
        "--checkpoint-every", type=int, default=None, help="steps between checkpoints"
    )

    p_eval = add_parser("evaluate", help="roll out a policy and write metrics")
    _add_common(p_eval)
    # assess takes --scenarios instead, and ignores [run] scenario
    for p in (p_train, p_eval):
        p.add_argument("--scenario", choices=SCENARIOS, default=None, help="task scenario")
    _add_rollout_flags(p_eval, 20, 0.0, 0.0)

    p_assess = add_parser("assess", help="functional-safety assessment")
    _add_common(p_assess)
    _add_rollout_flags(p_assess, 500, 0.075, 0.005)
    p_assess.add_argument("--log", type=Path, default=None, help="assess a recorded log")
    p_assess.add_argument(
        "--scenarios",
        choices=(*SCENARIOS, "both"),
        default="both",
        help="scenario set for the assessment rollouts",
    )

    p_replay = add_parser("replay", help="audit a recorded log")
    p_replay.add_argument("--log", type=Path, required=True)
    p_replay.add_argument(
        "--config",
        type=Path,
        default=None,
        help="recompute with this config's reward table instead of the log header",
    )

    add_parser("init-config", help="print the default config file")
    return parser


def _load_run_config(args) -> RunConfig:
    # every count flag of train, evaluate and assess is at least 1
    for name in ("steps", "eval_every", "eval_episodes", "checkpoint_every", "episodes"):
        value = getattr(args, name, None)
        if value is not None and value < 1:
            raise ConfigError(f"--{name.replace('_', '-')} must be at least 1, got {value}")
    config = load_config(args.config)
    # the dataclasses check and coerce each override
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    scenario = getattr(args, "scenario", None)  # assess has no --scenario
    if scenario is not None:
        config = replace(config, scenario=scenario)
    if args.reward_mode is not None:
        config = replace(config, reward=replace(config.reward, mode=args.reward_mode))
    return config


def _resolve_policy(kind: str, checkpoint, config: RunConfig, seed: int):
    if kind == "checkpoint":
        if checkpoint is None:
            raise ConfigError("--checkpoint is required with --policy checkpoint")
        if not Path(checkpoint).exists():
            raise ConfigError(f"checkpoint not found: {checkpoint}")
        try:
            agent = TqcAgent.load(checkpoint, seed=seed)
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"cannot load checkpoint {checkpoint}: {exc}") from None
        if (agent.obs_dim, agent.act_dim) != (OBSERVATION_DIM, ACTION_DIM):
            raise ConfigError(
                f"cannot load checkpoint {checkpoint}: its obs_dim {agent.obs_dim} and "
                f"act_dim {agent.act_dim} are not the env's {OBSERVATION_DIM} and {ACTION_DIM}"
            )
        return agent.actor_snapshot().select_action
    if kind == "scripted":
        return ScriptedGraspPolicy(
            action_scale=config.env.action_scale,
            dt=config.env.dt,
            grasp_radius=config.env.grasp_radius,
            obstacle_half_extents=config.scene.obstacle_half_extents,
            eef_radius=config.scene.eef_radius,
            speed_limit=config.reward.collision_velocity_threshold,
        )
    return RandomPolicy(seed=seed)


def _disturbance(args, config: RunConfig) -> DisturbanceSpec:
    """``--disturb-surface`` and ``--disturb-object`` as a spec that the
    scene config admits."""
    try:
        disturbance = DisturbanceSpec(args.disturb_surface, args.disturb_object)
        config.scene.check_disturbance(disturbance)
    except ValueError as exc:
        raise ConfigError(f"--disturb-surface/--disturb-object: {exc}") from None
    return disturbance


def _logged_rollouts(
    args, config: RunConfig, out_dir: Path, scenarios, stream: int, log_name: str
) -> tuple[list, list[Path]]:
    """Roll out the ``--policy`` for ``--episodes`` split evenly over
    ``scenarios``, one step log per scenario in ``out_dir``, named
    ``<log_name>_<timestamp>_s<seed>.jsonl`` with ``{scenario}`` filled in.
    Returns the episodes and the log paths."""
    policy = _resolve_policy(args.policy, args.checkpoint, config, config.seed)
    per_scenario, left = divmod(args.episodes, len(scenarios))
    if left:
        raise ConfigError(
            f"--episodes {args.episodes} does not split evenly over "
            f"{len(scenarios)} scenarios"
        )
    disturbance = _disturbance(args, config)
    episodes, paths = [], []
    for scenario in scenarios:
        name = log_name.format(scenario=scenario)
        paths.append(out_dir / f"{name}_{_timestamp()}_s{config.seed}.jsonl")
        with EpisodeLogWriter(
            paths[-1], header=log_header(config, scenario, args.policy, disturbance)
        ) as writer:
            episodes += rollout_episodes(
                config.build_env(),
                policy,
                episodes=per_scenario,
                base_seed=config.seed,
                stream=stream,
                scenario=scenario,
                disturbance=disturbance,
                log_writer=writer,
            )
    return episodes, paths


def _out_dir(args, config: RunConfig) -> Path:
    if args.out is not None:
        return Path(args.out)
    return Path(config.out_dir) / f"{_timestamp()}_s{config.seed}"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_train(args) -> None:
    config = _load_run_config(args)
    out_dir = _out_dir(args, config)
    trainer = Trainer(
        config,
        out_dir,
        total_steps=args.steps,
        eval_every_episodes=args.eval_every,
        eval_episodes=args.eval_episodes,
        checkpoint_every_steps=args.checkpoint_every,
    )
    summary = trainer.run()
    final = summary["final_eval"]
    print(f"run directory: {out_dir}")
    print(
        f"trained {summary['total_steps']} steps / {summary['episodes']} episodes "
        f"/ {summary['updates']} updates"
    )
    print(
        f"final eval: success_rate={final['success_rate']:.3f} "
        f"safety_driven={final['safety_driven_success_rate']:.3f} "
        f"return_norm={final['average_return_normalized']:.4f}"
    )


def cmd_evaluate(args) -> None:
    config = _load_run_config(args)
    out_dir = _out_dir(args, config)
    records, (log_path,) = _logged_rollouts(
        args, config, out_dir, (config.scenario,), EVAL_SEED_STREAM, "eval"
    )
    summary = summarize(records)
    write_json_atomically(out_dir / "metrics.json", summary)
    print(f"log: {log_path}")
    print(json.dumps(summary, indent=2, sort_keys=True))


def cmd_assess(args) -> None:
    config = _load_run_config(args)
    out_dir = _out_dir(args, config)
    if args.log is not None:
        episodes = records_to_episodes(audit_log(args.log))
    else:
        scenarios = SCENARIOS if args.scenarios == "both" else (args.scenarios,)
        episodes, _ = _logged_rollouts(
            args, config, out_dir, scenarios, ASSESSMENT_SEED_STREAM, "assess_{scenario}"
        )
    report = build_report(inputs_from_episodes(episodes))
    text = format_report_text(report)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json_atomically(out_dir / "fsa_report.json", report.as_dict())
    replace_atomically(out_dir / "fsa_report.txt", (text + "\n").encode("utf-8"))
    print(text)


def cmd_replay(args) -> None:
    reward_config = None if args.config is None else load_config(args.config).reward
    records = audit_log(args.log, reward_config)
    episodes = records_to_episodes(records)
    print(
        f"audit ok: {len(records)} step records, {len(episodes)} episodes, "
        "rewards reproducible from events, episodes complete"
    )


def cmd_init_config(args) -> None:
    print(default_config_text(), end="")


_COMMANDS = {
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "assess": cmd_assess,
    "replay": cmd_replay,
    "init-config": cmd_init_config,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _COMMANDS[args.command](args)
    except AuditFailure as exc:
        print(exc, file=sys.stderr)
        return EXIT_AUDIT
    except (ConfigError, LogFormatError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
