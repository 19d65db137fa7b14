"""Training orchestration: rollouts, updates, evaluation cadence, outputs.

One loop drives ``rollout.episode_steps`` on one env and hands each
transition to the learner as it arrives: store it, update the agent every
``train_freq`` steps after warm-up, checkpoint on cadence, and summarise
and evaluate at each episode's end.  Every random draw comes from a stream
of the run seed, so a fixed seed gives byte-identical output files.

Run outputs, all under the run directory:

* ``train_episodes.jsonl``  -- one summary record per training episode
* ``eval/eval_NNNN.jsonl``  -- full per-step logs of each evaluation block
* ``diagnostics.jsonl``     -- learner diagnostics stream
* ``metrics.json``          -- deterministic final summary (no timestamps)
* ``checkpoint.ckpt``       -- final agent checkpoint, metadata included
"""

from __future__ import annotations

from pathlib import Path

from . import runlog
from .config import ConfigError, RunConfig
from .metrics import summarize
from .rollout import (
    EVAL_SEED_STREAM,
    TRAIN_SEED_STREAM,
    WARMUP_SEED_STREAM,
    RecordSink,
    derive_seed,
    episode_steps,
    rollout_episodes,
)
from .runlog import EpisodeLogWriter, dumps_canonical, log_header, write_json_atomically
from .tqc import RandomPolicy, ReplayBuffer, TqcAgent
from .env import ACTION_DIM, OBSERVATION_DIM

# the evaluation cadence of a run that does not set one
EVAL_EVERY_EPISODES = 25  # training episodes between evaluation blocks
EVAL_EPISODES = 10  # episodes per evaluation block


def _episode_summary(index: int, rec) -> dict:
    return {
        "episode": index,
        "steps": rec.steps,
        "return": rec.return_sum,
        "success": rec.success,
        "terminated_by_failure": rec.terminated_by_failure,
        "violations": rec.violations.as_dict(),
    }


class Trainer:
    def __init__(
        self,
        config: RunConfig,
        out_dir,
        total_steps: int,
        eval_every_episodes: int = EVAL_EVERY_EPISODES,
        eval_episodes: int = EVAL_EPISODES,
        workers: int = 1,  # kept only because perfbench/workloads.py passes it
        checkpoint_every_steps: int | None = None,
    ):
        if total_steps < 1:
            raise ValueError("total_steps must be >= 1")
        if eval_every_episodes < 1 or eval_episodes < 1:
            raise ValueError("evaluation cadence values must be >= 1")
        if checkpoint_every_steps is not None and checkpoint_every_steps < 1:
            raise ValueError("checkpoint_every_steps must be >= 1")
        if workers != 1:
            raise ValueError("workers must be 1: training has one serial loop")
        if config.tqc.replay_capacity < config.tqc.batch_size:
            raise ConfigError(
                f"replay_capacity ({config.tqc.replay_capacity}) must be at least "
                f"batch_size ({config.tqc.batch_size}), or no update can run"
            )
        self.config = config
        self.out_dir = Path(out_dir)
        self.total_steps = int(total_steps)
        self.eval_every_episodes = int(eval_every_episodes)
        self.eval_episodes = int(eval_episodes)
        self.checkpoint_every_steps = checkpoint_every_steps
        self.agent = TqcAgent(
            OBSERVATION_DIM, ACTION_DIM, config.tqc, seed=config.seed
        )
        self.buffer = ReplayBuffer(
            OBSERVATION_DIM, ACTION_DIM, config.tqc.replay_capacity
        )
        self.eval_history: list[dict] = []
        self._episodes = 0  # training episodes summarised

    def _evaluate(self, block: int) -> dict:
        cfg = self.config
        env = cfg.build_env()
        log_path = self.out_dir / "eval" / f"eval_{block:04d}.jsonl"
        policy = self.agent.actor_snapshot()
        with EpisodeLogWriter(log_path, header=log_header(cfg, cfg.scenario)) as writer:
            records = rollout_episodes(
                env,
                policy.select_action,
                episodes=self.eval_episodes,
                base_seed=derive_seed(cfg.seed, EVAL_SEED_STREAM, block),
                stream=EVAL_SEED_STREAM,
                scenario=cfg.scenario,
                log_writer=writer,
            )
        summary = summarize(records)
        summary["block"] = block
        self.eval_history.append(summary)
        return summary

    # -- main entry --------------------------------------------------------

    def run(self) -> dict:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        (self.out_dir / "eval").mkdir(exist_ok=True)
        with (self.out_dir / "diagnostics.jsonl").open("w") as diag_fh, (
            self.out_dir / "train_episodes.jsonl"
        ).open("w") as train_fh:
            self._train(diag_fh, train_fh)
        final_eval = self._evaluate(block=len(self.eval_history) + 1)
        self.agent.save(
            self.out_dir / "checkpoint.ckpt",
            extra_meta={"env_steps": self.total_steps},
        )
        summary = {
            "seed": self.config.seed,
            "scenario": self.config.scenario,
            "reward_mode": self.config.reward.mode,
            "total_steps": self.total_steps,
            "episodes": self._episodes,
            "updates": self.agent.updates,
            "final_eval": final_eval,
            "eval_history": self.eval_history,
        }
        write_json_atomically(self.out_dir / "metrics.json", summary)
        return summary

    def _train(self, diag_fh, train_fh) -> None:
        """Roll out, learn and evaluate until ``total_steps`` transitions."""
        cfg = self.config
        tqc = cfg.tqc
        every = self.checkpoint_every_steps
        env = cfg.build_env()
        records: list[dict] = []
        env.set_log_writer(RecordSink(records))
        warmup = RandomPolicy(seed=derive_seed(cfg.seed, WARMUP_SEED_STREAM, 0))
        step = 0

        def policy(obs):
            if step < tqc.warmup_steps:
                return warmup(obs)
            return self.agent.select_action(obs)

        while step < self.total_steps:
            seed = derive_seed(cfg.seed, TRAIN_SEED_STREAM, self._episodes)
            for obs, action, result in episode_steps(env, policy, seed, cfg.scenario):
                self.buffer.add(obs, action, result.reward, result.observation, result.terminated)
                step += 1
                if step >= tqc.warmup_steps and step % tqc.train_freq == 0:
                    diag = self.agent.train_step(self.buffer)
                    if diag is not None:
                        diag["buffer_size"] = len(self.buffer)
                        diag_fh.write(dumps_canonical(diag) + "\n")
                if every and step % every == 0 and step < self.total_steps:
                    self.agent.save(
                        self.out_dir / f"checkpoint_{step:08d}.ckpt",
                        extra_meta={"env_steps": step},
                    )
                if step >= self.total_steps:
                    break
            # through the module, where a wrapper of runlog's binding sees it
            (episode,) = runlog.records_to_episodes(records)
            records.clear()
            train_fh.write(dumps_canonical(_episode_summary(self._episodes, episode)) + "\n")
            self._episodes += 1
            if self._episodes % self.eval_every_episodes == 0:
                self._evaluate(block=self._episodes // self.eval_every_episodes)
