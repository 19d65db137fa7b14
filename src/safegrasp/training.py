"""Training orchestration: rollouts, updates, evaluation cadence, outputs.

One learner owns the agent; rollouts come either from the learner thread
itself (``workers=1``, fully deterministic) or from worker threads that act
on read-only parameter snapshots refreshed between episodes and feed
transitions to the learner over a queue (``workers>1``, throughput over
bit-reproducibility).  Both drive ``rollout.episode_steps`` and hand each
transition to the same learner half, ``_learn`` and ``_end_episode``.

Run outputs, all under the run directory:

* ``train_episodes.jsonl``  -- one summary record per training episode
* ``eval/eval_NNNN.jsonl``  -- full per-step logs of each evaluation block
* ``diagnostics.jsonl``     -- learner diagnostics stream
* ``metrics.json``          -- deterministic final summary (no timestamps)
* ``checkpoint.ckpt``       -- final agent checkpoint, metadata included
"""

from __future__ import annotations

import json
import queue
import threading
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig
from .metrics import summarize
from .rollout import (
    EVAL_SEED_STREAM,
    TRAIN_SEED_STREAM,
    WARMUP_SEED_STREAM,
    RecordSink,
    derive_seed,
    episode_steps,
    log_header,
    rollout_episodes,
)
from .runlog import (
    EpisodeLogWriter,
    dumps_canonical,
    records_to_episodes,
    replace_atomically,
)
from .tqc import ReplayBuffer, TqcAgent
from .env import ACTION_DIM, OBSERVATION_DIM

DIAGNOSTICS_EVERY = 100  # updates per diagnostics record


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
        eval_every_episodes: int = 25,
        eval_episodes: int = 10,
        workers: int = 1,
        checkpoint_every_steps: int | None = None,
    ):
        if total_steps < 1:
            raise ValueError("total_steps must be >= 1")
        if eval_every_episodes < 1 or eval_episodes < 1:
            raise ValueError("evaluation cadence values must be >= 1")
        if workers < 1:
            raise ValueError("workers must be >= 1")
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
        self.workers = int(workers)
        self.checkpoint_every_steps = checkpoint_every_steps
        self.agent = TqcAgent(
            OBSERVATION_DIM, ACTION_DIM, config.tqc, seed=config.seed
        )
        self.buffer = ReplayBuffer(
            OBSERVATION_DIM, ACTION_DIM, config.tqc.replay_capacity
        )
        self._warmup_rng = np.random.default_rng(
            derive_seed(config.seed, WARMUP_SEED_STREAM, 0)
        )
        self.eval_history: list[dict] = []
        self._steps = 0  # transitions the learner has consumed
        self._episodes = 0  # training episodes summarised
        self._diag_fh = None
        self._train_fh = None

    # -- helpers ---------------------------------------------------------

    def _write_diag(self, diag: dict) -> None:
        if diag["update"] % DIAGNOSTICS_EVERY != 0:
            return
        record = dict(diag)
        record["buffer_size"] = len(self.buffer)
        self._diag_fh.write(dumps_canonical(record) + "\n")

    def _evaluate(self, block: int) -> dict:
        cfg = self.config
        env = cfg.build_env()
        log_path = self.out_dir / "eval" / f"eval_{block:04d}.jsonl"
        writer = EpisodeLogWriter(log_path, header=log_header(cfg, cfg.scenario.value))
        policy = self.agent.actor_snapshot()
        records = rollout_episodes(
            env,
            lambda obs: policy.select_action(obs.vector, stochastic=False),
            episodes=self.eval_episodes,
            base_seed=derive_seed(cfg.seed, EVAL_SEED_STREAM, block),
            stream=EVAL_SEED_STREAM,
            scenario=cfg.scenario,
            log_writer=writer,
        )
        writer.close()
        summary = summarize(records)
        summary["block"] = block
        self.eval_history.append(summary)
        return summary

    # -- main entry --------------------------------------------------------

    def run(self) -> dict:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        (self.out_dir / "eval").mkdir(exist_ok=True)
        self._diag_fh = (self.out_dir / "diagnostics.jsonl").open("w")
        self._train_fh = (self.out_dir / "train_episodes.jsonl").open("w")
        try:
            if self.workers == 1:
                self._run_serial()
            else:
                self._run_threaded()
        finally:
            self._diag_fh.close()
            self._train_fh.close()
        final_eval = self._evaluate(block=len(self.eval_history) + 1)
        self.agent.save(
            self.out_dir / "checkpoint.ckpt",
            extra_meta={"env_steps": self.total_steps},
        )
        summary = {
            "seed": self.config.seed,
            "scenario": self.config.scenario.value,
            "reward_mode": self.config.reward.mode.value,
            "total_steps": self.total_steps,
            "episodes": self._episodes,
            "updates": self.agent.updates,
            "final_eval": final_eval,
            "eval_history": self.eval_history,
        }
        replace_atomically(
            self.out_dir / "metrics.json",
            (json.dumps(summary, indent=2, sort_keys=True) + "\n").encode("utf-8"),
        )
        return summary

    # -- learner half, shared by both paths ------------------------------------

    def _learn(self, obs, action, result) -> bool:
        """Store one transition and update on cadence; True at ``total_steps``."""
        tqc = self.config.tqc
        self.buffer.add(
            obs.vector,
            action,
            result.reward,
            result.observation.vector,
            result.terminated,
        )
        self._steps += 1
        step = self._steps
        if step >= tqc.warmup_steps and step % tqc.train_freq == 0:
            diag = self.agent.train_step(self.buffer)
            if diag:
                self._write_diag(diag)
        every = self.checkpoint_every_steps
        if every and step % every == 0 and step < self.total_steps:
            self.agent.save(
                self.out_dir / f"checkpoint_{step:08d}.ckpt",
                extra_meta={"env_steps": step},
            )
        return step >= self.total_steps

    def _end_episode(self, records: list[dict]) -> None:
        """Summarise the consumed step records; evaluate on cadence."""
        (episode,) = records_to_episodes(records)
        summary = _episode_summary(self._episodes, episode)
        self._train_fh.write(dumps_canonical(summary) + "\n")
        self._episodes += 1
        if self._episodes % self.eval_every_episodes == 0:
            self._evaluate(block=self._episodes // self.eval_every_episodes)

    # -- serial path --------------------------------------------------------

    def _run_serial(self) -> None:
        cfg = self.config
        tqc = cfg.tqc
        env = cfg.build_env()
        records: list[dict] = []
        env.set_log_writer(RecordSink(records))

        def policy(obs):
            if self._steps < tqc.warmup_steps:
                return self._warmup_rng.uniform(-1.0, 1.0, ACTION_DIM)
            return self.agent.select_action(obs.vector, stochastic=True)

        while self._steps < self.total_steps:
            seed = derive_seed(cfg.seed, TRAIN_SEED_STREAM, self._episodes)
            for obs, action, result in episode_steps(env, policy, seed, cfg.scenario):
                if self._learn(obs, action, result):
                    break
            self._end_episode(records)
            records.clear()

    # -- threaded path ---------------------------------------------------------

    def _run_threaded(self) -> None:
        cfg = self.config
        tqc = cfg.tqc
        feed: queue.Queue = queue.Queue(maxsize=self.workers * 2)
        stop = threading.Event()
        snapshot_lock = threading.Lock()
        shared = {"snapshot": self.agent.actor_snapshot(), "warmup_done": False}

        def send(item) -> None:
            while not stop.is_set():
                try:
                    feed.put(item, timeout=0.2)
                    return
                except queue.Full:
                    continue

        def worker(worker_id: int) -> None:
            env = cfg.build_env()
            rng = np.random.default_rng(
                derive_seed(cfg.seed, WARMUP_SEED_STREAM, worker_id + 1)
            )

            def policy(obs):
                if warmed:
                    return snapshot.select_action(obs.vector, stochastic=True, rng=rng)
                return rng.uniform(-1.0, 1.0, ACTION_DIM)

            episode = 0
            try:
                while not stop.is_set():
                    with snapshot_lock:
                        snapshot = shared["snapshot"]
                        warmed = shared["warmup_done"]
                    seed = derive_seed(
                        cfg.seed, TRAIN_SEED_STREAM, worker_id * 1_000_000 + episode
                    )
                    records: list[dict] = []
                    env.set_log_writer(RecordSink(records))
                    steps = list(episode_steps(env, policy, seed, cfg.scenario))
                    episode += 1
                    send((steps, records))
            except Exception as exc:  # the learner re-raises it
                send(exc)

        threads = [
            threading.Thread(target=worker, args=(i,), daemon=True)
            for i in range(self.workers)
        ]
        for t in threads:
            t.start()
        try:
            while self._steps < self.total_steps:
                item = feed.get()
                if isinstance(item, Exception):
                    raise item
                steps, records = item
                for consumed, (obs, action, result) in enumerate(steps, start=1):
                    if self._learn(obs, action, result):
                        break
                with snapshot_lock:
                    shared["snapshot"] = self.agent.actor_snapshot()
                    shared["warmup_done"] = self._steps >= tqc.warmup_steps
                self._end_episode(records[:consumed])
        finally:
            stop.set()  # workers see it within one put timeout
            for t in threads:
                t.join(timeout=5.0)
