"""Training orchestration: rollouts, updates, evaluation cadence, outputs.

One learner owns the agent; rollouts come either from the learner thread
itself (``workers=1``, fully deterministic) or from worker threads that act
on read-only parameter snapshots refreshed between episodes and feed
transitions to the learner over a queue (``workers>1``, throughput over
bit-reproducibility).

Run outputs, all under the run directory:

* ``train_episodes.jsonl``  -- one summary record per training episode
* ``eval/eval_NNNN.jsonl``  -- full per-step logs of each evaluation block
* ``diagnostics.jsonl``     -- learner diagnostics stream
* ``metrics.json``          -- deterministic final summary (no timestamps)
* ``checkpoint.ckpt``       -- final agent checkpoint (+ ``.meta.json``)
"""

from __future__ import annotations

import json
import queue
import threading
from pathlib import Path

import numpy as np

from .config import RunConfig
from .metrics import summarize
from .rollout import RecordSink, derive_seed, rollout_episodes
from .runlog import (
    EpisodeLogWriter,
    dumps_canonical,
    records_to_episodes,
    replace_atomically,
)
from .tqc import ReplayBuffer, TqcAgent
from .env import ACTION_DIM, OBSERVATION_DIM

TRAIN_SEED_STREAM = 0
EVAL_SEED_STREAM = 1
WARMUP_SEED_STREAM = 3

DIAGNOSTICS_EVERY = 100  # updates per diagnostics record


def _episode_summary(index: int, records) -> dict:
    rec = records[-1]
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
        self._diag_fh = None
        self._train_fh = None

    # -- helpers ---------------------------------------------------------

    def _log_header(self) -> dict:
        cfg = self.config
        return {
            "seed": cfg.seed,
            "scenario": cfg.scenario.value,
            "reward": cfg.reward.as_dict(),
        }

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
        writer = EpisodeLogWriter(log_path, header=self._log_header())
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

    def _maybe_checkpoint(self, step: int) -> None:
        if (
            self.checkpoint_every_steps
            and step % self.checkpoint_every_steps == 0
            and step < self.total_steps
        ):
            self.agent.save(
                self.out_dir / f"checkpoint_{step:08d}.ckpt",
                extra_meta={"env_steps": step},
            )

    # -- main entry --------------------------------------------------------

    def run(self) -> dict:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        (self.out_dir / "eval").mkdir(exist_ok=True)
        self._diag_fh = (self.out_dir / "diagnostics.jsonl").open("w")
        self._train_fh = (self.out_dir / "train_episodes.jsonl").open("w")
        try:
            if self.workers == 1:
                episodes = self._run_serial()
            else:
                episodes = self._run_threaded()
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
            "episodes": episodes,
            "updates": self.agent.updates,
            "final_eval": final_eval,
            "eval_history": self.eval_history,
        }
        replace_atomically(
            self.out_dir / "metrics.json",
            (json.dumps(summary, indent=2, sort_keys=True) + "\n").encode("utf-8"),
        )
        return summary

    # -- serial path --------------------------------------------------------

    def _run_serial(self) -> int:
        cfg = self.config
        tqc = cfg.tqc
        env = cfg.build_env()
        step = 0
        episode = 0
        while step < self.total_steps:
            obs = env.reset(
                seed=derive_seed(cfg.seed, TRAIN_SEED_STREAM, episode),
                scenario=cfg.scenario,
            )
            ep_records: list[dict] = []
            env.set_log_writer(RecordSink(ep_records))
            while True:
                if step < tqc.warmup_steps:
                    action = self._warmup_rng.uniform(-1.0, 1.0, ACTION_DIM)
                else:
                    action = self.agent.select_action(obs.vector, stochastic=True)
                result = env.step(action)
                self.buffer.add(
                    obs.vector,
                    action,
                    result.reward,
                    result.observation.vector,
                    result.terminated,
                )
                obs = result.observation
                step += 1
                if step >= tqc.warmup_steps and step % tqc.train_freq == 0:
                    diag = self.agent.train_step(self.buffer)
                    if diag:
                        self._write_diag(diag)
                self._maybe_checkpoint(step)
                if result.terminated or result.truncated or step >= self.total_steps:
                    break
            env.set_log_writer(None)
            summary = _episode_summary(episode, records_to_episodes(ep_records))
            self._train_fh.write(dumps_canonical(summary) + "\n")
            episode += 1
            if episode % self.eval_every_episodes == 0:
                self._evaluate(block=episode // self.eval_every_episodes)
        return episode

    # -- threaded path ---------------------------------------------------------

    def _run_threaded(self) -> int:
        cfg = self.config
        tqc = cfg.tqc
        feed: queue.Queue = queue.Queue(maxsize=self.workers * 2)
        stop = threading.Event()
        snapshot_lock = threading.Lock()
        shared = {"snapshot": self.agent.actor_snapshot(), "warmup_done": False}

        def worker(worker_id: int) -> None:
            env = cfg.build_env()
            rng = np.random.default_rng(
                derive_seed(cfg.seed, WARMUP_SEED_STREAM, worker_id + 1)
            )
            episode = 0
            while not stop.is_set():
                with snapshot_lock:
                    policy = shared["snapshot"]
                    warmed = shared["warmup_done"]
                obs = env.reset(
                    seed=derive_seed(cfg.seed, TRAIN_SEED_STREAM, worker_id * 1_000_000 + episode),
                    scenario=cfg.scenario,
                )
                transitions = []
                records: list[dict] = []
                env.set_log_writer(RecordSink(records))
                while True:
                    if warmed:
                        action = policy.select_action(obs.vector, stochastic=True, rng=rng)
                    else:
                        action = rng.uniform(-1.0, 1.0, ACTION_DIM)
                    result = env.step(action)
                    transitions.append(
                        (
                            obs.vector,
                            action,
                            result.reward,
                            result.observation.vector,
                            result.terminated,
                        )
                    )
                    obs = result.observation
                    if result.terminated or result.truncated:
                        break
                env.set_log_writer(None)
                episode += 1
                while not stop.is_set():
                    try:
                        feed.put((transitions, records), timeout=0.2)
                        break
                    except queue.Full:
                        continue

        threads = [
            threading.Thread(target=worker, args=(i,), daemon=True)
            for i in range(self.workers)
        ]
        for t in threads:
            t.start()

        step = 0
        episode = 0
        try:
            while step < self.total_steps:
                transitions, records = feed.get()
                for obs_v, action, reward, next_obs_v, terminated in transitions:
                    self.buffer.add(obs_v, action, reward, next_obs_v, terminated)
                    step += 1
                    if step >= tqc.warmup_steps and step % tqc.train_freq == 0:
                        diag = self.agent.train_step(self.buffer)
                        if diag:
                            self._write_diag(diag)
                    self._maybe_checkpoint(step)
                    if step >= self.total_steps:
                        break
                summary = _episode_summary(episode, records_to_episodes(records))
                self._train_fh.write(dumps_canonical(summary) + "\n")
                episode += 1
                with snapshot_lock:
                    shared["snapshot"] = self.agent.actor_snapshot()
                    shared["warmup_done"] = step >= tqc.warmup_steps
                if episode % self.eval_every_episodes == 0:
                    self._evaluate(block=episode // self.eval_every_episodes)
        finally:
            stop.set()
            # drain so blocked workers can observe the stop flag
            while True:
                try:
                    feed.get_nowait()
                except queue.Empty:
                    break
            for t in threads:
                t.join(timeout=5.0)
        return episode
