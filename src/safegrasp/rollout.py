"""Shared episode rollout driving: seeding, stepping, aggregation."""

from __future__ import annotations

import numpy as np

from .runlog import EpisodeRecord, records_to_episodes


def derive_seed(base_seed: int, stream: int, index: int) -> int:
    """Stable per-episode seed from (run seed, purpose stream, episode index)."""
    seq = np.random.SeedSequence(entropy=(int(base_seed), int(stream), int(index)))
    return int(seq.generate_state(1, dtype=np.uint32)[0])


def run_episode(env, policy, seed: int, scenario, disturbance=None):
    """One full episode; returns ``(return_sum, steps, last_result)``."""
    obs = env.reset(seed=seed, scenario=scenario, disturbance=disturbance)
    total = 0.0
    steps = 0
    while True:
        result = env.step(policy(obs))
        obs = result.observation
        total += result.reward
        steps += 1
        if result.terminated or result.truncated:
            return total, steps, result


def rollout_episodes(
    env,
    policy,
    episodes: int,
    base_seed: int,
    stream: int = 0,
    scenario="normal",
    disturbance=None,
    log_writer=None,
) -> list[EpisodeRecord]:
    """Run ``episodes`` seeded episodes and aggregate the step records."""
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    sink: list[dict] = []
    env.set_log_writer(RecordSink(sink, forward=log_writer))
    try:
        for index in range(episodes):
            run_episode(
                env,
                policy,
                seed=derive_seed(base_seed, stream, index),
                scenario=scenario,
                disturbance=disturbance,
            )
    finally:
        env.set_log_writer(None)
    return records_to_episodes(sink)


class RecordSink:
    """In-memory step-record writer for ``env.set_log_writer``.

    Appends each record to ``records`` and, when ``forward`` is given (an
    ``EpisodeLogWriter``, say), passes it on there too.  It never closes
    ``forward``: that writer stays its owner's to close.
    """

    def __init__(self, records: list, forward=None):
        self.records = records
        self._forward = forward

    def write_step(self, record: dict) -> None:
        self.records.append(record)
        if self._forward is not None:
            self._forward.write_step(record)
