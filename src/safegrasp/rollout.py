"""The one episode driver: seeding, stepping, aggregation."""

from __future__ import annotations

import numpy as np

from .runlog import EpisodeRecord, records_to_episodes

# purpose streams of ``derive_seed``: each use of a run seed draws its own
TRAIN_SEED_STREAM = 0
EVAL_SEED_STREAM = 1
ASSESSMENT_SEED_STREAM = 2
WARMUP_SEED_STREAM = 3


def derive_seed(base_seed: int, stream: int, index: int) -> int:
    """Stable per-episode seed from (run seed, purpose stream, episode index)."""
    seq = np.random.SeedSequence(entropy=(int(base_seed), int(stream), int(index)))
    return int(seq.generate_state(1, dtype=np.uint32)[0])


def episode_steps(env, policy, seed: int, scenario, disturbance=None):
    """Reset ``env`` and yield ``(obs, action, result)`` for each step.

    ``policy`` maps an observation to an action and is called only when the
    next step is requested, so a caller may update whatever it reads between
    steps, or stop consuming early.  The generator ends after the step that
    terminates or truncates the episode.
    """
    obs = env.reset(seed=seed, scenario=scenario, disturbance=disturbance)
    while True:
        action = policy(obs)
        result = env.step(action)
        yield obs, action, result
        if result.terminated or result.truncated:
            return
        obs = result.observation


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
            seed = derive_seed(base_seed, stream, index)
            for _ in episode_steps(env, policy, seed, scenario, disturbance):
                pass
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
