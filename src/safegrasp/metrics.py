"""Evaluation metrics over logged episodes.

Four headline numbers: the normalised average return (mean return divided by
the mean length of failed episodes, damping the contribution of runs cut
short by collisions), per-type mean violations per episode, the success
rate, and the safety-driven success rate (success with a completely clean
violation record).
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from .runlog import EpisodeRecord, ViolationCounts

VIOLATION_TYPES = tuple(f.name for f in fields(ViolationCounts))


def _require_records(records) -> list:
    records = list(records)
    if not records:
        raise ValueError("at least one episode record is required")
    return records


def average_return_normalized(records) -> float:
    """Mean return divided by the mean steps of failed episodes.

    When no episode failed, the divisor falls back to the mean steps over
    all episodes so the metric stays defined.
    """
    records = _require_records(records)
    mean_return = float(np.mean([r.return_sum for r in records]))
    failed_steps = [r.steps for r in records if r.terminated_by_failure]
    divisor_pool = failed_steps if failed_steps else [r.steps for r in records]
    return mean_return / float(np.mean(divisor_pool))


def average_violations(records) -> dict:
    """Per-type mean violation count per episode."""
    records = _require_records(records)
    n = len(records)
    return {
        name: sum(getattr(r.violations, name) for r in records) / n
        for name in VIOLATION_TYPES
    }


def success_rate(records) -> float:
    records = _require_records(records)
    return sum(1 for r in records if r.success) / len(records)


def safety_driven_success_rate(records) -> float:
    """Fraction of episodes that succeed with zero violations of any type."""
    records = _require_records(records)
    clean = sum(1 for r in records if r.success and r.violations.total() == 0)
    return clean / len(records)


def summarize(records) -> dict:
    """All metrics as one JSON-ready document."""
    records = _require_records(records)
    return {
        "episodes": len(records),
        "total_steps": int(sum(r.steps for r in records)),
        "average_return": float(np.mean([r.return_sum for r in records])),
        "average_return_normalized": average_return_normalized(records),
        "average_violations": average_violations(records),
        "success_rate": success_rate(records),
        "safety_driven_success_rate": safety_driven_success_rate(records),
        "success_count": sum(1 for r in records if r.success),
        "failed_episodes": sum(1 for r in records if r.terminated_by_failure),
    }
