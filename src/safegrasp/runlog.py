"""JSON-Lines episode logs: one header record, then one record per step.

The header carries the run configuration needed to audit the log later
(reward coefficients, mode, seed, scenario).  Serialisation is canonical
(sorted keys, compact separators, repr-round-trip floats), so identical runs
produce byte-identical logs.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path


def dumps_canonical(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def replace_atomically(path, data: bytes) -> None:
    """Write ``data`` to a temporary file beside ``path``, then rename it.

    The file is fsynced before ``os.replace``, so ``path`` holds either its
    old or its new content, never a part; a failed write removes its
    temporary file.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class EpisodeLogWriter:
    """Append-only JSONL writer; attach to an environment via
    ``env.set_log_writer``."""

    def __init__(self, path, header: dict | None = None):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("w", encoding="utf-8")
        if header is not None:
            self._fh.write(dumps_canonical({"type": "header", **header}) + "\n")

    def write_step(self, record: dict) -> None:
        self._fh.write(dumps_canonical(record) + "\n")

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class LogFormatError(ValueError):
    """A log line that is not a header or a step record; names file and line."""


def read_log(path) -> tuple[dict, list[dict]]:
    """Parse a JSONL log into ``(header, step_records)``.

    Every line but the header must be a step record: a JSON object with an
    ``events`` object and a numeric ``reward``.
    """
    header: dict = {}
    records: list[dict] = []
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise LogFormatError(f"{path}:{line_no}: invalid JSON: {exc}") from None
            if type(record) is not dict:
                raise LogFormatError(f"{path}:{line_no}: not a JSON object")
            if record.get("type") == "header":
                header = record
                continue
            if type(record.get("events")) is not dict:
                raise LogFormatError(f"{path}:{line_no}: step record has no 'events' object")
            if type(record.get("reward")) not in (int, float):
                raise LogFormatError(f"{path}:{line_no}: step record has no numeric 'reward'")
            records.append(record)
    return header, records


@dataclass
class ViolationCounts:
    """Per-episode violation counters, one per reported violation type."""

    collision: int = 0
    obstacle_collision: int = 0
    speed: int = 0
    velocity: int = 0
    velocity_during_collision: int = 0

    def total(self) -> int:
        return (
            self.collision
            + self.obstacle_collision
            + self.speed
            + self.velocity
            + self.velocity_during_collision
        )

    def as_dict(self) -> dict:
        return {
            "collision": self.collision,
            "obstacle_collision": self.obstacle_collision,
            "speed": self.speed,
            "velocity": self.velocity,
            "velocity_during_collision": self.velocity_during_collision,
        }


@dataclass
class EpisodeRecord:
    """Logged outcome of one episode, the unit the metrics consume."""

    return_sum: float
    steps: int
    success: bool
    violations: ViolationCounts = field(default_factory=ViolationCounts)
    terminated_by_failure: bool = False

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("an episode has at least one step")


def records_to_episodes(step_records: list[dict]) -> list[EpisodeRecord]:
    """Aggregate per-step log records into per-episode records."""
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


def load_episodes(path) -> list[EpisodeRecord]:
    _, records = read_log(path)
    return records_to_episodes(records)
