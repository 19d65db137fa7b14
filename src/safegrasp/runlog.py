"""JSON-Lines episode logs: one header record, then one record per step.

This module owns the log format: it writes every header (``log_header``),
reads a log back (``read_log``) and audits it (``audit_log``).  The header
carries the run configuration needed to audit the log later (reward
coefficients, mode, seed, scenario).  Serialisation is canonical (sorted
keys, compact separators, repr-round-trip floats), so identical runs
produce byte-identical logs.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, astuple, dataclass, field, fields
from pathlib import Path

from .env import ACTION_DIM, RewardConfig, Scenario, TransitionEvents, compute_reward
from .world import DisturbanceSpec

# one encoder and one decoder serve every record: ``json.dumps`` with options
# builds a new encoder per call, and ``json.loads`` re-checks its arguments.
# A record is a tree of fresh dicts, lists and scalars, so the encoder skips
# the circular-reference check, which writes the same bytes.
# JSON has no NaN or Infinity: the decoder reads those tokens as null, which
# no number check accepts, so ``read_log`` refuses such a reward and
# ``audit_log`` such an event measure or header value
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)
_DECODER = json.JSONDecoder(parse_constant=lambda name: None)

_SCENARIOS = tuple(scenario.value for scenario in Scenario)
_DISTURBANCE_KEYS = frozenset(f.name for f in fields(DisturbanceSpec))
# the keys of a step record, as the env writes them, and the length of each
# list of numbers among them
_STEP_KEYS = frozenset(
    ("episode", "step", "action", "reward", "terminated", "truncated", "events", "eef", "cube")
)
_VECTOR_KEYS = (("action", ACTION_DIM), ("eef", 3), ("cube", 3))
# the events the env logs, every one in each step record, and those logged
# as numbers; every other event is a flag
_EVENTS = TransitionEvents().as_dict()
_NUMBER_EVENTS = frozenset(name for name, value in _EVENTS.items() if type(value) is float)


def dumps_canonical(record: dict) -> str:
    return _ENCODER.encode(record)


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


def write_json_atomically(path, doc) -> None:
    """Write ``doc`` as indented JSON with sorted keys and a final newline,
    through ``replace_atomically``."""
    replace_atomically(path, (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8"))


def log_header(config, scenario: str, policy=None, disturbance=None) -> dict:
    """Header of a step log: what ``audit_log`` needs to audit it, plus the
    policy and disturbance when the caller names them."""
    header = {"seed": config.seed, "scenario": scenario, "reward": config.reward.as_dict()}
    if policy is not None:
        header["policy"] = policy
    if disturbance is not None:
        header["disturbance"] = asdict(disturbance)
    return header


class EpisodeLogWriter:
    """Append-only JSONL writer; attach to an environment via
    ``env.set_log_writer``."""

    def __init__(self, path, header: dict):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("w", encoding="utf-8")
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
    """A log that cannot be read or scored; the one-line message names the file."""


class AuditFailure(Exception):
    """A logged reward or episode that the audit refuses, in one line."""


def read_log(path) -> tuple[dict, list[dict]]:
    """Parse a JSONL log into ``(header, step_records)``.

    A header, if any, is the first record.  Every other line must be a step
    record: a JSON object with an integer ``episode``, an ``events`` object
    and a numeric ``reward``.
    Each line is decoded on its own, so a malformed line is refused even
    where the lines around it would re-join into valid JSON.  A line that
    is not UTF-8, not JSON, or JSON that Python cannot hold (nested too
    deep, an integer of too many digits) is a ``LogFormatError`` too.
    """
    header: dict = {}
    records: list[dict] = []
    append = records.append
    decode = _DECODER.decode
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                record = decode(line)
                if type(record) is not dict:
                    raise LogFormatError(f"{path}:{line_no}: not a JSON object")
                if record.get("type") == "header":
                    if records or header:
                        raise LogFormatError(f"{path}:{line_no}: header after the first record")
                    header = record
                    continue
                if type(record.get("events")) is not dict:
                    raise LogFormatError(f"{path}:{line_no}: step record has no 'events' object")
                if type(record.get("reward")) not in (int, float):
                    raise LogFormatError(f"{path}:{line_no}: step record has no numeric 'reward'")
                if type(record.get("episode")) is not int:
                    raise LogFormatError(f"{path}:{line_no}: step record has no integer 'episode'")
                append(record)
    except LogFormatError:
        raise
    except UnicodeDecodeError:
        # the text reader decodes ahead of the line it yields: find the line
        raise LogFormatError(f"{path}:{_undecodable_line(path)}: not UTF-8 text") from None
    except (ValueError, RecursionError) as exc:
        raise LogFormatError(f"{path}:{line_no}: invalid JSON: {exc}") from None
    return header, records


def audit_log(path, reward_config: RewardConfig | None = None) -> list[dict]:
    """The step records of a log that passes the ``replay`` audit, scored
    by ``reward_config`` or else by the header's reward table.

    A log that cannot be read or scored is a ``LogFormatError``; a reward
    that its events do not reproduce, or an episode that is not whole, is an
    ``AuditFailure``.  One pass checks each record against the previous one
    (contiguous episodes, steps 1, 2, 3, ..., an end on the last step only),
    then its keys and types (all the events the env writes and no other),
    then its reward, so the defect reported is the one at the lowest record
    index.
    """
    path = Path(path)
    if not path.exists():
        raise LogFormatError(f"log file not found: {path}")
    header, records = read_log(path)
    if not records:
        raise LogFormatError(f"log file contains no step records: {path}")
    _check_header(path, header)
    if reward_config is None:
        if "reward" not in header:
            raise LogFormatError(
                f"{path}: log header has no 'reward' table; add the run's [reward] "
                "values to the header (replay also takes --config <ini>)"
            )
        try:
            reward_config = RewardConfig.from_dict(header["reward"])
        except (TypeError, ValueError) as exc:
            raise LogFormatError(f"{path}: invalid reward header: {exc}") from None

    def defect(index: int, message: str) -> AuditFailure:
        record = records[index]
        where = f"episode {record['episode']}, step {record.get('step')}"
        return AuditFailure(f"audit failure at record {index} ({where}): {message}")

    seen = set()
    previous = {"episode": None, "terminated": True}  # an ended episode before the first
    for index, record in enumerate(records):
        episode = record["episode"]
        if episode != previous["episode"]:
            if not _ends(previous):
                raise defect(index - 1, "episode ends without terminated or truncated")
            if episode in seen:
                raise defect(index, "episode resumes after another episode")
            seen.add(episode)
            expected_step = 1
        elif _ends(previous):
            raise defect(index, "record after the episode's last step")
        else:
            expected_step += 1
        step = record.get("step")
        if type(step) is not int or step != expected_step:
            raise defect(index, f"expected step {expected_step}")
        try:
            logged_events = record["events"]
            events = TransitionEvents.from_dict(logged_events)
            if len(logged_events) != len(_EVENTS):
                raise ValueError(f"missing event {min(_EVENTS.keys() - logged_events)!r}")
            for key, value in logged_events.items():
                if key in _NUMBER_EVENTS:
                    if not _is_finite_number(value):
                        raise ValueError(f"event {key!r} must be a finite number")
                elif type(value) is not bool:
                    raise ValueError(f"event {key!r} must be a bool")
            for key in ("terminated", "truncated"):
                if type(record.get(key, False)) is not bool:
                    raise ValueError(f"{key!r} must be a bool")
            for key, size in _VECTOR_KEYS:
                value = record.get(key)
                if not (
                    type(value) is list
                    and len(value) == size
                    and all(_is_finite_number(v) for v in value)
                ):
                    raise ValueError(f"{key!r} must be a list of {size} finite numbers")
            unknown = record.keys() - _STEP_KEYS
            if unknown:
                raise ValueError(f"unknown key {min(unknown)!r}")
            expected = compute_reward(events, reward_config)
            logged = float(record["reward"])
        except (ValueError, OverflowError) as exc:
            raise LogFormatError(f"{path}: step record {index}: {exc}") from None
        if expected != logged:
            raise defect(index, f"logged reward {logged!r} != recomputed {expected!r}")
        previous = record
    if not _ends(previous):
        raise defect(len(records) - 1, "episode ends without terminated or truncated")
    return records


def _check_header(path: Path, header: dict) -> None:
    """Refuse a header without a non-negative integer ``seed`` and a known
    ``scenario``, or with a ``policy`` that is not a string or a
    ``disturbance`` that is not the ``DisturbanceSpec`` fields as finite numbers."""
    seed = header.get("seed")
    disturbance = header.get("disturbance", dict.fromkeys(_DISTURBANCE_KEYS, 0.0))
    for ok, message in (
        (type(seed) is int and seed >= 0, "'seed' must be an integer >= 0"),
        (header.get("scenario") in _SCENARIOS, f"'scenario' must be one of {_SCENARIOS}"),
        (type(header.get("policy", "")) is str, "'policy' must be a string"),
        (
            type(disturbance) is dict
            and set(disturbance) == _DISTURBANCE_KEYS
            and all(_is_finite_number(v) for v in disturbance.values()),
            f"'disturbance' must map {sorted(_DISTURBANCE_KEYS)} to finite numbers",
        ),
    ):
        if not ok:
            raise LogFormatError(f"{path}: log header: {message}")


def _is_finite_number(value) -> bool:
    return type(value) in (int, float) and -math.inf < value < math.inf


def _ends(record: dict) -> bool:
    return bool(record.get("terminated") or record.get("truncated"))


def _undecodable_line(path: Path) -> int:
    """Number of the first line of ``path`` that is not UTF-8."""
    with path.open("rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                return line_no
    return line_no


@dataclass
class ViolationCounts:
    """Per-episode violation counters, one per reported violation type."""

    collision: int = 0
    obstacle_collision: int = 0
    speed: int = 0
    velocity: int = 0
    velocity_during_collision: int = 0

    def total(self) -> int:
        return sum(astuple(self))

    def as_dict(self) -> dict:
        return asdict(self)


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
    """Aggregate per-step log records into per-episode records.

    Consecutive records with the same ``episode`` form one episode.  The
    counters are locals, and each episode's record is built once, when the
    next episode (or the end of the list) is reached.
    """
    episodes: list[EpisodeRecord] = []
    current_id = object()  # equal to no episode id
    steps = 0
    for rec in step_records:
        ep = rec.get("episode")
        if ep != current_id:
            if steps:
                violations = ViolationCounts(collision, obstacle, speed, velocity, during)
                episodes.append(EpisodeRecord(return_sum, steps, success, violations, failed))
            current_id = ep
            return_sum = 0.0
            steps = collision = obstacle = speed = velocity = during = 0
            success = failed = False
        events = rec.get("events", {})
        return_sum += float(rec.get("reward", 0.0))
        steps += 1
        if events.get("collision_env"):
            collision += 1
        if events.get("collision_obstacle"):
            obstacle += 1
        if events.get("speed_violation"):
            speed += 1
        if events.get("velocity_violation"):
            velocity += 1
        if events.get("collision_velocity_exceeded"):
            during += 1
        if events.get("lift_success"):
            success = True
        elif rec.get("terminated"):
            failed = True
    if steps:
        violations = ViolationCounts(collision, obstacle, speed, velocity, during)
        episodes.append(EpisodeRecord(return_sum, steps, success, violations, failed))
    return episodes
