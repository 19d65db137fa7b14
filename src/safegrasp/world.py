"""Scene geometry, end-effector collision detection and the disturbance spec.

The end effector is modelled as a single sphere at the tool point; contacts
against the table plane, the cube, the optional bar obstacle and the inner
walls of the workspace box are analytic signed-distance tests.  A contact at
zero penetration (touching) counts as contact so the boundary case is
deterministic.

The impact pseudo-force is linear in the approach speed along the contact
normal.  With the default workcell stiffness of 400 N*s/m the safety-rated
reduced speed of 0.25 m/s maps exactly onto the 100 N hard-failure threshold,
which keeps the two runtime limits mutually consistent.  The manipulated cube
is a light object and carries its own, much softer stiffness: pushing it
around is penalised, not force-lethal.

A ``DisturbanceSpec`` (raised surface, enlarged cube) only describes the
assessment disturbance: ``SceneConfig.check_disturbance`` decides whether
it is admitted, and ``GraspEnv.reset`` builds the disturbed scene.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels

DEFAULT_CONTACT_STIFFNESS = 400.0  # N*s/m, chosen so 0.25 m/s -> 100 N
DEFAULT_CUBE_STIFFNESS = 40.0  # N*s/m, light object: contact cannot reach 100 N


@dataclass(frozen=True)
class ContactReport:
    """One contact of the tool sphere; ``body`` is ``"table"``, ``"cube"``,
    ``"obstacle"`` or ``"workspace_bound"``."""

    body: str
    penetration: float  # m, >= 0; zero for a touching contact
    impact_speed: float  # m/s, approach speed along the contact normal
    force: float  # N, stiffness * impact_speed


@dataclass(frozen=True)
class DisturbanceSpec:
    """Assessment perturbation: raise the surface, enlarge the object."""

    surface_height_delta: float = 0.0
    object_size_delta: float = 0.0

    def __post_init__(self):
        if not (
            np.isfinite(self.surface_height_delta)
            and np.isfinite(self.object_size_delta)
        ):
            raise ValueError("disturbance deltas must be finite")


# the Scene fields that hold 3-vectors
_POINT_FIELDS = (
    "workspace_min", "workspace_max", "cube_center",
    "cube_half_extents", "obstacle_center", "obstacle_half_extents",
)


@dataclass(frozen=True)
class Scene:
    """Immutable scene value.

    Every 3-vector is stored once, as an ``(x, y, z)`` tuple of Python
    floats: the constructor converts any 3-vector it is given, and the scalar
    contact tests and the step record read the tuples as they are.
    """

    table_height: float
    workspace_min: tuple
    workspace_max: tuple
    cube_center: tuple
    cube_half_extents: tuple
    obstacle_center: tuple | None = None
    obstacle_half_extents: tuple | None = None
    contact_stiffness: float = DEFAULT_CONTACT_STIFFNESS
    cube_stiffness: float = DEFAULT_CUBE_STIFFNESS

    def __post_init__(self):
        if (self.obstacle_center is None) != (self.obstacle_half_extents is None):
            raise ValueError("obstacle center and half extents must come together")
        for name in _POINT_FIELDS:
            value = getattr(self, name)
            if value is not None:
                point = tuple(np.asarray(value, dtype=np.float64).reshape(3).tolist())
                object.__setattr__(self, name, point)
        object.__setattr__(self, "table_height", float(self.table_height))
        if not all(lo < hi for lo, hi in zip(self.workspace_min, self.workspace_max)):
            raise ValueError("workspace bounds must satisfy min < max")
        if not all(h > 0.0 for h in self.cube_half_extents):
            raise ValueError("cube half extents must be positive")
        if self.obstacle_present and not all(h > 0.0 for h in self.obstacle_half_extents):
            raise ValueError("obstacle half extents must be positive")
        if not self.contact_stiffness > 0.0 or not self.cube_stiffness > 0.0:
            raise ValueError("contact stiffnesses must be positive")

    @property
    def obstacle_present(self) -> bool:
        return self.obstacle_center is not None

    def cube_rest_height(self) -> float:
        """Cube center z when the cube rests on the table."""
        return self.table_height + self.cube_half_extents[2]

    def with_cube_center(self, center) -> "Scene":
        """This scene with the cube moved to ``center``, a 3-vector.

        Only the cube moves, so nothing else is re-validated: the copy shares
        every other field, and a carried cube may go anywhere the tool does.
        """
        x, y, z = kernels.float_tuple(center, 3)
        moved = object.__new__(Scene)
        moved.__dict__.update(self.__dict__, cube_center=(float(x), float(y), float(z)))
        return moved


def contact_force(impact_speed: float, stiffness: float) -> float:
    """Linear impact model: force = stiffness * approach speed."""
    if impact_speed < 0.0:
        raise ValueError("impact_speed must be >= 0")
    if not stiffness > 0.0:
        raise ValueError("stiffness must be positive")
    return stiffness * impact_speed


def _report(body: str, penetration: float, velocity, normal, stiffness: float) -> ContactReport:
    """A contact on ``body``; the impact is the approach speed along ``normal``.

    The dot product stays numpy's: a left-to-right scalar sum differs from it
    in the last bit on some edge and corner normals, and the value reaches the
    step record.
    """
    approach = float(np.array(velocity).dot(normal))
    impact = -approach if approach < 0.0 else 0.0
    return ContactReport(body, penetration, impact, contact_force(impact, stiffness))


# inward normals of the table and of the low and the high workspace wall, per axis
_AXES = tuple(map(np.array, ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))))
_NEGATIVE_AXES = tuple(map(np.array, ((-1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, -1.0))))
_UP = _AXES[2]


def detect_collisions(
    scene: Scene,
    eef_center,
    eef_radius: float,
    eef_velocity,
) -> list[ContactReport]:
    """One report per penetrated (or touching) body, in fixed body order.

    Points are 3-vectors; the env passes tuples of floats.
    """
    if not eef_radius > 0.0:
        raise ValueError("eef_radius must be positive")
    center = kernels.float_tuple(eef_center, 3)
    velocity = kernels.float_tuple(eef_velocity, 3)
    reports: list[ContactReport] = []
    clearance = center[2] - scene.table_height
    if not clearance > eef_radius:
        reports.append(
            _report("table", eef_radius - clearance, velocity, _UP, scene.contact_stiffness)
        )
    sd, nx, ny, nz = kernels.sphere_box_signed_distance(
        center, scene.cube_center, scene.cube_half_extents
    )
    if not sd > eef_radius:
        reports.append(
            _report("cube", eef_radius - sd, velocity, (nx, ny, nz), scene.cube_stiffness)
        )
    if scene.obstacle_center is not None:
        sd, nx, ny, nz = kernels.sphere_box_signed_distance(
            center, scene.obstacle_center, scene.obstacle_half_extents
        )
        if not sd > eef_radius:
            reports.append(
                _report("obstacle", eef_radius - sd, velocity, (nx, ny, nz),
                        scene.contact_stiffness)
            )
    # workspace bound: sphere touching the box walls from inside; the
    # deepest wall wins, the first axis and the low wall on ties.  A sphere
    # strictly inside all six walls, by the loop's own expressions, touches
    # none of them
    (x, y, z), lo, hi = center, scene.workspace_min, scene.workspace_max
    if (
        lo[0] - (x - eef_radius) < 0.0 and (x + eef_radius) - hi[0] < 0.0
        and lo[1] - (y - eef_radius) < 0.0 and (y + eef_radius) - hi[1] < 0.0
        and lo[2] - (z - eef_radius) < 0.0 and (z + eef_radius) - hi[2] < 0.0
    ):
        return reports
    pen_best = -math.inf
    normal = None
    for axis in range(3):
        low_pen = lo[axis] - (center[axis] - eef_radius)
        if low_pen >= 0.0 and low_pen > pen_best:
            pen_best = low_pen
            normal = _AXES[axis]
        high_pen = (center[axis] + eef_radius) - hi[axis]
        if high_pen >= 0.0 and high_pen > pen_best:
            pen_best = high_pen
            normal = _NEGATIVE_AXES[axis]
    if normal is not None:
        reports.append(
            _report(
                "workspace_bound", pen_best, velocity, normal, scene.contact_stiffness
            )
        )
    return reports


def signed_clearances(scene: Scene, eef_center, eef_radius: float) -> dict[str, float]:
    """Distance from the sphere surface to each body (negative inside)."""
    center = kernels.float_tuple(eef_center, 3)
    out = {"table": center[2] - scene.table_height - eef_radius}
    sd, _, _, _ = kernels.sphere_box_signed_distance(
        center, scene.cube_center, scene.cube_half_extents
    )
    out["cube"] = sd - eef_radius
    if scene.obstacle_present:
        sd, _, _, _ = kernels.sphere_box_signed_distance(
            center, scene.obstacle_center, scene.obstacle_half_extents
        )
        out["obstacle"] = sd - eef_radius
    return out

