"""Episodic grasp environment: shielded stepping, rewards, termination.

Each step runs the command pipeline: clamp the action, solve IK for the
commanded tool position, reject the command when IK fails or the joint-space
speed limit would be exceeded (soft constraints: the joints hold), otherwise
move; then detect contacts, process the gripper, and score the transition.

Hard constraints terminate the episode: any contact with the workcell (table
or workspace wall) or a contact force above the failure threshold.  Success
(cube lifted clear of the surface) also terminates; running out of the step
budget truncates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import kernels
from .kinematics import ArmModel, check_speed, eef_position, inverse_kinematics
from .world import (
    DEFAULT_CONTACT_STIFFNESS,
    DEFAULT_CUBE_STIFFNESS,
    DisturbanceSpec,
    Scene,
    detect_collisions,
    signed_clearances,
)

OBSERVATION_DIM = 17
ACTION_DIM = 4

# seed configuration from which the home joint vector is solved
READY_SEED = (0.0, -np.pi / 2.0, np.pi / 2.0, -np.pi / 2.0, -np.pi / 2.0, 0.0)


# the label sets, as the INI file, the CLI and a log header spell them
REWARD_MODES = ("drl", "sd-drl")
SCENARIOS = ("normal", "obstacle")


def _as_label(options: tuple, label: str, value) -> str:
    """``value`` as one of ``options``, in any case and surrounding whitespace."""
    text = str(value).strip().lower()
    if text not in options:
        expected = " or ".join(map(repr, options))
        raise ValueError(f"unknown {label} {value!r}; expected {expected}")
    return text


def _as_scenario(value) -> str:
    return _as_label(SCENARIOS, "scenario", value)


def _as_reward_mode(value) -> str:
    return _as_label(REWARD_MODES, "reward mode", value)


@dataclass(frozen=True)
class RewardConfig:
    """Dense reward coefficients and runtime safety thresholds.

    Costs are stored as the negative values they contribute; each one is
    added once per step when its triggering event fires.
    """

    mode: str = "sd-drl"
    speed_cost: float = -0.5
    coll_cost: float = -5.0
    cube_coll_cost: float = -0.01
    obstacle_coll_cost: float = -0.5
    coll_vel_cost: float = -0.5
    gripper_cost: float = -0.01
    grip_rew: float = 5.0
    grip_prop_rew: float = 10.0
    ik_cost: float = -0.5
    collision_velocity_threshold: float = 0.25  # m/s, safety-rated reduced speed
    force_failure_threshold: float = 100.0  # N, hard-failure limit

    def __post_init__(self):
        object.__setattr__(self, "mode", _as_reward_mode(self.mode))
        for name in (
            "speed_cost",
            "coll_cost",
            "cube_coll_cost",
            "obstacle_coll_cost",
            "coll_vel_cost",
            "gripper_cost",
            "ik_cost",
        ):
            if not -math.inf < getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be finite and <= 0")
        for name in ("grip_rew", "grip_prop_rew"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")
        for name in ("collision_velocity_threshold", "force_failure_threshold"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "RewardConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown reward config fields: {sorted(unknown)}")
        return cls(**data)


@dataclass(frozen=True)
class EnvConfig:
    action_scale: float = 0.02  # m per step per axis at full deflection
    dt: float = 0.05  # s per control step
    max_steps: int = 200
    grasp_radius: float = 0.01  # m, secure-grasp distance to the cube center
    lift_height: float = 0.05  # m above rest height for task success
    proximity_threshold: float = 0.10  # m, "near a body" for the speed counter

    def __post_init__(self):
        for name in (
            "action_scale", "dt", "grasp_radius", "lift_height", "proximity_threshold"
        ):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
        if not self.max_steps >= 1:
            raise ValueError("max_steps must be >= 1")


@dataclass(frozen=True)
class SceneConfig:
    """Nominal scene geometry and reset sampling regions."""

    table_height: float = -0.1
    workspace_min: tuple[float, float, float] = (0.10, -0.38, -0.18)
    workspace_max: tuple[float, float, float] = (0.78, 0.38, 0.45)
    cube_half_extent: float = 0.025
    cube_region_min: tuple[float, float] = (0.45, -0.15)
    cube_region_max: tuple[float, float] = (0.62, 0.15)
    obstacle_half_extents: tuple[float, float, float] = (0.025, 0.20, 0.025)
    obstacle_region_min: tuple[float, float] = (0.34, -0.05)
    obstacle_region_max: tuple[float, float] = (0.40, 0.05)
    contact_stiffness: float = DEFAULT_CONTACT_STIFFNESS
    cube_stiffness: float = DEFAULT_CUBE_STIFFNESS
    eef_radius: float = 0.02
    home_position: tuple[float, float, float] = (0.30, 0.0, 0.15)

    def __post_init__(self):
        for f in fields(self):
            if not np.all(np.isfinite(getattr(self, f.name))):
                raise ValueError(f"{f.name} must be finite")
        if not self.eef_radius > 0.0:
            raise ValueError("eef_radius must be positive")
        if not all(h > 0.0 for h in self.obstacle_half_extents):
            raise ValueError("obstacle_half_extents must be positive")
        if not self.contact_stiffness > 0.0 or not self.cube_stiffness > 0.0:
            raise ValueError("contact stiffnesses must be positive")
        self.check_disturbance(DisturbanceSpec())

    def _disturbed(self, spec: DisturbanceSpec) -> tuple[float, float]:
        """The table height and cube half extent of every scene a reset builds
        under ``spec``: the table rises by the surface delta, the cube grows
        by half the object delta."""
        return (
            self.table_height + spec.surface_height_delta,
            self.cube_half_extent + 0.5 * spec.object_size_delta,
        )

    def check_disturbance(self, spec: DisturbanceSpec) -> None:
        """Refuse ``spec`` unless every scene a reset builds under it lies in
        the workspace, with room for the cube clear of the obstacle, and
        leaves the tool at home out of contact with the table, the obstacle
        and the cube.

        The scenes are ``GraspEnv._sample_scene``'s: the table and the cube
        of ``_disturbed``, and both boxes resting on the table anywhere in
        their sampling regions.
        """
        table, half = self._disturbed(spec)
        if not half > 0.0:
            raise ValueError("cube_half_extent plus half the object delta must be positive")
        lo, hi = self.workspace_min, self.workspace_max
        if not lo[2] <= table <= hi[2]:
            raise ValueError("the table height must lie inside the workspace")
        boxes = (
            ("cube", self.cube_region_min, self.cube_region_max, (half, half, half)),
            ("obstacle", self.obstacle_region_min, self.obstacle_region_max,
             self.obstacle_half_extents),
        )
        for name, region_min, region_max, (hx, hy, hz) in boxes:
            cz = table + hz
            spans = zip(region_min, region_max, (hx, hy), lo, hi)
            if not (
                all(low <= a - h and a <= b and b + h <= high for a, b, h, low, high in spans)
                and lo[2] <= cz - hz and cz + hz <= hi[2]
            ):
                raise ValueError(
                    f"the {name}, resting on the table anywhere in its sampling "
                    "region, must lie inside the workspace"
                )
        # resting on one table, only x and y can part the boxes: an obstacle
        # centred in [max(o_min, c_max - s), min(o_max, c_min + s)] on both
        # axes overlaps every placement of the grown cube
        if all(
            max(o_lo, c_hi - s) <= min(o_hi, c_lo + s)
            for o_lo, o_hi, c_lo, c_hi, s in zip(
                self.obstacle_region_min, self.obstacle_region_max,
                self.cube_region_min, self.cube_region_max,
                [half + h for h in self.obstacle_half_extents],
            )
        ):
            raise ValueError("some obstacle placement overlaps every cube placement")
        # the tool sphere starts at home clear of the table and of every
        # obstacle and cube placement, whose union is the box grown by half
        # its sampling region on x and y; the expressions are the contact
        # tests' own
        home = kernels.float_tuple(self.home_position, 3)
        radius = self.eef_radius
        if not home[2] - table > radius:
            raise ValueError("the tool at its home position must clear the table by eef_radius")
        # the obstacle clause first, then the cube's
        for name, (ax, ay), (bx, by), (hx, hy, hz) in reversed(boxes):
            reach, _, _, _ = kernels.sphere_box_signed_distance(
                home,
                (0.5 * (ax + bx), 0.5 * (ay + by), table + hz),
                (hx + 0.5 * (bx - ax), hy + 0.5 * (by - ay), hz),
            )
            if not reach > radius:
                raise ValueError(
                    f"the tool at its home position must clear every {name} placement "
                    "by eef_radius"
                )


def _draw_clear_of(rng: np.random.Generator, region_min, region_max, center, span) -> list:
    """``[x, y]`` drawn uniformly from the region ``region_min..region_max``
    minus the open box ``center +- span``: over the whole region if the box
    misses it, else in one of the boxes left, right, below and above it,
    picked by area (by length on a zero-width axis).  An admitted config keeps
    one: ``SceneConfig.check_disturbance`` tests the bounds that keep a box."""
    (lx, ly), (hx, hy) = region_min, region_max
    (ox, oy), (sx, sy) = center, span
    if ox + sx <= lx or ox - sx >= hx or oy + sy <= ly or oy - sy >= hy:
        return rng.uniform(region_min, region_max).tolist()
    x0, x1 = max(lx, ox - sx), min(hx, ox + sx)
    boxes = [box for keep, box in (
        (ox > lx + sx, ((lx, ly), (ox - sx, hy))),
        (ox < hx - sx, ((ox + sx, ly), (hx, hy))),
        (oy > ly + sy, ((x0, ly), (x1, oy - sy))),
        (oy < hy - sy, ((x0, oy + sy), (x1, hy))),
    ) if keep]
    spanned = (hx > lx, hy > ly)
    cumulative = np.cumsum([np.prod(np.subtract(high, low), where=spanned) for low, high in boxes])
    pick = np.searchsorted(cumulative, rng.random() * cumulative[-1], side="right")
    return rng.uniform(*boxes[min(pick, len(boxes) - 1)]).tolist()


def _parse_action(action) -> tuple:
    """A 4-element array-like action as ``(dx, dy, dz, gripper)``, Python floats.

    A tool displacement in units of full deflection and the gripper command
    (``>= 0`` closes it, ``< 0`` opens it), each clamped to [-1, 1], so +-inf
    becomes +-1 and -0.0 stays -0.0.  A NaN component raises ``ValueError``.
    """
    dx, dy, dz, gripper = np.asarray(action, dtype=np.float64).reshape(ACTION_DIM).tolist()
    if dx != dx or dy != dy or dz != dz or gripper != gripper:
        raise ValueError("action components must not be NaN")
    return (
        1.0 if dx > 1.0 else -1.0 if dx < -1.0 else dx,
        1.0 if dy > 1.0 else -1.0 if dy < -1.0 else dy,
        1.0 if dz > 1.0 else -1.0 if dz < -1.0 else dz,
        1.0 if gripper > 1.0 else -1.0 if gripper < -1.0 else gripper,
    )


@dataclass
class TransitionEvents:
    """Per-step events that drive the reward terms and violation counters."""

    distance_d: float = 0.0
    grasp_success: bool = False  # secure grasp contact made this step
    lift_success: bool = False  # grasped cube raised clear: task success
    grasp_attempt_failed: bool = False
    speed_violation: bool = False
    ik_failure: bool = False
    collision_env: bool = False  # table or workspace wall contact
    collision_cube: bool = False
    collision_obstacle: bool = False
    collision_velocity_exceeded: bool = False
    velocity_violation: bool = False  # over the reduced speed near a body
    collision_force: float = 0.0
    collision_impact_speed: float = 0.0

    def as_dict(self) -> dict:
        # the instance dict holds exactly the fields, in declaration order
        return dict(self.__dict__)

    @classmethod
    def from_dict(cls, data: dict) -> "TransitionEvents":
        """The events of ``data``, a mapping of field names to values; a
        missing field takes its default, an unknown one raises ``ValueError``."""
        # one merged copy, defaults first, is the instance dict as __init__
        # would fill it: every field in declaration order, and one more key
        # per unknown name.  Matching a logged record's 13 keys to keyword
        # parameters costs more than the rest of a replay
        state = {**_EVENT_DEFAULTS, **data}
        if len(state) != len(_EVENT_DEFAULTS):
            unknown = sorted(data.keys() - _EVENT_DEFAULTS.keys())
            raise ValueError(f"unknown event fields: {unknown}")
        events = object.__new__(cls)
        events.__dict__ = state
        return events


# every event with its default, in declaration order
_EVENT_DEFAULTS = TransitionEvents().as_dict()


class StepResult(NamedTuple):
    observation: np.ndarray
    reward: float
    terminated: bool
    truncated: bool
    events: TransitionEvents


def check_grasp(
    eef_position,
    gripper_closing: bool,
    gripper_was_open: bool,
    already_grasped: bool,
    cube_center,
    cube_rest_height: float,
    grasp_radius: float,
    lift_height: float,
):
    """Grasp-state transition for one step.

    Fingers commanded shut enclose the cube whenever the tool point is within
    ``grasp_radius`` of its center; a miss is penalised only on the
    open->closed transition.  A held cube follows the tool point, so the lift
    test reads the prospective cube height.

    The two positions are 3-vectors (the env passes tuples of floats).
    Returns ``(grasp_success, grasp_attempt_failed, lifted, now_grasped)``,
    each a plain Python ``bool`` (never ``np.bool_``): they go straight into
    the JSON step record.
    """
    grasp_success = False
    grasp_attempt_failed = False
    now_grasped = bool(already_grasped)
    if gripper_closing and not already_grasped:
        (cx, cy, cz), (ex, ey, ez) = cube_center, eef_position
        if kernels.norm3(cx - ex, cy - ey, cz - ez) <= grasp_radius:
            grasp_success = True
            now_grasped = True
        elif gripper_was_open:
            grasp_attempt_failed = True
    elif not gripper_closing:
        now_grasped = False
    held_height = eef_position[2] if now_grasped else cube_center[2]
    lifted = now_grasped and bool(held_height - cube_rest_height >= lift_height)
    return grasp_success, grasp_attempt_failed, lifted, now_grasped


def compute_reward(events: TransitionEvents, config: RewardConfig) -> float:
    """Score one transition.

    Both modes share the distance drive, the grasp rewards and the
    failed-grasp penalty; the safety-driven mode additionally adds each
    stored (negative) safety cost once per triggering event.
    """
    safety = config.mode == "sd-drl"
    reward = -events.distance_d
    if events.grasp_success:
        reward += config.grip_rew
    if events.lift_success:
        reward += config.grip_prop_rew
    if safety:
        if events.speed_violation:
            reward += config.speed_cost
        if events.collision_env:
            reward += config.coll_cost
        if events.collision_cube:
            reward += config.cube_coll_cost
    if events.grasp_attempt_failed:
        reward += config.gripper_cost
    if safety:
        if events.collision_velocity_exceeded:
            reward += config.coll_vel_cost
        if events.collision_obstacle:
            reward += config.obstacle_coll_cost
        if events.ik_failure:
            reward += config.ik_cost
    return reward


class GraspEnv:
    """Single-threaded episodic environment instance."""

    def __init__(
        self,
        arm: ArmModel | None = None,
        scene_config: SceneConfig | None = None,
        env_config: EnvConfig | None = None,
        reward_config: RewardConfig | None = None,
    ):
        self.arm = arm if arm is not None else ArmModel.default_ur5()
        self.scene_config = scene_config if scene_config is not None else SceneConfig()
        self.env_config = env_config if env_config is not None else EnvConfig()
        self.reward_config = (
            reward_config if reward_config is not None else RewardConfig()
        )
        self._home_q = self._solve_home()
        self._log_writer = None
        self._episode_index = -1
        self._done = True
        self._scene: Scene | None = None

    # -- setup ------------------------------------------------------------

    def set_log_writer(self, writer) -> None:
        """Attach an object with a ``write_step(record: dict)`` method."""
        self._log_writer = writer

    def _solve_home(self) -> tuple:
        home = self.scene_config.home_position
        result = inverse_kinematics(self.arm, home, READY_SEED)
        if not result.converged:
            raise ValueError(
                f"home position {home} is not reachable with the configured arm: "
                f"status={result.status}, residual={result.residual:.4g}"
            )
        return result.joint_values

    def _sample_scene(
        self,
        rng: np.random.Generator,
        scenario: str,
        disturbance: DisturbanceSpec,
    ) -> Scene:
        """A reset scene: the table and the cube of ``SceneConfig._disturbed``,
        both boxes resting on the table, and the cube drawn clear of the
        obstacle (``_draw_clear_of``)."""
        cfg = self.scene_config
        table, grown = cfg._disturbed(disturbance)
        obstacle_center = obstacle_half = None
        if scenario == "obstacle":
            obstacle_half = hx, hy, hz = cfg.obstacle_half_extents
            ox, oy = rng.uniform(cfg.obstacle_region_min, cfg.obstacle_region_max).tolist()
            obstacle_center = (ox, oy, table + hz)
            cx, cy = _draw_clear_of(rng, cfg.cube_region_min, cfg.cube_region_max,
                                    (ox, oy), (grown + hx, grown + hy))
        else:
            cx, cy = rng.uniform(cfg.cube_region_min, cfg.cube_region_max).tolist()
        return Scene(
            table_height=table,
            workspace_min=cfg.workspace_min,
            workspace_max=cfg.workspace_max,
            cube_center=(cx, cy, table + grown),
            cube_half_extents=(grown, grown, grown),
            obstacle_center=obstacle_center,
            obstacle_half_extents=obstacle_half,
            contact_stiffness=cfg.contact_stiffness,
            cube_stiffness=cfg.cube_stiffness,
        )

    # -- episode API -------------------------------------------------------

    def reset(
        self,
        seed: int,
        scenario: str = "normal",
        disturbance: DisturbanceSpec | None = None,
    ) -> np.ndarray:
        scenario = _as_scenario(scenario)
        if disturbance is None:
            disturbance = DisturbanceSpec()
        else:
            self.scene_config.check_disturbance(disturbance)
        self._scene = self._sample_scene(np.random.default_rng(seed), scenario, disturbance)
        # env state as Python floats: joints, tool point, tool velocity
        self._q = self._home_q
        self._frames = None  # fk_frames' (origins, zaxes) of _q, when known
        self._eef = tuple(eef_position(self.arm, self._q).tolist())
        self._eef_velocity = (0.0, 0.0, 0.0)
        self._aperture = 1.0
        self._grasped = False
        self._step_count = 0
        self._episode_index += 1
        self._done = False
        return self._observation()

    def step(self, action) -> StepResult:
        if self._scene is None:
            raise RuntimeError("step() called before reset()")
        if self._done:
            raise RuntimeError("step() called on a finished episode; call reset()")
        act = dx, dy, dz, gripper = _parse_action(action)
        cfg = self.env_config
        reward_cfg = self.reward_config
        scale = cfg.action_scale
        px, py, pz = self._eef
        ik_failure = speed_violation = moved = False

        # 1-3: command shield -- IK then joint-speed check; rejected commands
        # leave the joint vector untouched
        target = (px + dx * scale, py + dy * scale, pz + dz * scale)
        ik = inverse_kinematics(self.arm, target, self._q, self._frames)
        velocity = (0.0, 0.0, 0.0)
        if ik.joint_values is None:
            ik_failure = True
        elif not check_speed(self._q, ik.joint_values, cfg.dt, self.arm).ok:
            speed_violation = True
        else:
            moved = True
            self._q = ik.joint_values
            self._frames = ik.frames
            nx, ny, nz = self._eef = ik.tool_point
            velocity = ((nx - px) / cfg.dt, (ny - py) / cfg.dt, (nz - pz) / cfg.dt)
        self._eef_velocity = velocity
        eef = self._eef

        scene = self._scene
        was_grasped = self._grasped
        if was_grasped:
            scene = scene.with_cube_center(eef)

        # 4: contacts at the (possibly unmoved) tool position
        collision_env = collision_cube = collision_obstacle = False
        collision_velocity_exceeded = False
        collision_force = collision_impact_speed = 0.0
        threshold = reward_cfg.collision_velocity_threshold
        radius = self.scene_config.eef_radius
        for report in detect_collisions(scene, eef, radius, velocity):
            if report.body == "cube":
                collision_cube = True
            elif report.body == "obstacle":
                collision_obstacle = True
            else:  # table or workspace wall
                collision_env = True
            if report.impact_speed > threshold:
                collision_velocity_exceeded = True
            if report.force > collision_force:
                collision_force = report.force
                collision_impact_speed = report.impact_speed

        # near-body overspeed counter (no contact required); a rejected
        # command's velocity is zero, never over the positive threshold
        velocity_violation = False
        if moved and kernels.norm3(*velocity) > threshold:
            clearances = signed_clearances(scene, eef, radius)
            velocity_violation = min(clearances.values()) <= cfg.proximity_threshold

        # 5: gripper and grasp-state transition
        closing = gripper >= 0.0
        grasp_success, grasp_attempt_failed, lift_success, self._grasped = check_grasp(
            eef,
            gripper_closing=closing,
            gripper_was_open=self._aperture > 0.5,
            already_grasped=was_grasped,
            cube_center=scene.cube_center,
            cube_rest_height=scene.cube_rest_height(),
            grasp_radius=cfg.grasp_radius,
            lift_height=cfg.lift_height,
        )
        if self._grasped:
            if not was_grasped:
                scene = scene.with_cube_center(eef)
        elif was_grasped:  # released: the cube drops back onto the surface
            cx, cy, _ = scene.cube_center
            scene = scene.with_cube_center((cx, cy, scene.cube_rest_height()))
        self._aperture = 0.0 if closing else 1.0
        self._scene = scene
        observation = self._observation()

        # 6-7: score and terminate
        (ex, ey, ez), (cx, cy, cz) = eef, scene.cube_center
        # the fields in declaration order: keywords cost more than the rest
        # of the construction
        events = TransitionEvents(
            kernels.norm3(cx - ex, cy - ey, cz - ez),
            grasp_success,
            lift_success,
            grasp_attempt_failed,
            speed_violation,
            ik_failure,
            collision_env,
            collision_cube,
            collision_obstacle,
            collision_velocity_exceeded,
            velocity_violation,
            collision_force,
            collision_impact_speed,
        )
        reward = compute_reward(events, reward_cfg)
        terminated = (
            lift_success
            or collision_env
            or collision_force > reward_cfg.force_failure_threshold
        )
        self._step_count += 1
        truncated = not terminated and self._step_count >= cfg.max_steps
        self._done = terminated or truncated

        result = StepResult(observation, reward, terminated, truncated, events)
        if self._log_writer is not None:
            self._log_writer.write_step(self._step_record(act, result))
        return result

    # -- views -------------------------------------------------------------

    @property
    def scene(self) -> Scene | None:
        return self._scene

    @property
    def joints(self) -> np.ndarray:
        return np.array(self._q)

    @property
    def done(self) -> bool:
        return self._done

    def _observation(self) -> np.ndarray:
        """The observation: a read-only float64 array of 17 values.

        - ``0:3`` tool point
        - ``3:6`` tool velocity
        - ``6`` gripper aperture, 0 closed .. 1 open
        - ``7:10`` cube centre
        - ``10:13`` cube - tool, computed exactly in floats
        - ``13:16`` obstacle centre, zeros if there is none
        - ``16`` grasped, as 1.0 or 0.0
        """
        scene = self._scene
        ex, ey, ez = self._eef
        vx, vy, vz = self._eef_velocity
        cx, cy, cz = scene.cube_center
        ox, oy, oz = scene.obstacle_center or (0.0, 0.0, 0.0)
        observation = np.array((
            ex, ey, ez, vx, vy, vz, self._aperture, cx, cy, cz,
            cx - ex, cy - ey, cz - ez, ox, oy, oz, 1.0 if self._grasped else 0.0,
        ))
        # read-only: rollouts yield the array the policy was handed, and the
        # trainer stores it in the replay buffer after the step, so a policy
        # that wrote into it would corrupt the stored transition
        observation.setflags(write=False)
        return observation

    def _step_record(self, act: tuple, result: StepResult) -> dict:
        return {
            "episode": self._episode_index,
            "step": self._step_count,
            "action": list(act),
            "reward": result.reward,
            "terminated": result.terminated,
            "truncated": result.truncated,
            "events": result.events.as_dict(),
            "eef": list(self._eef),
            "cube": list(self._scene.cube_center),
        }
