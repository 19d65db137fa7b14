"""Environment: reward engine, command shield, grasp logic, termination."""

import dataclasses
import itertools
import json
import math
import types
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from safegrasp import env as env_module
from safegrasp import kernels
from safegrasp.env import (
    ACTION_DIM,
    REWARD_MODES,
    EnvConfig,
    GraspEnv,
    RewardConfig,
    SceneConfig,
    StepResult,
    TransitionEvents,
    check_grasp,
    compute_reward,
)
from safegrasp.kinematics import ArmModel, check_speed, inverse_kinematics
from safegrasp.rollout import RecordSink, episode_steps, rollout_episodes
from safegrasp.runlog import dumps_canonical
from safegrasp.tqc import RandomPolicy, ScriptedGraspPolicy
from safegrasp.world import DisturbanceSpec, Scene, detect_collisions, signed_clearances

from conftest import drive_to


def events(**kwargs) -> TransitionEvents:
    return TransitionEvents(**kwargs)


DRL = RewardConfig(mode="drl")
SD = RewardConfig(mode="sd-drl")

SAFETY_FLAGS = (
    "speed_violation",
    "ik_failure",
    "collision_env",
    "collision_cube",
    "collision_obstacle",
    "collision_velocity_exceeded",
)


class TestComputeReward:
    def test_no_event_transition_is_negative_distance(self):
        ev = events(distance_d=0.5)
        assert compute_reward(ev, SD) == -0.5
        assert compute_reward(ev, DRL) == -0.5

    def test_failed_grasp_composite(self):
        ev = events(distance_d=0.5, grasp_attempt_failed=True)
        assert compute_reward(ev, DRL) == pytest.approx(-0.51, abs=1e-12)
        assert compute_reward(ev, SD) == pytest.approx(-0.51, abs=1e-12)

    def test_fast_environment_collision_composite(self):
        ev = events(
            distance_d=0.1,
            collision_env=True,
            collision_velocity_exceeded=True,
            collision_impact_speed=0.3,
        )
        assert compute_reward(ev, SD) == pytest.approx(-5.6, abs=1e-12)
        # the traditional mode ignores both safety costs
        assert compute_reward(ev, DRL) == pytest.approx(-0.1, abs=1e-12)

    def test_grasp_and_lift_composite(self):
        ev = events(distance_d=0.0, grasp_success=True, lift_success=True)
        assert compute_reward(ev, SD) == pytest.approx(15.0, abs=1e-12)
        assert compute_reward(ev, DRL) == pytest.approx(15.0, abs=1e-12)

    def test_every_single_term(self):
        cases = [
            (events(distance_d=0.2), -0.2),
            (events(grasp_success=True), 5.0),
            (events(lift_success=True), 10.0),
            (events(grasp_attempt_failed=True), -0.01),
            (events(speed_violation=True), -0.5),
            (events(ik_failure=True), -0.5),
            (events(collision_env=True), -5.0),
            (events(collision_cube=True), -0.01),
            (events(collision_obstacle=True), -0.5),
            (events(collision_env=True, collision_velocity_exceeded=True), -5.5),
        ]
        for ev, expected in cases:
            assert compute_reward(ev, SD) == pytest.approx(expected, abs=1e-12)

    def test_drl_mode_only_keeps_task_terms(self):
        ev = events(
            distance_d=0.3,
            speed_violation=True,
            ik_failure=True,
            collision_env=True,
            collision_cube=True,
            collision_obstacle=True,
            collision_velocity_exceeded=True,
            grasp_attempt_failed=True,
        )
        assert compute_reward(ev, DRL) == pytest.approx(-0.31, abs=1e-12)

    def test_mode_equivalence_on_safe_transitions(self):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            ev = events(
                distance_d=float(rng.uniform(0.0, 1.0)),
                grasp_success=bool(rng.integers(2)),
                lift_success=bool(rng.integers(2)),
                grasp_attempt_failed=bool(rng.integers(2)),
            )
            assert compute_reward(ev, DRL) == compute_reward(ev, SD)

    def test_reward_decomposition_brute_force(self):
        """Sum of independently evaluated terms equals the engine output."""
        term_values = {
            "grasp_success": SD.grip_rew,
            "lift_success": SD.grip_prop_rew,
            "grasp_attempt_failed": SD.gripper_cost,
            "speed_violation": SD.speed_cost,
            "ik_failure": SD.ik_cost,
            "collision_env": SD.coll_cost,
            "collision_cube": SD.cube_coll_cost,
            "collision_obstacle": SD.obstacle_coll_cost,
            "collision_velocity_exceeded": SD.coll_vel_cost,
        }
        flags = list(term_values)
        for subset_bits in itertools.product((False, True), repeat=len(flags)):
            chosen = dict(zip(flags, subset_bits))
            for d in (0.0, 0.5):
                ev = events(distance_d=d, **chosen)
                expected = -d + sum(
                    value for name, value in term_values.items() if chosen[name]
                )
                assert compute_reward(ev, SD) == pytest.approx(expected, abs=1e-12)

    def test_custom_coefficients_respected(self):
        config = RewardConfig(mode="sd-drl", coll_cost=-7.5, grip_rew=2.0)
        assert compute_reward(events(collision_env=True), config) == -7.5
        assert compute_reward(events(grasp_success=True), config) == 2.0

    def test_invalid_coefficients_rejected(self):
        with pytest.raises(ValueError):
            RewardConfig(speed_cost=0.5)
        with pytest.raises(ValueError):
            RewardConfig(grip_rew=-1.0)
        with pytest.raises(ValueError):
            RewardConfig(force_failure_threshold=0.0)

    def test_events_round_trip_through_a_dict(self):
        original = events(distance_d=0.25, lift_success=True, collision_force=3.5)
        restored = TransitionEvents.from_dict(dict(reversed(original.as_dict().items())))
        assert restored == original
        # fields in declaration order, whatever the order of the keys
        assert list(restored.as_dict()) == [f.name for f in dataclasses.fields(original)]
        for partial in ({"ik_failure": True}, {}):
            with pytest.raises(ValueError) as info:
                TransitionEvents.from_dict(partial)
            assert str(info.value) == "missing event 'collision_cube'"

    def test_unknown_event_fields_named_in_sorted_order(self):
        data = {"zeta": 1, "distance_d": 0.1, "alpha": True}
        with pytest.raises(ValueError) as info:
            TransitionEvents.from_dict(data)
        assert str(info.value) == "unknown event fields: ['alpha', 'zeta']"


def reference_reward(events: TransitionEvents, config: RewardConfig) -> float:
    """``compute_reward`` as it was written before its mode test was bound
    to a local: the mode read twice, the terms added in this order."""
    reward = -events.distance_d
    if events.grasp_success:
        reward += config.grip_rew
    if events.lift_success:
        reward += config.grip_prop_rew
    if config.mode == "sd-drl":
        if events.speed_violation:
            reward += config.speed_cost
        if events.collision_env:
            reward += config.coll_cost
        if events.collision_cube:
            reward += config.cube_coll_cost
    if events.grasp_attempt_failed:
        reward += config.gripper_cost
    if config.mode == "sd-drl":
        if events.collision_velocity_exceeded:
            reward += config.coll_vel_cost
        if events.collision_obstacle:
            reward += config.obstacle_coll_cost
        if events.ik_failure:
            reward += config.ik_cost
    return reward


REWARD_FLAGS = (
    "grasp_success",
    "lift_success",
    "speed_violation",
    "collision_env",
    "collision_cube",
    "grasp_attempt_failed",
    "collision_velocity_exceeded",
    "collision_obstacle",
    "ik_failure",
)
COST_FIELDS = (
    "speed_cost", "coll_cost", "cube_coll_cost", "obstacle_coll_cost",
    "coll_vel_cost", "gripper_cost", "ik_cost",
)


def seeded_reward_table(seed: int) -> dict:
    """Costs and rewards spread over 10 decades, so that adding them in
    another order rounds differently."""
    rng = np.random.default_rng(seed)
    table = {name: -float(rng.uniform(1.0, 10.0) * 10.0 ** rng.integers(-8, 2))
             for name in COST_FIELDS}
    for name in ("grip_rew", "grip_prop_rew"):
        table[name] = float(rng.uniform(1.0, 10.0) * 10.0 ** rng.integers(-8, 2))
    return table


# the default table, one of signed zeros, and seeded tables
REWARD_TABLES = (
    {},
    {**dict.fromkeys(COST_FIELDS, -0.0), "grip_rew": 0.0, "grip_prop_rew": 0.0},
    *(seeded_reward_table(seed) for seed in range(6)),
)


class TestComputeRewardMatchesReference:
    @pytest.mark.parametrize("mode", REWARD_MODES)
    @pytest.mark.parametrize("table", range(len(REWARD_TABLES)))
    def test_bit_for_bit_over_every_flag_combination(self, mode, table):
        """All 2^9 combinations of the reward flags, at several distances,
        give the reference's float to the bit: ``float.hex`` tells ``-0.0``
        from ``0.0``."""
        config = RewardConfig(mode=mode, **REWARD_TABLES[table])
        for bits in itertools.product((False, True), repeat=len(REWARD_FLAGS)):
            flags = dict(zip(REWARD_FLAGS, bits))
            for distance in (0.0, 5e-324, 1e-9, 0.1, 0.3, 0.7071067811865476, 1.3):
                ev = events(distance_d=distance, **flags)
                assert compute_reward(ev, config).hex() == reference_reward(ev, config).hex()

    def test_seeded_tables_make_the_order_matter(self):
        """At least one seeded table gives another sum when its terms are
        added in reverse, so the test above would catch a reordering."""
        def reversed_sum(ev, config):
            terms = [getattr(config, name) for name, flag in (
                ("ik_cost", "ik_failure"),
                ("obstacle_coll_cost", "collision_obstacle"),
                ("coll_vel_cost", "collision_velocity_exceeded"),
                ("gripper_cost", "grasp_attempt_failed"),
                ("cube_coll_cost", "collision_cube"),
                ("coll_cost", "collision_env"),
                ("speed_cost", "speed_violation"),
                ("grip_prop_rew", "lift_success"),
                ("grip_rew", "grasp_success"),
            ) if getattr(ev, flag)]
            return sum(terms, -ev.distance_d)

        everything = events(distance_d=0.3, **dict.fromkeys(REWARD_FLAGS, True))
        configs = [RewardConfig(**REWARD_TABLES[t]) for t in range(2, len(REWARD_TABLES))]
        assert any(
            reversed_sum(everything, c).hex() != compute_reward(everything, c).hex()
            for c in configs
        )


class TestEventsFromDict:
    def test_input_mutated_after_the_call_leaves_the_events(self):
        expected = events(distance_d=0.25, ik_failure=True)
        data = expected.as_dict()
        restored = TransitionEvents.from_dict(data)
        before = dict(data)
        data["distance_d"] = 9.0
        data["lift_success"] = True
        assert restored == expected
        # and the events never write through to the input
        data.clear()
        data.update(before)
        restored.collision_env = True
        assert data == before

    @pytest.mark.parametrize("keys", ["full", "reversed"])
    def test_as_dict_is_in_declaration_order(self, keys):
        full = events(distance_d=0.5, lift_success=True, collision_force=2.0).as_dict()
        data = {"full": full, "reversed": dict(reversed(full.items()))}[keys]
        restored = TransitionEvents.from_dict(data).as_dict()
        assert list(restored) == [f.name for f in dataclasses.fields(TransitionEvents)]
        assert restored == {**TransitionEvents().as_dict(), **data}

    def test_any_mapping_is_taken(self):
        data = types.MappingProxyType(events(distance_d=0.5).as_dict())
        assert TransitionEvents.from_dict(data) == events(distance_d=0.5)

    def test_a_list_of_pairs_is_a_type_error(self):
        with pytest.raises(TypeError, match="not a mapping"):
            TransitionEvents.from_dict([("distance_d", 0.5)])


class TestReset:
    def test_same_seed_bitwise_identical(self, env):
        a = env.reset(seed=123)
        b = env.reset(seed=123)
        assert np.array_equal(a[0:3], b[0:3])
        assert np.array_equal(a[7:10], b[7:10])
        assert np.array_equal(a, b)

    def test_normal_scenario_has_no_obstacle(self, env):
        obs = env.reset(seed=0, scenario="normal")
        assert np.array_equal(obs[13:16], np.zeros(3))
        assert env.scene.obstacle_center is None

    def test_obstacle_scenario_places_bar(self, env):
        obs = env.reset(seed=0, scenario="obstacle")
        assert env.scene.obstacle_center is not None
        assert np.any(obs[13:16] != 0.0)
        # bar rests on the table
        top = env.scene.obstacle_center[2] + env.scene.obstacle_half_extents[2]
        assert top == pytest.approx(env.scene.table_height + 0.05)

    def test_scenario_name_in_any_case_and_spacing(self, env):
        obs = env.reset(seed=0, scenario=" OBSTACLE ")
        assert env.scene.obstacle_center is not None
        assert obs.tobytes() == env.reset(seed=0, scenario="obstacle").tobytes()
        with pytest.raises(ValueError, match="unknown scenario 'both'; expected 'normal' or"):
            env.reset(seed=0, scenario="both")

    def test_cube_positions_cover_region_uniformly(self):
        env = GraspEnv()
        cfg = env.scene_config
        lo = np.array(cfg.cube_region_min)
        hi = np.array(cfg.cube_region_max)
        grid = np.zeros((4, 4), dtype=int)
        for seed in range(1000):
            obs = env.reset(seed=seed)
            u = (obs[7:9] - lo) / (hi - lo)
            i = min(3, int(u[0] * 4))
            j = min(3, int(u[1] * 4))
            grid[i, j] += 1
        _, p_value = stats.chisquare(grid.reshape(-1))
        assert p_value > 0.01

    def test_cube_rests_on_table(self, env):
        obs = env.reset(seed=4)
        scene = env.scene
        assert obs[9] == pytest.approx(scene.table_height + scene.cube_half_extents[2])

    def test_disturbance_applied_at_reset(self, env):
        plain = env.reset(seed=9)
        disturbed = env.reset(seed=9, disturbance=DisturbanceSpec(0.075, 0.005))
        assert disturbed[9] == pytest.approx(plain[9] + 0.075 + 0.0025)

    def test_observation_shape_and_relative(self, env):
        obs = env.reset(seed=1)
        assert obs.shape == (17,) and obs.dtype == np.float64
        assert np.array_equal(obs[10:13], obs[7:10] - obs[0:3])
        assert obs[6] == 1.0
        assert obs[16] == 0.0

    def test_observation_vector_is_one_read_only_array(self, env):
        env.reset(seed=1)
        obs = env.step(np.array([0.2, 0.1, -0.3, 1.0])).observation
        assert not obs.flags.writeable
        with pytest.raises(ValueError):
            obs[0] = 0.0
        # each slice of the documented layout holds its value
        scene = env.scene
        assert obs[0:3].tolist() == list(env._eef)
        assert obs[3:6].tolist() == list(env._eef_velocity)
        assert obs[6] == 0.0  # closed
        assert obs[7:10].tolist() == list(scene.cube_center)
        assert obs[10:13].tolist() == (obs[7:10] - obs[0:3]).tolist()
        assert obs[13:16].tolist() == [0.0, 0.0, 0.0]  # no obstacle
        assert obs[16] == 0.0  # not grasped
        obs = env.reset(seed=1, scenario="obstacle")
        assert obs[13:16].tolist() == list(env.scene.obstacle_center)


def assert_in_workspace(scene) -> None:
    lo, hi = scene.workspace_min, scene.workspace_max
    assert lo[2] <= scene.table_height <= hi[2]
    boxes = [(scene.cube_center, scene.cube_half_extents)]
    if scene.obstacle_center is not None:
        boxes.append((scene.obstacle_center, scene.obstacle_half_extents))
    for center, half in boxes:
        for c, h, low, high in zip(center, half, lo, hi):
            assert low <= c - h and c + h <= high


class TestDisturbanceAdmission:
    """``SceneConfig.check_disturbance`` alone decides whether a disturbance
    is admitted, in closed form: an admitted one gives no reset scene that
    leaves the workspace, whatever the seed."""

    def test_object_delta_bound_of_the_default_config(self):
        # the cube region starts at x = 0.45 and the tool sphere at home
        # reaches x = 0.32: a half extent of 0.025 + 0.1 clears it, one of
        # 0.025 + 0.11 does not; past 0.025 + 0.135 the cube would also
        # leave the workspace at x = 0.78
        config = SceneConfig()
        config.check_disturbance(DisturbanceSpec(0.0, 0.2))
        with pytest.raises(ValueError, match="must clear every cube placement"):
            config.check_disturbance(DisturbanceSpec(0.0, 0.22))
        with pytest.raises(ValueError, match="the cube, resting on the table"):
            config.check_disturbance(DisturbanceSpec(0.0, 0.28))

    @pytest.mark.parametrize("scenario", ["normal", "obstacle"])
    @pytest.mark.parametrize(
        "spec, home",
        [
            pytest.param(spec, home, id=str(spec))
            for spec, home in [
                ((0.075, 0.005), None),
                ((-0.08, 0.0), None),
                ((0.186, 0.0), None),
                # a cube grown to one step inside the workspace bound at
                # x = 0.78 (0.28 leaves it); the default home lies inside
                # this cube's reach, so the tool starts higher up
                ((0.0, 0.27), (0.30, 0.0, 0.30)),
            ]
        ],
    )
    def test_admitted_scenes_lie_in_the_workspace(self, env, scenario, spec, home):
        if home is not None:
            env = GraspEnv(scene_config=SceneConfig(home_position=home))
        disturbance = DisturbanceSpec(*spec)
        env.scene_config.check_disturbance(disturbance)
        radius = env.scene_config.eef_radius
        for seed in range(300):
            obs = env.reset(seed=seed, scenario=scenario, disturbance=disturbance)
            assert_in_workspace(env.scene)
            # the tool starts clear of the table, the obstacle and the cube
            assert detect_collisions(env.scene, obs[0:3], radius, np.zeros(3)) == []

    @pytest.mark.parametrize(
        "spec, body",
        [
            ((0.45, 0.0), "the table"),
            ((0.2, -0.049), "every obstacle placement"),
            ((0.0, 0.27), "every cube placement"),
        ],
        ids=str,
    )
    def test_a_tool_starting_in_contact_is_refused(self, env, spec, body):
        # each scene lies in the workspace, but the tool at home would touch
        # the raised table, an obstacle resting on it, or the grown cube
        match = f"the tool at its home position must clear {body}"
        with pytest.raises(ValueError, match=match):
            env.scene_config.check_disturbance(DisturbanceSpec(*spec))
        with pytest.raises(ValueError, match=match):
            env.reset(seed=0, scenario="obstacle", disturbance=DisturbanceSpec(*spec))

    def test_home_table_clause(self):
        # the contact test's own expression: a home sphere of radius 0.02 m
        # exactly 0.02 m over the table touches it, one ulp higher it does not
        home_z = 0.02
        SceneConfig(table_height=0.0, home_position=(0.2, 0.0, float(np.nextafter(home_z, 1.0))))
        match = "the tool at its home position must clear the table"
        with pytest.raises(ValueError, match=match):
            SceneConfig(table_height=0.0, home_position=(0.2, 0.0, home_z))
        with pytest.raises(ValueError, match=match):
            SceneConfig().check_disturbance(DisturbanceSpec(0.25, 0.0))
        for overrides in (dict(home_position=(0.30, 0.0, -0.085)), dict(eef_radius=0.5)):
            with pytest.raises(ValueError, match=match):
                SceneConfig(**overrides)

    def test_home_obstacle_clause(self):
        # the obstacle placement nearest home (0.30, 0.0, 0.15) sits at the
        # low x edge of its region: 0.186 m of surface rise leaves it clear of
        # the home sphere, 0.187 m does not
        config = SceneConfig()
        config.check_disturbance(DisturbanceSpec(0.186, 0.0))
        with pytest.raises(ValueError, match="must clear every obstacle placement"):
            config.check_disturbance(DisturbanceSpec(0.187, 0.0))
        half = config.obstacle_half_extents
        for surface, touching in ((0.186, False), (0.187, True)):
            table = config.table_height + surface
            scene = Scene(
                table_height=table,
                workspace_min=config.workspace_min,
                workspace_max=config.workspace_max,
                cube_center=(0.6, 0.0, table + config.cube_half_extent),
                cube_half_extents=(config.cube_half_extent,) * 3,
                obstacle_center=(config.obstacle_region_min[0], 0.0, table + half[2]),
                obstacle_half_extents=half,
            )
            reports = detect_collisions(scene, config.home_position, config.eef_radius, np.zeros(3))
            assert [r.body for r in reports] == (["obstacle"] if touching else [])

    def test_home_cube_clause(self):
        # the cube placement nearest home (0.30, 0.0, 0.15) sits at the low x
        # edge of its region, x = 0.45: an object delta of 0.205 m leaves its
        # near face 2.25 cm from home, clear of the 2 cm home sphere, and one
        # of 0.215 m leaves 1.75 cm
        config = SceneConfig()
        config.check_disturbance(DisturbanceSpec(0.0, 0.205))
        with pytest.raises(ValueError, match="must clear every cube placement"):
            config.check_disturbance(DisturbanceSpec(0.0, 0.215))
        for size, touching in ((0.205, False), (0.215, True)):
            half = config.cube_half_extent + 0.5 * size
            scene = Scene(
                table_height=config.table_height,
                workspace_min=config.workspace_min,
                workspace_max=config.workspace_max,
                cube_center=(config.cube_region_min[0], 0.0, config.table_height + half),
                cube_half_extents=(half,) * 3,
            )
            reports = detect_collisions(scene, config.home_position, config.eef_radius, np.zeros(3))
            assert [r.body for r in reports] == (["cube"] if touching else [])

    def test_home_obstacle_clause_comes_before_the_cube_clause(self):
        # a home 1 cm over both boxes' tops touches the obstacle placements
        # at x >= 0.315 and, with the cube region widened down to x = 0.33,
        # the cube placements at x >= 0.305 too: the obstacle is named
        both = dict(home_position=(0.30, 0.0, -0.04), cube_region_min=(0.33, -0.15))
        with pytest.raises(ValueError, match="must clear every obstacle placement"):
            SceneConfig(**both)
        # the same home with the obstacle moved away touches only the cube
        with pytest.raises(ValueError, match="must clear every cube placement"):
            SceneConfig(**both, obstacle_region_min=(0.55, -0.05), obstacle_region_max=(0.60, 0.05))


# item 6 of the roadmap: surface deltas x object deltas, in metres
DISTURBANCE_GRID = list(
    itertools.product((0.0, 0.025, 0.05, 0.075, 0.1), (0.0, 0.005, 0.01))
)

# scene configs the admission check passes, each leaving the cube a different
# free region beside the obstacle
SCENES = {
    "default": {},
    # the cube fits only in x >= 0.618 beside a 0.386 m wide obstacle
    "thin_sliver": dict(
        obstacle_half_extents=(0.193, 0.2, 0.025),
        obstacle_region_min=(0.40, -0.05),
        obstacle_region_max=(0.40001, 0.05),
    ),
    # a point and two lines, of which the obstacle covers parts
    "point": dict(cube_region_min=(0.42, 0.30), cube_region_max=(0.42, 0.30)),
    "x_line": dict(cube_region_min=(0.42, -0.30), cube_region_max=(0.42, 0.30)),
    "y_line": dict(cube_region_min=(0.36, 0.26), cube_region_max=(0.62, 0.26)),
    # a small obstacle inside the cube region: all four free boxes
    "island": dict(
        obstacle_half_extents=(0.02, 0.02, 0.025),
        obstacle_region_min=(0.50, -0.05),
        obstacle_region_max=(0.55, 0.05),
    ),
}


class TestSceneDraw:
    """A reset draws the cube from the free region, so under every admitted
    config and disturbance it cannot fail: both boxes rest on the raised
    table, inside the workspace, with the grown cube clear of the obstacle."""

    def test_the_default_config_admits_the_disturbance_grid(self):
        for cell in DISTURBANCE_GRID:
            SceneConfig().check_disturbance(DisturbanceSpec(*cell))

    @pytest.mark.parametrize("name", sorted(SCENES))
    def test_every_reset_scene_is_sound(self, name):
        env = GraspEnv(scene_config=SceneConfig(**SCENES[name]))
        cfg = env.scene_config
        admitted = 0
        for surface, size in DISTURBANCE_GRID:
            disturbance = DisturbanceSpec(surface, size)
            try:
                cfg.check_disturbance(disturbance)
            except ValueError as exc:
                assert str(exc) == "some obstacle placement overlaps every cube placement"
                continue
            admitted += 1
            table = cfg.table_height + surface
            grown = cfg.cube_half_extent + 0.5 * size
            for seed in range(60):
                env.reset(seed=seed, scenario="obstacle", disturbance=disturbance)
                scene = env.scene
                assert_in_workspace(scene)
                assert scene.table_height == table
                assert scene.cube_center[2] == table + grown
                assert scene.obstacle_center[2] == table + scene.obstacle_half_extents[2]
                assert any(
                    abs(c - o) >= grown + h
                    for c, o, h in zip(
                        scene.cube_center[:2],
                        scene.obstacle_center[:2],
                        scene.obstacle_half_extents[:2],
                    )
                )
        # beside the sliver only a cube of the nominal size fits
        assert admitted == (5 if name == "thin_sliver" else len(DISTURBANCE_GRID))

    def test_free_region_is_drawn_uniformly(self):
        # a 0.10 x 0.10 footprint in the middle of a 0.30 x 0.30 region: the
        # eight grid cells around it are free, and each must be hit as often
        rng = np.random.default_rng(0)
        cells = np.zeros((3, 3), dtype=int)
        for _ in range(4000):
            x, y = env_module._draw_clear_of(
                rng, (0.0, 0.0), (0.3, 0.3), (0.15, 0.15), (0.05, 0.05)
            )
            cells[min(2, int(x / 0.1)), min(2, int(y / 0.1))] += 1
        assert cells[1, 1] == 0
        _, p_value = stats.chisquare(np.delete(cells.reshape(-1), 4))
        assert p_value > 0.01

    @pytest.mark.parametrize(
        "region_min, region_max",
        [((0.15, 0.0), (0.15, 0.3)), ((0.0, 0.15), (0.3, 0.15))],
        ids=["x_line", "y_line"],
    )
    def test_a_line_region_is_drawn_on_both_sides(self, region_min, region_max):
        rng = np.random.default_rng(1)
        points = np.array([
            env_module._draw_clear_of(rng, region_min, region_max, (0.15, 0.15), (0.05, 0.05))
            for _ in range(400)
        ])
        along = points[:, 1] if region_min[0] == region_max[0] else points[:, 0]
        assert np.all((along <= 0.1) | (along >= 0.2))
        assert 120 < np.count_nonzero(along <= 0.1) < 280

    def test_a_grown_cube_with_no_room_is_refused(self):
        # beside the sliver, a cube 1 cm larger has nowhere to go
        cfg = SceneConfig(**SCENES["thin_sliver"])
        disturbance = DisturbanceSpec(0.0, 0.01)
        match = "some obstacle placement overlaps every cube placement"
        with pytest.raises(ValueError, match=match):
            cfg.check_disturbance(disturbance)
        with pytest.raises(ValueError, match=match):
            GraspEnv(scene_config=cfg).reset(seed=0, disturbance=disturbance)


class TestStepPipeline:
    def test_step_before_reset_raises(self):
        with pytest.raises(RuntimeError):
            GraspEnv().step(np.zeros(4))

    def test_step_after_termination_raises(self, env):
        env.reset(seed=0)
        result = None
        for _ in range(400):
            result = env.step(np.array([0.0, 0.0, -1.0, -1.0]))  # dive at the table
            if result.terminated or result.truncated:
                break
        assert result.terminated
        with pytest.raises(RuntimeError):
            env.step(np.zeros(4))

    def test_zero_action_no_event_reward_is_minus_distance(self):
        for mode in ("drl", "sd-drl"):
            env = GraspEnv(reward_config=RewardConfig(mode=mode))
            obs = env.reset(seed=21)
            # prime the gripper state: the first close command far from the
            # cube is a failed grasp attempt, afterwards holding is event-free
            env.step(np.zeros(4))
            result = env.step(np.zeros(4))
            active = {
                k: v
                for k, v in result.events.as_dict().items()
                if isinstance(v, bool) and v
            }
            assert active == {}
            assert result.reward == -result.events.distance_d

    def test_action_clamping(self, env):
        obs = env.reset(seed=2)
        start = obs[0:3].copy()
        result = env.step(np.array([15.0, 0.0, 0.0, -1.0]))
        moved = result.observation[0:3] - start
        # clamped to one action_scale along x
        assert abs(moved[0]) <= env.env_config.action_scale + 1e-6

    def test_speed_shield_blocks_and_flags(self):
        arm = ArmModel.default_ur5(max_joint_speed=1e-6)
        env = GraspEnv(arm=arm)
        env.reset(seed=3)
        q_before = env.joints
        result = env.step(np.array([1.0, 0.0, 0.0, -1.0]))
        assert result.events.speed_violation
        assert not result.events.ik_failure
        assert np.array_equal(env.joints, q_before)
        assert np.array_equal(result.observation[3:6], np.zeros(3))
        assert result.reward == pytest.approx(-result.events.distance_d - 0.5)

    def test_ik_shield_blocks_and_flags(self):
        # a cramped arm cannot track the commanded tool point
        arm = ArmModel.default_ur5(ik_max_iterations=30)
        env = GraspEnv(arm=arm)
        env.reset(seed=3)
        home = env.joints
        limits = np.column_stack([home - 1e-9, home + 1e-9])
        cramped = ArmModel(dh=arm.dh, joint_limits=limits, ik_max_iterations=30)
        env.arm = cramped
        q_before = env.joints
        result = env.step(np.array([1.0, 1.0, 0.0, -1.0]))
        assert result.events.ik_failure
        assert not result.events.speed_violation
        assert np.array_equal(env.joints, q_before)
        assert result.reward == pytest.approx(-result.events.distance_d - 0.5)

    def test_table_strike_terminates_with_env_collision(self, env):
        obs = env.reset(seed=5)
        result = None
        for _ in range(400):
            result = env.step(np.array([0.0, 0.0, -1.0, -1.0]))
            if result.terminated:
                break
        assert result.terminated
        assert result.events.collision_env
        # full-speed descent exceeds the reduced collision speed
        assert result.events.collision_velocity_exceeded
        assert result.events.collision_force > 100.0

    def test_truncation_at_step_budget(self):
        env = GraspEnv(env_config=EnvConfig(max_steps=25))
        env.reset(seed=6)
        result = None
        for _ in range(25):
            result = env.step(np.array([0.0, 0.0, 0.0, -1.0]))
        assert result.truncated
        assert not result.terminated
        assert env.done

    def test_never_terminated_and_truncated(self, env):
        env.reset(seed=7)
        for _ in range(200):
            result = env.step(np.array([0.0, 0.0, -0.2, -1.0]))
            assert not (result.terminated and result.truncated)
            if result.terminated or result.truncated:
                break

    def test_determinism_full_trajectory(self):
        actions = np.random.default_rng(8).uniform(-1, 1, size=(40, 4))

        def run():
            env = GraspEnv()
            env.reset(seed=77)
            out = []
            for action in actions:
                result = env.step(action)
                out.append(
                    (
                        result.reward,
                        result.observation.tobytes(),
                        tuple(sorted(result.events.as_dict().items())),
                    )
                )
                if result.terminated or result.truncated:
                    break
            return out

        assert run() == run()


class TestActionParsing:
    @pytest.mark.parametrize("index", range(4))
    def test_nan_component_is_rejected(self, index):
        action = np.zeros(4)
        action[index] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            env_module._parse_action(action)

    @pytest.mark.parametrize("index", range(4))
    def test_nan_step_raises_and_leaves_the_env_as_it_was(self, env, index):
        env.reset(seed=12)
        writer = _ListWriter()
        env.set_log_writer(writer)
        env.step(np.array([0.3, -0.2, 0.1, -1.0]))
        before = (env.joints, env.scene.cube_center, env.done)
        action = np.array([0.5, 0.5, 0.5, -1.0])
        action[index] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            env.step(action)
        # nothing was logged or moved; the episode goes on
        assert len(writer.records) == 1
        assert np.array_equal(env.joints, before[0])
        assert env.scene.cube_center == before[1]
        assert env.done == before[2]
        env.step(np.zeros(4))
        assert [r["step"] for r in writer.records] == [1, 2]

    def test_infinities_clamp_to_unit_deflection(self, env):
        env.reset(seed=12)
        writer = _ListWriter()
        env.set_log_writer(writer)
        env.step(np.array([np.inf, -np.inf, 0.0, -np.inf]))
        env.step(np.array([0.0, 0.0, 0.0, np.inf]))
        assert writer.records[0]["action"] == [1.0, -1.0, 0.0, -1.0]
        assert writer.records[1]["action"] == [0.0, 0.0, 0.0, 1.0]
        assert json.loads(json.dumps(writer.records)) == writer.records

    def test_action_holds_plain_floats(self, env):
        clamped = env_module._parse_action(
            np.array([2.0, -0.5, 0.25, -3.0], dtype=np.float32)
        )
        assert clamped == (1.0, -0.5, 0.25, -1.0)
        assert all(type(v) is float for v in clamped)
        assert env_module._parse_action([0.5, 0, -1, 1]) == (0.5, 0.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            env_module._parse_action(np.zeros(3))
        # the env logs the parsed action; a wrong length is refused there too
        env.reset(seed=12)
        writer = _ListWriter()
        env.set_log_writer(writer)
        env.step(np.array([2.0, -0.5, 0.25, -3.0], dtype=np.float32))
        assert writer.records[0]["action"] == [1.0, -0.5, 0.25, -1.0]
        with pytest.raises(ValueError):
            env.step(np.zeros(3))
        assert len(writer.records) == 1


class TestGraspLogic:
    def approach_and_grasp(self, env, seed=11):
        obs = env.reset(seed=seed)
        above = obs[7:10] + np.array([0.0, 0.0, 0.06])
        obs, _ = drive_to(env, obs, above, speed=0.5)
        obs, _ = drive_to(env, obs, env.scene.cube_center, speed=0.25)
        return obs

    def test_close_far_from_cube_fails_attempt(self, env):
        env.reset(seed=12)
        result = env.step(np.array([0.0, 0.0, 0.0, 1.0]))
        assert result.events.grasp_attempt_failed
        assert not result.events.grasp_success
        assert result.observation[16] == 0.0

    def test_secure_grasp_and_lift(self, env):
        obs = self.approach_and_grasp(env)
        assert np.linalg.norm(obs[10:13]) <= env.env_config.grasp_radius
        result = env.step(np.array([0.0, 0.0, 0.0, 1.0]))
        assert result.events.grasp_success
        assert result.observation[16] == 1.0
        assert result.reward >= 4.9  # grip reward dominates the step
        # cube follows the tool point
        assert np.array_equal(result.observation[7:10], result.observation[0:3])
        lift = None
        for _ in range(10):
            lift = env.step(np.array([0.0, 0.0, 0.5, 1.0]))
            if lift.terminated:
                break
        assert lift.events.lift_success
        assert lift.terminated

    def test_release_drops_cube_to_rest(self, env):
        obs = self.approach_and_grasp(env)
        env.step(np.array([0.0, 0.0, 0.0, 1.0]))
        env.step(np.array([0.0, 0.0, 0.4, 1.0]))
        result = env.step(np.array([0.0, 0.0, 0.0, -1.0]))
        assert result.observation[16] == 0.0
        scene = env.scene
        assert result.observation[9] == pytest.approx(
            scene.table_height + scene.cube_half_extents[2]
        )

    def test_carrying_cube_to_workspace_wall_does_not_crash(self, env):
        obs = self.approach_and_grasp(env)
        env.step(np.array([0.0, 0.0, 0.0, 1.0]))
        # drag the held cube sideways until the episode ends at the wall
        result = None
        for _ in range(120):
            result = env.step(np.array([1.0, 1.0, 0.2, 1.0]))
            if result.terminated or result.truncated:
                break
        assert result.terminated or result.truncated

    def test_never_closing_never_grasps(self, env):
        env.reset(seed=13)
        for _ in range(30):
            result = env.step(np.array([0.0, 0.0, 0.1, -1.0]))
            assert not result.events.grasp_success
            assert not result.events.grasp_attempt_failed
            assert not result.events.lift_success

    def test_holding_close_does_not_retrigger_attempts(self, env):
        env.reset(seed=14)
        first = env.step(np.array([0.0, 0.0, 0.0, 1.0]))
        assert first.events.grasp_attempt_failed
        again = env.step(np.array([0.0, 0.0, 0.0, 1.0]))
        assert not again.events.grasp_attempt_failed

    def test_held_closed_gripper_grasps_on_contact(self, env):
        # fingers already commanded shut enclose the cube on arrival
        obs = env.reset(seed=15)
        env.step(np.array([0.0, 0.0, 0.0, 1.0]))  # close far away (one miss)
        obs, _ = drive_to(env, obs, np.add(env.scene.cube_center, [0, 0, 0.06]),
                          gripper=1.0, speed=0.5)
        obs, result = drive_to(env, obs, env.scene.cube_center,
                               gripper=1.0, speed=0.2)
        assert obs[16] == 1.0
        # only one miss penalty was paid, on the original closing transition
        assert not result.events.grasp_attempt_failed


class TestCheckGraspOperation:
    REST = 0.025  # cube resting height used by these cases

    def call(self, eef, closing, was_open=True, grasped=False, cube=(0.5, 0.0, 0.025)):
        return check_grasp(
            np.asarray(eef, dtype=float),
            gripper_closing=closing,
            gripper_was_open=was_open,
            already_grasped=grasped,
            cube_center=np.asarray(cube, dtype=float),
            cube_rest_height=self.REST,
            grasp_radius=0.01,
            lift_height=0.05,
        )

    def test_close_far_away_is_failed_attempt(self):
        success, failed, lifted, grasped = self.call([0.3, 0.0, 0.025], closing=True)
        assert failed and not success and not lifted and not grasped

    def test_close_within_radius_then_raise_lifts(self):
        success, failed, lifted, grasped = self.call([0.5, 0.0, 0.03], closing=True)
        assert success and grasped and not failed and not lifted
        # held cube follows the tool point: raising 0.06 clears the lift bar
        success, failed, lifted, grasped = self.call(
            [0.5, 0.0, 0.09], closing=True, was_open=False, grasped=True
        )
        assert lifted and grasped and not success and not failed

    def test_never_closing_reports_nothing(self):
        for z in (0.2, 0.1, 0.03):
            success, failed, lifted, grasped = self.call(
                [0.5, 0.0, z], closing=False
            )
            assert not (success or failed or lifted or grasped)

    def test_opening_releases(self):
        *_, grasped = self.call(
            [0.5, 0.0, 0.08], closing=False, was_open=False, grasped=True
        )
        assert not grasped

    def test_outputs_are_plain_bool(self):
        # numpy bools in these flags reach the step record and break JSON logs
        cases = {
            "failed attempt": ([0.3, 0.0, 0.025], True, True, False),
            "grasped now": ([0.5, 0.0, 0.03], True, True, False),
            "held, not lifted": ([0.5, 0.0, 0.03], True, False, True),
            "held, lifted": ([0.5, 0.0, 0.09], True, False, True),
            "held, numpy flag": ([0.5, 0.0, 0.09], True, False, np.True_),
            "released": ([0.5, 0.0, 0.08], False, False, True),
        }
        for name, (eef, closing, was_open, grasped) in cases.items():
            outputs = self.call(eef, closing, was_open=was_open, grasped=grasped)
            types = [type(x) for x in outputs]
            assert types == [bool] * 4, f"{name}: {types}"
        assert self.call([0.5, 0.0, 0.03], True, False, True) == (
            False, False, False, True
        )


class TestNorm3:
    """``kernels.norm3`` rounds as ``np.linalg.norm`` does, bit for bit."""

    def test_matches_numpy_on_seeded_vectors(self):
        rng = np.random.default_rng(2024)
        vectors = np.concatenate([
            rng.uniform(-1.0, 1.0, (200, 3)),
            rng.normal(0.0, 0.05, (200, 3)),
            rng.uniform(-1.0, 1.0, (50, 3)) * np.array([1e-3, 1.0, 1e3]),
        ])
        for v in vectors:
            x, y, z = v.tolist()
            assert kernels.norm3(x, y, z) == float(np.linalg.norm(v)), v.tolist()

    def test_not_a_scalar_sum(self):
        # on numpy 2.4.6 np.linalg.norm gives 0x1.3e687125208b6p-2 for this
        # vector and sqrt(x*x + y*y + z*z) gives ...b5p-2
        x, y, z = map(float.fromhex, (
            "-0x1.ec3a61ff3a690p-4", "-0x1.7c01fd3d29e38p-5", "-0x1.21cce69fd50cep-2",
        ))
        assert kernels.norm3(x, y, z) == float(np.linalg.norm(np.array((x, y, z))))


class TestEventsInvariant:
    def test_collision_velocity_implies_contact(self):
        env = GraspEnv()
        rng = np.random.default_rng(31)
        env.reset(seed=31)
        for _ in range(300):
            if env.done:
                env.reset(seed=int(rng.integers(1 << 31)))
            result = env.step(rng.uniform(-1, 1, 4))
            ev = result.events
            if ev.collision_velocity_exceeded:
                assert ev.collision_env or ev.collision_cube or ev.collision_obstacle
            if ev.ik_failure or ev.speed_violation:
                assert not (ev.ik_failure and ev.speed_violation)

    def test_termination_soundness_random_walk(self):
        env = GraspEnv()
        rng = np.random.default_rng(32)
        for episode in range(12):
            env.reset(seed=episode)
            while True:
                result = env.step(rng.uniform(-1, 1, 4))
                if result.terminated:
                    ev = result.events
                    threshold = env.reward_config.force_failure_threshold
                    assert (
                        ev.lift_success
                        or ev.collision_env
                        or ev.collision_force > threshold
                    )
                    break
                if result.truncated:
                    break


class _ListWriter:
    def __init__(self):
        self.records = []

    def write_step(self, record: dict) -> None:
        self.records.append(record)


def _leaves(value, path="record"):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}")
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _leaves(item, f"{path}[{index}]")
    else:
        yield path, value


class TestStepRecordTypes:
    def test_scripted_records_hold_only_plain_python_scalars(self):
        # exact types: np.float64 subclasses float and np.bool_ is rejected by json
        env = GraspEnv()
        policy = ScriptedGraspPolicy(
            action_scale=env.env_config.action_scale,
            dt=env.env_config.dt,
            grasp_radius=env.env_config.grasp_radius,
            obstacle_half_extents=env.scene_config.obstacle_half_extents,
            eef_radius=env.scene_config.eef_radius,
        )
        writer = _ListWriter()
        for scenario in ("normal", "obstacle"):
            for disturbance in (None, DisturbanceSpec(0.075, 0.005)):
                rollout_episodes(
                    env,
                    policy,
                    episodes=5,
                    base_seed=0,
                    scenario=scenario,
                    disturbance=disturbance,
                    log_writer=writer,
                )
        for record in writer.records:
            for path, value in _leaves(record):
                assert type(value) in (bool, int, float, str), (
                    f"{path} is {type(value)}"
                )
        assert any(r["events"]["lift_success"] is True for r in writer.records)


class TestEpisodeSteps:
    def test_yields_every_step_until_the_episode_ends(self):
        env = GraspEnv()
        steps = list(episode_steps(env, RandomPolicy(seed=4), seed=3, scenario="normal"))
        *body, (_, _, last) = steps
        assert last.terminated or last.truncated
        assert not any(result.terminated or result.truncated for _, _, result in body)
        for (_, _, previous), (obs, _, _) in zip(steps, steps[1:]):
            assert obs is previous.observation

    def test_policy_runs_only_for_requested_steps(self):
        env = GraspEnv()
        seen = []

        def policy(obs):
            seen.append(obs)
            return np.zeros(4)

        steps = episode_steps(env, policy, seed=3, scenario="normal")
        first = next(steps)
        second = next(steps)
        steps.close()
        assert len(seen) == 2
        assert seen[0] is first[0] and seen[1] is second[0]
        assert second[0] is first[2].observation


class TestSeedFrameReuse:
    """Each accepted command's FK is computed once, inside its IK call."""

    @staticmethod
    def random_episode(env):
        return list(episode_steps(env, RandomPolicy(seed=4), seed=3, scenario="normal"))

    def test_fk_calls_are_ik_iterations_plus_two(self, monkeypatch):
        env = GraspEnv()
        env.reset(seed=0)  # solves the home joints, with FK calls of their own
        fk_calls = 0
        iterations = []
        fk_frames = kernels.fk_frames
        inverse_kinematics = env_module.inverse_kinematics

        def counted_fk(*args):
            nonlocal fk_calls
            fk_calls += 1
            return fk_frames(*args)

        def counted_ik(*args):
            result = inverse_kinematics(*args)
            iterations.append(result.iterations)
            return result

        monkeypatch.setattr(kernels, "fk_frames", counted_fk)
        monkeypatch.setattr(env_module, "inverse_kinematics", counted_ik)
        steps = self.random_episode(env)
        first_events = steps[0][2].events
        assert not (first_events.ik_failure or first_events.speed_violation)
        assert len(iterations) == len(steps) > 50
        # one at reset through eef_position, one for the first step's seed;
        # every later IK call starts from the frames of the accepted command
        assert fk_calls == sum(iterations) + 2

    @pytest.mark.parametrize("keep_frames", [True, False], ids=["pass-through", "no-frames"])
    def test_records_do_not_depend_on_how_ik_is_bound(self, monkeypatch, keep_frames):
        # a slow arm, so that rejected commands sit between accepted ones
        arm = ArmModel.default_ur5(max_joint_speed=1.0)

        def records():
            env = GraspEnv(arm=arm)
            sink = []
            env.set_log_writer(RecordSink(sink))
            self.random_episode(env)
            return sink

        plain = records()
        inverse_kinematics = env_module.inverse_kinematics

        def rebound(model, target, seed, seed_frames=None):
            # the frames travel in the result, so a wrapper passes them on;
            # without them the solver computes the seed's FK itself
            frames = seed_frames if keep_frames else None
            return inverse_kinematics(model, target, seed, frames)

        monkeypatch.setattr(env_module, "inverse_kinematics", rebound)
        assert records() == plain
        assert sum(r["events"]["speed_violation"] for r in plain) > 10


# -- the step as it stood before its per-step repacking was cut ------------
# GraspEnv.step, verbatim, with ``self`` the env it steps; the three env
# helpers whose code changed with it (the action clamp, the grasp test and
# the observation build) are kept verbatim beside it and called by these
# names.  The contact tests are pinned to their array form in test_world.py.


def reference_parse_action(action) -> tuple:
    dx, dy, dz, gripper = np.asarray(action, dtype=np.float64).reshape(ACTION_DIM).tolist()
    if dx != dx or dy != dy or dz != dz or gripper != gripper:
        raise ValueError("action components must not be NaN")
    return (
        min(1.0, max(-1.0, dx)),
        min(1.0, max(-1.0, dy)),
        min(1.0, max(-1.0, dz)),
        min(1.0, max(-1.0, gripper)),
    )


def reference_check_grasp(
    eef_position,
    gripper_closing: bool,
    gripper_was_open: bool,
    already_grasped: bool,
    cube_center,
    cube_rest_height: float,
    grasp_radius: float,
    lift_height: float,
):
    grasp_success = False
    grasp_attempt_failed = False
    now_grasped = bool(already_grasped)
    if gripper_closing and not already_grasped:
        offset = np.subtract(cube_center, eef_position)
        distance = math.sqrt(offset.dot(offset))
        if distance <= grasp_radius:
            grasp_success = True
            now_grasped = True
        elif gripper_was_open:
            grasp_attempt_failed = True
    elif not gripper_closing:
        now_grasped = False
    held_height = eef_position[2] if now_grasped else cube_center[2]
    lifted = now_grasped and bool(held_height - cube_rest_height >= lift_height)
    return grasp_success, grasp_attempt_failed, lifted, now_grasped


def reference_observation(self) -> np.ndarray:
    scene = self._scene
    ex, ey, ez = eef = self._eef
    cx, cy, cz = cube = scene.cube_center
    observation = np.array(
        eef
        + self._eef_velocity
        + (self._aperture,)
        + cube
        + (cx - ex, cy - ey, cz - ez)
        + (scene.obstacle_center or (0.0, 0.0, 0.0))
        + (1.0 if self._grasped else 0.0,),
        np.float64,
    )
    observation.setflags(write=False)
    return observation


def reference_step(self, action) -> StepResult:
    if self._scene is None:
        raise RuntimeError("step() called before reset()")
    if self._done:
        raise RuntimeError("step() called on a finished episode; call reset()")
    act = dx, dy, dz, gripper = reference_parse_action(action)
    cfg = self.env_config
    reward_cfg = self.reward_config
    scale = cfg.action_scale
    px, py, pz = self._eef
    ik_failure = speed_violation = False

    # 1-3: command shield -- IK then joint-speed check; rejected commands
    # leave the joint vector untouched
    target = (px + dx * scale, py + dy * scale, pz + dz * scale)
    ik = inverse_kinematics(self.arm, target, self._q, self._frames)
    velocity = (0.0, 0.0, 0.0)
    if ik.status != "converged":
        ik_failure = True
    elif not check_speed(self._q, ik.joint_values, cfg.dt, self.arm).ok:
        speed_violation = True
    else:
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
    velocity_exceeded = False
    force = impact_speed = 0.0
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
            velocity_exceeded = True
        if report.force > force:
            force = report.force
            impact_speed = report.impact_speed

    # near-body overspeed counter (no contact required)
    velocity_violation = False
    speed = np.array(velocity)
    if math.sqrt(speed.dot(speed)) > threshold:
        clearances = signed_clearances(scene, eef, radius)
        velocity_violation = min(clearances.values()) <= cfg.proximity_threshold

    # 5: gripper and grasp-state transition
    closing = gripper >= 0.0
    grasp_success, grasp_attempt_failed, lift_success, self._grasped = reference_check_grasp(
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
    observation = reference_observation(self)

    # 6-7: score and terminate
    # numpy's dot, not a scalar sum: the distance reaches the record, and
    # np.linalg.norm rounds exactly so
    relative = observation[10:13]
    events = TransitionEvents(
        distance_d=math.sqrt(relative.dot(relative)),
        grasp_success=grasp_success,
        lift_success=lift_success,
        grasp_attempt_failed=grasp_attempt_failed,
        speed_violation=speed_violation,
        ik_failure=ik_failure,
        collision_env=collision_env,
        collision_cube=collision_cube,
        collision_obstacle=collision_obstacle,
        collision_velocity_exceeded=velocity_exceeded,
        velocity_violation=velocity_violation,
        collision_force=force,
        collision_impact_speed=impact_speed,
    )
    reward = compute_reward(events, reward_cfg)
    terminated = (
        lift_success
        or collision_env
        or force > reward_cfg.force_failure_threshold
    )
    self._step_count += 1
    truncated = not terminated and self._step_count >= cfg.max_steps
    self._done = terminated or truncated

    result = StepResult(
        observation=observation,
        reward=reward,
        terminated=terminated,
        truncated=truncated,
        events=events,
    )
    if self._log_writer is not None:
        self._log_writer.write_step(self._step_record(act, result))
    return result


class TestStepMatchesReference:
    """Twin envs, one stepped by ``GraspEnv.step`` and one by
    ``reference_step``, give the same bits: observation bytes, reward, flags,
    events and the canonical log line of every step."""

    @staticmethod
    def twin_run(make_env, policy, scenario, disturbance, seeds):
        envs = make_env(), make_env()
        sinks = [], []
        for env, sink in zip(envs, sinks):
            env.set_log_writer(RecordSink(sink))
        seen = Counter()
        for seed in seeds:
            obs = [env.reset(seed=seed, scenario=scenario, disturbance=disturbance) for env in envs]
            assert obs[0].tobytes() == obs[1].tobytes()
            while True:
                action = policy(obs[0])
                got = envs[0].step(action)
                want = reference_step(envs[1], action)
                assert got.observation.tobytes() == want.observation.tobytes()
                assert not got.observation.flags.writeable
                for a, b in zip(got[1:4], want[1:4]):
                    assert type(a) is type(b) and a == b
                got_events, want_events = got.events.as_dict(), want.events.as_dict()
                assert list(got_events) == list(want_events)
                for name, value in want_events.items():
                    assert type(got_events[name]) is type(value), name
                    assert got_events[name] == value, name
                seen.update(name for name, value in want_events.items() if value is True)
                obs = [got.observation, want.observation]
                if got.terminated or got.truncated:
                    break
        assert [dumps_canonical(r) for r in sinks[0]] == [dumps_canonical(r) for r in sinks[1]]
        assert sinks[0] == sinks[1]
        return seen

    @pytest.mark.parametrize("scenario", ["normal", "obstacle"])
    @pytest.mark.parametrize("spec", [(0.0, 0.0), (0.075, 0.005)], ids=str)
    def test_scripted_and_random_policies(self, scenario, spec):
        disturbance = DisturbanceSpec(*spec)
        seen = self.twin_run(GraspEnv, ScriptedGraspPolicy(), scenario, disturbance, range(3))
        assert seen["grasp_success"] and seen["lift_success"]
        seen = self.twin_run(GraspEnv, RandomPolicy(seed=5), scenario, disturbance, range(3))
        assert seen["collision_env"] or seen["collision_cube"] or seen["collision_obstacle"]

    @pytest.mark.parametrize(
        "arm, rejection",
        [
            # a slow arm: the shield rejects random commands for speed
            (ArmModel.default_ur5(max_joint_speed=1.0), "speed_violation"),
            # the base joint stopped just past its home angle of about
            # 0.497 rad: IK rejects commands at the joint limit
            (dataclasses.replace(
                ArmModel.default_ur5(),
                joint_limits=((-0.1, 0.52),) + ArmModel.default_ur5().joint_limits[1:],
            ), "ik_failure"),
        ],
        ids=["slow", "joint-limited"],
    )
    def test_rejected_commands(self, arm, rejection):
        seen = self.twin_run(
            lambda: GraspEnv(arm=arm), RandomPolicy(seed=4), "obstacle", None, range(4)
        )
        assert seen[rejection] > 10

    def test_edge_actions(self):
        # signed zeros, infinities, the clamp bounds and values past them,
        # and a subnormal: the clamp keeps each value's sign and bits
        edges = itertools.cycle(np.array([
            [-0.0, 0.0, -0.0, -0.0],
            [np.inf, -np.inf, 1.0, -1.0],
            [1.5, -1.5, 5e-324, -0.0],
            [-0.0, -5e-324, -np.inf, np.inf],
            [np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0), 0.0, 0.0],
        ]))
        self.twin_run(GraspEnv, lambda obs: next(edges), "normal", None, range(2))
        for action in np.array([[-0.0, np.inf, -np.inf, 5e-324], [2.0, -2.0, -0.0, 1.0]]):
            assert repr(env_module._parse_action(action)) == repr(reference_parse_action(action))

    def test_a_fast_dive_onto_the_obstacle(self):
        dive = np.array([0.35, 0.0, -1.0, -1.0])
        seen = self.twin_run(GraspEnv, lambda obs: dive, "obstacle", None, range(2))
        assert seen["collision_obstacle"] and seen["collision_velocity_exceeded"]
