"""Scene geometry: contacts, forces, disturbed reset scenes."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safegrasp.env import SCENARIOS, GraspEnv, SceneConfig
from safegrasp.world import (
    ContactReport,
    DisturbanceSpec,
    Scene,
    contact_force,
    detect_collisions,
    signed_clearances,
)

# the contact bodies, in the order detect_collisions reports them
BODIES = ("table", "cube", "obstacle", "workspace_bound")


def make_scene(obstacle=False, table=-0.1, **overrides) -> Scene:
    # rest heights use the same arithmetic as scene construction in the env
    kwargs = dict(
        table_height=table,
        workspace_min=np.array([0.10, -0.38, -0.18]),
        workspace_max=np.array([0.78, 0.38, 0.45]),
        cube_center=np.array([0.5, 0.0, table + 0.025]),
        cube_half_extents=np.full(3, 0.025),
    )
    if obstacle:
        kwargs["obstacle_center"] = np.array([0.35, 0.0, table + 0.025])
        kwargs["obstacle_half_extents"] = np.array([0.025, 0.20, 0.025])
    kwargs.update(overrides)
    return Scene(**kwargs)


def oracle_sphere_box_distance(point, center, half) -> float:
    """Closed-form signed distance, written independently of the kernel."""
    offset = np.abs(np.asarray(point) - np.asarray(center)) - np.asarray(half)
    outside = np.linalg.norm(np.maximum(offset, 0.0))
    inside = min(0.0, np.max(offset))
    return outside + inside


class TestDetectCollisions:
    def test_free_space_is_empty(self):
        scene = make_scene()
        reports = detect_collisions(
            scene, np.array([0.3, 0.0, 0.2]), 0.02, np.array([0.1, 0.0, -0.2])
        )
        assert reports == []

    def test_inside_cube_matches_oracle_penetration(self):
        scene = make_scene()
        center = scene.cube_center + np.array([0.004, -0.006, 0.008])
        radius = 0.02
        reports = detect_collisions(scene, center, radius, np.zeros(3))
        cube_reports = [r for r in reports if r.body == "cube"]
        assert len(cube_reports) == 1
        sd = oracle_sphere_box_distance(
            center, scene.cube_center, scene.cube_half_extents
        )
        assert cube_reports[0].penetration == pytest.approx(radius - sd, abs=1e-12)

    def test_tangent_table_contact_is_reported(self):
        # table at 0 keeps center.z = table + radius exact in float
        scene = make_scene(table=0.0)
        center = np.array([0.3, 0.1, scene.table_height + 0.02])
        reports = detect_collisions(scene, center, 0.02, np.zeros(3))
        assert [r.body for r in reports] == ["table"]
        report = reports[0]
        assert report.penetration == 0.0
        assert report.impact_speed == 0.0
        assert report.force == 0.0

    def test_impact_speed_is_normal_component_clamped(self):
        scene = make_scene()
        center = np.array([0.3, 0.1, scene.table_height + 0.01])
        down = detect_collisions(scene, center, 0.02, np.array([0.3, 0.4, -0.2]))[0]
        assert down.impact_speed == pytest.approx(0.2)
        up = detect_collisions(scene, center, 0.02, np.array([0.0, 0.0, 0.5]))[0]
        assert up.impact_speed == 0.0

    def test_reports_are_body_ordered(self):
        scene = make_scene(obstacle=True)
        # overlap table and obstacle simultaneously
        center = np.array([0.35, 0.0, scene.table_height + 0.015])
        reports = detect_collisions(scene, center, 0.02, np.zeros(3))
        bodies = [r.body for r in reports]
        assert bodies == sorted(bodies, key=BODIES.index)
        assert "table" in bodies and "obstacle" in bodies

    def test_workspace_wall_contact(self):
        scene = make_scene()
        center = np.array([0.77, 0.0, 0.2])
        reports = detect_collisions(scene, center, 0.02, np.array([0.5, 0.0, 0.0]))
        assert [r.body for r in reports] == ["workspace_bound"]
        assert reports[0].penetration == pytest.approx(0.01)
        assert reports[0].impact_speed == pytest.approx(0.5)

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            detect_collisions(make_scene(), np.zeros(3), 0.0, np.zeros(3))

    def test_determinism(self):
        scene = make_scene(obstacle=True)
        rng = np.random.default_rng(5)
        for _ in range(50):
            center = rng.uniform([0.1, -0.3, -0.17], [0.7, 0.3, 0.4])
            vel = rng.normal(size=3)
            a = detect_collisions(scene, center, 0.02, vel)
            b = detect_collisions(scene, center, 0.02, vel)
            assert a == b


class TestContactForce:
    def test_zero_speed_zero_force(self):
        assert contact_force(0.0, 400.0) == 0.0

    def test_reduced_speed_maps_to_failure_threshold(self):
        # the two runtime limits coincide by construction, exactly
        assert contact_force(0.25, 400.0) == 100.0

    def test_linear_scaling(self):
        assert contact_force(0.1, 400.0) == pytest.approx(40.0, abs=1e-12)

    def test_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            contact_force(-0.1, 400.0)
        with pytest.raises(ValueError):
            contact_force(0.1, 0.0)

    @given(speed=st.floats(0.0, 10.0, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_homogeneous_in_speed(self, speed):
        assert contact_force(2.0 * speed, 400.0) == 2.0 * contact_force(speed, 400.0)


class TestDisturbedScene:
    """A reset applies a disturbance to the scene it samples: the table rises,
    the cube grows, and both boxes rest on the raised table."""

    def test_documented_protocol_values(self):
        env = GraspEnv()
        for scenario in SCENARIOS:
            scene = env._sample_scene(np.random.default_rng(5), scenario, DisturbanceSpec())
            disturbed = env._sample_scene(
                np.random.default_rng(5), scenario, DisturbanceSpec(0.075, 0.005)
            )
            # exactly the arithmetic of one application, no other rounding
            assert disturbed.table_height == scene.table_height + 0.075
            assert disturbed.cube_half_extents == tuple(
                h + 0.5 * 0.005 for h in scene.cube_half_extents
            )
            # both boxes re-seated on the raised surface, at the same x and y:
            # at seed 5 the grown cube's footprint of the obstacle misses the
            # cube region, so the draws are the same
            assert disturbed.cube_center == scene.cube_center[:2] + (
                disturbed.table_height + disturbed.cube_half_extents[2],
            )
            assert disturbed.obstacle_half_extents == scene.obstacle_half_extents
            if scene.obstacle_present:
                assert disturbed.obstacle_center == scene.obstacle_center[:2] + (
                    disturbed.table_height + disturbed.obstacle_half_extents[2],
                )
            else:
                assert disturbed.obstacle_center is None

    def test_zero_disturbance_is_identity(self):
        env = GraspEnv()
        for scenario in SCENARIOS:
            env.reset(seed=9, scenario=scenario)
            plain = env.scene
            env.reset(seed=9, scenario=scenario, disturbance=DisturbanceSpec(0.0, 0.0))
            assert env.scene == plain

    def test_escaping_workspace_raises(self):
        env = GraspEnv()
        with pytest.raises(ValueError, match="must lie inside the workspace"):
            env.reset(seed=0, disturbance=DisturbanceSpec(0.60, 0.0))
        with pytest.raises(ValueError, match="must lie inside the workspace"):
            SceneConfig().check_disturbance(DisturbanceSpec(0.60, 0.0))

    def test_cube_shrunk_to_nothing_raises(self):
        # 0.025 m nominal half extents shrink by half the size delta
        with pytest.raises(ValueError, match="half extents must be positive"):
            make_scene(cube_half_extents=np.full(3, 0.025 - 0.5 * 0.05))
        env = GraspEnv()
        for delta in (-0.05, -0.06):
            with pytest.raises(ValueError, match="half the object delta must be positive"):
                env.reset(seed=0, disturbance=DisturbanceSpec(0.0, delta))


class TestSceneInvariants:
    def test_resting_geometry_must_fit_workspace(self):
        # the scene config refuses, before any reset, a cube or an obstacle
        # that can rest outside the workspace, or a table outside it
        for overrides in (
            dict(cube_region_max=(0.9, 0.15)),
            dict(obstacle_region_min=(0.34, -0.25)),
            dict(table_height=-0.2),
        ):
            with pytest.raises(ValueError, match="must lie inside the workspace"):
                SceneConfig(**overrides)

    def test_carried_cube_may_leave_bounds(self):
        # a held cube follows the tool point; no containment check applies
        scene = make_scene()
        moved = scene.with_cube_center(np.array([0.77, 0.37, 0.44]))
        assert moved.cube_center[0] == 0.77

    @pytest.mark.parametrize(
        "form",
        [tuple, np.asarray, lambda v: np.asarray(v, dtype=np.float32)],
        ids=["int-tuples", "int-arrays", "float32-arrays"],
    )
    def test_every_vector_is_stored_as_a_tuple_of_floats(self, form):
        vectors = {
            "workspace_min": (-4, -4, -4),
            "workspace_max": (4, 4, 4),
            "cube_center": (2, 0, 0),
            "cube_half_extents": (1, 1, 1),
            "obstacle_center": (-2, 0, 0),
            "obstacle_half_extents": (1, 2, 1),
        }
        scene = Scene(table_height=0, **{k: form(v) for k, v in vectors.items()})
        for name, expected in vectors.items():
            value = getattr(scene, name)
            assert type(value) is tuple and value == expected, name
            assert all(type(v) is float for v in value), name
        assert type(scene.table_height) is float

    def test_obstacle_fields_come_together(self):
        with pytest.raises(ValueError):
            make_scene(obstacle_center=np.array([0.3, 0.0, -0.075]))

    def test_contact_at_exact_threshold_speed_hits_force_boundary(self):
        scene = make_scene()
        center = np.array([0.3, 0.0, scene.table_height + 0.01])
        report = detect_collisions(scene, center, 0.02, np.array([0.0, 0.0, -0.25]))[0]
        assert report.force == 100.0

    def test_cube_contact_uses_object_stiffness(self):
        scene = make_scene()
        center = scene.cube_center + np.array([0.0, 0.0, 0.04])
        report = detect_collisions(scene, center, 0.02, np.array([0.0, 0.0, -0.5]))
        cube = [r for r in report if r.body == "cube"][0]
        # light object: soft stiffness keeps it below the failure force even
        # at full approach speed
        assert cube.force == pytest.approx(40.0 * 0.5)
        assert cube.force < 100.0

    @given(
        x=st.floats(0.12, 0.76),
        y=st.floats(-0.36, 0.36),
        z=st.floats(-0.17, 0.43),
        vx=st.floats(-1.0, 1.0),
        vy=st.floats(-1.0, 1.0),
        vz=st.floats(-1.0, 1.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_report_invariants(self, x, y, z, vx, vy, vz):
        scene = make_scene(obstacle=True)
        reports = detect_collisions(
            scene, np.array([x, y, z]), 0.02, np.array([vx, vy, vz])
        )
        for report in reports:
            assert report.penetration >= 0.0
            assert report.impact_speed >= 0.0
            assert report.force >= 0.0
            if report.impact_speed == 0.0:
                assert report.force == 0.0


# ---------------------------------------------------------------------------
# array-based reference: the contact tests on numpy 3-vectors, one
# (center, half extents) pair per box, that the scalar ones in
# safegrasp.world replaced
# ---------------------------------------------------------------------------

def reference_sphere_box(point, center, half):
    d = point - center
    q = np.abs(d) - half
    p = np.maximum(q, 0.0)
    outside = np.sqrt(p[0] * p[0] + p[1] * p[1] + p[2] * p[2])
    if outside > 0.0:
        n = np.where(d < 0.0, -p / outside, p / outside)
        return outside, n
    axis = 0
    for k in (1, 2):
        if q[k] > q[axis]:
            axis = k
    n = np.zeros(3)
    n[axis] = 1.0 if d[axis] >= 0.0 else -1.0
    return q[axis], n


def reference_approach_speed(velocity, normal) -> float:
    return max(0.0, -float(np.dot(velocity, normal)))


def reference_detect_collisions(scene, eef_center, eef_radius, eef_velocity):
    center = np.asarray(eef_center, dtype=np.float64).reshape(3)
    velocity = np.asarray(eef_velocity, dtype=np.float64).reshape(3)
    reports = []
    for body in BODIES:
        if body == "table":
            clearance = float(center[2] - scene.table_height)
            if clearance > eef_radius:
                continue
            normal = np.array([0.0, 0.0, 1.0])
            penetration = eef_radius - clearance
        elif body in ("cube", "obstacle"):
            box_center, half = (
                (scene.cube_center, scene.cube_half_extents)
                if body == "cube"
                else (scene.obstacle_center, scene.obstacle_half_extents)
            )
            if box_center is None:
                continue
            sd, normal = reference_sphere_box(
                center, np.asarray(box_center), np.asarray(half)
            )
            if sd > eef_radius:
                continue
            penetration = eef_radius - float(sd)
        else:
            pen_best = -np.inf
            normal = None
            for axis in range(3):
                low_pen = scene.workspace_min[axis] - (center[axis] - eef_radius)
                if low_pen >= 0.0 and low_pen > pen_best:
                    pen_best = low_pen
                    normal = np.zeros(3)
                    normal[axis] = 1.0
                high_pen = (center[axis] + eef_radius) - scene.workspace_max[axis]
                if high_pen >= 0.0 and high_pen > pen_best:
                    pen_best = high_pen
                    normal = np.zeros(3)
                    normal[axis] = -1.0
            if normal is None:
                continue
            penetration = float(pen_best)
        impact = reference_approach_speed(velocity, normal)
        stiffness = scene.cube_stiffness if body == "cube" else scene.contact_stiffness
        reports.append(
            ContactReport(
                body=body,
                penetration=penetration,
                impact_speed=impact,
                force=contact_force(impact, stiffness),
            )
        )
    return reports


def reference_signed_clearances(scene, eef_center, eef_radius):
    center = np.asarray(eef_center, dtype=np.float64).reshape(3)
    out = {"table": float(center[2] - scene.table_height) - eef_radius}
    sd, _ = reference_sphere_box(center, scene.cube_center, scene.cube_half_extents)
    out["cube"] = float(sd) - eef_radius
    if scene.obstacle_present:
        sd, _ = reference_sphere_box(
            center, scene.obstacle_center, scene.obstacle_half_extents
        )
        out["obstacle"] = float(sd) - eef_radius
    return out


def env_scenes():
    """Reset scenes of both scenarios, nominal and with the assess disturbance."""
    env = GraspEnv()
    rng = np.random.default_rng(31)
    scenes = {}
    for scenario in SCENARIOS:
        for label, spec in (
            ("nominal", DisturbanceSpec()), ("disturbed", DisturbanceSpec(0.075, 0.005))
        ):
            scenes[f"{scenario}-{label}"] = env._sample_scene(rng, scenario, spec)
    return scenes


def points_near(scene, rng, n):
    """Points spread over the workcell with most of them close to a surface."""
    lo = np.asarray(scene.workspace_min) - 0.03
    hi = np.asarray(scene.workspace_max) + 0.03
    parts = [rng.uniform(lo, hi, size=(n // 4, 3))]
    boxes = [(scene.cube_center, scene.cube_half_extents)]
    if scene.obstacle_present:
        boxes.append((scene.obstacle_center, scene.obstacle_half_extents))
    for center, half in boxes:
        parts.append(center + rng.uniform(-1, 1, size=(n // 4, 3)) * (np.asarray(half) + 0.03))
    table = rng.uniform(lo, hi, size=(n // 8, 3))
    table[:, 2] = scene.table_height + rng.uniform(-0.01, 0.03, size=n // 8)
    parts.append(table)
    walls = rng.uniform(lo, hi, size=(n - sum(len(p) for p in parts), 3))
    axis = rng.integers(0, 3, size=len(walls))
    side = rng.integers(0, 2, size=len(walls)).astype(bool)
    edge = np.where(side, np.asarray(scene.workspace_max)[axis], np.asarray(scene.workspace_min)[axis])
    walls[np.arange(len(walls)), axis] = edge + rng.uniform(-0.03, 0.03, size=len(walls))
    parts.append(walls)
    return np.concatenate(parts)


def contact_tuples(reports):
    out = [(r.body, r.penetration, r.impact_speed, r.force) for r in reports]
    for _, *values in out:
        assert all(type(v) is float for v in values)
    return out


def assert_matches_reference(scene, center, velocity, radius=0.02):
    expected = reference_detect_collisions(scene, center, radius, velocity)
    for form in (np.asarray, lambda v: tuple(np.asarray(v, dtype=float).tolist())):
        got = detect_collisions(scene, form(center), radius, form(velocity))
        assert contact_tuples(got) == contact_tuples(expected), (center, velocity)
        clearances = signed_clearances(scene, form(center), radius)
        assert clearances == reference_signed_clearances(scene, center, radius)
        assert all(type(v) is float for v in clearances.values())


class TestScalarContactsMatchArrayReference:
    """Bodies, penetration, impact speed, force and clearances, bit for bit."""

    def test_random_points_and_velocities(self):
        rng = np.random.default_rng(2024)
        contacts = set()
        total = 0
        for scene in env_scenes().values():
            points = points_near(scene, rng, 25_000)
            # speeds up to about 1 m/s, some exactly zero or axis-aligned
            velocities = rng.normal(0.0, 0.5, size=points.shape)
            velocities[::7] = 0.0
            velocities[3::7, :2] = 0.0
            for center, velocity in zip(points, velocities):
                # the env's form: tuples of floats
                point, speed = tuple(center.tolist()), tuple(velocity.tolist())
                expected = reference_detect_collisions(scene, center, 0.02, velocity)
                got = detect_collisions(scene, point, 0.02, speed)
                assert contact_tuples(got) == contact_tuples(expected), (center, velocity)
                contacts.update(r.body for r in got)
                assert signed_clearances(scene, point, 0.02) == (
                    reference_signed_clearances(scene, center, 0.02)
                )
            total += len(points)
        assert total >= 100_000
        assert contacts == set(BODIES)

    def test_touching_contacts(self):
        scene = make_scene(obstacle=True, table=0.0)
        half = scene.cube_half_extents
        r = 0.02
        cases = [
            np.array([0.3, 0.1, scene.table_height + r]),  # tangent to the table
            scene.cube_center + np.array([half[0] + r, 0.0, 0.0]),  # cube face
            scene.cube_center - np.array([0.0, half[1] + r, 0.0]),
            np.array([scene.workspace_max[0] - r, 0.0, 0.2]),  # wall
            np.array([scene.workspace_min[0] + r, scene.workspace_min[1] + r, 0.2]),
        ]
        for center in cases:
            for velocity in ([0.0, 0.0, 0.0], [0.3, -0.2, -0.4], [-0.5, 0.5, 0.1]):
                assert_matches_reference(scene, center, np.array(velocity), r)
        got = detect_collisions(scene, cases[0], r, np.zeros(3))
        assert [c.body for c in got] == ["table"] and got[0].penetration == 0.0
        # each of the six workspace walls, with dyadic walls and radius so
        # that a sphere exactly r from a wall touches it in float; one ulp
        # inward it touches nothing (the boxes and the table lie far below)
        r = 0.03125
        scene = make_scene(
            obstacle=True, table=-1.0,
            workspace_min=(0.125, -0.375, -0.25), workspace_max=(0.75, 0.375, 0.5),
        )
        middle = np.array([0.4375, 0.0, 0.125])
        for axis, bound, inward in itertools.product(range(3), ("low", "high"), (False, True)):
            center = middle.copy()
            if bound == "low":
                center[axis] = scene.workspace_min[axis] + r
                assert center[axis] - r == scene.workspace_min[axis]
                normal = 1.0
            else:
                center[axis] = scene.workspace_max[axis] - r
                assert center[axis] + r == scene.workspace_max[axis]
                normal = -1.0
            if inward:
                center[axis] = np.nextafter(center[axis], middle[axis])
            for velocity in ([0.0, 0.0, 0.0], [0.3, -0.2, -0.4], [-0.5, 0.5, 0.1]):
                assert_matches_reference(scene, center, np.array(velocity), r)
            velocity = np.zeros(3)
            velocity[axis] = -0.1 * normal
            got = detect_collisions(scene, tuple(center.tolist()), r, tuple(velocity.tolist()))
            if inward:
                assert got == [], (axis, bound)
            else:
                assert [c.body for c in got] == ["workspace_bound"], (axis, bound)
                assert got[0].penetration == 0.0
                assert got[0].impact_speed == 0.1

    def test_inside_boxes(self):
        scene = make_scene(obstacle=True)
        rng = np.random.default_rng(3)
        for center, half in (
            (scene.cube_center, scene.cube_half_extents),
            (scene.obstacle_center, scene.obstacle_half_extents),
        ):
            # the center itself (every axis ties), axis ties and interior points
            offsets = [np.zeros(3), np.array([0.01, 0.01, 0.0]), np.array([0, -0.01, -0.01])]
            offsets += list(rng.uniform(-1, 1, size=(200, 3)) * half)
            for offset in offsets:
                velocity = rng.normal(0.0, 0.5, size=3)
                assert_matches_reference(scene, center + offset, velocity)

    def test_box_edges_and_corners(self):
        scene = make_scene(obstacle=True)
        rng = np.random.default_rng(4)
        for center, half in (
            (scene.cube_center, scene.cube_half_extents),
            (scene.obstacle_center, scene.obstacle_half_extents),
        ):
            for signs in itertools.product((-1.0, 1.0), repeat=3):
                corner = center + np.array(signs) * half
                for axes in ((0, 1), (0, 2), (1, 2), (0, 1, 2)):
                    for _ in range(40):
                        offset = np.zeros(3)
                        for axis in axes:
                            offset[axis] = signs[axis] * rng.uniform(0.0, 0.02)
                        velocity = rng.normal(0.0, 0.5, size=3)
                        assert_matches_reference(scene, corner + offset, velocity)

    def test_workspace_walls_edges_and_corners(self):
        scene = make_scene()
        rng = np.random.default_rng(5)
        lo, hi = np.asarray(scene.workspace_min), np.asarray(scene.workspace_max)
        for _ in range(2000):
            center = rng.uniform(lo + 0.05, hi - 0.05)
            for axis in rng.choice(3, size=rng.integers(1, 4), replace=False):
                bound = hi[axis] if rng.integers(2) else lo[axis]
                offset = rng.choice([-0.02, 0.0, 0.02, rng.uniform(-0.03, 0.03)])
                center[axis] = bound + offset
            assert_matches_reference(scene, center, rng.normal(0.0, 0.5, size=3))

    def test_held_cube_scene(self):
        # the env moves a held cube onto the tool point every step
        rng = np.random.default_rng(6)
        for scene in env_scenes().values():
            for _ in range(200):
                point = rng.uniform(scene.workspace_min, scene.workspace_max)
                held = scene.with_cube_center(tuple(point.tolist()))
                assert_matches_reference(held, point, rng.normal(0.0, 0.5, size=3))


class TestVectorLengths:
    """Tuples take a fast path, but one of the wrong length is still refused."""

    @pytest.mark.parametrize("n", [2, 4])
    def test_tuple_of_wrong_length_is_rejected(self, n):
        scene = make_scene(obstacle=True)
        point = (0.5,) * n
        with pytest.raises(ValueError):
            detect_collisions(scene, point, 0.02, (0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            detect_collisions(scene, (0.5, 0.0, 0.0), 0.02, point)
        with pytest.raises(ValueError):
            signed_clearances(scene, point, 0.02)


class TestCubeMove:
    def test_moves_only_the_cube(self):
        scene = make_scene(obstacle=True)
        moved = scene.with_cube_center((0.77, 0.37, 0.44))
        assert moved.cube_center == (0.77, 0.37, 0.44)
        assert type(moved.cube_center) is tuple
        # every other field is the original's own value, not re-derived
        for name, value in vars(scene).items():
            if name != "cube_center":
                assert vars(moved)[name] is value, name

    def test_does_not_alias_the_argument(self):
        scene = make_scene()
        center = np.array([0.5, 0.1, 0.2])
        moved = scene.with_cube_center(center)
        center[0] = 0.0
        assert moved.cube_center == (0.5, 0.1, 0.2)
        assert all(type(v) is float for v in moved.cube_center)

    def test_stores_floats_from_a_tuple_of_ints(self):
        moved = make_scene().with_cube_center((1, 0, 0))
        assert moved.cube_center == (1.0, 0.0, 0.0)
        assert all(type(v) is float for v in moved.cube_center)

    @pytest.mark.parametrize(
        "center", [(0.5, 0.1), np.zeros(4), np.zeros((2, 3)), [[0.5, 0.1, 0.2, 0.3]]]
    )
    def test_rejects_a_center_that_is_not_a_3_vector(self, center):
        with pytest.raises(ValueError):
            make_scene().with_cube_center(center)

