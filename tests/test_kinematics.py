"""Kinematics: FK against an independent DH oracle, IK round trips, speed checks.

The scalar FK/IK kernels are also checked against a 4x4 homogeneous-matrix
reference (``matrix_fk_frames`` / ``matrix_ik_dls`` below) that runs the same
damped-least-squares iteration with numpy matrices.
"""

from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safegrasp import kernels
from safegrasp.kinematics import (
    ArmModel,
    UR5_DH,
    check_speed,
    eef_position,
    inverse_kinematics,
)

# frozen expectation, computed with the reduce-based oracle below
UR5_ZERO_POSE_POSITION = (-0.81725, -0.19145, -0.005491)


def dh_oracle(dh_rows, q) -> np.ndarray:
    """Independent FK: explicit per-joint homogeneous matrices, reduced."""

    def matrix(theta, a, d, alpha):
        ct, st = np.cos(theta), np.sin(theta)
        ca, sa = np.cos(alpha), np.sin(alpha)
        return np.array(
            [
                [ct, -st * ca, st * sa, a * ct],
                [st, ct * ca, -ct * sa, a * st],
                [0.0, sa, ca, d],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )

    mats = [
        matrix(q[i] + row[3], row[0], row[1], row[2]) for i, row in enumerate(dh_rows)
    ]
    return reduce(np.matmul, mats)


def matmul4(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """4x4 matrix product summed in index order, whatever the BLAS build.

    ``x @ y`` goes through BLAS, whose rounding depends on the library and
    the CPU (fused multiply-adds, blocked sums).
    """
    out = x[:, 0:1] * y[0:1, :]
    for k in range(1, 4):
        out = out + x[:, k : k + 1] * y[k : k + 1, :]
    return out


def matrix_fk_frames(dh: np.ndarray, q: np.ndarray, matmul=matmul4):
    """Reference FK: one 4x4 DH matrix per joint, chained with ``matmul``.

    ``dh`` is a (6, 4) table of ``a, d, alpha, theta_offset``; returns the
    frame origins (7, 3) and the joint z axes (7, 3), index 0 being the base
    frame.
    """
    dh = np.asarray(dh)
    t = np.eye(4)
    origins = np.zeros((7, 3))
    zaxes = np.zeros((7, 3))
    zaxes[0, 2] = 1.0
    a_mat = np.empty((4, 4))
    a_mat[3] = (0.0, 0.0, 0.0, 1.0)
    for i in range(6):
        theta = q[i] + dh[i, 3]
        ct, st = np.cos(theta), np.sin(theta)
        ca, sa = np.cos(dh[i, 2]), np.sin(dh[i, 2])
        a_len, d_len = dh[i, 0], dh[i, 1]
        a_mat[0] = (ct, -st * ca, st * sa, a_len * ct)
        a_mat[1] = (st, ct * ca, -ct * sa, a_len * st)
        a_mat[2] = (0.0, sa, ca, d_len)
        t = matmul(t, a_mat)
        origins[i + 1] = t[:3, 3]
        zaxes[i + 1] = t[:3, 2]
    return origins, zaxes


def matrix_ik_dls(dh, limits, q_seed, target, damping, tolerance, max_iterations):
    """Reference DLS IK on :func:`matrix_fk_frames`, numpy arrays throughout.

    Same iteration and return form as :func:`safegrasp.kernels.ik_dls`.  It
    chains with :func:`matmul4`: started far from a solution, or driven at
    an unreachable target for 200 iterations, the iteration grows a 1-ulp
    difference in the FK into different iterates, so a comparison against
    a BLAS-rounded chain would test the BLAS build rather than the kernel.
    """
    limits = np.asarray(limits)
    q = q_seed.copy()
    best_q = q_seed.copy()
    best_p = np.full(3, np.nan)
    best_res = 1.0e300
    best_clamped = 0
    lam2 = damping * damping
    iterations = 0
    converged = 0
    jac = np.empty((3, 6))
    for it in range(max_iterations + 1):
        origins, zaxes = matrix_fk_frames(dh, q)
        ex, ey, ez = target - origins[6]
        res = np.sqrt(ex * ex + ey * ey + ez * ez)
        clamped = 0
        for j in range(6):
            if q[j] <= limits[j, 0] or q[j] >= limits[j, 1]:
                clamped = 1
        if res < best_res:
            best_res = res
            best_q[:] = q
            best_p[:] = origins[6]
            best_clamped = clamped
        iterations = it
        if res <= tolerance:
            converged = 1
            break
        if it == max_iterations:
            break
        for j in range(6):
            r = origins[6] - origins[j]
            jac[0, j] = zaxes[j, 1] * r[2] - zaxes[j, 2] * r[1]
            jac[1, j] = zaxes[j, 2] * r[0] - zaxes[j, 0] * r[2]
            jac[2, j] = zaxes[j, 0] * r[1] - zaxes[j, 1] * r[0]
        m00, m01, m02, m11, m12, m22 = lam2, 0.0, 0.0, lam2, 0.0, lam2
        for j in range(6):
            m00 += jac[0, j] * jac[0, j]
            m01 += jac[0, j] * jac[1, j]
            m02 += jac[0, j] * jac[2, j]
            m11 += jac[1, j] * jac[1, j]
            m12 += jac[1, j] * jac[2, j]
            m22 += jac[2, j] * jac[2, j]
        det = (
            m00 * (m11 * m22 - m12 * m12)
            - m01 * (m01 * m22 - m12 * m02)
            + m02 * (m01 * m12 - m11 * m02)
        )
        if det == 0.0:
            break
        y0 = (
            ex * (m11 * m22 - m12 * m12)
            - m01 * (ey * m22 - m12 * ez)
            + m02 * (ey * m12 - m11 * ez)
        ) / det
        y1 = (
            m00 * (ey * m22 - m12 * ez)
            - ex * (m01 * m22 - m12 * m02)
            + m02 * (m01 * ez - ey * m02)
        ) / det
        y2 = (
            m00 * (m11 * ez - ey * m12)
            - m01 * (m01 * ez - ey * m02)
            + ex * (m01 * m12 - m11 * m02)
        ) / det
        for j in range(6):
            dq = jac[0, j] * y0 + jac[1, j] * y1 + jac[2, j] * y2
            q[j] = min(max(q[j] + dq, limits[j, 0]), limits[j, 1])
    return best_q, best_p, best_res, iterations, best_clamped, converged


class TestForwardKinematics:
    def test_degenerate_chain_is_origin(self):
        dh = np.zeros((6, 4))
        model = ArmModel(dh=dh, joint_limits=np.tile((-7.0, 7.0), (6, 1)))
        q = np.array([0.3, -1.0, 2.0, 0.5, -0.2, 1.1])
        assert np.allclose(eef_position(model, q), 0.0, atol=1e-15)

    def test_ur5_zero_pose_matches_frozen_oracle_value(self, arm):
        position = eef_position(arm, np.zeros(6))
        assert position == pytest.approx(UR5_ZERO_POSE_POSITION, abs=1e-9)
        # and the oracle itself reproduces the frozen value
        oracle = dh_oracle(UR5_DH, np.zeros(6))[:3, 3]
        assert oracle == pytest.approx(UR5_ZERO_POSE_POSITION, abs=1e-12)

    def test_matches_oracle_on_random_configurations(self, arm):
        rng = np.random.default_rng(42)
        for _ in range(100):
            q = rng.uniform(-2.0 * np.pi, 2.0 * np.pi, 6)
            expected = dh_oracle(UR5_DH, q)[:3, 3]
            assert np.linalg.norm(eef_position(arm, q) - expected) <= 1e-9

    def test_angle_periodicity(self, arm):
        q = np.array([0.4, -1.2, 1.0, -0.3, 0.8, -0.6])
        shifted = q + 2.0 * np.pi
        a = eef_position(arm, q)
        b = eef_position(arm, shifted)
        assert np.allclose(a, b, atol=1e-12)

    def test_rejects_non_finite_joints(self, arm):
        with pytest.raises(ValueError):
            eef_position(arm, np.array([np.nan, 0, 0, 0, 0, 0]))


class TestInverseKinematics:
    def test_fixed_point_round_trip(self, arm):
        q = np.array([0.5, -1.8, 1.9, -1.5, -1.2, 0.4])
        target = eef_position(arm, q)
        result = inverse_kinematics(arm, target, seed=q)
        assert result.status == "converged"
        assert result.residual < 1e-9
        assert np.allclose(result.solution, q)

    def test_beyond_reach_is_unreachable(self, arm):
        # farther than the sum of all link offsets
        total_reach = np.sum(np.abs(np.asarray(arm.dh)[:, :2]))
        target = np.array([1.5 * total_reach, 0.0, 0.0])
        seed = np.zeros(6)
        result = inverse_kinematics(arm, target, seed=seed)
        assert result.status in ("unreachable", "limit_violation")
        assert result.solution is None
        assert result.residual > arm.ik_tolerance

    def test_converges_on_reachable_targets(self, arm):
        rng = np.random.default_rng(2024)
        trials = 1000
        converged = 0
        for _ in range(trials):
            q_true = rng.uniform(-np.pi, np.pi, 6)
            target = eef_position(arm, q_true)
            seed = rng.uniform(-np.pi, np.pi, 6)
            result = inverse_kinematics(arm, target, seed=seed)
            if result.status == "converged":
                round_trip = eef_position(arm, result.solution)
                assert np.linalg.norm(round_trip - target) < 1e-3
                assert arm.within_limits(result.solution)
                converged += 1
        assert converged >= 0.95 * trials

    def test_solutions_respect_joint_limits(self, arm):
        tight = ArmModel(
            dh=arm.dh,
            joint_limits=np.tile((-2.2, 2.2), (6, 1)),
        )
        rng = np.random.default_rng(7)
        for _ in range(100):
            q_true = rng.uniform(-2.0, 2.0, 6)
            target = eef_position(tight, q_true)
            result = inverse_kinematics(tight, target, seed=np.zeros(6))
            if result.status == "converged":
                assert tight.within_limits(result.solution)

    def test_seed_outside_limits_rejected(self, arm):
        target = np.array([0.4, 0.0, 0.2])
        with pytest.raises(ValueError):
            inverse_kinematics(arm, target, seed=np.full(6, 10.0))

    def test_tool_position_is_fk_of_solution(self, arm):
        # the env moves the tool to this position without recomputing FK,
        # so it must equal eef_position of the solution bit for bit
        rng = np.random.default_rng(8)
        seen = set()
        for _ in range(200):
            seed = rng.uniform(-np.pi, np.pi, 6)
            start = eef_position(arm, seed)
            target = start + rng.uniform(-0.3, 0.3, 3)
            result = inverse_kinematics(arm, target, seed=seed)
            seen.add(result.status)
            if result.converged:
                assert result.tool_point == tuple(
                    eef_position(arm, result.solution).tolist()
                )
            else:
                assert result.tool_point is None
        assert "converged" in seen and len(seen) > 1

    def test_frames_are_fk_of_solution(self, arm):
        # the env seeds its next IK call with these frames instead of the FK
        rng = np.random.default_rng(8)
        for _ in range(200):
            seed = rng.uniform(-np.pi, np.pi, 6)
            target = eef_position(arm, seed) + rng.uniform(-0.3, 0.3, 3)
            result = inverse_kinematics(arm, target, seed=seed)
            if result.converged:
                assert result.frames == kernels.fk_frames(arm.dh_rows, result.joint_values)
            else:
                assert result.frames is None


def ik_dls_pairs():
    """The 1000 (arm, seed, target) cases of ``test_ik_dls_matches_on_1000_pairs``."""
    rng = np.random.default_rng(99)
    # 60 iterations keep the reference affordable; most reachable
    # targets still converge, the rest end as failures of either kind
    arm = ArmModel.default_ur5(ik_max_iterations=60)
    tight = ArmModel(
        dh=arm.dh, joint_limits=np.tile((-1.0, 1.0), (6, 1)), ik_max_iterations=60
    )
    reach = float(np.sum(np.abs(np.asarray(arm.dh)[:, :2])))
    cases = []
    for _ in range(600):  # reachable targets, free seeds
        target = eef_position(arm, rng.uniform(-np.pi, np.pi, 6))
        cases.append((arm, rng.uniform(-np.pi, np.pi, 6), target))
    for _ in range(100):  # beyond the sum of all link offsets
        direction = rng.normal(size=3)
        target = 1.5 * reach * direction / np.linalg.norm(direction)
        cases.append((arm, rng.uniform(-np.pi, np.pi, 6), target))
    for _ in range(300):  # targets mostly outside the tight limits' reach
        target = eef_position(tight, rng.uniform(-3.0, 3.0, 6))
        cases.append((tight, rng.uniform(-1.0, 1.0, 6), target))
    return cases


class TestKernelsAgainstMatrixReference:
    """Scalar kernels against the 4x4-matrix reference, to rounding level."""

    @staticmethod
    def random_arm(rng) -> ArmModel:
        dh = np.column_stack(
            [
                rng.uniform(-0.5, 0.5, 6),
                rng.uniform(-0.2, 0.2, 6),
                rng.uniform(-np.pi, np.pi, 6),
                rng.uniform(-np.pi, np.pi, 6),
            ]
        )
        return ArmModel(dh=dh, joint_limits=np.tile((-7.0, 7.0), (6, 1)))

    def test_fk_frames_match(self, arm):
        rng = np.random.default_rng(5)
        arms = [arm] + [self.random_arm(rng) for _ in range(4)]
        for model in arms:
            for _ in range(100):
                q = rng.uniform(-2.0 * np.pi, 2.0 * np.pi, 6)
                origins, zaxes = kernels.fk_frames(model.dh_rows, tuple(q.tolist()))
                for matmul in (matmul4, np.matmul):
                    ref_origins, ref_zaxes = matrix_fk_frames(model.dh, q, matmul)
                    assert np.abs(np.array(origins) - ref_origins).max() <= 1e-12
                    assert np.abs(np.array(zaxes) - ref_zaxes).max() <= 1e-12

    def test_ik_dls_matches_on_1000_pairs(self):
        statuses = set()
        for model, seed, target in ik_dls_pairs():
            args = (model.ik_damping, model.ik_tolerance, model.ik_max_iterations)
            q, res, iters, clamped, converged, frames = kernels.ik_dls(
                model.dh_rows,
                model.joint_limits,
                tuple(seed.tolist()),
                tuple(target.tolist()),
                *args,
            )
            ref_q, ref_p, ref_res, ref_iters, ref_clamped, ref_converged = matrix_ik_dls(
                model.dh, model.joint_limits, seed, target, *args
            )
            assert (converged, clamped, iters) == (ref_converged, ref_clamped, ref_iters)
            assert abs(res - ref_res) <= 1e-12
            p = frames[0][6]
            assert np.abs(np.array(p) - ref_p).max() <= 1e-9
            # the returned tool origin is the FK of the returned joints, exactly
            assert kernels.fk_frames(model.dh_rows, tuple(q))[0][6] == p
            if converged:
                assert np.abs(np.array(q) - ref_q).max() <= 1e-9
                statuses.add("converged")
            else:
                statuses.add("limit_violation" if clamped else "unreachable")
        assert statuses == {"converged", "unreachable", "limit_violation"}

    def test_ik_dls_seed_frames_change_no_output(self):
        statuses = set()
        for model, seed, target in ik_dls_pairs():
            args = (
                model.dh_rows,
                model.joint_limits,
                tuple(seed.tolist()),
                tuple(target.tolist()),
                model.ik_damping,
                model.ik_tolerance,
                model.ik_max_iterations,
            )
            reused = kernels.ik_dls(*args, kernels.fk_frames(model.dh_rows, args[2]))
            # every output, the best iterate's frames included, bit for bit
            assert reused == kernels.ik_dls(*args)
            q, _, _, clamped, converged, frames = reused
            assert frames == kernels.fk_frames(model.dh_rows, tuple(q))
            if converged:
                statuses.add("converged")
            else:
                statuses.add("limit_violation" if clamped else "unreachable")
        assert statuses == {"converged", "unreachable", "limit_violation"}


class TestCheckSpeed:
    def test_within_limit(self, arm):
        prev = np.zeros(6)
        nxt = prev.copy()
        nxt[0] += 0.1
        check = check_speed(prev, nxt, 0.05, arm)
        assert check.ok
        assert check.max_rate == pytest.approx(2.0)

    def test_no_motion(self, arm):
        q = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
        check = check_speed(q, q, 0.2, arm)
        assert check.ok
        assert check.max_rate == 0.0

    def test_over_limit(self, arm):
        prev = np.zeros(6)
        nxt = prev.copy()
        nxt[3] = 0.30
        check = check_speed(prev, nxt, 0.1, arm)
        assert not check.ok
        assert check.max_rate == pytest.approx(3.0)

    def test_nan_command_fails_wherever_it_sits(self, arm):
        for j in range(6):
            nxt = np.zeros(6)
            nxt[j] = np.nan
            check = check_speed(np.zeros(6), nxt, 0.05, arm)
            assert not check.ok
            assert np.isnan(check.max_rate)

    def test_invalid_dt(self, arm):
        with pytest.raises(ValueError):
            check_speed(np.zeros(6), np.zeros(6), 0.0, arm)

    @given(
        deltas=st.lists(
            st.floats(-3.0, 3.0, allow_nan=False), min_size=6, max_size=6
        ),
        dt=st.floats(1e-3, 10.0, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_symmetry_and_scale_covariance(self, deltas, dt):
        model = ArmModel.default_ur5()
        prev = np.linspace(-1.0, 1.0, 6)
        nxt = prev + np.array(deltas)
        fwd = check_speed(prev, nxt, dt, model)
        rev = check_speed(nxt, prev, dt, model)
        assert fwd.max_rate == rev.max_rate
        halved = check_speed(prev, nxt, dt / 2.0, model)
        assert halved.max_rate == 2.0 * fwd.max_rate


class TestArmModel:
    def test_tables_are_float_tuples(self, arm):
        for table, width in ((arm.dh, 4), (arm.joint_limits, 2)):
            assert type(table) is tuple and len(table) == 6
            for row in table:
                assert type(row) is tuple and len(row) == width
                assert all(type(v) is float for v in row)

    def test_arrays_and_tuples_give_one_arm(self, arm):
        from_arrays = ArmModel(
            dh=np.array(arm.dh), joint_limits=np.array(arm.joint_limits)
        )
        assert from_arrays == arm
        assert hash(from_arrays) == hash(arm)
        assert from_arrays.dh_rows == arm.dh_rows

    def test_hash_follows_the_values(self, arm):
        assert hash(ArmModel.default_ur5()) == hash(arm)
        assert {arm, ArmModel.default_ur5()} == {arm}
        slower = ArmModel.default_ur5(max_joint_speed=1.0)
        assert slower != arm and len({arm, slower}) == 2

    def test_requires_six_joints(self):
        with pytest.raises(ValueError):
            ArmModel(dh=np.zeros((5, 4)), joint_limits=np.tile((-1, 1), (5, 1)))

    def test_rejects_inverted_limits(self):
        limits = np.tile((-1.0, 1.0), (6, 1))
        limits[2] = (1.0, -1.0)
        with pytest.raises(ValueError):
            ArmModel(dh=np.zeros((6, 4)), joint_limits=limits)

    def test_rejects_nonpositive_speed(self):
        with pytest.raises(ValueError):
            ArmModel.default_ur5(max_joint_speed=0.0)


class TestVectorLengths:
    """Tuples take a fast path, but one of the wrong length is still refused."""

    @pytest.mark.parametrize("n", [5, 7])
    def test_joint_tuple_of_wrong_length_is_rejected(self, arm, n):
        q = (0.0,) * n
        with pytest.raises(ValueError):
            arm.within_limits(q)
        with pytest.raises(ValueError):
            check_speed((0.0,) * 6, q, 0.05, arm)
        with pytest.raises(ValueError):
            check_speed(q, (0.0,) * 6, 0.05, arm)
        with pytest.raises(ValueError):
            check_speed(q, q, 0.05, arm)
        with pytest.raises(ValueError):
            eef_position(arm, q)
        with pytest.raises(ValueError):
            inverse_kinematics(arm, (0.3, 0.1, 0.2), q)

    @pytest.mark.parametrize("n", [2, 4])
    def test_target_tuple_of_wrong_length_is_rejected(self, arm, n):
        with pytest.raises(ValueError):
            inverse_kinematics(arm, (0.3,) * n, (0.0,) * 6)

    def test_tuples_and_arrays_agree(self, arm):
        q = (0.1, -1.2, 1.3, -1.6, -1.5, 0.2)
        nxt = (0.12, -1.2, 1.3, -1.6, -1.5, 0.2)
        assert arm.within_limits(q) and arm.within_limits(np.array(q))
        assert check_speed(q, nxt, 0.05, arm) == check_speed(
            np.array(q), np.array(nxt), 0.05, arm
        )
        target = tuple(eef_position(arm, nxt).tolist())
        assert inverse_kinematics(arm, target, q) == inverse_kinematics(
            arm, np.array(target), np.array(q)
        )
