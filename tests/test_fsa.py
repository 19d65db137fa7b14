"""Functional-safety arithmetic, SIL banding, assessment protocol."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safegrasp.env import GraspEnv
from safegrasp.fsa import (
    ASSESSMENT_SEED_STREAM,
    FsaInput,
    assign_sil,
    build_report,
    compute_mttf,
    compute_pfd,
    compute_rrf,
    format_report_text,
    inputs_from_episodes,
)
from safegrasp.rollout import rollout_episodes
from safegrasp.runlog import EpisodeRecord, ViolationCounts
from safegrasp.tqc import ScriptedGraspPolicy


class TestMttf:
    def test_direct_arithmetic(self):
        assert compute_mttf(FsaInput(1000, 2)) == 500.0

    def test_degenerate_every_step_fails(self):
        assert compute_mttf(FsaInput(1000, 1000)) == 1.0

    def test_reference_fixture(self):
        assert compute_mttf(FsaInput(59353, 100)) == pytest.approx(593.53)

    def test_failure_free_reports_lower_bound(self):
        inputs = FsaInput(221, 0)
        assert compute_mttf(inputs) == 221.0
        report = build_report(inputs)
        assert report.mttf_is_lower_bound

    def test_zero_steps_rejected(self):
        with pytest.raises(ValueError):
            compute_mttf(FsaInput(0, 0))

    def test_more_failures_than_steps_rejected(self):
        with pytest.raises(ValueError):
            FsaInput(10, 11)


class TestPfd:
    def test_reference_fixture_two_significant_figures(self):
        mttf = compute_mttf(FsaInput(59353, 100))
        pfd = compute_pfd(mttf)
        assert pfd == pytest.approx(0.0016848, abs=2e-6)
        assert round(pfd, 4) == 0.0017

    def test_direct_arithmetic(self):
        assert compute_pfd(500.0) == pytest.approx(0.002)

    def test_invalid_mttf(self):
        with pytest.raises(ValueError):
            compute_pfd(0.0)

    def test_failures_over_steps_lies_in_the_unit_interval(self):
        # one over the steps when failure-free; no clamp is needed
        assert build_report(FsaInput(1000, 1000)).pfd == 1.0
        assert build_report(FsaInput(1000, 3)).pfd == 1.0 / (1000 / 3)
        assert build_report(FsaInput(221, 0)).pfd == 1.0 / 221
        assert build_report(FsaInput(1, 0)).pfd == 1.0

    def test_monotone_in_mttf(self):
        assert compute_pfd(200.0) >= compute_pfd(400.0)

    def test_zero_mass_gives_reciprocal_identity(self):
        # identity up to one rounding of the division
        for total in (417, 500, 59353, 7):
            mttf = float(total)
            product = compute_pfd(mttf) * mttf
            assert product == pytest.approx(1.0, abs=1e-15)


class TestRrf:
    def test_direct_arithmetic(self):
        assert compute_rrf(0.002) == pytest.approx(500.0)

    def test_unity(self):
        assert compute_rrf(1.0) == 1.0

    def test_reference_row_full_precision(self):
        # a table rounded to pfd 0.0013 implies rrf 769.2 at face value; the
        # report keeps full precision so rrf stays the exact reciprocal
        assert compute_rrf(0.0013) == pytest.approx(769.2307692, abs=1e-6)
        mttf = 742.34
        pfd = compute_pfd(mttf)
        assert compute_rrf(pfd) == pytest.approx(mttf)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            compute_rrf(0.0)

    @given(st.floats(1e-9, 1.0, allow_nan=False))
    @settings(max_examples=300, deadline=None)
    def test_reciprocal_identity(self, pfd):
        assert compute_rrf(pfd) * pfd == pytest.approx(1.0, rel=1e-9)


class TestAssignSil:
    def test_reference_band(self):
        assert assign_sil(0.0017) == 2

    def test_adjacent_decades(self):
        assert assign_sil(0.05) == 1
        assert assign_sil(0.0005) == 3

    def test_band_floors_are_inclusive(self):
        assert assign_sil(0.001) == 2
        assert assign_sil(0.01) == 1
        assert assign_sil(0.0001) == 3

    def test_no_level_above_a_tenth(self):
        assert assign_sil(0.1) == 0
        assert assign_sil(0.5) == 0

    def test_capped_at_four(self):
        assert assign_sil(5e-5) == 4
        assert assign_sil(1e-12) == 4

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            assign_sil(0.0)
        with pytest.raises(ValueError):
            assign_sil(1.5)

    @given(st.floats(1e-9, 1.0), st.floats(1e-9, 1.0))
    @settings(max_examples=300, deadline=None)
    def test_monotone(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert assign_sil(lo) >= assign_sil(hi)


class TestReport:
    def test_reference_report(self):
        report = build_report(FsaInput(59353, 100))
        assert report.mttf == pytest.approx(593.53)
        assert 0.00165 <= report.pfd <= 0.00172
        assert 580 <= report.rrf <= 607
        assert report.sil == 2
        assert report.rrf * report.pfd == pytest.approx(1.0, rel=1e-9)

    def test_synthetic_report(self):
        report = build_report(FsaInput(1000, 2))
        assert report.mttf == 500.0
        assert report.pfd == pytest.approx(0.002)
        assert report.rrf == pytest.approx(500.0)
        assert report.sil == 2

    def test_text_table_contains_sil2_ranges(self):
        text = format_report_text(build_report(FsaInput(59353, 100)))
        assert "SIL 2 Range" in text
        assert "0.01 to 0.001" in text
        assert "100 to 1000" in text
        assert "> 100 steps" in text
        assert "593.53" in text
        assert "note:" not in text

    def test_json_round_trip_fields(self):
        doc = build_report(FsaInput(1000, 2)).as_dict()
        assert doc["inputs"] == {"total_steps": 1000, "failure_count": 2}
        assert doc["sil"] == 2
        assert "note" not in doc


def episode(steps=100, collision=0, speed=0, **kwargs) -> EpisodeRecord:
    return EpisodeRecord(
        return_sum=0.0,
        steps=steps,
        success=False,
        violations=ViolationCounts(collision=collision, speed=speed, **kwargs),
        terminated_by_failure=collision > 0,
    )


class TestInputsFromEpisodes:
    def test_failure_classification(self):
        records = [
            episode(steps=100, collision=1),
            episode(steps=50, speed=2),
            episode(steps=25, obstacle_collision=3, velocity=4),
        ]
        inputs = inputs_from_episodes(records)
        assert inputs.total_steps == 175
        # only workcell collisions and speed violations count as failures
        assert inputs.failure_count == 3

    def test_reference_log_injection(self):
        records = [episode(steps=593, collision=1) for _ in range(100)]
        records.append(episode(steps=53))
        inputs = inputs_from_episodes(records)
        assert inputs.total_steps == 59353
        assert inputs.failure_count == 100
        report = build_report(inputs)
        assert report.mttf == pytest.approx(593.53)
        assert report.sil == 2


class DiveBombPolicy:
    """Drives straight down into the table: every episode ends in failure."""

    def __call__(self, obs):
        return np.array([0.0, 0.0, -1.0, -1.0])


class HoverPolicy:
    """Stays at the home pose: never approaches anything."""

    def __call__(self, obs):
        return np.zeros(4)


def assess(env, policy, episodes, seed, **kwargs):
    """The assessment protocol of ``safegrasp assess``: rollouts on the
    assessment seed stream, then the report of their episodes."""
    records = rollout_episodes(
        env, policy, episodes=episodes, base_seed=seed, stream=ASSESSMENT_SEED_STREAM, **kwargs
    )
    return build_report(inputs_from_episodes(records)), records


class TestRunAssessment:
    def test_always_colliding_policy(self):
        env = GraspEnv()
        report, records = assess(env, DiveBombPolicy(), episodes=10, seed=0, disturbance=None)
        assert report.inputs.failure_count >= 10  # one collision per episode
        assert report.sil <= 1

    def test_safe_policy_exercises_failure_free_path(self):
        env = GraspEnv()
        report, records = assess(env, HoverPolicy(), episodes=3, seed=0, disturbance=None)
        assert report.inputs.failure_count == 0
        assert report.mttf_is_lower_bound
        assert report.mttf == report.inputs.total_steps

    def test_scripted_policy_deterministic(self):
        def run():
            env = GraspEnv()
            report, _ = assess(env, ScriptedGraspPolicy(), episodes=4, seed=3)
            return report.as_dict()

        assert run() == run()


class _OwnedWriter:
    def __init__(self):
        self.records = []
        self.closed = False

    def write_step(self, record: dict) -> None:
        assert not self.closed
        self.records.append(record)

    def close(self) -> None:
        self.closed = True


class TestAssessmentWriter:
    def test_writer_stays_open_for_its_owner(self):
        writer = _OwnedWriter()
        _, episodes = assess(
            GraspEnv(), ScriptedGraspPolicy(), episodes=2, seed=0, log_writer=writer
        )
        assert not writer.closed
        assert len(writer.records) == sum(e.steps for e in episodes)
