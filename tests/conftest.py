import numpy as np
import pytest

from safegrasp.env import EnvConfig, GraspEnv, RewardConfig, SceneConfig
from safegrasp.kinematics import ArmModel


@pytest.fixture(scope="session")
def arm() -> ArmModel:
    return ArmModel.default_ur5()


@pytest.fixture
def env() -> GraspEnv:
    return GraspEnv()


def make_env(**kwargs) -> GraspEnv:
    return GraspEnv(**kwargs)


def drive_to(env: GraspEnv, obs, target, gripper=-1.0, max_steps=120, speed=0.55):
    """Proportional drive of the tool point to ``target``; returns last result."""
    result = None
    for _ in range(max_steps):
        delta = np.clip(
            (np.asarray(target) - obs[0:3]) / env.env_config.action_scale,
            -1.0,
            1.0,
        )
        result = env.step(np.array([*delta * speed, gripper]))
        obs = result.observation
        if result.terminated or result.truncated:
            break
        if np.linalg.norm(obs[0:3] - target) < 5e-4:
            break
    return obs, result
