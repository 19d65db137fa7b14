"""Deterministic desk-scale safe-RL grasping simulator and audit stack."""

__version__ = "0.1.0"

from .env import (  # noqa: F401
    EnvConfig,
    GraspEnv,
    Observation,
    RewardConfig,
    RewardMode,
    Scenario,
    SceneConfig,
    StepResult,
    TransitionEvents,
    compute_reward,
)
from .kinematics import ArmModel, IkResult, IkStatus  # noqa: F401
from .tqc import (  # noqa: F401
    RandomPolicy,
    ReplayBuffer,
    ScriptedGraspPolicy,
    TqcAgent,
    TqcConfig,
)
from .world import DisturbanceSpec, Scene  # noqa: F401

