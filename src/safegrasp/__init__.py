"""Deterministic desk-scale safe-RL grasping simulator and audit stack."""

import os

# pin BLAS threading before the imports below load numpy: keeps runs
# bit-reproducible on multi-core hosts (a value already set wins)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"

from .env import (  # noqa: F401
    EnvConfig,
    GraspEnv,
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

