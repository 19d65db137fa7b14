"""Deterministic desk-scale safe-RL grasping simulator and audit stack."""

import os

# pin BLAS threading before any submodule loads numpy: keeps runs
# bit-reproducible on multi-core hosts (a value already set wins)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"
