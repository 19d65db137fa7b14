"""Kernel mode flag, read by provenance records.

Every kernel in :mod:`safegrasp.kernels` has one implementation in plain
Python, ``math`` and numpy; nothing is compiled, so the flag is always off.
"""

NUMBA_ENABLED = False
