"""The flow's kernel implementation name, for benchmark host records.

Every hot kernel (placement field sweeps, maze distance fields, the
batched Elmore solve, level-batched STA propagation) has exactly one
production implementation; its scalar reference lives in
``tests/kernel_oracles.py``.  This module exists only because the flow
benchmark (``flowbench/run.py``) records :func:`kernel_mode` in its
host record; nothing in the package calls it.
"""

from __future__ import annotations


def kernel_mode() -> str:
    """The name of the one kernel implementation: always ``"numpy"``."""
    return "numpy"
