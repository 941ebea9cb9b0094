"""Pin the kernel tier for a block of test code.

The platform picks the tier (:func:`repro.kernels.dispatch.kernel_tier`):
``jit`` when numba imports and the parity self-check passes, ``python``
otherwise.  Tests pin one by patching what the platform reports:

``pin_tier("jit")``
    ``numba_available()`` answers ``True``, so the kernels run once the
    self-check passes — compiled with numba installed, interpreted
    without it (same code, same results).
``pin_tier("python")``
    ``numba_available()`` answers ``False``: the python loops.

The patch is a module attribute, so engine workers forked while it is in
place inherit it; a ``ParallelExecutor`` opened inside the ``with`` block
runs its tasks on the pinned tier.  ``pytest.ini`` puts ``tests/`` on the
path, so ``tests/`` and ``benchmarks/`` both import this as ``tiers``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.kernels import dispatch

TIERS = ("python", "jit")


@contextmanager
def pin_tier(tier: str) -> Iterator[str]:
    """Run the ``with`` body on ``tier`` (``"python"`` or ``"jit"``)."""
    if tier not in TIERS:
        raise ValueError(f"unknown tier {tier!r}; expected one of {TIERS}")
    available = tier == "jit"
    original = dispatch.numba_available
    dispatch.numba_available = lambda: available
    try:
        yield tier
    finally:
        dispatch.numba_available = original
