"""JIT kernel tier: compiled search and generation kernels over CSR arrays.

The compiled execution tier below the Python loops:
:mod:`repro.kernels.search` JIT-compiles the NF/PF/RW query loops over the
CSR ``indptr``/``indices`` arrays,
:mod:`repro.kernels.generators` the PA (both strategies) / nonlinear-PA /
HAPA / DAPA growth loops and CM stub matching over preallocated
degree/stub arrays, and :mod:`repro.kernels.substrate` the GRN cell-grid
sweep and ER skip loop — all while consuming the *exact* CPython
Mersenne-Twister draw sequence (:mod:`repro.kernels.mt19937`), so results
— graphs, curves, and RNG stream positions — are bit-for-bit identical to
the Python implementations.  :mod:`repro.kernels.dispatch` owns tier
selection: the platform picks the tier, ``jit`` when numba imports and a
parity self-check covering every kernel family passes, ``python``
otherwise.

This package import is deliberately light: numba (when installed) is only
imported on the first kernel-eligible query, never at import time.
"""

from repro.kernels.dispatch import (
    kernel_ready,
    kernel_self_check,
    kernel_tier,
    kernels_runtime,
    numba_available,
)

__all__ = [
    "kernel_ready",
    "kernel_self_check",
    "kernel_tier",
    "kernels_runtime",
    "numba_available",
]
