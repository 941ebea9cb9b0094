"""Seedable random-source façade.

Every stochastic component in the library (topology generators, substrate
builders, search algorithms, query workloads) draws its randomness through a
:class:`RandomSource`.  This gives three properties the paper's experiments
need:

* **Reproducibility** — a generator seeded with the same value produces the
  same topology, which the test-suite and the benchmark harness rely on.
* **Independence** — :meth:`RandomSource.spawn` derives statistically
  independent child sources so that, e.g., topology construction and query
  workload generation do not share a stream.
* **Uniform interface** — the handful of primitives the paper's pseudo-code
  uses (``RANDOM(i, j)``, ``fRANDOM()``, random neighbor selection, weighted
  choice) are provided as named methods.

The implementation wraps :class:`random.Random` (Mersenne Twister), which is
fast enough for graphs of 10^5 nodes and keeps the library dependency-free at
its core; NumPy generators are available via :meth:`numpy_generator` for the
vectorised analysis code.
"""

from __future__ import annotations

import random
import zlib
from typing import Any, Iterable, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

__all__ = ["RandomSource", "DEFAULT_SEED", "raw_stream"]

T = TypeVar("T")

#: Seed used when the caller does not supply one and reproducibility is
#: requested explicitly (e.g. by the test-suite fixtures).
DEFAULT_SEED = 20070611  # arXiv submission date of the paper: cs/0611128.


class RandomSource:
    """A seedable source of randomness with the primitives the paper uses.

    The inlined-draw algorithm loops (see :func:`raw_stream`) draw from
    the underlying twister directly, not through the methods below, so a
    subclass that overrides a draw method does not change what they draw,
    and a counting subclass sees only the calls made through its methods.

    A subclass may observe draws (count them, log them) but must return
    the values this class returns.  The inlined loops read the twister
    past every override, while multi-walker RW, PA's attempt strategy,
    nonlinear PA, DAPA's seed sample and the ``choice``/``weighted_index``
    fallbacks still call the methods; a subclass that changes values
    therefore gets builds that mix its values with the twister's.

    Parameters
    ----------
    seed:
        Seed for the underlying Mersenne Twister.  ``None`` produces a
        non-deterministic source (seeded from OS entropy).

    Examples
    --------
    >>> rng = RandomSource(seed=7)
    >>> rng.randint(1, 3) in (1, 2, 3)
    True
    >>> 0.0 <= rng.random() < 1.0
    True
    """

    __slots__ = ("_seed", "_random")

    def __init__(self, seed: Optional[int] = None) -> None:
        self._seed = seed
        self._random = random.Random(seed)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def seed(self) -> Optional[int]:
        """The seed this source was created with (``None`` if unseeded)."""
        return self._seed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomSource(seed={self._seed!r})"

    # ------------------------------------------------------------------ #
    # Scalar draws (the paper's RANDOM / fRANDOM primitives)
    # ------------------------------------------------------------------ #
    def random(self) -> float:
        """Return a uniform float in ``[0, 1)`` (the paper's ``fRANDOM()``)."""
        return self._random.random()

    def randint(self, low: int, high: int) -> int:
        """Return a uniform integer ``x`` with ``low <= x <= high``.

        This mirrors the paper's ``RANDOM(i, j)`` primitive (both endpoints
        inclusive).
        """
        if low > high:
            raise ValueError(f"empty integer range [{low}, {high}]")
        return self._random.randint(low, high)

    # ------------------------------------------------------------------ #
    # Collection draws
    # ------------------------------------------------------------------ #
    def choice(self, items: Sequence[T]) -> T:
        """Return a uniformly random element of a non-empty sequence."""
        if not items:
            raise IndexError("cannot choose from an empty sequence")
        return self._random.choice(items)

    def sample(self, items: Sequence[T], count: int) -> List[T]:
        """Return ``count`` distinct elements chosen uniformly at random.

        If ``count`` exceeds the population size the whole population is
        returned in random order (this is the behaviour the normalized
        flooding forwarder needs: "forward to kmin random neighbors, or all
        of them if there are fewer").
        """
        if count >= len(items):
            return self.shuffled(items)
        return self._random.sample(items, count)

    def shuffle(self, items: list) -> None:
        """Shuffle ``items`` in place."""
        self._random.shuffle(items)

    def shuffled(self, items: Iterable[T]) -> List[T]:
        """Return a new list with the elements of ``items`` in random order."""
        out = list(items)
        self._random.shuffle(out)
        return out

    def weighted_index(self, weights: Sequence[float]) -> int:
        """Return an index chosen with probability proportional to ``weights``."""
        total = float(sum(weights))
        if total <= 0.0:
            raise ValueError("weights must sum to a positive value")
        threshold = self._random.random() * total
        cumulative = 0.0
        for index, weight in enumerate(weights):
            cumulative += weight
            if threshold < cumulative:
                return index
        return len(weights) - 1

    # ------------------------------------------------------------------ #
    # Stream position
    # ------------------------------------------------------------------ #
    def getstate(self) -> Tuple[Any, ...]:
        """Return the underlying generator state (see :meth:`random.Random.getstate`)."""
        return self._random.getstate()

    def setstate(self, state: Tuple[Any, ...]) -> None:
        """Restore a state captured with :meth:`getstate`."""
        self._random.setstate(state)

    # ------------------------------------------------------------------ #
    # Derived sources
    # ------------------------------------------------------------------ #
    def spawn(self, label: str = "") -> "RandomSource":
        """Derive an independent child source.

        The child's seed is drawn from this source's stream, optionally mixed
        with a string label so that differently-labelled children of the same
        parent are decorrelated even when spawned in a different order.  The
        label is mixed with CRC32 (not :func:`hash`, which is salted per
        process) so seeded runs are reproducible across interpreter runs.
        """
        base = self._random.getrandbits(63)
        if label:
            base ^= zlib.crc32(label.encode("utf-8")) & (2**63 - 1)
        return RandomSource(seed=base)

    def numpy_generator(self) -> np.random.Generator:
        """Return a NumPy generator seeded from this source's stream."""
        return np.random.default_rng(self._random.getrandbits(63))


def raw_stream(rng: RandomSource) -> random.Random:
    """Return the Mersenne Twister underneath ``rng``.

    The algorithm loops that inline CPython's draws (HAPA, PA's roulette,
    CM's shuffle, DAPA's join picks and attach step, the GRN substrate's
    positions, NF, PF and single-walker RW) call this twister directly,
    for every source: overriding a draw method of a subclass does not
    change what they draw.
    """
    return rng._random


def ensure_source(rng: "RandomSource | int | None") -> RandomSource:
    """Coerce ``rng`` into a :class:`RandomSource`.

    Accepts an existing source (returned unchanged), an integer seed, or
    ``None`` (a fresh unseeded source).  All public generator and search
    entry points funnel their ``rng``/``seed`` arguments through this helper
    so the two styles are interchangeable.
    """
    if isinstance(rng, RandomSource):
        return rng
    if rng is None:
        return RandomSource()
    if isinstance(rng, int):
        return RandomSource(seed=rng)
    raise TypeError(f"expected RandomSource, int, or None, got {type(rng).__name__}")
