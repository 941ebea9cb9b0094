"""A ``RandomSource`` whose twister logs every primitive call.

The shipped loops draw from the twister directly, so a ``RandomSource``
subclass cannot see their draws.  This module logs one level lower: its
``random.Random`` subclass records each ``getrandbits(k)`` (as ``k``) and
each ``random()`` (as ``"random"``).  Because it overrides
``getrandbits``, CPython keeps ``_randbelow_with_getrandbits`` for it, so
every bounded draw (``randint``, ``choice``, ``sample``, ``shuffle``) goes
through the logged ``getrandbits`` and the stream equals the plain
twister's.  Comparing two logs compares the exact call sequence, not just
where the stream ends.
"""

from __future__ import annotations

import random
from typing import List, Tuple, Type, Union

from repro.core.rng import RandomSource

DrawCall = Union[int, str]


class _LoggingTwister(random.Random):
    def __init__(self, seed: int) -> None:
        self.calls: List[DrawCall] = []
        super().__init__(seed)

    def getrandbits(self, k: int) -> int:
        self.calls.append(k)
        return super().getrandbits(k)

    def random(self) -> float:
        self.calls.append("random")
        return super().random()


def logged_source(
    seed: int, source_class: Type[RandomSource] = RandomSource
) -> Tuple[RandomSource, List[DrawCall]]:
    """A ``source_class(seed)`` (a plain ``RandomSource`` by default) and
    the live log of its draws."""
    rng = source_class(seed)
    twister = _LoggingTwister(seed)
    rng._random = twister
    return rng, twister.calls
