"""Thread-local stacks for the library's ambient selections.

The harness threads its ambient choices through every experiment without
touching call signatures: the executor/progress pair
(:mod:`repro.engine.executor`), the telemetry collector
(:mod:`repro.telemetry.collector`), and the open span context
(:mod:`repro.telemetry.trace`).  Each used to be a module-level list used
as a stack — correct under the engine's process-pool parallelism (workers
re-install their own contexts from the pickled task), but unsafe once the
scenario compiler started distributing a scenario's panels across *threads*
sharing one process: two threads pushing and popping one list corrupt each
other's contexts.

:class:`AmbientStack` keeps the same push/pop/top contract but stores the
stack per thread.  A fresh thread starts with an empty stack and therefore
sees the module default, so thread workers must re-install the values they
captured from their parent explicitly (see
:func:`repro.scenarios.compile._run_plans`) — inheritance is deliberate,
never implicit, which keeps the single-threaded behaviour bit-for-bit
unchanged.
"""

from __future__ import annotations

import threading
from typing import Generic, List, TypeVar

__all__ = ["AmbientStack"]

T = TypeVar("T")


class AmbientStack(Generic[T]):
    """A per-thread stack of ambient values with a shared default."""

    __slots__ = ("_local",)

    def __init__(self) -> None:
        self._local = threading.local()

    def _items(self) -> List[T]:
        items = getattr(self._local, "items", None)
        if items is None:
            items = []
            self._local.items = items
        return items

    def push(self, value: T) -> None:
        """Install ``value`` as the innermost ambient value for this thread."""
        self._items().append(value)

    def pop(self) -> T:
        """Remove and return this thread's innermost ambient value."""
        return self._items().pop()

    def top(self, default: T) -> T:
        """Return this thread's innermost value, or ``default`` when empty."""
        items = self._items()
        return items[-1] if items else default

    def __bool__(self) -> bool:
        return bool(self._items())
