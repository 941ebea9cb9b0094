"""Minimal discrete-event engine.

The simulator schedules three kinds of events — message deliveries, peer
joins, and peer departures — on a single global clock.  The engine is a
plain priority queue keyed by ``(time, sequence)``; the sequence number makes
ordering deterministic when events share a timestamp, which keeps seeded
simulations exactly reproducible.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional

from repro.core.errors import SimulationError

__all__ = ["Event", "EventQueue"]


@dataclass(order=True)
class Event:
    """A scheduled callback.

    Attributes
    ----------
    time:
        Simulation time at which the event fires.
    sequence:
        Tie-breaker assigned by the queue; earlier-scheduled events fire
        first among equal timestamps.
    action:
        Zero-argument callable executed when the event fires.
    label:
        Optional human-readable tag used in traces.
    cancelled:
        Cancelled events are skipped when popped.
    """

    time: float
    sequence: int
    action: Callable[[], Any] = field(compare=False)
    label: str = field(default="", compare=False)
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        """Mark the event so the queue skips it."""
        self.cancelled = True


class EventQueue:
    """A deterministic discrete-event queue.

    Examples
    --------
    >>> queue = EventQueue()
    >>> fired = []
    >>> _ = queue.schedule(2.0, lambda: fired.append("late"))
    >>> _ = queue.schedule(1.0, lambda: fired.append("early"))
    >>> queue.run()
    2
    >>> fired
    ['early', 'late']
    >>> queue.now
    2.0
    """

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._counter = itertools.count()
        self._now = 0.0
        self._processed = 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def now(self) -> float:
        """Current simulation time (time of the last fired event)."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of events still scheduled (including cancelled ones)."""
        return len(self._heap)

    @property
    def processed(self) -> int:
        """Number of events executed so far."""
        return self._processed

    def __len__(self) -> int:
        return len(self._heap)

    # ------------------------------------------------------------------ #
    # Scheduling and execution
    # ------------------------------------------------------------------ #
    def schedule(
        self, time: float, action: Callable[[], Any], label: str = ""
    ) -> Event:
        """Schedule ``action`` to run at absolute simulation time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule an event at {time} before the current time {self._now}"
            )
        event = Event(time=time, sequence=next(self._counter), action=action, label=label)
        heapq.heappush(self._heap, event)
        return event

    def schedule_in(
        self, delay: float, action: Callable[[], Any], label: str = ""
    ) -> Event:
        """Schedule ``action`` to run ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError("delay must be non-negative")
        return self.schedule(self._now + delay, action, label=label)

    def step(self) -> Optional[Event]:
        """Execute the next non-cancelled event; return it (or ``None`` if empty)."""
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self._now = event.time
            event.action()
            self._processed += 1
            return event
        return None

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run events until the queue drains, ``until`` is reached, or ``max_events`` fire.

        Returns the number of events executed by this call.
        """
        executed = 0
        while self._heap:
            if max_events is not None and executed >= max_events:
                break
            next_event = self._heap[0]
            if next_event.cancelled:
                heapq.heappop(self._heap)
                continue
            if until is not None and next_event.time > until:
                break
            if self.step() is not None:
                executed += 1
        if until is not None and self._now < until:
            # No more events before the horizon: the clock advances to it.
            self._now = until
        return executed
