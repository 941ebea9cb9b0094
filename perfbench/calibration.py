"""Machine-speed calibration for a shared, noisy VM.

On the 2-vCPU VM this benchmark was built on, the host slows the VM by up
to 2x in spells that last from under a second to minutes, in CPU time as
much as in wall time, so raw times of identical runs spread by up to 30%.
Each run therefore takes short calibration samples between its ops and
scales each op's time by ``reference / mean(samples around it)``: the time
it would have taken on the VM at its reference speed.  The samples and the
raw times are printed beside the scaled ones.

A sample must slow with the VM by as much as the work it calibrates:

* :func:`sample` times a fixed pure-Python loop.  It calibrates the
  artefact workloads (pure-Python generation and search) and every set-up.
* :meth:`ReferenceServer.sample` times HTTP round trips to the benchmark's
  own minimal server (``refserver.py``).  It calibrates the serve requests:
  in a slow spell the loop ran 1.7-1.8x slower, but serve's warm requests
  only 1.33-1.34x, its cold ones 1.39x and the reference round trips
  1.29-1.30x.
"""

from __future__ import annotations

import http.client
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List

#: About one :func:`sample` on the reference VM when it is not contended.
REFERENCE_S = 0.025
#: Round trips per :meth:`ReferenceServer.sample`, and about one such sample
#: on the reference VM when it is not contended.
ROUND_TRIPS = 10
REFERENCE_ROUND_TRIPS_S = 0.010


def _work() -> int:
    # Dict, list and RNG calls in a loop: the mix the program's hot loops run.
    rng = random.Random(12345)
    rows: List[List[int]] = [[] for _ in range(512)]
    degree = {}
    for step in range(40_000):
        node = rng.randrange(512)
        rows[node].append(step)
        degree[node] = degree.get(node, 0) + 1
        if rng.random() < 0.5:
            rows[node].pop()
    return sum(degree.values())


def sample() -> float:
    """Seconds one run of the fixed calibration loop takes right now."""
    started = time.perf_counter()
    _work()
    return time.perf_counter() - started


class ReferenceServer:
    """A running ``refserver.py`` process, serving from ``directory``."""

    BODY = b'{"calibration": "reference round trip"}'

    def __init__(self, directory: Path) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve().parent / "refserver.py"), str(directory)],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline()
        if not line.strip().isdigit():
            self.stop()
            raise RuntimeError("the reference server did not start")
        self.port = int(line)

    def sample(self) -> float:
        """Seconds :data:`ROUND_TRIPS` POSTs take right now, one per connection."""
        started = time.perf_counter()
        for _ in range(ROUND_TRIPS):
            connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
            try:
                connection.request("POST", "/", body=self.BODY, headers={"Content-Type": "application/json"})
                response = connection.getresponse()
                response.read()
                if response.status != 200:
                    raise RuntimeError(f"reference server answered {response.status}")
            finally:
                connection.close()
        return time.perf_counter() - started

    def stop(self) -> None:
        self.proc.terminate()
        self.proc.wait(timeout=30)
        self.proc.stdout.close()


def speed_factor(samples: List[float], reference_s: float = REFERENCE_S) -> float:
    """Scale from raw to reference seconds for work done while these samples were taken.

    The mean, not the median: a sample is short enough to land wholly in a
    slow or a fast spell, so the samples are bimodal, and their mean tracks
    the share of the time spent slow.
    """
    return reference_s / statistics.mean(samples)
