"""Rule modules — importing this package registers every RPL rule.

One module per family, mirroring the code blocks:

* :mod:`~repro.staticcheck.rules.draw_order` — ``RPL1xx``;
* :mod:`~repro.staticcheck.rules.pool_contracts` — ``RPL3xx``;
* :mod:`~repro.staticcheck.rules.ambient_discipline` — ``RPL4xx``.
"""

from repro.staticcheck.rules import (  # noqa: F401  (import-for-side-effect)
    ambient_discipline,
    draw_order,
    pool_contracts,
)
