"""Test oracles: the scalar loops a faster implementation replaced.

Each module keeps a loop exactly as it ran before it was rewritten, so the
equivalence tests and the microbenchmark floors can compare the shipped
code with it draw for draw and edge for edge.  Nothing under ``src/``
imports these; ``pytest.ini`` puts ``tests/`` on the path, so both
``tests/`` and ``benchmarks/`` import them as ``oracles.<name>``.
"""
