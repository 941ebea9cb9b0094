"""Packaging metadata for the ``repro`` reproduction toolkit.

Kept in ``setup.py`` (rather than ``pyproject.toml``) so that
``pip install -e .`` works in offline environments whose setuptools lacks
the ``wheel`` package needed by PEP 517 editable builds — pip then falls
back to the legacy ``setup.py`` code path, which this file fully supports.

Install targets:

* ``pip install .`` — core library + ``repro`` CLI (numpy only);
* ``pip install .[scipy]`` — SciPy-accelerated batched flood kernel;
* ``pip install .[dev]`` — the test/benchmark/lint toolchain (pytest,
  hypothesis, ruff, mypy; ``repro lint`` itself is stdlib-only) and
  networkx, the reference the tests check the graph and analysis code
  against.  The library's ``to_networkx``/``from_networkx`` conversions
  import networkx on first use and raise ``ModuleNotFoundError`` without it.

Everything optional degrades gracefully: without scipy the CSR flood
kernel falls back to pure NumPy.
"""

import os.path

from setuptools import find_packages, setup


def _read_version() -> str:
    version_path = os.path.join(
        os.path.dirname(__file__), "src", "repro", "_version.py"
    )
    namespace = {}
    with open(version_path, encoding="utf-8") as handle:
        exec(handle.read(), namespace)
    return namespace["__version__"]


setup(
    name="repro-guclu-yuksel-2007",
    version=_read_version(),
    description=(
        "Scale-free overlay topologies with hard cutoffs for unstructured "
        "P2P networks (Guclu & Yuksel, ICDCS 2007) — reproduction toolkit"
    ),
    long_description=open("README.md", encoding="utf-8").read(),
    long_description_content_type="text/markdown",
    packages=find_packages("src"),
    package_dir={"": "src"},
    python_requires=">=3.9",
    install_requires=[
        "numpy>=1.22",
    ],
    extras_require={
        "scipy": ["scipy>=1.8"],
        "dev": [
            "pytest>=7",
            "pytest-benchmark>=4",
            "hypothesis>=6",
            "ruff>=0.4",
            "mypy>=1.8",
            "networkx>=2.8",
        ],
    },
    entry_points={
        "console_scripts": [
            "repro = repro.cli:main",
        ],
    },
    classifiers=[
        "Development Status :: 5 - Production/Stable",
        "Intended Audience :: Science/Research",
        "Programming Language :: Python :: 3",
        "Topic :: Scientific/Engineering",
        "Topic :: System :: Distributed Computing",
    ],
)
