"""Packaging for ``repro``: a pure-stdlib ``src/`` layout package.

``pip install .`` (or ``pip install -e .``) installs the package, the data
files it reads at run time, and the ``repro-experiments`` console script.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

#: Every non-Python file the package reads at run time, as globs relative to
#: its package directory (tests/test_packaging.py holds every such file under
#: src/repro to a glob here).
PACKAGE_DATA = {
    "repro.experiments": ["artifacts/*.json"],
    "repro.telemetry": ["dashboard/*.html"],
}

VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(),
    re.MULTILINE,
).group(1)

setup(
    name="repro",
    version=VERSION,
    description="Attrition defenses for a peer-to-peer digital preservation "
    "system: a deterministic simulation reproduction",
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages("src"),
    package_data=PACKAGE_DATA,
    entry_points={"console_scripts": ["repro-experiments = repro.cli:main"]},
)
