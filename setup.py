"""Packaging for the adaptive video retrieval reproduction.

Installs the library from ``src/`` and exposes the CLI as a ``repro``
console command (``pip install -e .`` then ``repro generate --help``).
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_HERE = Path(__file__).resolve().parent


def _read_version() -> str:
    text = (_HERE / "src" / "repro" / "__init__.py").read_text(encoding="utf-8")
    match = re.search(r'^__version__ = "([^"]+)"', text, re.MULTILINE)
    if match is None:
        raise RuntimeError("cannot find __version__ in src/repro/__init__.py")
    return match.group(1)


def _read_long_description() -> str:
    readme = _HERE / "README.md"
    return readme.read_text(encoding="utf-8") if readme.exists() else ""


setup(
    name="repro-adaptive-video-retrieval",
    version=_read_version(),
    description=(
        "Adaptive news-video retrieval with implicit relevance feedback: "
        "a reproduction of Hopfgartner & Jose (PVLDB'08) with a multi-user "
        "retrieval service, simulated-user evaluation and benchmark harness"
    ),
    long_description=_read_long_description(),
    long_description_content_type="text/markdown",
    author="paper-repo-growth",
    license="MIT",
    packages=find_packages("src"),
    package_dir={"": "src"},
    python_requires=">=3.8",
    install_requires=[],
    # tests/test_properties.py imports hypothesis at module level and every
    # benchmarks/bench_* test takes pytest-benchmark's `benchmark` fixture.
    extras_require={"test": ["pytest", "hypothesis", "pytest-benchmark"]},
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "License :: OSI Approved :: MIT License",
        "Operating System :: OS Independent",
        "Programming Language :: Python :: 3",
        "Topic :: Scientific/Engineering :: Information Analysis",
    ],
    keywords="information-retrieval video-retrieval implicit-feedback personalisation",
)
