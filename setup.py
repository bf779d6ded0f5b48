"""Packaging for the P-NUT reproduction.

The simulator, the trace tools and the service are stdlib-only; this
metadata exists so a cold ``pip install .`` works without PYTHONPATH
and installs the ``pnut`` console entry point (CI's install-smoke job
proves both). The reachability analyzers (``pnut reach``, ``pnut
analytic``, ``pnut bounds`` and ``repro.reachability``) need the
``analysis`` extra: ``pip install .[analysis]``.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

# Single-source the version from the package itself.
_INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"
VERSION = re.search(r'__version__ = "([^"]+)"', _INIT.read_text()).group(1)

setup(
    name="repro-pnut",
    version=VERSION,
    description=(
        "Reproduction of 'The Use of Petri Nets for Modeling Pipelined "
        "Processors' (Razouk, DAC 1988): extended Timed Petri Nets, the "
        "P-NUT tool suite, and a simulation service"
    ),
    long_description=(Path(__file__).parent / "README.md").read_text(),
    long_description_content_type="text/markdown",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=[],
    extras_require={"analysis": ["networkx", "numpy", "scipy"]},
    entry_points={
        "console_scripts": [
            "pnut=repro.cli:main",
        ],
    },
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "License :: OSI Approved :: MIT License",
        "Operating System :: POSIX",
        "Programming Language :: Python :: 3",
        "Programming Language :: Python :: 3.11",
        "Programming Language :: Python :: 3.12",
        "Topic :: Scientific/Engineering",
        "Topic :: System :: Emulators",
    ],
)
