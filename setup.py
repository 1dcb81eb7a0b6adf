"""Package metadata.

Metadata lives here rather than in a ``pyproject.toml`` ``[project]`` table
because this offline environment lacks the ``wheel`` package: pip can only
perform legacy (setup.py) editable installs, and those are disabled whenever
a ``[project]`` table is present.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.1.0",
    description=(
        "ED-ViT: Efficient Partitioning Vision Transformer on Edge Devices "
        "for Distributed Inference (reproduction)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
    extras_require={"test": ["pytest", "pytest-benchmark", "hypothesis",
                             "scipy"]},
)
