"""Packaging for the Fairwos reproduction.

Metadata lives here (not in pyproject.toml) on purpose: the development
environment has no network access and no ``wheel`` package, so PEP 517
editable installs are unavailable.  A classic ``setup.py`` plus a
``pyproject.toml`` without a ``[build-system]`` table lets ``pip install
-e .`` fall back to the ``setup.py develop`` path, while plain
``PYTHONPATH=src`` usage keeps working too.
"""

from setuptools import find_packages, setup

setup(
    name="repro-fairwos",
    version="1.0.0",
    description=(
        "Reproduction of 'Towards Fair Graph Neural Networks via Graph "
        "Counterfactual Without Sensitive Attributes' (Wang et al., ICDE "
        "2025) on a from-scratch numpy GNN substrate, with a "
        "neighbour-sampled minibatch training engine for large graphs"
    ),
    author="paper-repo-growth",
    license="MIT",
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=[
        "numpy>=1.24",
        "scipy>=1.10",
    ],
    extras_require={
        "dev": [
            "pytest>=8",
            "pytest-benchmark>=4",
            "hypothesis>=6",
            "ruff>=0.4",
        ],
    },
    entry_points={
        "console_scripts": [
            "repro=repro.cli:main",
        ],
    },
    classifiers=[
        "Programming Language :: Python :: 3",
        "License :: OSI Approved :: MIT License",
        "Topic :: Scientific/Engineering :: Artificial Intelligence",
    ],
)
