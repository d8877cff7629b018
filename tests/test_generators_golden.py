"""Bit-level pins for every synthetic graph generator.

``golden_generators.json`` holds, per generated graph, a sha256 of each of
its arrays — features, labels, sensitive, the three masks,
``related_feature_indices``, the adjacency's CSR ``data`` / ``indices`` /
``indptr``, ``meta["signal_columns"]`` and every ``meta["extra_sensitive"]``
entry — plus its ``meta`` keys with their scalar values.  The set covers
the six named datasets, the scale-free and SBM shapes the perfbench
workloads generate, an Erdős–Rényi graph, and one non-default configuration
per family (extra planted attributes, homophily 0 or 4, and for the SBM
three communities, strong mixing and segregated groups), each at seeds 0–2.

A refactor of the generators must leave every digest unchanged; a failure
names the graph and the arrays that drifted.  Regenerate only after a
deliberate change to what a generator draws::

    PYTHONPATH=src python tests/test_generators_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

from repro.datasets import (
    available_datasets,
    generate_erdos_renyi_graph,
    generate_sbm_graph,
    generate_scale_free_graph,
    load_dataset,
)
from repro.graph import Graph

GOLDEN_PATH = Path(__file__).parent / "golden_generators.json"
SEEDS = (0, 1, 2)


def _named(name: str) -> Callable[[int], Graph]:
    return lambda seed: load_dataset(name, seed=seed, standardize=False)


CONFIGS: dict[str, Callable[[int], Graph]] = {
    **{name: _named(name) for name in available_datasets()},
    # The shapes perfbench's train_sampled_ann and serve_artifact generate.
    "scalefree_10k": lambda seed: generate_scale_free_graph(
        10_000, num_features=12, average_degree=8, seed=seed
    ),
    "sbm_5k": lambda seed: generate_sbm_graph(
        5_000, num_features=12, average_degree=8, seed=seed
    ),
    "erdos_renyi_2k": lambda seed: generate_erdos_renyi_graph(2_000, seed=seed),
    "scalefree_variant": lambda seed: generate_scale_free_graph(
        1_000, group_homophily=0.0, extra_sensitive_attrs=2, seed=seed
    ),
    "erdos_renyi_variant": lambda seed: generate_erdos_renyi_graph(
        1_000, group_homophily=4.0, extra_sensitive_attrs=2, seed=seed
    ),
    "sbm_variant": lambda seed: generate_sbm_graph(
        1_000,
        num_communities=3,
        community_mixing=0.5,
        sensitive_mixing=0.0,
        group_homophily=4.0,
        extra_sensitive_attrs=2,
        seed=seed,
    ),
}
KEYS = [f"{config}/seed{seed}" for config in CONFIGS for seed in SEEDS]


def _digest(array: np.ndarray) -> str:
    array = np.ascontiguousarray(array)
    header = f"{array.dtype.str}{array.shape}".encode()
    return hashlib.sha256(header + array.tobytes()).hexdigest()


def fingerprint(graph: Graph) -> dict:
    """Per-array sha256 digests and the scalar ``meta`` of one graph."""
    adjacency = graph.adjacency
    arrays = {
        "features": graph.features,
        "labels": graph.labels,
        "sensitive": graph.sensitive,
        "train_mask": graph.train_mask,
        "val_mask": graph.val_mask,
        "test_mask": graph.test_mask,
        "related_feature_indices": graph.related_feature_indices,
        "adjacency.data": adjacency.data,
        "adjacency.indices": adjacency.indices,
        "adjacency.indptr": adjacency.indptr,
        "signal_columns": graph.meta["signal_columns"],
    }
    for attr, values in graph.meta.get("extra_sensitive", {}).items():
        arrays[f"extra_sensitive.{attr}"] = values
    meta = {
        key: value
        if isinstance(value, (bool, int, float, str))
        else type(value).__name__
        for key, value in graph.meta.items()
    }
    return {
        "arrays": {name: _digest(values) for name, values in arrays.items()},
        "meta": meta,
    }


def _generate(key: str) -> Graph:
    config, seed = key.rsplit("/seed", 1)
    return CONFIGS[config](int(seed))


@pytest.fixture(scope="module")
def golden() -> dict:
    assert GOLDEN_PATH.exists(), (
        f"{GOLDEN_PATH} missing — regenerate with "
        f"`PYTHONPATH=src python tests/{Path(__file__).name}`"
    )
    return json.loads(GOLDEN_PATH.read_text())


def test_every_graph_pinned(golden):
    assert sorted(golden) == sorted(KEYS)


@pytest.mark.parametrize("key", KEYS)
def test_graph_matches_golden(key, golden):
    current = fingerprint(_generate(key))
    pinned = golden[key]
    drifted = sorted(
        name
        for name in set(pinned["arrays"]) | set(current["arrays"])
        if pinned["arrays"].get(name) != current["arrays"].get(name)
    )
    assert not drifted, f"{key}: arrays drifted from the pins: {drifted}"
    assert current["meta"] == pinned["meta"], f"{key}: meta drifted"


if __name__ == "__main__":
    pins = {key: fingerprint(_generate(key)) for key in KEYS}
    GOLDEN_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(pins)} graph fingerprints to {GOLDEN_PATH}")
