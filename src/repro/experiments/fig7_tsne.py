"""Fig. 7 — t-SNE visualisation of the pseudo-sensitive attributes (RQ5).

Trains Fairwos, extracts the pseudo-sensitive attributes of the *test*
nodes (matching the paper's assumption that sensitive attributes are
accessible only at test time), embeds them with t-SNE and quantifies how
much the 2-D embedding separates the true sensitive groups.

Separation is measured two ways:

* silhouette-style score of the embedding under the sensitive grouping, and
* a 1-nearest-neighbour "leakage" accuracy (how well s is predictable from
  the embedding) vs the majority-group base rate.

The paper's qualitative claim is "some separation between clusters" — i.e.
leakage above base rate but far from perfect.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis import tsne
from repro.core import FairwosTrainer
from repro.datasets import load_dataset
from repro.experiments.methods import fairwos_recipe
from repro.experiments.scale import Scale

__all__ = ["Fig7Result", "run_fig7", "format_fig7", "knn_leakage", "silhouette"]


def silhouette(points: np.ndarray, groups: np.ndarray) -> float:
    """Mean silhouette coefficient of a 2-group labelling (exact, O(N²))."""
    points = np.asarray(points, dtype=np.float64)
    groups = np.asarray(groups)
    unique = np.unique(groups)
    if unique.size < 2:
        raise ValueError("silhouette needs at least two groups")
    norms = (points**2).sum(axis=1)
    distances = np.sqrt(
        np.maximum(norms[:, None] + norms[None, :] - 2.0 * points @ points.T, 0.0)
    )
    scores = np.zeros(len(points))
    for i in range(len(points)):
        same = groups == groups[i]
        same[i] = False
        if not same.any():
            continue
        a = distances[i][same].mean()
        b = min(
            distances[i][groups == g].mean() for g in unique if g != groups[i]
        )
        scores[i] = (b - a) / max(a, b) if max(a, b) > 0 else 0.0
    return float(scores.mean())


def knn_leakage(points: np.ndarray, groups: np.ndarray) -> float:
    """1-NN accuracy of predicting the group from the embedding."""
    points = np.asarray(points, dtype=np.float64)
    groups = np.asarray(groups)
    norms = (points**2).sum(axis=1)
    distances = norms[:, None] + norms[None, :] - 2.0 * points @ points.T
    np.fill_diagonal(distances, np.inf)
    nearest = distances.argmin(axis=1)
    return float((groups[nearest] == groups).mean())


@dataclass
class Fig7Result:
    """t-SNE coordinates + separation scores for one dataset."""

    dataset: str
    embedding: np.ndarray
    sensitive: np.ndarray
    silhouette_score: float
    leakage: float
    base_rate: float


def run_fig7(
    dataset: str = "nba",
    seed: int = 0,
    scale: Scale | None = None,
    tsne_iterations: int = 300,
) -> Fig7Result:
    """Train Fairwos and embed the test nodes' pseudo-sensitive attributes."""
    scale = scale or Scale.quick()
    graph = load_dataset(dataset, seed=seed)
    config = fairwos_recipe(
        graph.name, "gcn", scale.epochs, scale.finetune_epochs, scale.patience
    )
    fit = FairwosTrainer(config).fit(graph, seed=seed)
    test_attrs = fit.pseudo_attributes[graph.test_mask]
    test_sensitive = graph.sensitive[graph.test_mask]
    rng = np.random.default_rng(seed)
    embedding = tsne(test_attrs, rng, iterations=tsne_iterations)
    majority = max(test_sensitive.mean(), 1.0 - test_sensitive.mean())
    return Fig7Result(
        dataset=dataset,
        embedding=embedding,
        sensitive=test_sensitive,
        silhouette_score=silhouette(embedding, test_sensitive),
        leakage=knn_leakage(embedding, test_sensitive),
        base_rate=float(majority),
    )


def format_fig7(result: Fig7Result) -> str:
    """Summarise the visualisation with its separation statistics."""
    return (
        f"Fig. 7 ({result.dataset}): t-SNE of pseudo-sensitive attributes, "
        f"{len(result.embedding)} test nodes\n"
        f"  group separation: silhouette {result.silhouette_score:+.3f}, "
        f"1-NN leakage {100 * result.leakage:.1f}% "
        f"(majority base rate {100 * result.base_rate:.1f}%)\n"
        "  expectation: leakage above base rate — pseudo-sensitive "
        "attributes capture aspects of the hidden sensitive attribute"
    )
