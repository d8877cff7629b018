"""Link prediction — the second task kind of the scenario matrix.

Reuses the existing stack end to end: a :mod:`repro.gnnzoo` backbone embeds
nodes, edges are scored by the inner product of their endpoint embeddings,
and training runs through :class:`~repro.training.engine.MinibatchEngine`'s
closure hooks — the iterated "nodes" are *edge ids*, a ``seed_fn`` expands
each edge batch into its (sorted, unique) endpoint node set, and the loss
closure gathers endpoint rows from the ``forward="embed"`` output.

Fairness is dyadic: an edge is *intra-group* when its endpoints share the
sensitive attribute and *cross-group* otherwise, so ΔSP is the gap in
predicted-link rates between intra and cross edges (a link predictor that
reinforces homophily scores intra edges systematically higher) and ΔEO the
same gap restricted to true edges.  The existing
:func:`~repro.fairness.evaluation.evaluate_predictions` applies verbatim
with edges in place of nodes.

Every Table-II method has a link-prediction variant under the same
no-sensitive-attribute-at-training contract as :mod:`repro.baselines`:
``vanilla`` (plain BCE), ``remover`` (proxy columns dropped), ``ksmote``
(k-means pseudo-groups; minority-dyad positive edges oversampled),
``fairrf`` (squared intra/cross mean-score gap over *proxy* dyads),
``fairgkd`` (distillation toward a feature-only cosine teacher) and
``fairwos`` (counterfactual twins from
:class:`~repro.core.counterfactual.CounterfactualSearch`; each edge's score
is pulled toward its twin edge's score).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.analysis import kmeans
from repro.baselines.base import MethodResult
from repro.core import ExecutionConfig
from repro.core.counterfactual import CounterfactualSearch
from repro.experiments.methods import METHOD_ORDER, display_name
from repro.fairness import evaluate_predictions
from repro.gnnzoo import make_backbone
from repro.graph import Graph
from repro.nn import binary_cross_entropy_with_logits, mse_loss
from repro.tensor import dtype_scope, ops
from repro.training import MinibatchEngine, embed_batched

__all__ = [
    "EdgeSet",
    "LinkSplit",
    "make_link_split",
    "edge_dyad_groups",
    "run_linkpred_method",
]


@dataclass(frozen=True)
class EdgeSet:
    """Aligned arrays of candidate edges: endpoints and 0/1 existence labels."""

    src: np.ndarray
    dst: np.ndarray
    labels: np.ndarray

    @property
    def num_edges(self) -> int:
        return int(self.src.size)


@dataclass(frozen=True)
class LinkSplit:
    """Train/val/test edge sets plus the leakage-free training graph.

    ``train_adjacency`` contains only the train positive edges — message
    passing during training and scoring never sees a held-out edge.
    """

    train_adjacency: sp.csr_matrix
    train: EdgeSet
    val: EdgeSet
    test: EdgeSet


def edge_dyad_groups(sensitive: np.ndarray, edges: EdgeSet) -> np.ndarray:
    """1 for intra-group (same-sensitive endpoints) edges, 0 for cross."""
    sensitive = np.asarray(sensitive)
    return (sensitive[edges.src] == sensitive[edges.dst]).astype(np.int64)


def _sample_negative_keys(
    num: int,
    positive_keys: np.ndarray,
    num_nodes: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """``num`` unique canonical non-edge keys (``lo * n + hi``, lo < hi)."""
    collected = np.empty(0, dtype=np.int64)
    while collected.size < num:
        draw = int((num - collected.size) * 1.5) + 8
        a = rng.integers(num_nodes, size=draw)
        b = rng.integers(num_nodes, size=draw)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        keys = lo.astype(np.int64) * num_nodes + hi
        keys = keys[lo != hi]
        pos = np.searchsorted(positive_keys, keys)
        pos = np.clip(pos, 0, positive_keys.size - 1)
        keys = keys[positive_keys[pos] != keys]
        collected = np.unique(np.concatenate([collected, keys]))
    return collected[rng.permutation(collected.size)][:num]


def make_link_split(
    graph: Graph,
    seed: int = 0,
    val_fraction: float = 0.15,
    test_fraction: float = 0.15,
) -> LinkSplit:
    """Split ``graph``'s edges into train/val/test with matched negatives.

    Undirected edges are shuffled and partitioned; each partition is paired
    with an equal number of uniformly sampled non-edges (sampled against
    the *full* edge set, so a negative is a true non-edge everywhere).  The
    returned training adjacency keeps only train positives.
    """
    if not 0 < val_fraction + test_fraction < 1:
        raise ValueError(
            f"val_fraction + test_fraction must be in (0, 1), got "
            f"{val_fraction + test_fraction}"
        )
    rng = np.random.default_rng(seed)
    coo = graph.adjacency.tocoo()
    upper = coo.row < coo.col
    lo = coo.row[upper].astype(np.int64)
    hi = coo.col[upper].astype(np.int64)
    num_edges = lo.size
    if num_edges < 10:
        raise ValueError(f"need at least 10 undirected edges, got {num_edges}")
    n = graph.num_nodes
    positive_keys = np.sort(lo * n + hi)

    order = rng.permutation(num_edges)
    n_val = max(1, int(round(val_fraction * num_edges)))
    n_test = max(1, int(round(test_fraction * num_edges)))
    test_ids = order[:n_test]
    val_ids = order[n_test : n_test + n_val]
    train_ids = order[n_test + n_val :]

    def build(ids: np.ndarray) -> EdgeSet:
        neg = _sample_negative_keys(ids.size, positive_keys, n, rng)
        src = np.concatenate([lo[ids], neg // n])
        dst = np.concatenate([hi[ids], neg % n])
        labels = np.concatenate(
            [np.ones(ids.size, dtype=np.int64), np.zeros(neg.size, dtype=np.int64)]
        )
        return EdgeSet(src=src, dst=dst, labels=labels)

    train, val, test = build(train_ids), build(val_ids), build(test_ids)
    rows = np.concatenate([lo[train_ids], hi[train_ids]])
    cols = np.concatenate([hi[train_ids], lo[train_ids]])
    train_adjacency = sp.csr_matrix(
        (np.ones(rows.size), (rows, cols)), shape=(n, n)
    )
    return LinkSplit(
        train_adjacency=train_adjacency, train=train, val=val, test=test
    )


def _proxy_column(graph: Graph, features: np.ndarray) -> np.ndarray:
    """Binary per-node proxy group from the strongest related feature.

    The no-sensitive-attribute training contract: fairness terms may only
    see *related features* (the FairRF assumption), never ``graph.sensitive``.
    Falls back to the first column when the graph declares no related set.
    """
    if graph.related_feature_indices.size:
        column = features[:, int(graph.related_feature_indices[0])]
    else:
        column = features[:, 0]
    return (column > np.median(column)).astype(np.int64)


def _edge_scores(embeddings: np.ndarray, edges: EdgeSet) -> np.ndarray:
    return (embeddings[edges.src] * embeddings[edges.dst]).sum(axis=1)


def run_linkpred_method(
    method: str,
    graph: Graph,
    backbone: str = "gcn",
    seed: int = 0,
    epochs: int = 100,
    execution: ExecutionConfig | None = None,
    hidden_dim: int = 16,
    lr: float = 1e-3,
    fairness_weight: float = 1.0,
    split: LinkSplit | None = None,
) -> MethodResult:
    """Train one method's link-prediction variant and evaluate it.

    The link-prediction counterpart of
    :func:`repro.experiments.methods.run_method`: same method keys, same
    :class:`~repro.baselines.base.MethodResult` shape, but the evaluation
    triple is dyadic (see the module docstring).  The edge split derives
    deterministically from ``(graph, seed)`` unless ``split`` is supplied.

    Parameters
    ----------
    method:
        One of the six Table-II method keys.
    graph:
        Dataset; its sensitive attribute is used only for evaluation.
    backbone, seed, epochs, execution:
        As in ``run_method`` (``execution`` supplies fanouts / batch size /
        dtype; sampled defaults otherwise).
    hidden_dim, lr:
        Embedding recipe (paper defaults).
    fairness_weight:
        Weight of the method-specific fairness term (fairrf / fairgkd /
        fairwos).
    split:
        Optional pre-built edge split shared across methods of one cell.
    """
    key = method.lower()
    if key not in METHOD_ORDER:
        raise ValueError(f"unknown method {method!r}; choose from {METHOD_ORDER}")
    if execution is None:
        execution = ExecutionConfig()
    execution.validate()
    if split is None:
        split = make_link_split(graph, seed=seed)

    start = time.perf_counter()
    with dtype_scope(execution.dtype):
        features = graph.features
        extra: dict = {}
        if key == "remover" and graph.related_feature_indices.size:
            keep = np.setdiff1d(
                np.arange(graph.num_features), graph.related_feature_indices
            )
            features = features[:, keep]
            extra["removed_columns"] = int(graph.related_feature_indices.size)

        rng = np.random.default_rng(seed)
        num_layers = len(execution.fanouts) if execution.fanouts else 1
        model = make_backbone(
            backbone, features.shape[1], hidden_dim, rng, num_layers=num_layers
        )

        src = split.train.src.copy()
        dst = split.train.dst.copy()
        labels = split.train.labels.copy()
        if key == "ksmote":
            # Pseudo-group dyads from k-means clusters; duplicate the
            # minority dyad's *positive* edges so training sees balanced
            # intra/cross link evidence (the class-balancing idea of KSMOTE
            # carried to edges).
            clusters, _, _ = kmeans(features, 4, rng)
            dyad = (clusters[src] == clusters[dst]) & (labels == 1)
            cross = (~(clusters[src] == clusters[dst])) & (labels == 1)
            minority = dyad if dyad.sum() < cross.sum() else cross
            deficit = int(abs(int(dyad.sum()) - int(cross.sum())))
            if minority.any() and deficit:
                picks = rng.choice(np.flatnonzero(minority), size=deficit)
                src = np.concatenate([src, src[picks]])
                dst = np.concatenate([dst, dst[picks]])
                labels = np.concatenate([labels, labels[picks]])
                extra["oversampled_edges"] = deficit

        proxy = _proxy_column(graph, features) if key == "fairrf" else None
        teacher = None
        if key == "fairgkd":
            # Feature-only cosine teacher: no structure, so its scores carry
            # none of the homophily amplified by message passing.
            norms = np.linalg.norm(features, axis=1, keepdims=True)
            unit = features / np.maximum(norms, 1e-12)
            teacher = 4.0 * (unit[src] * unit[dst]).sum(axis=1)

        twin = None
        if key == "fairwos":
            attrs = _proxy_column(graph, features)[:, None]
            search = CounterfactualSearch(top_k=1, backend=execution.cf_backend)
            index = search.search(
                features, np.zeros(graph.num_nodes, dtype=np.int64), attrs
            )
            twin = index.indices[0, :, 0]
            extra["counterfactual_coverage"] = float(index.valid.mean())

        float_labels = labels.astype(np.float64)

        def seed_fn(batch: np.ndarray, _rng: np.random.Generator):
            endpoints = [src[batch], dst[batch]]
            if twin is not None:
                endpoints += [twin[src[batch]], twin[dst[batch]]]
            return np.unique(np.concatenate(endpoints)), None

        def loss_fn(step):
            emb = step.output
            u = ops.gather(emb, step.local_index(src[step.batch]))
            v = ops.gather(emb, step.local_index(dst[step.batch]))
            score = (u * v).sum(axis=1)
            loss = binary_cross_entropy_with_logits(score, float_labels[step.batch])
            if proxy is not None:
                same = proxy[src[step.batch]] == proxy[dst[step.batch]]
                if same.any() and (~same).any():
                    gap = (
                        ops.gather(score, np.flatnonzero(same)).mean()
                        - ops.gather(score, np.flatnonzero(~same)).mean()
                    )
                    loss = loss + fairness_weight * gap * gap
            if teacher is not None:
                loss = loss + fairness_weight * mse_loss(
                    score, teacher[step.batch]
                )
            if twin is not None:
                tu = ops.gather(emb, step.local_index(twin[src[step.batch]]))
                tv = ops.gather(emb, step.local_index(twin[dst[step.batch]]))
                twin_score = (tu * tv).sum(axis=1)
                loss = loss + fairness_weight * mse_loss(score, twin_score.detach())
            return loss

        engine = MinibatchEngine(
            model,
            features,
            split.train_adjacency,
            fanouts=execution.fanouts,
            batch_size=execution.batch_size,
            num_layers=num_layers,
            lr=lr,
        )
        val_nodes = np.flatnonzero(graph.val_mask)
        # The engine's validation pass scores *node* logits — a proxy metric
        # for LP, so run in "floor" mode with the floor disabled: fixed
        # epoch budget, final state kept, no node-metric model selection.
        engine.run(
            np.arange(src.size, dtype=np.int64),
            epochs,
            loss_fn,
            rng,
            val_nodes=val_nodes,
            val_labels=graph.labels[val_nodes],
            checkpoint="floor",
            val_tolerance=None,
            forward="embed",
            seed_fn=seed_fn,
        )
        embeddings = embed_batched(model, features, split.train_adjacency)
    seconds = time.perf_counter() - start

    test_eval = evaluate_predictions(
        _edge_scores(embeddings, split.test),
        split.test.labels,
        edge_dyad_groups(graph.sensitive, split.test),
    )
    val_eval = evaluate_predictions(
        _edge_scores(embeddings, split.val),
        split.val.labels,
        edge_dyad_groups(graph.sensitive, split.val),
    )
    return MethodResult(
        method=display_name(key),
        test=test_eval,
        validation=val_eval,
        seconds=seconds,
        extra=extra,
    )
