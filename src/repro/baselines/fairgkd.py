"""FairGKD\\S — partial knowledge distillation (Zhu et al., WSDM 2024).

"The Devil is in the Data" trains *two teachers on partial data* — one sees
only node features (an MLP), one sees only the graph structure (a GNN on
constant features) — and distils their averaged representation into a
student GNN that sees everything.  The intuition: each teacher alone cannot
exploit feature×structure interactions, which is where much of the sensitive
leakage lives, so matching their fused representation debiases the student.

Following the paper's setup, we use the variant without sensitive attributes
(FairGKD\\S): teachers are trained with plain cross-entropy.

Every stage runs on the shared engine, full-batch by default.
``minibatch=True`` samples every stage: both teachers train through
:func:`~repro.training.fit_minibatch` with seed batches (the MLP teacher is
block-capable — it simply reads the seed rows of the input block), the
structure teacher's target is extracted with exact batched inference, and
the student's distillation epochs run on neighbour-sampled batches over all
nodes (cross-entropy on the batch's labelled members, representation
matching on the whole batch).  A covering batch with exhaustive fanout
reproduces the full-batch run to float precision; sampled runs stay within
the usual two points.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import BaselineMethod
from repro.graph import Graph
from repro.graph.sampling import is_block_sequence
from repro.graph.utils import degree_vector
from repro.gnnzoo import make_backbone
from repro.nn import MLP, Linear, Module, binary_cross_entropy_with_logits
from repro.optim import Adam
from repro.tensor import Tensor, no_grad
from repro.tensor import ops
from repro.training import MinibatchEngine, TrainStep, embed_batched, fit_minibatch

__all__ = ["FairGKD"]


class _FeatureTeacher(Module):
    """MLP teacher that ignores the graph structure.

    Block-capable so :func:`~repro.training.fit_minibatch` and the batched
    inference helpers can drive it: on a block chain the "message passing"
    is a no-op and the teacher just reads the seed rows (the first
    ``num_dst`` rows of the input block, per the block convention).
    """

    # Tells the sampled training path that no neighbour is ever read, so it
    # can skip neighbour sampling entirely instead of gathering rows that
    # embed would discard.
    graph_free = True

    def __init__(self, in_dim: int, hidden_dim: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.body = MLP([in_dim, hidden_dim, hidden_dim], rng)
        self.head = Linear(hidden_dim, 1, rng)
        self.num_layers = 1

    def embed(self, features, support):
        if is_block_sequence(support):
            features = ops.gather(features, np.arange(support[-1].num_dst))
        return self.body(features)

    def forward(self, features, support):
        return self.head(self.embed(features, support)).reshape(-1)


class FairGKD(BaselineMethod):
    """Distil a student GNN from feature-only and structure-only teachers.

    Parameters
    ----------
    distill_weight:
        Weight γ of the representation-matching loss.
    teacher_epochs:
        Training epochs per teacher (the expensive part — Fig. 8 shows
        FairGKD as the slowest baseline because of its two extra models).
    """

    name = "FairGKD\\S"

    def __init__(
        self,
        distill_weight: float = 0.5,
        teacher_epochs: int | None = None,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        if distill_weight < 0:
            raise ValueError(f"distill_weight must be non-negative, got {distill_weight}")
        if teacher_epochs is not None and teacher_epochs < 1:
            # Reject rather than letting a falsy 0 fall back to self.epochs.
            raise ValueError(
                f"teacher_epochs must be >= 1 or None, got {teacher_epochs}"
            )
        self.distill_weight = distill_weight
        self.teacher_epochs = teacher_epochs

    # ------------------------------------------------------------------ #
    def _train_logits(self, graph: Graph, rng: np.random.Generator):
        teacher_epochs = (
            self.epochs if self.teacher_epochs is None else self.teacher_epochs
        )
        features = Tensor(graph.features)
        # Validate the whole sampling configuration before any work:
        # teacher training is the dominant cost, so a fanouts/num_layers
        # mismatch must not surface only when the student starts.
        fanouts, batch_size = self._sampling_config()
        if fanouts is not None and len(fanouts) != self.num_layers:
            raise ValueError(
                f"fanouts has {len(fanouts)} entries but the backbone "
                f"has {self.num_layers} layers"
            )
        # Drawn in *both* modes so weight initialisation consumes the same
        # stream regardless of `minibatch` — a covering sampled run then
        # starts from identical teacher/student weights.
        train_rng = np.random.default_rng(int(rng.integers(2**63)))

        # Teacher A: features only.
        teacher_a = _FeatureTeacher(graph.num_features, self.hidden_dim, rng)
        self._fit_teacher(teacher_a, features, graph, teacher_epochs, train_rng)

        # Teacher B: structure only — constant + normalised-degree features.
        degrees = degree_vector(graph.adjacency)
        scale = degrees.max() if degrees.max() > 0 else 1.0
        structure_feats = Tensor(
            np.stack([np.ones(graph.num_nodes), degrees / scale], axis=1)
        )
        teacher_b = make_backbone(
            self.backbone, 2, self.hidden_dim, rng, num_layers=self.num_layers
        )
        self._fit_teacher(teacher_b, structure_feats, graph, teacher_epochs, train_rng)

        # Fused teacher target: average of the two representations.
        with no_grad():
            rep_a = teacher_a.embed(features, graph.adjacency).data
        rep_b = embed_batched(
            teacher_b, structure_feats, graph.adjacency, batch_size=batch_size
        )
        target = 0.5 * (rep_a + rep_b)

        # Student: full-input GNN with CE + representation distillation
        # through a learnable projection (aligns the student's and teachers'
        # representation spaces, as in the original method).
        student = make_backbone(
            self.backbone, graph.num_features, self.hidden_dim, rng,
            num_layers=self.num_layers,
        )
        projection = Linear(self.hidden_dim, self.hidden_dim, rng)
        engine = MinibatchEngine(
            student,
            graph.features,
            graph.adjacency,
            fanouts=fanouts,
            batch_size=batch_size,
            optimizer=Adam(
                student.parameters() + projection.parameters(), lr=self.lr
            ),
        )
        train_mask = np.asarray(graph.train_mask, dtype=bool)
        val_indices = np.where(graph.val_mask)[0]

        def loss_fn(step: TrainStep) -> Tensor:
            batch, h = step.batch, step.output
            logits = student.head(h).reshape(-1)
            batch_train = train_mask[batch]
            if batch_train.any():
                ce = binary_cross_entropy_with_logits(
                    logits[batch_train],
                    graph.labels[batch[batch_train]].astype(np.float64),
                )
            else:
                ce = Tensor(np.zeros(()))
            distill = ops.mean(
                ops.squared_distance(projection(h), Tensor(target[batch]))
            )
            return ops.add(ce, ops.mul(distill, self.distill_weight))

        engine.run(
            np.arange(graph.num_nodes, dtype=np.int64),
            self.epochs,
            loss_fn,
            train_rng,
            val_nodes=val_indices,
            val_labels=graph.labels[val_indices],
            checkpoint="best",
            patience=self.patience,
            forward="embed",
            # Sorted batches keep the within-batch summation order
            # deterministic; epoch randomness lives in the composition.
            sort_batches=True,
        )
        # The projection only aligns representations in training; scoring
        # needs the student alone.
        self.model_ = student
        return engine.predict(), {"teacher_epochs": teacher_epochs}

    # ------------------------------------------------------------------ #
    def _fit_teacher(
        self, teacher, teacher_features, graph: Graph, epochs: int,
        train_rng: np.random.Generator,
    ) -> None:
        fanouts, batch_size = self._sampling_config()
        if getattr(teacher, "graph_free", False):
            # The MLP teacher never reads a neighbour row: a fanout of 1
            # keeps the block machinery happy at near-zero sampling cost
            # (and its output is neighbour-independent either way).
            fanouts = (1,) * teacher.num_layers
        fit_minibatch(
            teacher, teacher_features, graph.adjacency, graph.labels,
            graph.train_mask, graph.val_mask,
            epochs=epochs, fanouts=fanouts, batch_size=batch_size,
            lr=self.lr, patience=self.patience, rng=train_rng,
        )
