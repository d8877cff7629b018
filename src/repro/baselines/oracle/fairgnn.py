"""FairGNN — adversarial debiasing with sensitive attributes (oracle).

Dai & Wang (TKDE 2023): alternate between

1. an **adversary** (linear probe) trained to predict the sensitive
   attribute from the classifier's representation, and
2. the **classifier**, trained to both classify well and *fool* the
   adversary (maximise the adversary's loss), plus a covariance penalty
   between the adversary's score and the prediction.

The original also handles *limited* sensitive labels with an estimator; this
oracle variant uses the full sensitive vector directly.  Training runs
full-batch on the shared engine, with the adversary steps as its epoch-start
callback.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import BaselineMethod
from repro.graph import Graph
from repro.gnnzoo import make_backbone
from repro.nn import Linear, binary_cross_entropy_with_logits
from repro.optim import Adam
from repro.tensor import Tensor, no_grad
from repro.tensor import ops
from repro.training import MinibatchEngine, TrainStep

__all__ = ["FairGNN"]


class FairGNN(BaselineMethod):
    """Alternating adversarial training against a sensitive-attribute probe.

    Parameters
    ----------
    adversary_weight:
        Weight of the fooling term in the classifier objective.
    covariance_weight:
        Weight of the |cov(adversary score, prediction)| penalty.
    adversary_steps:
        Adversary updates per classifier update.
    """

    name = "FairGNN (oracle)"
    supports_minibatch = False

    def __init__(
        self,
        adversary_weight: float = 0.5,
        covariance_weight: float = 2.0,
        adversary_steps: int = 2,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        if adversary_weight < 0 or covariance_weight < 0:
            raise ValueError("adversarial weights must be non-negative")
        if adversary_steps < 1:
            raise ValueError(f"adversary_steps must be >= 1, got {adversary_steps}")
        self.adversary_weight = adversary_weight
        self.covariance_weight = covariance_weight
        self.adversary_steps = adversary_steps

    # ------------------------------------------------------------------ #
    def _train_logits(self, graph: Graph, rng: np.random.Generator):
        model = make_backbone(
            self.backbone, graph.num_features, self.hidden_dim, rng,
            num_layers=self.num_layers,
        )
        adversary = Linear(self.hidden_dim, 1, rng)
        features = Tensor(graph.features)
        sensitive = graph.sensitive.astype(np.float64)
        engine = MinibatchEngine(
            model, features, graph.adjacency, batch_size=None, lr=self.lr
        )
        adv_opt = Adam(adversary.parameters(), lr=self.lr * 3)
        val_idx = np.where(graph.val_mask)[0]

        def adversary_steps(epoch: int) -> None:
            # Predict s from detached embeddings.
            with no_grad():
                h_detached = model.embed(features, graph.adjacency).data
            for _ in range(self.adversary_steps):
                adv_opt.zero_grad()
                adv_logits = adversary(Tensor(h_detached)).reshape(-1)
                adv_loss = binary_cross_entropy_with_logits(adv_logits, sensitive)
                adv_loss.backward()
                adv_opt.step()

        def loss_fn(step: TrainStep) -> Tensor:
            # Classifier step: classify well + fool the adversary.  Only the
            # classifier moves here; the adversary has its own step.
            h = step.output
            logits = model.head(h).reshape(-1)
            ce = binary_cross_entropy_with_logits(
                logits[step.batch], graph.labels[step.batch].astype(np.float64)
            )
            adv_logits = adversary(h).reshape(-1)
            # Confusion loss: drive the adversary's posterior to 0.5 —
            # bounded, unlike naively maximising the adversary's BCE.
            fool = binary_cross_entropy_with_logits(
                adv_logits, np.full_like(sensitive, 0.5)
            )
            # Covariance penalty |cov(σ(adv), σ(ŷ))|.
            adv_score = ops.sigmoid(adv_logits)
            prediction = ops.sigmoid(logits)
            cov = ops.mean(
                ops.mul(
                    ops.sub(adv_score, ops.mean(adv_score)),
                    ops.sub(prediction, ops.mean(prediction)),
                )
            )
            return ops.add(
                ops.add(ce, ops.mul(fool, self.adversary_weight)),
                ops.mul(ops.absolute(cov), self.covariance_weight),
            )

        engine.run(
            np.where(graph.train_mask)[0],
            self.epochs,
            loss_fn,
            val_nodes=val_idx,
            val_labels=graph.labels[val_idx],
            patience=self.patience,
            forward="embed",
            on_epoch_start=adversary_steps,
        )
        return engine.predict(), {"uses_sensitive": True}
