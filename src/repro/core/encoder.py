"""Encoder module — pseudo-sensitive attribute generation (Section III-B).

The encoder is pre-trained for node classification (Eq. 4–5) and then used
as a frozen feature extractor (Eq. 6): its low-dimensional output ``X(0)``
becomes the pseudo-sensitive attributes.  Because sensitive attributes shape
both the graph structure and the non-sensitive features (Fig. 3), the
default encoder is a 1-layer GCN so ``X(0)`` captures *both* sources; an MLP
variant ("features only") is provided for comparison.

``binarize_attributes`` turns each continuous pseudo-sensitive dimension into
a two-valued attribute (above/below its quantile) so the counterfactual
search's requirement ``x0_i ≠ x0_j`` is well defined.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.gnnzoo import make_backbone
from repro.nn import MLP, Linear, Module
from repro.tensor import Tensor, no_grad
from repro.training import DEFAULT_FANOUT, fit_minibatch

__all__ = ["EncoderModule", "binarize_attributes"]


def binarize_attributes(values: np.ndarray, quantile: float = 0.5) -> np.ndarray:
    """Binarize each column at its quantile (default: median).

    Returns an int64 0/1 matrix of the same shape.  Constant columns come
    out all-zero (no counterfactual exists for them, and the search reports
    them as uncovered).
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {values.shape}")
    if not 0.0 < quantile < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {quantile}")
    thresholds = np.quantile(values, quantile, axis=0, keepdims=True)
    return (values > thresholds).astype(np.int64)


class _MLPEncoderNet(Module):
    """MLP encoder ignoring the adjacency (features-only variant)."""

    def __init__(self, in_dim: int, encoder_dim: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.body = MLP([in_dim, encoder_dim, encoder_dim], rng)
        self.head = Linear(encoder_dim, 1, rng)

    def embed(self, features: Tensor, adjacency: sp.spmatrix) -> Tensor:
        return self.body(features)

    def forward(self, features: Tensor, adjacency: sp.spmatrix) -> Tensor:
        return self.head(self.embed(features, adjacency)).reshape(-1)


class EncoderModule:
    """Pre-trainable encoder producing pseudo-sensitive attributes.

    Parameters
    ----------
    in_dim:
        Input feature dimensionality.
    encoder_dim:
        Output (pseudo-sensitive attribute) dimensionality — the paper sweeps
        {2, 8, 16, 32} in Fig. 5.
    rng:
        Weight-init generator.
    backbone:
        "gcn" (default; sees structure + features, per Fig. 3), "mlp"
        (features only) or any other :func:`repro.gnnzoo.make_backbone` name.
    """

    def __init__(
        self,
        in_dim: int,
        encoder_dim: int,
        rng: np.random.Generator,
        backbone: str = "gcn",
    ) -> None:
        self.encoder_dim = encoder_dim
        self.backbone_name = backbone.lower()
        if self.backbone_name == "mlp":
            self.network: Module = _MLPEncoderNet(in_dim, encoder_dim, rng)
        else:
            self.network = make_backbone(
                self.backbone_name, in_dim, encoder_dim, rng, num_layers=1
            )
        self.pretrained = False

    def pretrain(
        self,
        features: Tensor,
        adjacency: sp.spmatrix,
        labels: np.ndarray,
        train_mask: np.ndarray,
        val_mask: np.ndarray,
        epochs: int,
        lr: float = 1e-3,
        patience: int | None = 40,
        minibatch: bool = False,
        fanout: int | None = DEFAULT_FANOUT,
        batch_size: int = 512,
        rng: np.random.Generator | None = None,
    ):
        """Optimise Eq. (5): classification loss over the labelled nodes.

        Training runs through :func:`repro.training.fit_minibatch`: with
        ``minibatch=True`` (and a graph backbone) on sampled seed batches
        with a single-hop ``fanout`` — the encoder is always a one-layer
        network — and full-batch otherwise.  The MLP encoder ignores the
        graph, so it always trains full-batch (its memory is already linear
        in N).
        """
        sampled = minibatch and self.backbone_name != "mlp"
        history = fit_minibatch(
            self.network,
            features,
            adjacency,
            labels,
            train_mask,
            val_mask,
            epochs=epochs,
            fanouts=(fanout,),
            batch_size=batch_size if sampled else None,
            lr=lr,
            patience=patience,
            rng=rng,
        )
        self.pretrained = True
        return history

    def extract(self, features: Tensor, adjacency: sp.spmatrix) -> np.ndarray:
        """Eq. (6): frozen forward pass returning ``X(0)`` as numpy."""
        if not self.pretrained:
            raise RuntimeError("call pretrain() before extract()")
        was_training = self.network.training
        self.network.eval()
        with no_grad():
            output = self.network.embed(features, adjacency).data.copy()
        self.network.train(was_training)
        return output
