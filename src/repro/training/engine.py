"""Unified neighbour-sampled training engine.

Before this module, four training loops re-implemented the same sampled
skeleton — :func:`~repro.training.minibatch.fit_minibatch`, the Fairwos
fine-tune, FairRF's sampled epochs and FairGKD's distillation epochs each
carried their own copy of batch iteration, neighbour sampling, validation,
best-model/val-floor checkpointing and early stopping.
:class:`MinibatchEngine` owns that skeleton once:

* **batch iteration over an arbitrary node set** — the training nodes
  (plain supervised fitting) or *all* nodes (methods whose fairness terms
  are evaluated on unlabelled nodes too), optionally sorted per batch for
  deterministic within-batch summation;
* **seed extension** — a per-batch hook that grows the sampled seed set
  beyond the iterated batch (Fairwos adds each batch's counterfactual
  targets so the fair loss reaches both sides of every pair);
* **per-step loss closures** — the method provides a callable from a
  :class:`TrainStep` (batch, seeds, blocks, model output) to a loss
  ``Tensor``; the engine handles zero_grad/forward/backward/step;
* **per-epoch callbacks** — ``on_epoch_start`` (λ refreshes,
  counterfactual-index rebuilds, cache invalidation) and ``on_epoch_end``
  (closed-form weight updates, history logging);
* **the checkpoint contract** — ``checkpoint="best"`` restores the
  best-validation-accuracy state with optional patience (the
  :func:`~repro.training.loop.fit_binary_classifier` recipe), and
  ``checkpoint="floor"`` aborts when validation accuracy falls more than
  ``val_tolerance`` below its pre-training level, restoring the last state
  above the floor (the Fairwos fine-tune recipe);
* **a per-fit eval-block cache** — the exact validation pass folds full
  (un-sampled) neighbourhoods that depend only on the fixed graph and val
  split, so their block chains are built once per :meth:`MinibatchEngine.run`
  and replayed every epoch (bit-identical metrics, the per-epoch sampling
  constant gone);
* **epoch-cached sampling** — with ``cache_epochs=R`` the engine records
  one epoch's batches/seeds/blocks through
  :class:`~repro.graph.sampling.EpochBlockCache` and replays them for the
  next ``R - 1`` epochs, eliminating the per-batch numpy sampling overhead
  that dominates sampled-epoch wall-time (see the cache's RNG-stream
  contract; the default ``R=1`` is bit-identical to uncached training).

The module also hosts the shared batched-inference helpers
(:func:`predict_logits_batched`, :func:`embed_batched`) and
:func:`iter_minibatches`; :mod:`repro.training.minibatch` re-exports them
and builds :func:`~repro.training.minibatch.fit_minibatch` on the engine.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

import numpy as np
import scipy.sparse as sp

from repro.fairness.metrics import accuracy
from repro.graph.sampling import Block, EpochBlockCache, NeighborSampler
from repro.nn.module import Module
from repro.optim import Adam
from repro.tensor import Tensor, get_default_dtype, no_grad
from repro.training.loop import FitHistory

__all__ = [
    "DEFAULT_FANOUT",
    "MinibatchEngine",
    "TrainStep",
    "embed_batched",
    "iter_minibatches",
    "predict_logits_batched",
]

# Per-layer neighbour fanout used whenever the caller does not specify one
# (shared by the engine, fit_minibatch, FairwosConfig and the CLI display).
DEFAULT_FANOUT = 10


def iter_minibatches(
    indices: np.ndarray,
    batch_size: int,
    rng: np.random.Generator | None = None,
) -> Iterator[np.ndarray]:
    """Yield ``indices`` in batches of ``batch_size`` (shuffled when ``rng``)."""
    indices = np.asarray(indices, dtype=np.int64).reshape(-1)
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if rng is not None:
        indices = rng.permutation(indices)
    for start in range(0, indices.size, batch_size):
        yield indices[start : start + batch_size]


def _as_feature_array(features) -> np.ndarray:
    """Accept a numpy array or constant Tensor of node features.

    Floating arrays pass through untouched — crucially this keeps
    memory-mapped float32 feature matrices on disk instead of materialising
    an in-RAM float64 copy; each batch's gathered rows are cast to the
    active default dtype when wrapped in a :class:`Tensor`.  Non-float
    inputs (e.g. integer one-hots) are promoted to float64 once.
    """
    if isinstance(features, Tensor):
        return features.data
    features = np.asarray(features)
    if not np.issubdtype(features.dtype, np.floating):
        features = features.astype(np.float64)
    return features


def _resolve_num_layers(model: Module, num_layers: int | None) -> int:
    layers = num_layers if num_layers is not None else getattr(model, "num_layers", None)
    if layers is None:
        raise ValueError(
            "model exposes no num_layers attribute; pass num_layers explicitly"
        )
    return int(layers)


def predict_logits_batched(
    model: Module,
    features,
    adjacency: sp.spmatrix,
    nodes: np.ndarray | None = None,
    batch_size: int = 1024,
    num_layers: int | None = None,
    sampler: NeighborSampler | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Inference-mode logits computed one seed batch at a time.

    By default each batch folds its exact L-hop neighbourhood (fanout
    ``None``), so the result matches full-batch ``predict_logits`` while
    keeping memory bounded by the batch's receptive field.  Pass a custom
    ``sampler`` to trade exactness for speed on very dense graphs.

    Parameters
    ----------
    model:
        A block-capable model (``model(features, blocks) -> logits``).
    features:
        ``(N, F)`` numpy array or Tensor of all node features.
    adjacency:
        Full-graph CSR adjacency.
    nodes:
        Seed node ids to score (default: all nodes, in order).
    batch_size:
        Seeds per inference batch.
    num_layers:
        Number of message-passing layers (default: ``model.num_layers``).
    sampler:
        Optional pre-built sampler overriding the exact full-neighbourhood
        default (its ``num_layers`` must match the model).
    rng:
        Only needed when ``sampler`` actually samples.
    """
    feature_array = _as_feature_array(features)
    if sampler is None:
        sampler = NeighborSampler.full_neighborhood(
            adjacency, _resolve_num_layers(model, num_layers)
        )
    if nodes is None:
        nodes = np.arange(sampler.num_nodes)
    nodes = np.asarray(nodes, dtype=np.int64).reshape(-1)
    if rng is None:
        # Fresh entropy: a custom *sampling* sampler without an explicit rng
        # must not silently return identical draws on every call.  The exact
        # full-neighbourhood default never consumes the generator.
        rng = np.random.default_rng()

    logits = np.empty(nodes.size, dtype=get_default_dtype())
    was_training = model.training
    model.eval()
    with no_grad():
        filled = 0
        for batch in iter_minibatches(nodes, batch_size):
            blocks = sampler.sample_blocks(batch, rng)
            batch_features = Tensor(feature_array[blocks[0].src_nodes])
            logits[filled : filled + batch.size] = model(batch_features, blocks).data
            filled += batch.size
    model.train(was_training)
    return logits


def embed_batched(
    model: Module,
    features,
    adjacency: sp.spmatrix,
    nodes: np.ndarray | None = None,
    batch_size: int = 1024,
    num_layers: int | None = None,
    sampler: NeighborSampler | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Inference-mode node representations, one seed batch at a time.

    The representation-space analogue of :func:`predict_logits_batched`:
    folds each batch's exact L-hop neighbourhood through ``model.embed_blocks``
    so the output matches full-batch ``model.embed`` while only one batch's
    computation graph is live.  Used by the sampled fine-tune phase to
    refresh the counterfactual index without a full-graph forward pass.

    Returns an ``(len(nodes), hidden)`` array in the active default dtype.
    """
    feature_array = _as_feature_array(features)
    if sampler is None:
        sampler = NeighborSampler.full_neighborhood(
            adjacency, _resolve_num_layers(model, num_layers)
        )
    if nodes is None:
        nodes = np.arange(sampler.num_nodes)
    nodes = np.asarray(nodes, dtype=np.int64).reshape(-1)
    if nodes.size == 0:
        # The embedding width is unknown without a forward pass, so an
        # empty request has no well-defined result shape.
        raise ValueError("nodes must be non-empty")
    if rng is None:
        # Matches predict_logits_batched: the exact full-neighbourhood
        # default never consumes the generator; a custom sampling sampler
        # without an explicit rng must not repeat identical draws.
        rng = np.random.default_rng()

    out: np.ndarray | None = None
    was_training = model.training
    model.eval()
    with no_grad():
        filled = 0
        for batch in iter_minibatches(nodes, batch_size):
            blocks = sampler.sample_blocks(batch, rng)
            batch_features = Tensor(feature_array[blocks[0].src_nodes])
            h = model.embed_blocks(batch_features, blocks).data
            if out is None:
                out = np.empty((nodes.size, h.shape[1]), dtype=h.dtype)
            out[filled : filled + batch.size] = h
            filled += batch.size
    model.train(was_training)
    return out


@dataclass
class TrainStep:
    """Everything one optimisation step exposes to a loss closure.

    ``output`` is the model's forward result over the step's block chain —
    per-seed logits in ``forward="logits"`` mode, per-seed representations
    in ``forward="embed"`` mode; its rows correspond to ``seeds`` in order.
    ``batch`` is the iterated node batch; ``seeds`` equals ``batch`` unless
    a ``seed_fn`` extended it; ``payload`` carries whatever the ``seed_fn``
    returned alongside (e.g. a sampled attribute subset).
    """

    epoch: int
    batch: np.ndarray
    seeds: np.ndarray
    blocks: list[Block]
    output: Tensor
    payload: Any = None

    def local_index(self, nodes: np.ndarray) -> np.ndarray:
        """Positions of global ``nodes`` within ``seeds``.

        Valid when ``seeds`` is sorted — always true with a seed extension
        (extensions are built with ``np.unique``) or ``sort_batches=True``.
        """
        return np.searchsorted(self.seeds, nodes)


class MinibatchEngine:
    """Shared skeleton for neighbour-sampled training loops.

    Parameters
    ----------
    model:
        Block-capable model (any :class:`~repro.gnnzoo.base.GNNBackbone`).
    features:
        ``(N, F)`` numpy array or Tensor; rows are gathered per batch.
    adjacency:
        Full-graph CSR adjacency.
    fanouts:
        Per-layer neighbour fanouts, input layer first (default:
        ``DEFAULT_FANOUT`` per model layer).  Entries may be ``None`` to
        keep full neighbourhoods.
    batch_size:
        Seed nodes per training step.
    num_layers:
        Message-passing depth (default: ``model.num_layers``).
    replace:
        Sample neighbours with replacement.
    cache_epochs:
        Epoch-level sampling cache window (see
        :class:`~repro.graph.sampling.EpochBlockCache`): sampled structure
        is refreshed every ``cache_epochs`` epochs and replayed in between.
        The default ``1`` samples freshly every epoch (bit-identical to the
        pre-engine loops).
    optimizer:
        Optimiser instance driving the parameter updates (default:
        ``Adam(model.parameters(), lr, weight_decay)``).  Pass one
        explicitly when extra modules train jointly (FairGKD's projection).
    lr, weight_decay:
        Used only to build the default optimiser.
    eval_batch_size:
        Batch size for the exact validation/prediction passes (default:
        ``batch_size``).

    Examples
    --------
    A method registers a loss closure and (optionally) epoch callbacks
    instead of writing a loop::

        engine = MinibatchEngine(model, graph.features, graph.adjacency,
                                 fanouts=(10, 5), batch_size=512)

        def loss_fn(step):
            return binary_cross_entropy_with_logits(
                step.output, labels[step.batch].astype(np.float64))

        history = engine.run(train_nodes, epochs=100, loss_fn=loss_fn,
                             rng=rng, val_nodes=val_nodes,
                             val_labels=labels[val_nodes], patience=20)
        logits = engine.predict()
    """

    def __init__(
        self,
        model: Module,
        features,
        adjacency: sp.spmatrix,
        *,
        fanouts: Sequence[int | None] | None = None,
        batch_size: int = 512,
        num_layers: int | None = None,
        replace: bool = False,
        cache_epochs: int = 1,
        optimizer=None,
        lr: float = 1e-3,
        weight_decay: float = 0.0,
        eval_batch_size: int | None = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if eval_batch_size is not None and eval_batch_size < 1:
            # Explicit is-None resolution: a non-positive eval batch must be
            # rejected, never silently collapsed into "follow batch_size"
            # (the falsy-zero bug class).
            raise ValueError(
                f"eval_batch_size must be >= 1 or None, got {eval_batch_size}"
            )
        self.model = model
        self.feature_array = _as_feature_array(features)
        self.adjacency = adjacency
        depth = _resolve_num_layers(model, num_layers)
        if fanouts is None:
            fanouts = (DEFAULT_FANOUT,) * depth
        self.sampler = NeighborSampler(adjacency, fanouts, replace=replace)
        if self.sampler.num_layers != depth:
            raise ValueError(
                f"got {self.sampler.num_layers} fanouts for a {depth}-layer model"
            )
        self.eval_sampler = NeighborSampler.full_neighborhood(adjacency, depth)
        self.batch_size = batch_size
        self.eval_batch_size = (
            batch_size if eval_batch_size is None else eval_batch_size
        )
        self.cache_epochs = int(cache_epochs)
        if self.cache_epochs < 1:
            raise ValueError(f"cache_epochs must be >= 1, got {cache_epochs}")
        self.optimizer = optimizer if optimizer is not None else Adam(
            model.parameters(), lr=lr, weight_decay=weight_decay
        )
        self._active_cache: EpochBlockCache | None = None

    # ------------------------------------------------------------------ #
    def predict(
        self, nodes: np.ndarray | None = None, batch_size: int | None = None
    ) -> np.ndarray:
        """Exact (full-neighbourhood) batched logits for ``nodes``."""
        return predict_logits_batched(
            self.model,
            self.feature_array,
            self.adjacency,
            nodes=nodes,
            batch_size=(
                self.eval_batch_size if batch_size is None else batch_size
            ),
            sampler=self.eval_sampler,
        )

    def invalidate_cache(self) -> None:
        """Force the next epoch to resample even inside a cache window.

        Consumers whose seed extensions bake external state into the cached
        structure call this when that state changes (Fairwos invalidates on
        every counterfactual-index refresh so cached seed sets never point
        at stale counterfactual targets).
        """
        if self._active_cache is not None:
            self._active_cache.invalidate()

    # ------------------------------------------------------------------ #
    def run(
        self,
        nodes: np.ndarray,
        epochs: int,
        loss_fn: Callable[[TrainStep], Tensor],
        rng: np.random.Generator | int | None = None,
        *,
        val_nodes: np.ndarray,
        val_labels: np.ndarray,
        checkpoint: str = "best",
        patience: int | None = None,
        val_tolerance: float | None = None,
        forward: str = "logits",
        seed_fn: Callable | None = None,
        sort_batches: bool = False,
        on_epoch_start: Callable[[int], None] | None = None,
        on_epoch_end: Callable[[int], None] | None = None,
    ) -> FitHistory:
        """Run the sampled training loop; return its :class:`FitHistory`.

        Parameters
        ----------
        nodes:
            Node set iterated per epoch (shuffled, then batched).
        epochs:
            Maximum epoch count.
        loss_fn:
            ``(TrainStep) -> Tensor`` per-step objective; the engine
            backpropagates it and steps the optimiser.
        rng:
            Generator (or seed) driving shuffling, neighbour sampling and
            any ``seed_fn`` draws.
        val_nodes, val_labels:
            Validation split scored with exact batched inference after
            every epoch.
        checkpoint:
            ``"best"`` — best-validation-accuracy model selection with
            optional ``patience`` early stopping, best state restored at
            the end.  ``"floor"`` — measure validation accuracy before the
            first epoch, stop (restoring the last state at or above the
            floor) once it drops more than ``val_tolerance`` below that;
            ``val_tolerance=None`` disables the floor but keeps the
            bookkeeping, and the final state is kept.
        patience:
            Epochs without validation improvement tolerated in ``"best"``
            mode (``None`` disables early stopping).
        val_tolerance:
            Allowed validation-accuracy drop in ``"floor"`` mode.
        forward:
            ``"logits"`` feeds ``model(features, blocks)`` to the closure,
            ``"embed"`` feeds ``model.embed_blocks(features, blocks)``
            (methods that apply their own head / representation losses).
        seed_fn:
            Optional ``(batch, rng) -> (seeds, payload)`` extending the
            sampled seed set beyond the batch; ``seeds`` must be sorted,
            unique and contain ``batch``.
        sort_batches:
            Sort each batch before use, making within-batch summation order
            deterministic (epoch randomness then lives only in the batch
            composition — required for covering-batch bit-parity by
            consumers without a sorting seed extension).
        on_epoch_start, on_epoch_end:
            Epoch callbacks: ``on_epoch_start(epoch)`` runs before the
            epoch's cache/refresh decision (so it may call
            :meth:`invalidate_cache`); ``on_epoch_end(epoch)`` runs after
            the batch loop, before validation.
        """
        if epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {epochs}")
        if checkpoint not in ("best", "floor"):
            raise ValueError(f"checkpoint must be 'best' or 'floor', got {checkpoint!r}")
        if forward not in ("logits", "embed"):
            raise ValueError(f"forward must be 'logits' or 'embed', got {forward!r}")
        nodes = np.asarray(nodes, dtype=np.int64).reshape(-1)
        if nodes.size == 0:
            raise ValueError("nodes must be non-empty")
        val_nodes = np.asarray(val_nodes, dtype=np.int64).reshape(-1)
        val_labels = np.asarray(val_labels)
        if val_nodes.size == 0:
            raise ValueError("val_nodes must be non-empty")
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)

        model = self.model
        history = FitHistory()
        cache = EpochBlockCache(self.cache_epochs)
        self._active_cache = cache
        # The exact validation pass folds full (un-sampled) neighbourhoods,
        # which depend only on the fixed graph and the fixed val split —
        # build its block chains once per fit and reuse them every epoch.
        # Trade-off: the val set's receptive field stays resident for the
        # whole fit (same order as one cached training epoch's structure).
        eval_steps = self._build_eval_steps(val_nodes)
        since_best = 0
        best_state = model.state_dict()
        floor = -np.inf
        if checkpoint == "floor":
            floor = self._validate(eval_steps, val_labels) - (
                np.inf if val_tolerance is None else val_tolerance
            )
        try:
            for epoch in range(epochs):
                if on_epoch_start is not None:
                    on_epoch_start(epoch)
                replay = cache.start_epoch()
                model.train()
                epoch_loss = 0.0
                started = time.perf_counter()
                if replay:
                    steps = cache.steps()
                else:
                    steps = self._fresh_steps(
                        nodes, rng, seed_fn, sort_batches, cache
                    )
                for batch, seeds, payload, blocks in steps:
                    batch_features = Tensor(self.feature_array[blocks[0].src_nodes])
                    self.optimizer.zero_grad()
                    if forward == "logits":
                        output = model(batch_features, blocks)
                    else:
                        output = model.embed_blocks(batch_features, blocks)
                    loss = loss_fn(
                        TrainStep(
                            epoch=epoch,
                            batch=batch,
                            seeds=seeds,
                            blocks=blocks,
                            output=output,
                            payload=payload,
                        )
                    )
                    loss.backward()
                    self.optimizer.step()
                    epoch_loss += float(loss.data) * batch.size
                history.epoch_train_seconds.append(time.perf_counter() - started)

                if on_epoch_end is not None:
                    on_epoch_end(epoch)
                val_acc = self._validate(eval_steps, val_labels)
                history.train_loss.append(epoch_loss / nodes.size)
                history.val_accuracy.append(val_acc)

                if checkpoint == "best":
                    if val_acc > history.best_val_accuracy:
                        history.best_val_accuracy = val_acc
                        history.best_epoch = epoch
                        best_state = model.state_dict()
                        since_best = 0
                    else:
                        since_best += 1
                        if patience is not None and since_best > patience:
                            history.stopped_early = True
                            break
                else:  # floor
                    if val_acc >= floor:
                        if val_acc > history.best_val_accuracy:
                            history.best_val_accuracy = val_acc
                            history.best_epoch = epoch
                        best_state = model.state_dict()
                    elif val_tolerance is not None:
                        model.load_state_dict(best_state)
                        history.stopped_early = True
                        break
        finally:
            self._active_cache = None
        if checkpoint == "best":
            model.load_state_dict(best_state)
        return history

    # ------------------------------------------------------------------ #
    def _fresh_steps(self, nodes, rng, seed_fn, sort_batches, cache):
        """Sample one epoch's steps, recording them for cache replay."""
        for batch in iter_minibatches(nodes, self.batch_size, rng):
            if sort_batches:
                batch = np.sort(batch)
            if seed_fn is not None:
                seeds, payload = seed_fn(batch, rng)
            else:
                seeds, payload = batch, None
            blocks = self.sampler.sample_blocks(seeds, rng)
            cache.record(batch, seeds, payload, blocks)
            yield batch, seeds, payload, blocks

    def _build_eval_steps(
        self, nodes: np.ndarray
    ) -> list[tuple[np.ndarray, list[Block]]]:
        """Exact-evaluation ``(batch, blocks)`` pairs for ``nodes``.

        Full-neighbourhood sampling is deterministic (it consumes no
        randomness) and the graph never changes during a fit, so these
        chains are built once per :meth:`run` instead of once per epoch —
        the validation pass then only pays the forward computation.
        """
        rng = np.random.default_rng(0)  # never consumed by exhaustive fanout
        return [
            (batch, self.eval_sampler.sample_blocks(batch, rng))
            for batch in iter_minibatches(nodes, self.eval_batch_size)
        ]

    def _validate(
        self,
        eval_steps: list[tuple[np.ndarray, list[Block]]],
        val_labels: np.ndarray,
    ) -> float:
        """Exact validation accuracy over prebuilt eval block chains."""
        model = self.model
        was_training = model.training
        model.eval()
        parts = []
        with no_grad():
            for batch, blocks in eval_steps:
                batch_features = Tensor(self.feature_array[blocks[0].src_nodes])
                parts.append(model(batch_features, blocks).data)
        model.train(was_training)
        logits = np.concatenate(parts)
        return accuracy((logits > 0).astype(np.int64), val_labels)
