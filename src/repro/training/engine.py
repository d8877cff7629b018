"""The one training loop: full-batch and neighbour-sampled epochs.

Every fit in the library — :func:`~repro.training.loop.fit_binary_classifier`,
:func:`~repro.training.minibatch.fit_minibatch`, the Fairwos fine-tune, the
FairRF, FairGKD and oracle baselines — runs on :class:`MinibatchEngine`,
which owns the loop skeleton once:

* **two step kinds, chosen by ``batch_size``** — ``None`` runs one
  full-graph step per epoch (the model's full-graph forward on a feature
  tensor wrapped once per run; no sampler, no blocks, no RNG draws, the
  iterated nodes kept in their given order); an integer runs
  neighbour-sampled seed batches over an arbitrary node set (the training
  nodes, or *all* nodes for methods whose fairness terms reach unlabelled
  nodes), optionally sorted per batch for deterministic within-batch
  summation;
* **seed extension** — a per-batch hook that grows the sampled seed set
  beyond the iterated batch (Fairwos adds each batch's counterfactual
  targets so the fair loss reaches both sides of every pair);
* **per-step loss closures** — the method provides a callable from a
  :class:`TrainStep` (batch, seeds, blocks, model output) to a loss
  ``Tensor``; the engine handles zero_grad/forward/backward/step;
* **per-epoch callbacks** — ``on_epoch_start`` (λ refreshes,
  counterfactual-index rebuilds, adversary steps) and ``on_epoch_end``
  (closed-form weight updates, history logging);
* **the checkpoint contract** — ``checkpoint="best"`` restores the
  best-validation-accuracy state with optional patience (the paper's
  early-stopping recipe), and ``checkpoint="floor"`` aborts when validation
  accuracy falls more than ``val_tolerance`` below its pre-training level,
  restoring the last state above the floor (the Fairwos fine-tune recipe);
* **a per-fit eval-block cache** — the sampled mode's exact validation pass
  folds full (un-sampled) neighbourhoods that depend only on the fixed
  graph and val split, so their block chains (and each block's memoised
  aggregation operator) are built once per :meth:`MinibatchEngine.run` and
  reused every epoch (bit-identical metrics, the per-epoch sampling
  constant gone).  Training batches are sampled fresh every epoch.

The module also hosts :class:`FitHistory`, the shared inference helpers
(:func:`predict_logits_batched`, :func:`embed_batched`; ``batch_size=None``
is one full-graph forward) and :func:`iter_minibatches`;
:mod:`repro.training.minibatch` re-exports them and builds
:func:`~repro.training.minibatch.fit_minibatch` on the engine.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

import numpy as np
import scipy.sparse as sp

from repro.fairness.metrics import accuracy
from repro.graph.sampling import Block, NeighborSampler
from repro.nn.module import Module
from repro.optim import Adam
from repro.tensor import Tensor, get_default_dtype, no_grad

__all__ = [
    "DEFAULT_FANOUT",
    "FitHistory",
    "MinibatchEngine",
    "TrainStep",
    "embed_batched",
    "iter_minibatches",
    "predict_logits_batched",
]

# Per-layer neighbour fanout used whenever the caller does not specify one
# (shared by the engine, fit_minibatch, FairwosConfig and the CLI display).
DEFAULT_FANOUT = 10


@dataclass
class FitHistory:
    """Per-epoch training record; best-val state is restored on the model.

    ``train_loss`` is the epoch's loss (the step loss in full-batch mode,
    the batch-size-weighted mean of the step losses when sampled).
    ``epoch_train_seconds`` has one entry per epoch, covering sampling and
    the forward/backward steps but not the validation pass — the quantity
    the sampled-epoch benchmark gates on.
    """

    train_loss: list[float] = field(default_factory=list)
    val_accuracy: list[float] = field(default_factory=list)
    best_val_accuracy: float = -1.0
    best_epoch: int = -1
    stopped_early: bool = False
    epoch_train_seconds: list[float] = field(default_factory=list)

    @property
    def epochs_run(self) -> int:
        """Number of completed epochs."""
        return len(self.train_loss)


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


def _set_training(modules: list[Module], mode: bool) -> None:
    """Set the mode of every module in a list walked once from a model."""
    for module in modules:
        module.training = mode


def _distinct_nodes(nodes, num_nodes: int) -> tuple[np.ndarray, np.ndarray | None]:
    """Check requested node ids and collapse repeats.

    Returns the distinct ids in first-occurrence order, plus the row of
    each request among them (``None`` when nothing repeats, so a request
    without repeats is computed exactly as given).  Ids outside
    ``[0, num_nodes)`` raise ``ValueError``.
    """
    nodes = np.asarray(nodes, dtype=np.int64).reshape(-1)
    ordered = np.sort(nodes)
    if ordered.size and (ordered[0] < 0 or ordered[-1] >= num_nodes):
        outside = nodes[(nodes < 0) | (nodes >= num_nodes)]
        raise ValueError(
            f"node ids must be in [0, {num_nodes}), got {outside[:5].tolist()}"
        )
    if not (ordered[1:] == ordered[:-1]).any():
        return nodes, None
    _, first, inverse = np.unique(nodes, return_index=True, return_inverse=True)
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.size)
    return nodes[np.sort(first)], rank[inverse]


def _infer(
    model: Module,
    features,
    adjacency: sp.spmatrix,
    nodes: np.ndarray | None,
    batch_size: int | None,
    num_layers: int | None,
    sampler: NeighborSampler | None,
    rng: np.random.Generator | None,
    embed: bool,
) -> np.ndarray:
    """Eval-mode logits (or representations with ``embed``) for ``nodes``.

    ``batch_size=None`` runs one full-graph forward and slices ``nodes``
    from it; an integer folds each seed batch's blocks.  Both modes read
    ``nodes`` the same way: ids outside ``[0, N)`` raise ``ValueError``,
    and a repeated id gets one row per request, computed once.
    """
    take = None
    if nodes is not None:
        nodes, take = _distinct_nodes(nodes, adjacency.shape[0])
    feature_array = _as_feature_array(features)
    was_training = model.training
    modules = list(model.modules())
    _set_training(modules, False)
    try:
        with no_grad():
            forward = model.embed if embed else model
            if batch_size is None:
                out = forward(Tensor(feature_array), adjacency).data
                if nodes is not None:
                    out = out[nodes]
            else:
                if sampler is None:
                    sampler = NeighborSampler.full_neighborhood(
                        adjacency, _resolve_num_layers(model, num_layers)
                    )
                if nodes is None:
                    nodes = np.arange(sampler.num_nodes)
                if embed and nodes.size == 0:
                    # The embedding width is unknown without a forward pass,
                    # so an empty request has no well-defined result shape.
                    raise ValueError("nodes must be non-empty")
                if rng is None:
                    # Fresh entropy: a custom *sampling* sampler without an
                    # explicit rng must not silently return identical draws
                    # on every call.  The exact full-neighbourhood default
                    # never consumes the generator.
                    rng = np.random.default_rng()
                out = np.empty(0, dtype=get_default_dtype())
                filled = 0
                for batch in iter_minibatches(nodes, batch_size):
                    blocks = sampler.sample_blocks(batch, rng)
                    batch_features = Tensor(feature_array[blocks[0].src_nodes])
                    part = forward(batch_features, blocks).data
                    if filled == 0:
                        out = np.empty(
                            (nodes.size, *part.shape[1:]),
                            dtype=part.dtype if embed else out.dtype,
                        )
                    out[filled : filled + batch.size] = part
                    filled += batch.size
    finally:
        _set_training(modules, was_training)
    return out if take is None else out[take]


def predict_logits_batched(
    model: Module,
    features,
    adjacency: sp.spmatrix,
    nodes: np.ndarray | None = None,
    batch_size: int | None = 1024,
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
        Seed node ids to score (default: all nodes, in order), each in
        ``[0, N)``; a repeated id is scored once and returned per request.
    batch_size:
        Seeds per inference batch; ``None`` runs one full-graph forward
        (no sampler, no blocks) and returns its ``nodes`` rows.
    num_layers:
        Number of message-passing layers (default: ``model.num_layers``).
    sampler:
        Optional pre-built sampler overriding the exact full-neighbourhood
        default (its ``num_layers`` must match the model).
    rng:
        Only needed when ``sampler`` actually samples.
    """
    return _infer(
        model, features, adjacency, nodes, batch_size, num_layers, sampler,
        rng, embed=False,
    )


def embed_batched(
    model: Module,
    features,
    adjacency: sp.spmatrix,
    nodes: np.ndarray | None = None,
    batch_size: int | None = 1024,
    num_layers: int | None = None,
    sampler: NeighborSampler | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Inference-mode node representations, one seed batch at a time.

    The representation-space analogue of :func:`predict_logits_batched`
    (same parameters): folds each batch's exact L-hop neighbourhood through
    ``model.embed`` so the output matches the full-graph embedding while
    only one batch's computation graph is live; ``batch_size=None`` is one
    eval-mode ``model.embed`` over the whole graph.  The fine-tune
    refreshes the counterfactual index from this embedding.

    Returns an ``(len(nodes), hidden)`` array in the active default dtype.
    """
    return _infer(
        model, features, adjacency, nodes, batch_size, num_layers, sampler,
        rng, embed=True,
    )


@dataclass
class TrainStep:
    """Everything one optimisation step exposes to a loss closure.

    ``output`` is the model's forward result — per-seed logits in
    ``forward="logits"`` mode, per-seed representations in
    ``forward="embed"`` mode; its rows correspond to ``seeds`` in order.
    ``batch`` is the iterated node batch; ``seeds`` equals ``batch`` unless
    a ``seed_fn`` extended it, and is every node (``arange(N)``) in the
    full-batch step, whose ``blocks`` are ``None``; ``payload`` carries
    whatever the ``seed_fn`` returned alongside (e.g. a sampled attribute
    subset).
    """

    epoch: int
    batch: np.ndarray
    seeds: np.ndarray
    blocks: list[Block] | None
    output: Tensor
    payload: Any = None

    def local_index(self, nodes: np.ndarray) -> np.ndarray:
        """Positions of global ``nodes`` within ``seeds``.

        Valid when ``seeds`` is sorted — always true in the full-batch step,
        with a seed extension (extensions are sorted distinct ids) or with
        ``sort_batches=True``.
        """
        return np.searchsorted(self.seeds, nodes)


class MinibatchEngine:
    """The shared training loop, full-batch or neighbour-sampled.

    Parameters
    ----------
    model:
        Any :class:`~repro.gnnzoo.base.GNNBackbone`, or a module with the
        same ``model(features, support)`` / ``embed(features, support)``
        signatures, where ``support`` is the full adjacency or a block
        chain (the sampled mode also needs a layer count).
    features:
        ``(N, F)`` numpy array or Tensor of node features.
    adjacency:
        Full-graph CSR adjacency.
    fanouts:
        Per-layer neighbour fanouts, input layer first (default:
        ``DEFAULT_FANOUT`` per model layer).  Entries may be ``None`` to
        keep full neighbourhoods.
    batch_size:
        Seed nodes per training step, or ``None`` for one full-graph step
        per epoch.  The full-batch step builds no sampler and no blocks,
        draws nothing from the RNG and keeps the iterated nodes in their
        given order; ``fanouts`` and ``num_layers`` only shape sampled runs,
        and validation, :meth:`predict` and :meth:`embed` run one eval-mode
        full-graph forward.  Sampled runs fold the exact validation and
        prediction passes in batches of ``batch_size`` too.  A covering
        integer batch still samples blocks.
    num_layers:
        Message-passing depth (default: ``model.num_layers``).
    optimizer:
        Optimiser instance driving the parameter updates (default:
        ``Adam(model.parameters(), lr, weight_decay)``).  Pass one
        explicitly when extra modules train jointly (FairGKD's projection).
    lr, weight_decay:
        Used only to build the default optimiser.

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
        batch_size: int | None = 512,
        num_layers: int | None = None,
        optimizer=None,
        lr: float = 1e-3,
        weight_decay: float = 0.0,
    ) -> None:
        if batch_size is not None and batch_size < 1:
            raise ValueError(f"batch_size must be >= 1 or None, got {batch_size}")
        self.model = model
        self.feature_array = _as_feature_array(features)
        self.adjacency = adjacency
        self.batch_size = batch_size
        self.sampler = self.eval_sampler = None
        if batch_size is not None:
            depth = _resolve_num_layers(model, num_layers)
            if fanouts is None:
                fanouts = (DEFAULT_FANOUT,) * depth
            self.sampler = NeighborSampler(adjacency, fanouts)
            if self.sampler.num_layers != depth:
                raise ValueError(
                    f"got {self.sampler.num_layers} fanouts for a {depth}-layer model"
                )
            self.eval_sampler = NeighborSampler.full_neighborhood(adjacency, depth)
        self.optimizer = optimizer if optimizer is not None else Adam(
            model.parameters(), lr=lr, weight_decay=weight_decay
        )

    # ------------------------------------------------------------------ #
    def predict(
        self, nodes: np.ndarray | None = None, batch_size: int | None = None
    ) -> np.ndarray:
        """Exact (full-neighbourhood) logits for ``nodes`` (default: all).

        ``batch_size`` overrides the sampled mode's ``batch_size`` for this
        pass; the full-batch mode always runs one full-graph forward.
        """
        if self.batch_size is None or batch_size is None:
            batch_size = self.batch_size
        return predict_logits_batched(
            self.model,
            self.feature_array,
            self.adjacency,
            nodes=nodes,
            batch_size=batch_size,
            sampler=self.eval_sampler,
        )

    def embed(self) -> np.ndarray:
        """Exact eval-mode representations of every node.

        One ``model.embed`` over the whole graph in full-batch mode,
        :func:`embed_batched` over the exact eval blocks when sampled — the
        same dropout-free embedding either way.
        """
        return embed_batched(
            self.model,
            self.feature_array,
            self.adjacency,
            batch_size=self.batch_size,
            sampler=self.eval_sampler,
        )

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
        """Run the training loop; return its :class:`FitHistory`.

        Steps run in training mode and validation in eval mode; the
        model's mode at the call is given back on return, as
        :meth:`predict` and :meth:`embed` do.

        Parameters
        ----------
        nodes:
            Node set iterated per epoch (shuffled, then batched, when
            sampled; one step over all of them, in order, when full-batch).
        epochs:
            Maximum epoch count.
        loss_fn:
            ``(TrainStep) -> Tensor`` per-step objective; the engine
            backpropagates it and steps the optimiser.
        rng:
            Generator (or seed) driving shuffling, neighbour sampling and
            any ``seed_fn`` draws (the full-batch step draws nothing).
        val_nodes, val_labels:
            Validation split scored with exact inference after every epoch.
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
            mode (``None`` disables early stopping; must be >= 0).
        val_tolerance:
            Allowed validation-accuracy drop in ``"floor"`` mode (>= 0).
        forward:
            ``"logits"`` feeds ``model(features, support)`` to the closure,
            ``"embed"`` feeds the model's representations
            (``model.embed`` on the same support) for methods that apply
            their own head / representation losses.
        seed_fn:
            Optional ``(batch, rng) -> (seeds, payload)`` extending the
            sampled seed set beyond the batch; ``seeds`` must be sorted,
            unique and contain ``batch``.  Unused in full-batch mode, whose
            seeds are already every node.
        sort_batches:
            Sort each sampled batch before use, making within-batch
            summation order deterministic (epoch randomness then lives only
            in the batch composition — required for covering-batch
            bit-parity by consumers without a sorting seed extension).
        on_epoch_start, on_epoch_end:
            Epoch callbacks: ``on_epoch_start(epoch)`` runs before the
            epoch's batches are drawn (so a ``seed_fn`` sees the state it
            refreshed); ``on_epoch_end(epoch)`` runs after the training
            steps, before validation.
        """
        if epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {epochs}")
        if checkpoint not in ("best", "floor"):
            raise ValueError(f"checkpoint must be 'best' or 'floor', got {checkpoint!r}")
        if forward not in ("logits", "embed"):
            raise ValueError(f"forward must be 'logits' or 'embed', got {forward!r}")
        if patience is not None and patience < 0:
            raise ValueError(f"patience must be >= 0 or None, got {patience}")
        if val_tolerance is not None and val_tolerance < 0:
            raise ValueError(
                f"val_tolerance must be >= 0 or None, got {val_tolerance}"
            )
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
        step_forward = model if forward == "logits" else model.embed
        # The module tree is walked once per run; every mode toggle below
        # reuses the list, and the caller's mode is given back at the end.
        modules = list(model.modules())
        caller_mode = model.training
        history = FitHistory()
        full_batch = self.batch_size is None
        if full_batch:
            inputs = Tensor(self.feature_array)
            full_step = (nodes, np.arange(self.feature_array.shape[0]), None, None)
        else:
            # The exact validation pass folds full (un-sampled)
            # neighbourhoods, which depend only on the fixed graph and the
            # fixed val split — build its block chains once per fit and
            # reuse them every epoch.  Trade-off: the val set's receptive
            # field stays resident for the whole fit.
            eval_steps = self._build_eval_steps(val_nodes)

        def validate() -> float:
            was_training = model.training
            _set_training(modules, False)
            with no_grad():
                if full_batch:
                    logits = model(inputs, self.adjacency).data[val_nodes]
                else:
                    logits = np.concatenate([
                        model(self._block_inputs(blocks), blocks).data
                        for blocks in eval_steps
                    ])
            _set_training(modules, was_training)
            return accuracy((logits > 0).astype(np.int64), val_labels)

        since_best = 0
        best_state = model.state_dict()
        floor = -np.inf
        if checkpoint == "floor":
            floor = validate() - (np.inf if val_tolerance is None else val_tolerance)
        for epoch in range(epochs):
            if on_epoch_start is not None:
                on_epoch_start(epoch)
            if full_batch:
                steps = [full_step]
            else:
                steps = self._sampled_steps(nodes, rng, seed_fn, sort_batches)
            _set_training(modules, True)
            epoch_loss = 0.0
            started = time.perf_counter()
            for batch, seeds, payload, blocks in steps:
                self.optimizer.zero_grad()
                if full_batch:
                    output = step_forward(inputs, self.adjacency)
                else:
                    output = step_forward(self._block_inputs(blocks), blocks)
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
            val_acc = validate()
            # One full-batch step's loss is the epoch's, unscaled.
            history.train_loss.append(
                float(loss.data) if full_batch else epoch_loss / nodes.size
            )
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
        if checkpoint == "best":
            model.load_state_dict(best_state)
        _set_training(modules, caller_mode)
        return history

    # ------------------------------------------------------------------ #
    def _block_inputs(self, blocks: list[Block]) -> Tensor:
        """Input-layer feature rows of a block chain."""
        return Tensor(self.feature_array[blocks[0].src_nodes])

    def _sampled_steps(self, nodes, rng, seed_fn, sort_batches):
        """Sample one epoch's ``(batch, seeds, payload, blocks)`` steps."""
        for batch in iter_minibatches(nodes, self.batch_size, rng):
            if sort_batches:
                batch = np.sort(batch)
            if seed_fn is not None:
                seeds, payload = seed_fn(batch, rng)
            else:
                seeds, payload = batch, None
            blocks = self.sampler.sample_blocks(seeds, rng)
            yield batch, seeds, payload, blocks

    def _build_eval_steps(self, nodes: np.ndarray) -> list[list[Block]]:
        """Exact-evaluation block chains for ``nodes``, one per eval batch.

        Full-neighbourhood sampling is deterministic (it consumes no
        randomness) and the graph never changes during a fit, so these
        chains are built once per :meth:`run` instead of once per epoch —
        the validation pass then only pays the forward computation.
        """
        rng = np.random.default_rng(0)  # never consumed by exhaustive fanout
        return [
            self.eval_sampler.sample_blocks(batch, rng)
            for batch in iter_minibatches(nodes, self.batch_size)
        ]
