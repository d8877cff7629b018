"""Fairwos training algorithm (Algorithm 1 of the paper).

Phases:

1. pre-train the encoder on node classification and extract the
   pseudo-sensitive attributes ``X(0)`` (lines 1–3);
2. pre-train the GNN classifier on ``X(0)`` (line 4) — this model also
   provides pseudo-labels for unlabelled nodes;
3. fine-tune: alternate gradient steps on θ (Eq. 16) with closed-form KKT
   updates of λ (Eq. 24), re-searching graph counterfactuals every
   ``cf_refresh_epochs`` epochs as the representation space moves
   (lines 5–13).

The ablation flags of :class:`~repro.core.config.FairwosConfig` disable
individual modules to produce the paper's Fig. 4 variants.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import FairwosConfig
from repro.core.counterfactual import CounterfactualIndex, CounterfactualSearch
from repro.core.encoder import EncoderModule, binarize_attributes
from repro.core.fairloss import (
    fair_representation_loss,
    fair_representation_loss_minibatch,
)
from repro.core.weights import WeightUpdater
from repro.fairness import EvalResult, evaluate_predictions
from repro.gnnzoo import make_backbone
from repro.graph import Graph
from repro.graph.utils import sorted_unique
from repro.nn import binary_cross_entropy_with_logits
from repro.optim import Adam
from repro.tensor import Tensor, dtype_scope, no_grad
from repro.training import (
    MinibatchEngine,
    TrainStep,
    fit_minibatch,
    predict_logits_batched,
)

__all__ = ["FairwosTrainer", "FairwosResult"]

# The incremental ANN refresh's policy (``cf_update="incremental"``): points
# whose embedding moved more than _DRIFT_THRESHOLD (L2) are re-routed, and
# when more than _REBUILD_FRAC of them moved the forest is rebuilt instead.
_DRIFT_THRESHOLD = 1e-2
_REBUILD_FRAC = 0.5


@dataclass
class FairwosResult:
    """Everything a Fairwos run produces.

    ``pseudo_attributes`` holds the continuous ``X(0)`` matrix (used by the
    Fig. 7 t-SNE); ``timings`` holds per-phase wall-clock seconds (Fig. 8).
    """

    test: EvalResult
    validation: EvalResult
    lambda_weights: np.ndarray
    pseudo_attributes: np.ndarray
    counterfactual_coverage: float
    history: dict[str, list[float]] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        """Total wall-clock time across phases."""
        return float(sum(self.timings.values()))


class FairwosTrainer:
    """End-to-end Fairwos runner.

    Example
    -------
    >>> from repro.datasets import load_dataset
    >>> from repro.core import FairwosTrainer, FairwosConfig
    >>> graph = load_dataset("nba", seed=0)
    >>> result = FairwosTrainer(FairwosConfig(alpha=0.05, top_k=5)).fit(graph, seed=0)
    >>> print(result.test)            # doctest: +SKIP
    """

    def __init__(self, config: FairwosConfig | None = None) -> None:
        self.config = config or FairwosConfig()
        self.config.validate()
        self.classifier = None
        self.encoder: EncoderModule | None = None
        self._pseudo_features: Tensor | None = None
        # Serving state stashed by fit() so a finished trainer can be
        # persisted (repro.io.artifact) and score without refitting:
        # binarized pseudo-attributes, pseudo-labels, the standardization
        # stats + column selection behind X(0), and the counterfactual
        # search whose standing index answers retrieval queries.
        self._binary_attrs: np.ndarray | None = None
        self._pseudo_labels: np.ndarray | None = None
        self._pseudo_stats: dict | None = None
        self._search: CounterfactualSearch | None = None

    # ------------------------------------------------------------------ #
    def fit(self, graph: Graph, seed: int = 0) -> FairwosResult:
        """Run Algorithm 1 on ``graph`` and evaluate on its test split.

        The whole run executes under the configured ``dtype`` scope, so
        parameters, activations, gradients and optimiser state share one
        precision (``float64`` by default; ``float32`` for the
        memory-bounded large-graph tier).
        """
        with dtype_scope(self.config.dtype):
            return self._fit(graph, seed)

    def _fit(self, graph: Graph, seed: int) -> FairwosResult:
        config = self.config
        rng = np.random.default_rng(seed)
        features = Tensor(graph.features)
        adjacency = graph.adjacency
        labels = graph.labels
        timings: dict[str, float] = {}
        history: dict[str, list[float]] = {
            "finetune_loss": [],
            "finetune_utility_loss": [],
            "finetune_fair_loss": [],
            "finetune_val_accuracy": [],
        }

        # -- Phase 1: encoder → pseudo-sensitive attributes ------------- #
        start = time.perf_counter()
        if config.use_encoder:
            self.encoder = EncoderModule(
                graph.num_features,
                config.encoder_dim,
                rng,
                backbone=config.encoder_backbone,
            )
            self.encoder.pretrain(
                features,
                adjacency,
                labels,
                graph.train_mask,
                graph.val_mask,
                epochs=config.encoder_epochs,
                lr=config.learning_rate,
                patience=config.patience,
                minibatch=config.minibatch,
                fanout=config.resolved_fanouts()[0],
                batch_size=config.batch_size,
                rng=rng,
            )
            pseudo_raw = self.encoder.extract(features, adjacency)
        else:
            # "Fwos w/o E": fairness is promoted on every raw non-sensitive
            # attribute individually.
            pseudo_raw = graph.features.copy()
        pseudo, pseudo_mean, pseudo_std = _standardize(pseudo_raw)
        keep = None
        if (
            config.max_pseudo_attributes is not None
            and pseudo.shape[1] > config.max_pseudo_attributes
        ):
            variances = pseudo.var(axis=0)
            keep = np.sort(np.argsort(variances)[::-1][: config.max_pseudo_attributes])
            pseudo = pseudo[:, keep]
        binary_attrs = binarize_attributes(pseudo, config.binarize_quantile)
        self._pseudo_stats = {
            "mean": pseudo_mean,
            "std": pseudo_std,
            "keep": None if keep is None else keep.astype(np.int64),
        }
        self._binary_attrs = binary_attrs
        timings["encoder"] = time.perf_counter() - start

        # -- Phase 2: pre-train the GNN classifier on X(0) --------------- #
        start = time.perf_counter()
        self.classifier = make_backbone(
            config.backbone,
            pseudo.shape[1],
            config.hidden_dim,
            rng,
            num_layers=config.num_layers,
            dropout=config.dropout,
        )
        pseudo_tensor = Tensor(pseudo)
        self._pseudo_features = pseudo_tensor
        fit_minibatch(
            self.classifier,
            pseudo_tensor,
            adjacency,
            labels,
            graph.train_mask,
            graph.val_mask,
            epochs=config.classifier_epochs,
            fanouts=config.resolved_fanouts(),
            batch_size=config.batch_size if config.minibatch else None,
            lr=config.learning_rate,
            weight_decay=config.weight_decay,
            patience=config.patience,
            rng=rng,
        )
        # Pseudo-labels: ground truth on the labelled (train) nodes, model
        # predictions elsewhere (Section III-D).
        logits = self._predict_logits(pseudo_tensor, adjacency)
        pseudo_labels = (logits > 0).astype(np.int64)
        pseudo_labels[graph.train_mask] = labels[graph.train_mask]
        self._pseudo_labels = pseudo_labels
        timings["classifier_pretrain"] = time.perf_counter() - start

        # -- Phase 3: fairness fine-tuning ------------------------------- #
        start = time.perf_counter()
        updater = WeightUpdater(
            binary_attrs.shape[1],
            alpha=config.alpha,
            prefer_high_disparity=config.prefer_high_disparity,
        )
        coverage = 0.0
        if config.use_fairness:
            coverage = self._finetune(
                graph, pseudo_tensor, binary_attrs, pseudo_labels, updater,
                history, rng,
            )
        timings["finetune"] = time.perf_counter() - start

        test_logits = self._predict_logits(pseudo_tensor, adjacency)
        return FairwosResult(
            test=evaluate_predictions(
                test_logits, labels, graph.sensitive, graph.test_mask
            ),
            validation=evaluate_predictions(
                test_logits, labels, graph.sensitive, graph.val_mask
            ),
            lambda_weights=updater.weights.copy(),
            pseudo_attributes=pseudo,
            counterfactual_coverage=coverage,
            history=history,
            timings=timings,
        )

    # ------------------------------------------------------------------ #
    def _make_search(self, rng: np.random.Generator) -> CounterfactualSearch:
        """Counterfactual search with the configured backend.

        The ANN forest's construction seed is drawn from ``rng`` so runs stay
        reproducible per trainer seed.  ``cf_update="incremental"`` threads
        the maintenance policy (drift threshold, rebuild escape hatch) into
        the backend, whose ``prepare`` then updates the standing forest in
        place instead of rebuilding it at every refresh.
        """
        config = self.config
        options = {}
        if config.cf_backend.lower() == "ann":
            options["seed"] = int(rng.integers(2**31))
            if config.cf_update != "rebuild":
                options.update(
                    update=config.cf_update,
                    drift_threshold=_DRIFT_THRESHOLD,
                    rebuild_frac=_REBUILD_FRAC,
                )
        return CounterfactualSearch(
            config.top_k, backend=config.cf_backend, backend_options=options
        )

    def _finetune(
        self,
        graph: Graph,
        pseudo_tensor: Tensor,
        binary_attrs: np.ndarray,
        pseudo_labels: np.ndarray,
        updater: WeightUpdater,
        history: dict[str, list[float]],
        rng: np.random.Generator,
    ) -> float:
        """Lines 5–13 of Algorithm 1. Returns final counterfactual coverage.

        One :class:`~repro.training.MinibatchEngine` run over *all* nodes:
        a full-graph step per epoch, or with ``resolved_finetune_minibatch()``
        sampled seed batches that a ``seed_fn`` extends with the batch's
        counterfactual targets, so the fair loss's gradient reaches both
        sides of every pair while peak memory stays bounded by the batch
        receptive field.  Each step optimises the utility loss on the
        labelled nodes plus the weighted fair loss on the counterfactual
        pairs (:func:`fair_representation_loss`, or its batch estimate when
        sampled); ``on_epoch_end`` runs the closed-form λ update.

        The engine's ``on_epoch_start`` callback refreshes the
        counterfactual index from the engine's exact eval-mode embedding on
        epoch 0 and every ``cf_refresh_epochs``-th epoch after (with
        ``cf_update="incremental"`` each refresh maintains the ANN forest in
        place instead of rebuilding it); both fine-tune paths therefore
        search on the same epochs.  "Early stop operation to preserve
        competitive utility" is the engine's ``"floor"`` checkpoint: the
        fine-tune aborts once validation accuracy falls more than
        ``finetune_val_tolerance`` below its pre-finetune level, keeping the
        last state above the floor.
        """
        config = self.config
        classifier = self.classifier
        sampled = config.resolved_finetune_minibatch()
        feature_array = pseudo_tensor.data
        num_nodes = feature_array.shape[0]
        train_mask = np.asarray(graph.train_mask, dtype=bool)
        labels = graph.labels
        val_indices = np.where(graph.val_mask)[0]
        num_attrs = binary_attrs.shape[1]
        engine = MinibatchEngine(
            classifier,
            feature_array,
            graph.adjacency,
            fanouts=config.resolved_fanouts(),
            batch_size=config.batch_size if sampled else None,
            optimizer=Adam(
                classifier.parameters(),
                lr=config.resolved_finetune_lr(),
                weight_decay=config.weight_decay,
            ),
        )
        search = self._make_search(rng)
        self._search = search
        cf_index: CounterfactualIndex | None = None
        coverage = 0.0
        running_disparities = np.zeros(num_attrs)
        epoch_utility = epoch_fair = 0.0
        train_seen = 0
        disparity_sums = np.zeros(num_attrs)
        disparity_counts = np.zeros(num_attrs)
        epoch_losses: tuple[float, float, float] = (0.0, 0.0, 0.0)

        def on_epoch_start(epoch: int) -> None:
            nonlocal cf_index, coverage, running_disparities
            nonlocal epoch_utility, epoch_fair, train_seen
            nonlocal disparity_sums, disparity_counts
            if epoch % config.cf_refresh_epochs == 0:
                reps = engine.embed()
                cf_index = search.search(reps, pseudo_labels, binary_attrs)
                coverage = cf_index.coverage()
                if sampled:
                    # Snapshot disparities for every attribute so the λ
                    # update has a current estimate even for attributes a
                    # subsampling epoch never draws (they must not read as
                    # "perfectly fair").
                    running_disparities = _snapshot_disparities(reps, cf_index)
            epoch_utility = epoch_fair = 0.0
            train_seen = 0
            disparity_sums = np.zeros(num_attrs)
            disparity_counts = np.zeros(num_attrs)

        def seed_fn(batch: np.ndarray, step_rng: np.random.Generator):
            # Attribute subsampling (cf_attrs_per_step): each step only
            # materialises M of the I attributes' counterfactual pairs;
            # the I/M rescale keeps the fair-loss gradient unbiased.
            if (
                config.cf_attrs_per_step is not None
                and config.cf_attrs_per_step < num_attrs
            ):
                attrs_step = np.sort(
                    step_rng.choice(
                        num_attrs, size=config.cf_attrs_per_step, replace=False
                    )
                )
                fair_scale = num_attrs / attrs_step.size
            else:
                attrs_step = np.arange(num_attrs)
                fair_scale = 1.0
            # Seed set: the batch plus its valid counterfactual targets,
            # so the fair loss's gradient reaches both sides of each pair.
            # np.ix_ slices both axes at once — no O(I·N·K) intermediate.
            sub = np.ix_(attrs_step, batch)
            targets = cf_index.indices[sub][cf_index.valid[sub]]
            seeds = sorted_unique(np.concatenate([batch, targets.reshape(-1)]))
            return seeds, (attrs_step, fair_scale)

        def loss_fn(step: TrainStep) -> Tensor:
            nonlocal epoch_utility, epoch_fair, train_seen, epoch_losses
            nonlocal disparity_sums, disparity_counts, running_disparities
            h = step.output
            batch = step.batch
            batch_train = batch[train_mask[batch]]
            if batch_train.size:
                logits = classifier.head(h).reshape(-1)
                utility = binary_cross_entropy_with_logits(
                    logits[step.local_index(batch_train)],
                    labels[batch_train].astype(np.float64),
                )
            else:
                utility = Tensor(np.zeros(()))
            if not sampled:
                # The full-graph step's statistics are the epoch's.
                fair, running_disparities = fair_representation_loss(
                    h, cf_index, updater.weights
                )
                total = utility + config.alpha * fair
                epoch_losses = (
                    float(total.data), float(utility.data), float(fair.data)
                )
                return total
            attrs_step, fair_scale = step.payload
            fair, disparities, valid_counts = fair_representation_loss_minibatch(
                h, cf_index, updater.weights, batch, step.seeds, attrs=attrs_step
            )
            disparity_sums += disparities * valid_counts
            disparity_counts += valid_counts
            # Each mean is re-weighted by the count it was taken over so
            # the logged epoch values match the full-batch statistics.
            epoch_utility += float(utility.data) * batch_train.size
            train_seen += batch_train.size
            epoch_fair += float(fair.data) * fair_scale * batch.size
            return utility + (config.alpha * fair_scale) * fair

        def on_epoch_end(epoch: int) -> None:
            nonlocal epoch_losses
            if sampled:
                # Weighted mean of the batch disparities == the full-graph
                # D_i (mean over valid nodes), so the λ update sees the same
                # statistic as the full-batch path.  Attributes this epoch
                # never evaluated (cf_attrs_per_step subsampling) keep their
                # latest estimate instead of collapsing to zero.
                seen = disparity_counts > 0
                running_disparities[seen] = (
                    disparity_sums[seen] / disparity_counts[seen]
                )
                utility_epoch = epoch_utility / max(train_seen, 1)
                fair_epoch = epoch_fair / num_nodes
                epoch_losses = (
                    utility_epoch + config.alpha * fair_epoch,
                    utility_epoch,
                    fair_epoch,
                )
            if config.use_weight_update:
                updater.update(running_disparities)
            for key, value in zip(
                ("finetune_loss", "finetune_utility_loss", "finetune_fair_loss"),
                epoch_losses,
            ):
                history[key].append(value)

        fit = engine.run(
            np.arange(num_nodes, dtype=np.int64),
            config.finetune_epochs,
            loss_fn,
            rng,
            val_nodes=val_indices,
            val_labels=labels[val_indices],
            checkpoint="floor",
            val_tolerance=config.finetune_val_tolerance,
            forward="embed",
            seed_fn=seed_fn,
            on_epoch_start=on_epoch_start,
            on_epoch_end=on_epoch_end,
        )
        history["finetune_val_accuracy"].extend(fit.val_accuracy)
        return coverage

    # ------------------------------------------------------------------ #
    def _predict_logits(self, pseudo_tensor: Tensor, adjacency) -> np.ndarray:
        """Full-graph logits, batched when the config asks for minibatching."""
        return predict_logits_batched(
            self.classifier,
            pseudo_tensor,
            adjacency,
            batch_size=self.config.batch_size if self.config.minibatch else None,
        )

    def predict(self, graph: Graph) -> np.ndarray:
        """Logits of the fitted model on ``graph`` (requires ``fit`` first)."""
        if self.classifier is None or self._pseudo_features is None:
            raise RuntimeError("call fit() before predict()")
        with dtype_scope(self.config.dtype):
            return self._predict_logits(self._pseudo_features, graph.adjacency)

    def transform_features(self, features, adjacency) -> np.ndarray:
        """Map a raw feature matrix to the classifier's X(0) input space.

        Applies the fitted preprocessing pipeline to *new* data: the
        pre-trained encoder's representation (when ``use_encoder``), the
        training-time standardization moments, and the training-time
        variance-based column selection.  The result feeds
        :meth:`~repro.training.engine.predict_logits_batched` directly, so
        a persisted artifact can score feature matrices it never trained
        on.  Requires :meth:`fit` (or an artifact load) first.
        """
        if self.classifier is None or self._pseudo_stats is None:
            raise RuntimeError("call fit() before transform_features()")
        with dtype_scope(self.config.dtype):
            features = Tensor(features)
            if self.config.use_encoder:
                if self.encoder is None:
                    raise RuntimeError("encoder missing from fitted trainer")
                raw = self.encoder.extract(features, adjacency)
            else:
                raw = features.data.copy()
            stats = self._pseudo_stats
            pseudo = (raw - stats["mean"][None, :]) / stats["std"][None, :]
            if stats["keep"] is not None:
                pseudo = pseudo[:, stats["keep"]]
            return pseudo


def _snapshot_disparities(
    representations: np.ndarray, cf_index: CounterfactualIndex
) -> np.ndarray:
    """Per-attribute disparities ``D_i`` from a detached representation
    snapshot — the sampled fine-tune's λ-update baseline for attributes its
    subsampled epochs have not yet measured.  Delegates to
    :func:`fair_representation_loss` (zero weights, gradients disabled) so
    the Eq. 12 formula lives in exactly one place."""
    with no_grad():
        _, disparities = fair_representation_loss(
            Tensor(representations), cf_index, np.zeros(cf_index.num_attributes)
        )
    return disparities


def _standardize(
    matrix: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Z-score columns; constant columns become zero.

    Returns ``(standardized, mean, std)`` — the fit-time statistics are part
    of the model (a scored feature matrix must be shifted and scaled by the
    *training* moments), so the trainer stashes them for persistence.
    """
    mean = matrix.mean(axis=0, keepdims=True)
    std = matrix.std(axis=0, keepdims=True)
    std[std == 0] = 1.0
    return (matrix - mean) / std, mean.reshape(-1), std.reshape(-1)
