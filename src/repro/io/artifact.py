"""Versioned model artifacts: train once, score without refitting.

A trained method (the Fairwos trainer or any of the five baselines) is
persisted as a *directory bundle*::

    artifact/
        manifest.json   schema version, method kind, resolved config,
                        dataset fingerprints, index + file inventory
        model.npz       encoder + classifier weights (namespaced
                        state-dicts via repro.io.model_io.pack_state)
        arrays.npz      the fitted preprocessing state: X(0) pseudo
                        matrix, binarized attributes, pseudo-labels,
                        standardization moments, column selections
        index.npz       the standing counterfactual index — the RP
                        forest's 12 arrays (parameters, points, split
                        planes and (trees, N) routing tables; kind "ann")
                        or the exact point matrix (kind "exact")
        graph.npz       optional bundled training graph (save_graph),
                        so `repro score --artifact PATH` is
                        self-contained

Everything is plain ``.npz`` + JSON — no pickling, so artifacts are safe
to load from untrusted storage and diffable across library versions.

:func:`save_artifact` writes the bundle; :func:`load_artifact` validates
the manifest (schema version, member inventory) with explicit
:class:`ArtifactError`\\ s on mismatch and reconstructs the method in eval
mode.  The returned :class:`ModelArtifact` scores node batches through
:func:`repro.training.engine.predict_logits_batched` (bit-identical to the
in-memory trainer at the same weights), retrieves per-user counterfactuals
from the persisted index without a rebuild, and emits fairness audits —
including the per-window drift report of
:func:`repro.fairness.audit.audit_prediction_windows`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from repro.baselines import BASELINES
from repro.baselines.base import BaselineMethod
from repro.core import FairwosConfig, FairwosTrainer
from repro.core.ann import EXHAUSTIVE, AnnBackend, RPForestIndex
from repro.core.counterfactual import CounterfactualIndex, CounterfactualSearch
from repro.core.encoder import EncoderModule
from repro.gnnzoo import make_backbone
from repro.gnnzoo.base import identity_cached
from repro.graph import Graph, NeighborSampler
from repro.io.graph_io import load_graph, save_graph
from repro.io.model_io import pack_state, unpack_state
from repro.tensor import Tensor, dtype_scope
from repro.training import embed_batched, predict_logits_batched

__all__ = ["ArtifactError", "ModelArtifact", "save_artifact", "load_artifact"]

#: Manifest schema version.  Bumped on any incompatible layout change;
#: :func:`load_artifact` refuses other versions with a clear error.
ARTIFACT_VERSION = 5

_MANIFEST = "manifest.json"
_MODEL = "model.npz"
_ARRAYS = "arrays.npz"
_INDEX = "index.npz"
_GRAPH = "graph.npz"

# A baseline manifest names its class, e.g. "FairRF".
_BASELINE_CLASSES = {cls.__name__: cls for cls in BASELINES.values()}


class ArtifactError(ValueError):
    """A model artifact is missing, corrupt, or from another schema."""


# --------------------------------------------------------------------- #
# Fingerprints
# --------------------------------------------------------------------- #
def _fingerprint(array: np.ndarray) -> str:
    """sha256 over dtype, shape and raw bytes of one array."""
    array = np.ascontiguousarray(array)
    digest = hashlib.sha256()
    digest.update(str(array.dtype).encode())
    digest.update(str(array.shape).encode())
    digest.update(array.tobytes())
    return digest.hexdigest()


def graph_fingerprints(graph: Graph) -> dict[str, str]:
    """Per-component content hashes identifying a dataset + split."""
    adjacency = graph.adjacency.tocsr()
    return {
        "features": _fingerprint(graph.features),
        "labels": _fingerprint(graph.labels),
        "sensitive": _fingerprint(graph.sensitive),
        "train_mask": _fingerprint(graph.train_mask),
        "val_mask": _fingerprint(graph.val_mask),
        "test_mask": _fingerprint(graph.test_mask),
        "adjacency": _fingerprint(adjacency.data)
        + _fingerprint(adjacency.indices)[:16]
        + _fingerprint(adjacency.indptr)[:16],
    }


def _jsonify(value):
    """Recursively convert numpy scalars/arrays for json.dumps."""
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonify(v) for v in value.tolist()]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


# --------------------------------------------------------------------- #
# Save
# --------------------------------------------------------------------- #
def save_artifact(
    model,
    graph: Graph,
    path: str | Path,
    include_graph: bool = True,
    execution=None,
) -> Path:
    """Persist a fitted method as a versioned artifact directory.

    Parameters
    ----------
    model:
        A fitted :class:`~repro.core.trainer.FairwosTrainer`, or any of
        the five baselines of :data:`repro.baselines.BASELINES` after
        ``fit`` (which retains its model as ``model_``).  An unfitted
        baseline raises :class:`ArtifactError`.
    graph:
        The training graph — fingerprinted into the manifest (and bundled
        verbatim unless ``include_graph=False``) so the serving side can
        verify it scores what was trained on.
    path:
        Target directory (created; an existing *artifact* directory is
        overwritten member-by-member).
    include_graph:
        Bundle the graph via :func:`repro.io.save_graph` so ``repro
        score --artifact PATH`` needs no dataset flag.  Disable for very
        large graphs stored elsewhere.
    execution:
        The resolved :class:`~repro.core.config.ExecutionConfig` the model
        was trained under; persisted verbatim into the manifest
        (``manifest["execution"]``) so a run is reproducible from its
        artifact alone (``repro run --save`` passes it automatically).

    Returns the artifact directory path.
    """
    path = Path(path)
    if path.exists() and not path.is_dir():
        raise ArtifactError(f"artifact path {path} exists and is not a directory")
    path.mkdir(parents=True, exist_ok=True)

    if isinstance(model, FairwosTrainer):
        manifest = _save_fairwos(model, graph, path)
    elif isinstance(model, BaselineMethod):
        manifest = _save_baseline(model, graph, path)
    else:
        raise ArtifactError(
            f"cannot persist {type(model).__name__}; expected a fitted "
            f"FairwosTrainer or BaselineMethod"
        )

    manifest["format_version"] = ARTIFACT_VERSION
    if execution is not None:
        manifest["execution"] = _jsonify(asdict(execution))
    manifest["dataset"] = {
        "name": graph.name,
        "num_nodes": int(graph.num_nodes),
        "num_features": int(graph.num_features),
        "fingerprints": graph_fingerprints(graph),
    }
    if include_graph:
        save_graph(graph, path / _GRAPH)
    manifest["files"] = sorted(
        member.name for member in path.iterdir() if member.name != _MANIFEST
    )
    (path / _MANIFEST).write_text(
        json.dumps(_jsonify(manifest), indent=2, sort_keys=True) + "\n"
    )
    return path


def _save_fairwos(trainer: FairwosTrainer, graph: Graph, path: Path) -> dict:
    if trainer.classifier is None or trainer._pseudo_features is None:
        raise ArtifactError("trainer has not been fitted; call fit() first")
    if trainer._pseudo_stats is None or trainer._binary_attrs is None:
        raise ArtifactError(
            "trainer predates the serving-state contract; re-run fit() with "
            "this library version before saving"
        )

    model_arrays = pack_state(trainer.classifier, "classifier/")
    if trainer.encoder is not None:
        model_arrays.update(pack_state(trainer.encoder.network, "encoder/"))
    np.savez_compressed(path / _MODEL, **model_arrays)

    stats = trainer._pseudo_stats
    arrays = {
        "pseudo": trainer._pseudo_features.data,
        "binary_attrs": trainer._binary_attrs,
        "pseudo_labels": trainer._pseudo_labels,
        "pseudo_mean": stats["mean"],
        "pseudo_std": stats["std"],
    }
    if stats["keep"] is not None:
        arrays["pseudo_keep"] = stats["keep"]
    np.savez_compressed(path / _ARRAYS, **arrays)

    index_meta = _save_index(trainer, graph, path)
    return {
        "kind": "fairwos",
        "method": "Fairwos",
        "config": _jsonify(asdict(trainer.config)),
        "has_encoder": trainer.encoder is not None,
        "index": index_meta,
    }


def _save_index(trainer: FairwosTrainer, graph: Graph, path: Path) -> dict:
    """Persist the standing counterfactual index (or a fresh exact one).

    The live backend is saved verbatim — an ANN forest keeps its split
    planes, routing tables and seed, so restored retrieval is
    bit-identical without a rebuild.  A trainer that never built an
    index (``use_fairness=False``) gets an exact index over freshly
    embedded representations so counterfactual retrieval still works.
    """
    backend = getattr(trainer._search, "backend", None)
    index = getattr(backend, "_index", None)
    if index is not None and index.num_points:
        np.savez_compressed(path / _INDEX, **index.to_arrays())
        return {
            "kind": "ann",
            "num_points": int(index.num_points),
            "num_trees": int(index.num_trees),
        }
    points = getattr(backend, "_points", None)
    if points is None:
        config = trainer.config
        with dtype_scope(config.dtype):
            points = embed_batched(
                trainer.classifier,
                trainer._pseudo_features,
                graph.adjacency,
                batch_size=config.batch_size if config.minibatch else None,
            )
    np.savez_compressed(path / _INDEX, points=np.asarray(points, dtype=np.float64))
    return {"kind": "exact", "num_points": int(np.asarray(points).shape[0])}


def _save_baseline(method: BaselineMethod, graph: Graph, path: Path) -> dict:
    model = method.model_
    if model is None:
        raise ArtifactError(
            f"{type(method).__name__} did not retain a trained model "
            f"(model_ is unset) — fit it first"
        )
    class_name = type(method).__name__
    if class_name not in _BASELINE_CLASSES:
        raise ArtifactError(
            f"unknown baseline class {class_name}; artifacts only cover the "
            f"built-in methods {sorted(_BASELINE_CLASSES)}"
        )
    columns = method.feature_columns_
    config = {
        "class": class_name,
        "backbone": method.backbone,
        "hidden_dim": int(method.hidden_dim),
        "num_layers": int(method.num_layers),
        "epochs": int(method.epochs),
        "lr": float(method.lr),
        "patience": None if method.patience is None else int(method.patience),
        "minibatch": bool(method.minibatch),
        "fanouts": method.fanouts,
        "batch_size": int(method.batch_size),
        "in_dim": int(
            graph.num_features if columns is None else np.asarray(columns).size
        ),
    }
    np.savez_compressed(path / _MODEL, **pack_state(model, "model/"))
    arrays = {}
    if columns is not None:
        arrays["feature_columns"] = np.asarray(columns, dtype=np.int64)
    np.savez_compressed(path / _ARRAYS, **arrays)
    return {
        "kind": "baseline",
        "method": method.name,
        "config": config,
        "index": {"kind": "none"},
    }


# --------------------------------------------------------------------- #
# Load
# --------------------------------------------------------------------- #
def load_artifact(path: str | Path) -> "ModelArtifact":
    """Load and validate an artifact directory; reconstruct in eval mode.

    Raises :class:`ArtifactError` with a specific message when the
    directory is not an artifact, the manifest is corrupt, the schema
    version differs from :data:`ARTIFACT_VERSION`, or listed member files
    are missing.
    """
    path = Path(path)
    manifest_path = path / _MANIFEST
    if not manifest_path.is_file():
        raise ArtifactError(
            f"{path} is not a model artifact (no {_MANIFEST}); expected a "
            f"directory written by save_artifact()"
        )
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"corrupt manifest in {path}: {exc}") from exc
    version = manifest.get("format_version")
    if version != ARTIFACT_VERSION:
        raise ArtifactError(
            f"unsupported artifact version {version!r} (this library reads "
            f"version {ARTIFACT_VERSION}); re-save the artifact with a "
            f"matching library version"
        )
    for member in manifest.get("files", []):
        if not (path / member).is_file():
            raise ArtifactError(
                f"artifact {path} is missing member file {member!r} listed "
                f"in its manifest"
            )
    kind = manifest.get("kind")
    if kind not in ("fairwos", "baseline"):
        raise ArtifactError(
            f"unknown artifact kind {kind!r}; expected 'fairwos' or 'baseline'"
        )
    return ModelArtifact(path, manifest)


def _load_npz(path: Path, name: str) -> dict[str, np.ndarray]:
    member = path / name
    if not member.is_file():
        raise ArtifactError(f"artifact {path} is missing {name}")
    try:
        with np.load(member, allow_pickle=False) as data:
            return {key: data[key] for key in data.files}
    except (ValueError, OSError) as exc:
        raise ArtifactError(f"corrupt artifact member {member}: {exc}") from exc


class _FrozenForestBackend(AnnBackend):
    """:class:`AnnBackend` over a persisted RP forest.

    ``prepare`` is a no-op — the index is frozen at its saved state, which
    is exactly what serving wants: retrieval reflects the representations
    the model was trained (and audited) with.  ``probes`` (an int)
    overrides the saved default per query pass.
    """

    name = "frozen-ann"

    def __init__(self, index: RPForestIndex, probes: int | None = None) -> None:
        super().__init__()
        self._index = index
        self.probes = probes

    def prepare(self, points: np.ndarray) -> None:  # noqa: ARG002
        return None

    def topk_counterfactuals(self, query_ids, labels, attributes, k):
        return self._index.query_counterfactuals(
            query_ids, k, labels, attributes, probes=self.probes
        )


def _override(name: str, value: int | None, saved: int) -> int:
    """``value`` when given, else the saved setting; values below 1 raise
    (0 is an invalid override, not "unset")."""
    if value is None:
        return saved
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return value


class ModelArtifact:
    """A loaded artifact: a trained method ready to score.

    Construct via :func:`load_artifact`.  Exposes

    * :meth:`score` — batch logits over the bundled graph, a node subset,
      or a brand-new feature matrix (bit-identical to the in-memory
      trainer's predictions at the same weights);
    * :meth:`counterfactuals` — per-user retrieval from the persisted
      index, no rebuild;
    * :meth:`audit` / :meth:`audit_windows` — fairness reports for drift
      monitoring;
    * :meth:`matches` — fingerprint check of a candidate graph against
      the training dataset.

    A minibatch artifact keeps one full-neighbourhood
    :class:`~repro.graph.NeighborSampler` per scored adjacency, whose
    position map is not thread-safe: serve one artifact from one thread.
    """

    def __init__(self, path: Path, manifest: dict) -> None:
        self.path = Path(path)
        self.manifest = manifest
        self.kind: str = manifest["kind"]
        self.method_name: str = manifest.get("method", self.kind)
        self._graph: Graph | None = None
        # One full-neighbourhood sampler per scored adjacency (minibatch
        # artifacts), so a request does not rebuild the sampler's O(N + E)
        # state.  Keyed by adjacency identity like the backbones' operators.
        self._samplers: dict[int, tuple] = {}
        # The resolved execution settings the run trained under, when the
        # saver recorded them (repro run --save does); None for artifacts
        # written before the execution manifest or saved without one.
        self.execution: dict | None = manifest.get("execution")
        if self.kind == "fairwos":
            self._load_fairwos()
            self._model = self.trainer.classifier
        else:
            self._load_baseline()
            self._model = self.baseline.model_
        # Scoring runs in the precision the weights were trained in, as the
        # live model scores.
        self._dtype = self._model.parameters()[0].data.dtype

    # -- reconstruction ------------------------------------------------ #
    def _load_fairwos(self) -> None:
        raw = dict(self.manifest["config"])
        if raw.get("fanouts") is not None:
            raw["fanouts"] = tuple(raw["fanouts"])
        try:
            self.config = FairwosConfig(**raw)
        except TypeError as exc:
            raise ArtifactError(
                f"manifest config does not match FairwosConfig ({exc}); the "
                f"artifact was written by an incompatible library version"
            ) from exc
        arrays = _load_npz(self.path, _ARRAYS)
        model_arrays = _load_npz(self.path, _MODEL)
        pseudo = arrays["pseudo"]
        rng = np.random.default_rng(0)  # weights are overwritten below
        trainer = FairwosTrainer(self.config)
        trainer.classifier = make_backbone(
            self.config.backbone,
            pseudo.shape[1],
            self.config.hidden_dim,
            rng,
            num_layers=self.config.num_layers,
            dropout=self.config.dropout,
        )
        try:
            trainer.classifier.load_state_dict(
                unpack_state(model_arrays, "classifier/")
            )
        except (KeyError, ValueError) as exc:
            raise ArtifactError(
                f"classifier weights do not fit the manifest architecture: {exc}"
            ) from exc
        trainer.classifier.eval()
        if self.manifest.get("has_encoder"):
            in_dim = int(self.manifest["dataset"]["num_features"])
            encoder = EncoderModule(
                in_dim,
                self.config.encoder_dim,
                rng,
                backbone=self.config.encoder_backbone,
            )
            try:
                encoder.network.load_state_dict(
                    unpack_state(model_arrays, "encoder/")
                )
            except (KeyError, ValueError) as exc:
                raise ArtifactError(
                    f"encoder weights do not fit the manifest architecture: "
                    f"{exc}"
                ) from exc
            encoder.network.eval()
            encoder.pretrained = True
            trainer.encoder = encoder
        with dtype_scope(self.config.dtype):
            trainer._pseudo_features = Tensor(pseudo)
        trainer._binary_attrs = arrays["binary_attrs"]
        trainer._pseudo_labels = arrays["pseudo_labels"]
        trainer._pseudo_stats = {
            "mean": arrays["pseudo_mean"],
            "std": arrays["pseudo_std"],
            "keep": arrays.get("pseudo_keep"),
        }
        self.trainer = trainer
        self.baseline = None

        index_arrays = _load_npz(self.path, _INDEX)
        index_kind = self.manifest.get("index", {}).get("kind")
        if index_kind == "ann":
            try:
                self._index = RPForestIndex.from_arrays(index_arrays)
            except (KeyError, ValueError) as exc:
                raise ArtifactError(
                    f"corrupt persisted index in {self.path}: {exc}"
                ) from exc
            self._index_points = self._index.points
        elif index_kind == "exact":
            self._index = None
            self._index_points = np.asarray(
                index_arrays["points"], dtype=np.float64
            )
        else:
            raise ArtifactError(
                f"unknown index kind {index_kind!r} in manifest"
            )

    def _load_baseline(self) -> None:
        config = dict(self.manifest["config"])
        class_name = config.get("class")
        cls = _BASELINE_CLASSES.get(class_name)
        if cls is None:
            raise ArtifactError(
                f"unknown baseline class {class_name!r} in manifest"
            )
        kwargs = dict(
            backbone=config["backbone"],
            hidden_dim=int(config["hidden_dim"]),
            num_layers=int(config["num_layers"]),
            epochs=int(config["epochs"]),
            lr=float(config["lr"]),
            patience=config["patience"],
        )
        method = cls(
            minibatch=bool(config.get("minibatch", False)),
            fanouts=(
                tuple(config["fanouts"]) if config.get("fanouts") else None
            ),
            batch_size=int(config.get("batch_size", 512)),
            **kwargs,
        )
        model = make_backbone(
            config["backbone"],
            int(config["in_dim"]),
            int(config["hidden_dim"]),
            np.random.default_rng(0),
            num_layers=int(config["num_layers"]),
        )
        model_arrays = _load_npz(self.path, _MODEL)
        try:
            model.load_state_dict(unpack_state(model_arrays, "model/"))
        except (KeyError, ValueError) as exc:
            raise ArtifactError(
                f"model weights do not fit the manifest architecture: {exc}"
            ) from exc
        model.eval()
        method.model_ = model
        arrays = _load_npz(self.path, _ARRAYS)
        if "feature_columns" in arrays:
            method.feature_columns_ = arrays["feature_columns"]
        self.baseline = method
        self.trainer = None
        self.config = config
        self._index = None
        self._index_points = None

    # -- graph access -------------------------------------------------- #
    @property
    def graph(self) -> Graph | None:
        """The bundled training graph, or None when saved without one."""
        if self._graph is None and (self.path / _GRAPH).is_file():
            self._graph = load_graph(self.path / _GRAPH)
        return self._graph

    def matches(self, graph: Graph) -> bool:
        """Whether ``graph`` fingerprints equal the training dataset's."""
        saved = self.manifest["dataset"]["fingerprints"]
        return graph_fingerprints(graph) == saved

    def _resolve_graph(self, graph: Graph | None) -> Graph:
        graph = graph or self.graph
        if graph is None:
            raise ArtifactError(
                "this artifact was saved without its graph "
                "(include_graph=False); pass one explicitly"
            )
        return graph

    # -- scoring ------------------------------------------------------- #
    def score(
        self,
        graph: Graph | None = None,
        nodes: np.ndarray | None = None,
        features: np.ndarray | None = None,
        batch_size: int | None = None,
    ) -> np.ndarray:
        """Logits from the persisted model — no retraining.

        Parameters
        ----------
        graph:
            Graph to score (default: the bundled training graph).
        nodes:
            Optional node ids in ``[0, N)``; returns one logit per id, in
            order (a repeated id is scored once and returned per request).
        features:
            Optional replacement feature matrix (``(N, F_raw)`` in the raw
            input space); it is pushed through the fitted preprocessing
            (encoder, standardization, column selection) before scoring.
            Requires ``graph`` (or the bundle) for the adjacency.
        batch_size:
            Batched-inference batch size override (minibatch configs);
            ``None`` keeps the saved one, values below 1 raise.

        Scoring runs in the dtype of the stored weights and reproduces the
        in-memory model's predictions bit-identically, dtype included.
        """
        graph = self._resolve_graph(graph)
        if self.kind == "fairwos":
            return self._score_fairwos(graph, nodes, features, batch_size)
        return self._score_baseline(graph, nodes, features, batch_size)

    def _score_fairwos(self, graph, nodes, features, batch_size):
        trainer = self.trainer
        config = trainer.config
        batch_size = _override("batch_size", batch_size, config.batch_size)
        if features is not None:
            pseudo = trainer.transform_features(features, graph.adjacency)
        else:
            pseudo = trainer._pseudo_features
            if graph.num_nodes != pseudo.data.shape[0]:
                raise ArtifactError(
                    f"graph has {graph.num_nodes} nodes but the artifact was "
                    f"trained on {pseudo.data.shape[0]}; pass features= to "
                    f"score new data"
                )
        return self._predict(
            pseudo, graph, nodes, batch_size if config.minibatch else None
        )

    def _score_baseline(self, graph, nodes, features, batch_size):
        method = self.baseline
        batch_size = _override("batch_size", batch_size, method.batch_size)
        raw = graph.features if features is None else np.asarray(features)
        if method.feature_columns_ is not None:
            raw = raw[:, method.feature_columns_]
        expected = int(self.manifest["config"]["in_dim"])
        if raw.shape[1] != expected:
            raise ArtifactError(
                f"feature matrix has {raw.shape[1]} columns but the model "
                f"expects {expected}"
            )
        return self._predict(
            raw, graph, nodes, batch_size if method.minibatch else None
        )

    def _predict(self, features, graph, nodes, batch_size) -> np.ndarray:
        """Eval-mode logits of the stored model for ``nodes``
        (``batch_size=None``: one full-graph forward)."""
        sampler = None
        if batch_size is not None:
            sampler = identity_cached(
                self._samplers,
                graph.adjacency,
                lambda adjacency: NeighborSampler.full_neighborhood(
                    adjacency, self._model.num_layers
                ),
            )
        with dtype_scope(self._dtype):
            return predict_logits_batched(
                self._model, features, graph.adjacency, nodes=nodes,
                batch_size=batch_size, sampler=sampler,
            )

    # -- counterfactual retrieval -------------------------------------- #
    def counterfactuals(
        self,
        nodes: np.ndarray | None = None,
        top_k: int | None = None,
        probes=None,
    ) -> CounterfactualIndex:
        """Retrieve counterfactual twins from the persisted index.

        Queries the standing index exactly as the trainer's last refresh
        left it — tree arrays and routing tables included — so no rebuild
        happens at serving time.  Retrieval covers the *indexed*
        (training-graph) nodes; pass ``nodes`` to restrict the query set to
        a served batch, ``probes`` (an int) to trade recall for work per
        query.  ``probes="exhaustive"`` runs the exact search over the
        persisted points instead, the answer an exact index gives.
        ``top_k`` overrides the saved K; values below 1 raise.

        Only Fairwos artifacts carry an index; baselines raise.
        """
        if self.kind != "fairwos":
            raise ArtifactError(
                f"{self.method_name} artifacts carry no counterfactual "
                f"index; only Fairwos does"
            )
        if self._index is not None and probes != EXHAUSTIVE:
            backend = _FrozenForestBackend(self._index, probes=probes)
        elif probes in (None, EXHAUSTIVE):
            # search() prepares the exact backend with the persisted points.
            backend = "exact"
        else:
            raise ArtifactError(
                "probes overrides only apply to ANN-indexed artifacts"
            )
        trainer = self.trainer
        search = CounterfactualSearch(
            _override("top_k", top_k, trainer.config.top_k), backend=backend
        )
        return search.search(
            self._index_points,
            trainer._pseudo_labels,
            trainer._binary_attrs,
            nodes=nodes,
        )

    # -- auditing ------------------------------------------------------ #
    def audit(self, graph: Graph | None = None, logits: np.ndarray | None = None):
        """Model-side fairness audit of current scores (test split)."""
        from repro.fairness.audit import audit_predictions

        graph = self._resolve_graph(graph)
        if logits is None:
            logits = self.score(graph)
        return audit_predictions(logits, graph)

    def audit_windows(
        self,
        num_windows: int = 4,
        graph: Graph | None = None,
        logits: np.ndarray | None = None,
        nodes: np.ndarray | None = None,
    ):
        """Per-window fairness audit for drift monitoring.

        Splits the scored node stream into ``num_windows`` contiguous
        windows (node-id order unless ``nodes`` gives an explicit arrival
        order) and evaluates fairness per window — the serving-side signal
        that scoring drifted away from the shipped audit.
        """
        from repro.fairness.audit import audit_prediction_windows

        graph = self._resolve_graph(graph)
        if nodes is None:
            nodes = np.arange(graph.num_nodes, dtype=np.int64)
        else:
            nodes = np.asarray(nodes, dtype=np.int64)
        if logits is None:
            logits = self.score(graph, nodes=nodes)
        return audit_prediction_windows(
            logits,
            graph.labels[nodes],
            graph.sensitive[nodes],
            num_windows=num_windows,
        )
