"""Span recording for the traced benchmark run.

The benchmark measures the program from outside: :meth:`Tracer.install`
replaces each public entry point named in :data:`LAYERS` with a wrapper
that records a span around the call, at every place a caller looks the
name up (the class for a method; for a function, every loaded module that
imported it, such as the names ``repro.core.trainer`` imports).
:meth:`Tracer.uninstall` puts the originals back.  The wrappers pass
arguments and results through untouched, so a traced run computes the same
bits as an untraced one; the benchmark checks that.

Spans (name, start, end, parent, run id, attributes) are kept in memory
and written as JSON once the run ends.  :func:`layer_metrics` folds them
into the per-layer metrics: ``<layer>_s`` is inclusive time (outermost
spans of that name only, so recursion is not counted twice),
``<layer>_self_s`` subtracts the time of child spans, and ``<layer>_calls``
counts every call.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

__all__ = ["LAYERS", "PER_LAYER_METRICS", "Tracer", "layer_metrics"]


def _query_rows(args, kwargs, result):
    return {"rows": int(result.shape[0])}


def _update_report(args, kwargs, result):
    return {"rebuilt": bool(result.rebuilt), "moved_fraction": float(result.moved_fraction)}


def _method_name(args, kwargs, result):
    return {"method": str(kwargs.get("method", args[0] if args else "")).lower()}


def _mmap_flag(args, kwargs, result):
    return {"mmap": bool(kwargs.get("mmap", args[1] if len(args) > 1 else False))}


# (span name, "module:attribute" of the public entry point, attribute
# recorder).  A dotted attribute is a method, wrapped on its class.
LAYERS = [
    ("ann.query", "repro.core.ann:RPForestIndex.query", _query_rows),
    ("ann.build", "repro.core.ann:RPForestIndex.build", None),
    ("ann.update", "repro.core.ann:RPForestIndex.update", _update_report),
    ("ann.exact_topk", "repro.core.ann:ExactBackend.topk", None),
    ("counterfactual.search", "repro.core.counterfactual:CounterfactualSearch.search", None),
    ("sampling.sample_blocks", "repro.graph.sampling:NeighborSampler.sample_blocks", None),
    ("training.engine_run", "repro.training.engine:MinibatchEngine.run", None),
    ("training.fit_minibatch", "repro.training.minibatch:fit_minibatch", None),
    ("training.embed_batched", "repro.training.engine:embed_batched", None),
    ("training.fit_binary_classifier", "repro.training.loop:fit_binary_classifier", None),
    ("training.predict_logits", "repro.training.loop:predict_logits", None),
    ("training.predict_logits_batched", "repro.training.engine:predict_logits_batched", None),
    ("encoder.pretrain", "repro.core.encoder:EncoderModule.pretrain", None),
    ("encoder.extract", "repro.core.encoder:EncoderModule.extract", None),
    ("fairloss.full", "repro.core.fairloss:fair_representation_loss", None),
    ("fairloss.minibatch", "repro.core.fairloss:fair_representation_loss_minibatch", None),
    ("weights.update", "repro.core.weights:WeightUpdater.update", None),
    ("experiments.run_method", "repro.experiments.methods:run_method", _method_name),
    ("artifact.load", "repro.io.artifact:load_artifact", None),
    ("artifact.save", "repro.io.artifact:save_artifact", None),
    ("artifact.score", "repro.io.artifact:ModelArtifact.score", None),
    ("artifact.counterfactuals", "repro.io.artifact:ModelArtifact.counterfactuals", None),
    ("datasets.generate", "repro.datasets.registry:load_dataset", None),
    ("datasets.generate", "repro.datasets.scalefree:generate_scale_free_graph", None),
    ("datasets.generate", "repro.datasets.sbm:generate_sbm_graph", None),
    ("io.save_graph_mmap", "repro.io.graph_io:save_graph_mmap", None),
    ("io.load_graph", "repro.io.graph_io:load_graph", _mmap_flag),
]

METHODS = ["vanilla", "remover", "ksmote", "fairrf", "fairgkd", "fairwos"]

# Every per-layer metric with its unit, in report order.
PER_LAYER_METRICS = {
    "ann.query_s": "s",
    "ann.query_calls": "count",
    "ann.query_rows": "count",
    "ann.build_s": "s",
    "ann.build_calls": "count",
    "ann.update_s": "s",
    "ann.update_calls": "count",
    "ann.update_rebuilt": "count",
    "ann.update_moved_frac": "fraction",
    "ann.exact_topk_s": "s",
    "ann.exact_topk_calls": "count",
    "counterfactual.search_s": "s",
    "counterfactual.search_self_s": "s",
    "counterfactual.search_calls": "count",
    "sampling.sample_blocks_s": "s",
    "sampling.sample_blocks_calls": "count",
    "training.engine_run_self_s": "s",
    "training.engine_run_calls": "count",
    "training.fit_minibatch_s": "s",
    "training.embed_batched_s": "s",
    "training.fit_binary_classifier_s": "s",
    "training.predict_logits_s": "s",
    "training.predict_logits_batched_s": "s",
    "training.predict_logits_batched_calls": "count",
    "encoder.pretrain_s": "s",
    "encoder.extract_s": "s",
    "fairloss.full_s": "s",
    "fairloss.full_calls": "count",
    "fairloss.minibatch_s": "s",
    "fairloss.minibatch_calls": "count",
    "weights.update_calls": "count",
    **{f"experiments.run_method_s.{method}": "s" for method in METHODS},
    "artifact.load_s": "s",
    "artifact.score_s": "s",
    "artifact.score_calls": "count",
    "artifact.counterfactuals_s": "s",
    "artifact.counterfactuals_calls": "count",
    "artifact.save_s": "s",
    "datasets.generate_s": "s",
    "io.graph_mmap_roundtrip_s": "s",
    "trace.overhead_frac": "fraction",
}


class Tracer:
    """In-memory span recorder plus the patching that feeds it.

    Single-threaded by design: the benchmark runs every workload in one
    process with ``num_workers=0``, so one span stack suffices.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._origin = time.perf_counter()

    # -- spans --------------------------------------------------------- #
    def _open(self, name: str, attrs: dict) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "start": time.perf_counter() - self._origin,
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter() - self._origin
        self._stack.pop()

    @contextmanager
    def span(self, name: str, **attrs):
        """Record a span around the ``with`` body (the benchmark's phases)."""
        span = self._open(name, attrs)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, name: str, fn, describe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, {})
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if describe is not None:
                span["attrs"].update(describe(args, kwargs, result))
            return result

        return traced

    # -- patching ------------------------------------------------------ #
    def install(self, layers=LAYERS) -> None:
        """Wrap every entry point of ``layers`` where callers look it up."""
        functions = {}
        for name, target, describe in layers:
            module_name, _, qualname = target.partition(":")
            module = importlib.import_module(module_name)
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self._wrap(name, original, describe))
            else:
                original = getattr(module, attr)
                functions[id(original)] = (original, self._wrap(name, original, describe))
        for loaded in list(sys.modules.values()):
            namespace = getattr(loaded, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for key, value in list(namespace.items()):
                hit = functions.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(loaded, key, value, hit[1])

    def _patch(self, owner, attr: str, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every patched name (in reverse order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """Write the span list as JSON."""
        path.write_text(json.dumps({"run": self.run_id, "spans": self.spans}) + "\n")


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Fold a span list into :data:`PER_LAYER_METRICS` (minus the overhead,
    which needs the untraced run too)."""
    by_id = {span["id"]: span for span in spans}
    child_time = dict.fromkeys(by_id, 0.0)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]

    def outermost(span: dict) -> bool:
        parent = span["parent"]
        while parent is not None:
            if by_id[parent]["name"] == span["name"]:
                return False
            parent = by_id[parent]["parent"]
        return True

    inclusive: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    for span in spans:
        name = span["name"]
        duration = span["end"] - span["start"]
        calls[name] = calls.get(name, 0) + 1
        self_time[name] = self_time.get(name, 0.0) + duration - child_time[span["id"]]
        if outermost(span):
            inclusive[name] = inclusive.get(name, 0.0) + duration

    def named(name: str) -> list[dict]:
        return [span for span in spans if span["name"] == name]

    updates = named("ann.update")
    metrics: dict[str, float] = {}
    for metric in PER_LAYER_METRICS:
        layer, _, suffix = metric.rpartition("_")
        if suffix == "s" and not layer.endswith("_self"):
            metrics[metric] = inclusive.get(layer, 0.0)
        elif suffix == "s":
            metrics[metric] = self_time.get(layer[: -len("_self")], 0.0)
        elif suffix == "calls":
            metrics[metric] = calls.get(layer, 0)
    for method in METHODS:
        metrics[f"experiments.run_method_s.{method}"] = sum(
            span["end"] - span["start"]
            for span in named("experiments.run_method")
            if span["attrs"].get("method") == method
        )
    metrics["ann.query_rows"] = sum(span["attrs"]["rows"] for span in named("ann.query"))
    metrics["ann.update_rebuilt"] = sum(span["attrs"]["rebuilt"] for span in updates)
    metrics["ann.update_moved_frac"] = (
        sum(span["attrs"]["moved_fraction"] for span in updates) / len(updates)
        if updates
        else 0.0
    )
    metrics["io.graph_mmap_roundtrip_s"] = inclusive.get("io.save_graph_mmap", 0.0) + sum(
        span["end"] - span["start"]
        for span in named("io.load_graph")
        if span["attrs"].get("mmap")
    )
    return metrics
