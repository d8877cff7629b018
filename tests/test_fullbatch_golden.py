"""Golden seed-0 pins for the full-batch paths the other goldens never reach.

``golden_baselines.json`` and ``golden_scenarios.json`` pin the six Table II
methods at their default settings.  ``golden_fullbatch.json`` adds:

* the two oracle baselines (FairGNN, NIFTY), which train with their own
  adversarial / augmented objectives;
* Fairwos variants whose full-batch branches the six-method cells skip: no
  encoder, the MLP encoder, no λ update, a refresh every third fine-tune
  epoch, and a validation floor that stops the fine-tune early;
* Vanilla on the GIN, GraphSAGE and GAT backbones (the six-method cells
  train GCN only), each full-batch and neighbour-sampled;
* FairGKD sampled, whose MLP feature teacher reads the seed rows of its
  input block instead of message passing.

Each entry pins test accuracy / ΔSP / ΔEO (and λ plus the fine-tune epoch
count for Fairwos, the sum and norm of every logit for the backbone and
sampled entries) at 1e-9, so a change to the shared training loop or to a
backbone's layers cannot move a result without showing up here.

Regenerate after a deliberate behaviour change with::

    PYTHONPATH=src python tests/test_fullbatch_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import FairGKD, Vanilla
from repro.baselines.oracle import NIFTY, FairGNN
from repro.core import FairwosConfig, FairwosTrainer
from repro.datasets import BiasSpec, generate_biased_graph

GOLDEN_PATH = Path(__file__).parent / "golden_fullbatch.json"
# The run_method defaults, as in test_baselines_golden.py.
BUDGET = dict(epochs=150, patience=30)
ORACLES = {"fairgnn": FairGNN, "nifty": NIFTY}
FAIRWOS_BASE = dict(
    encoder_epochs=60, classifier_epochs=60, finetune_epochs=8, patience=20
)
FAIRWOS_VARIANTS = {
    "no_encoder": dict(use_encoder=False),
    "mlp_encoder": dict(encoder_backbone="mlp"),
    "no_weight_update": dict(use_weight_update=False),
    "refresh_every_3": dict(cf_refresh_epochs=3),
    # A zero tolerance trips the validation floor in the third epoch, after
    # one state above the floor was kept (asserted below, so the pin keeps
    # its purpose).
    "floor_stop": dict(finetune_val_tolerance=0.0),
}
# Sampled runs: one-hop fanout 5 over seed batches of 64.
SAMPLED = dict(minibatch=True, fanouts=(5,), batch_size=64)
# (method class, constructor overrides) per pinned backbone/sampling entry.
MODEL_ENTRIES = {
    **{
        f"vanilla_{backbone}{suffix}": (Vanilla, dict(backbone=backbone, **knobs))
        for backbone in ("gin", "sage", "gat")
        for suffix, knobs in (("", {}), ("_sampled", SAMPLED))
    },
    "fairgkd_sampled": (FairGKD, SAMPLED),
}


def _golden_graph():
    """The graph of test_baselines_golden.py, rebuilt so this script stays
    standalone."""
    return generate_biased_graph(
        num_nodes=250,
        num_features=12,
        average_degree=10,
        spec=BiasSpec(
            label_bias=0.2,
            proxy_strength=1.0,
            group_homophily=2.0,
            label_signal_strength=0.5,
        ),
        seed=7,
        name="golden",
    ).standardized()


def _metrics(evaluation) -> dict:
    return {
        "accuracy": float(evaluation.accuracy),
        "delta_sp": float(evaluation.delta_sp),
        "delta_eo": float(evaluation.delta_eo),
    }


def _compute() -> dict:
    graph = _golden_graph()
    out: dict = {}
    for key, cls in ORACLES.items():
        out[key] = _metrics(cls(**BUDGET).fit(graph, seed=0).test)
    for key, (cls, overrides) in MODEL_ENTRIES.items():
        result = cls(**BUDGET, **overrides).fit(graph, seed=0, keep_logits=True)
        logits = result.extra["logits"]
        out[key] = {
            **_metrics(result.test),
            "logit_sum": float(logits.sum()),
            "logit_norm": float(np.linalg.norm(logits)),
        }
    for key, overrides in FAIRWOS_VARIANTS.items():
        config = FairwosConfig(**FAIRWOS_BASE, **overrides)
        result = FairwosTrainer(config).fit(graph, seed=0)
        out[f"fairwos_{key}"] = {
            **_metrics(result.test),
            "lambda": [float(w) for w in result.lambda_weights],
            "finetune_epochs_run": len(result.history["finetune_val_accuracy"]),
        }
    return out


@pytest.fixture(scope="module")
def golden() -> dict:
    assert GOLDEN_PATH.exists(), (
        f"{GOLDEN_PATH} missing — regenerate with "
        f"`PYTHONPATH=src python {Path(__file__).name}`"
    )
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def current() -> dict:
    return _compute()


KEYS = (
    sorted(ORACLES)
    + [f"fairwos_{key}" for key in sorted(FAIRWOS_VARIANTS)]
    + sorted(MODEL_ENTRIES)
)


class TestGoldenFullBatch:
    def test_every_entry_pinned(self, golden):
        assert set(golden) == set(KEYS)

    def test_floor_variant_stops_early(self, golden):
        assert 1 < golden["fairwos_floor_stop"]["finetune_epochs_run"] < (
            FAIRWOS_BASE["finetune_epochs"]
        )

    @pytest.mark.parametrize("key", KEYS)
    def test_matches_golden(self, key, golden, current):
        for metric, pinned in golden[key].items():
            actual = current[key][metric]
            np.testing.assert_allclose(
                actual,
                pinned,
                rtol=0,
                atol=1e-9,
                err_msg=(
                    f"{key}.{metric} drifted.  If the change is intentional, "
                    f"regenerate tests/golden_fullbatch.json (see module "
                    f"docstring)."
                ),
            )


if __name__ == "__main__":
    values = _compute()
    GOLDEN_PATH.write_text(json.dumps(values, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
    for name, entry in values.items():
        print(f"  {name:28s} {entry}")
