"""Loan-approval fairness audit (the paper's Fig. 1 running example).

Scenario: a lender predicts loan approval from applicant features and their
social/financial network.  Race is legally off-limits at training time, but
postal-code-like proxies remain in the data.  This example:

1. builds a loan graph with the causal generator (race → proxies, edges),
2. audits the data: which features leak the sensitive attribute, how
   homophilous is the network, what are the group base rates;
3. trains vanilla vs Fairwos and produces a per-group decision report.

Run with::

    python examples/loan_fairness_audit.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis import correlation_with_vector
from repro.baselines import Vanilla
from repro.core import FairwosConfig, FairwosTrainer
from repro.datasets import BiasSpec, generate_biased_graph
from repro.fairness import group_confusion
from repro.graph.utils import edge_homophily


def build_loan_graph(seed: int = 0):
    """A mid-size loan network: strong proxies, mild true base-rate gap."""
    return generate_biased_graph(
        num_nodes=1200,
        num_features=20,
        average_degree=18,
        spec=BiasSpec(
            group_balance=0.35,       # protected group is the minority
            label_bias=0.1,           # small real gap in repayment odds
            proxy_fraction=0.25,      # zip-code-like columns
            proxy_strength=1.2,
            group_homophily=2.5,      # applicants cluster by neighbourhood
            label_signal_strength=0.4,
            feature_noise=1.2,
        ),
        seed=seed,
        name="loan",
    ).standardized()


def audit_data(graph) -> None:
    print("=== Data audit (uses the held-out sensitive attribute) ===")
    rate1 = graph.labels[graph.sensitive == 1].mean()
    rate0 = graph.labels[graph.sensitive == 0].mean()
    print(f"  approval base rates: group0 {rate0:.2f}, group1 {rate1:.2f} "
          f"(gap {abs(rate1 - rate0):.2f})")
    homophily = edge_homophily(graph.adjacency, graph.sensitive)
    print(f"  edge homophily w.r.t. race: {homophily:.2f} "
          "(0.5 ≈ mixed, 1.0 = fully segregated)")
    corr = np.abs(correlation_with_vector(graph.features, graph.sensitive))
    worst = np.argsort(corr)[::-1][:5]
    print("  top-5 proxy features by |corr with race|: "
          + ", ".join(f"f{j}({corr[j]:.2f})" for j in worst))
    print(f"  ground-truth proxy columns: {graph.related_feature_indices.tolist()}\n")


def report_decisions(name: str, test_result, logits, graph) -> None:
    """Print headline metrics plus the per-group confusion breakdown."""
    print(f"--- {name}: {test_result}")
    rate0, rate1 = test_result.positive_rate_s0, test_result.positive_rate_s1
    print(f"    approval rates on test: group0 {rate0:.2f}, group1 {rate1:.2f}")
    test = graph.test_mask
    confusion = group_confusion(
        (logits[test] > 0).astype(int), graph.labels[test], graph.sensitive[test]
    )
    for group, counts in confusion.items():
        denied_ok = counts["fn"]
        print(
            f"    group{group}: approved {counts['tp'] + counts['fp']}, "
            f"denied {counts['tn'] + counts['fn']} "
            f"(creditworthy-but-denied: {denied_ok})"
        )


def main(seed: int = 0) -> None:
    graph = build_loan_graph(seed)
    print(f"Loan network: {graph.summary()}\n")
    audit_data(graph)

    print("=== Model comparison (race hidden from both models) ===")
    vanilla = Vanilla(epochs=150, patience=30).fit(graph, seed=seed, keep_logits=True)
    report_decisions("Vanilla GCN", vanilla.test, vanilla.extra["logits"], graph)

    config = FairwosConfig(
        encoder_epochs=150, classifier_epochs=150, patience=30,
        alpha=2.0, finetune_learning_rate=0.005,
    )
    trainer = FairwosTrainer(config)
    fit = trainer.fit(graph, seed=seed)
    report_decisions("Fairwos", fit.test, trainer.predict(graph), graph)

    print("\n=== Verdict ===")
    gap_before = abs(vanilla.test.positive_rate_s0 - vanilla.test.positive_rate_s1)
    gap_after = abs(fit.test.positive_rate_s0 - fit.test.positive_rate_s1)
    print(f"  approval-rate gap: {gap_before:.2f} → {gap_after:.2f}")
    print(f"  accuracy: {vanilla.test.accuracy:.2f} → {fit.test.accuracy:.2f}")


if __name__ == "__main__":
    main()
