"""Fairwos reproduction — fair GNNs via graph counterfactuals without
sensitive attributes (Wang et al., ICDE 2025).

Quickstart
----------
>>> from repro import load_dataset, FairwosTrainer, FairwosConfig
>>> graph = load_dataset("nba", seed=0)
>>> result = FairwosTrainer(FairwosConfig()).fit(graph, seed=0)
>>> print(result.test)                                    # doctest: +SKIP

Package map
-----------
* :mod:`repro.tensor` — numpy autograd engine (the PyTorch substitute)
* :mod:`repro.nn`, :mod:`repro.optim` — layers and the Adam optimiser
* :mod:`repro.graph`, :mod:`repro.gnnzoo` — graph container and GNN backbones
* :mod:`repro.datasets` — synthetic equivalents of the six paper datasets
* :mod:`repro.core` — **Fairwos**, the paper's contribution
* :mod:`repro.baselines` — Vanilla, RemoveR, KSMOTE, FairRF, FairGKD
* :mod:`repro.fairness` — ACC / ΔSP / ΔEO metrics and evaluation
* :mod:`repro.analysis` — PCA, k-means, t-SNE, correlations
* :mod:`repro.experiments` — harness regenerating every table and figure
"""

from repro.core import ExecutionConfig, FairwosConfig, FairwosResult, FairwosTrainer
from repro.datasets import available_datasets, load_dataset
from repro.fairness import EvalResult, evaluate_predictions
from repro.graph import Graph
from repro.tuning import GridSearchResult, grid_search_fairwos

__version__ = "1.0.0"

__all__ = [
    "ExecutionConfig",
    "FairwosConfig",
    "FairwosResult",
    "FairwosTrainer",
    "available_datasets",
    "load_dataset",
    "EvalResult",
    "evaluate_predictions",
    "Graph",
    "GridSearchResult",
    "grid_search_fairwos",
    "__version__",
]
