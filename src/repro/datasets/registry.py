"""One registry surface for every way the repo can produce a graph.

Three sources share the single :func:`load_dataset` entry point:

* **Named benchmarks** — each :class:`DatasetSpec` records a real dataset's
  published statistics (nodes, attributes, average degree, sensitive
  attribute, task) alongside the scaled-down size we actually generate,
  plus the bias parameters chosen so the *phenomenology* matches what the
  paper reports for that dataset — e.g. NBA shows very large vanilla ΔSP
  (≈28%), Pokec-n a small one (≈1–3%).
* **Graph families** — the parametric O(E) generators (:data:`GRAPH_FAMILIES`:
  scale-free, Erdős–Rényi, SBM), addressed by family name with keyword
  parameters passed through; :func:`load_family` adds the scenario-level
  ``homophily`` / ``mixing`` aliases the CLI exposes.
* **Saved graphs** — a path to a :func:`repro.io.save_graph` archive or a
  :func:`repro.io.save_graph_mmap` directory (directories are opened with
  ``mmap=True`` so a 1M-node artifact never fully materialises).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.datasets.causal import BiasSpec, generate_biased_graph
from repro.datasets.erdos_renyi import generate_erdos_renyi_graph
from repro.datasets.sbm import generate_sbm_graph
from repro.datasets.scalefree import generate_scale_free_graph
from repro.graph import Graph

__all__ = [
    "DatasetSpec",
    "DATASET_SPECS",
    "GRAPH_FAMILIES",
    "available_datasets",
    "available_families",
    "load_dataset",
    "load_family",
    "dataset_cli_flags",
    "dataset_statistics_rows",
]


@dataclass(frozen=True)
class DatasetSpec:
    """Metadata + generation recipe for one named benchmark dataset."""

    name: str
    paper_nodes: int
    paper_attributes: int
    paper_edges: int
    paper_average_degree: float
    sensitive_name: str
    label_name: str
    description: str
    generated_nodes: int
    bias: BiasSpec = field(default_factory=BiasSpec)

    def generate(self, seed: int = 0) -> Graph:
        """Instantiate the synthetic equivalent of this dataset."""
        graph = generate_biased_graph(
            num_nodes=self.generated_nodes,
            num_features=self.paper_attributes,
            average_degree=self.paper_average_degree,
            spec=self.bias,
            seed=seed,
            name=self.name,
        )
        graph.meta.update(
            {
                "paper_nodes": self.paper_nodes,
                "paper_edges": self.paper_edges,
                "sensitive_name": self.sensitive_name,
                "label_name": self.label_name,
                "description": self.description,
            }
        )
        return graph


# Bias parameters per dataset, tuned so the *vanilla* unfairness ordering of
# Table II is preserved: NBA and Occupation show severe bias, Bail and Credit
# moderate bias, Pokec-z mild and Pokec-n the mildest.
DATASET_SPECS: dict[str, DatasetSpec] = {
    "bail": DatasetSpec(
        name="bail",
        paper_nodes=18_876,
        paper_attributes=18,
        paper_edges=311_870,
        paper_average_degree=34.04,
        sensitive_name="race",
        label_name="bail / no bail",
        description=(
            "Defendants released on bail 1990-2009, connected by similarity "
            "of criminal records and demographics; semi-synthetic."
        ),
        generated_nodes=1_600,
        bias=BiasSpec(
            group_balance=0.45,
            label_bias=0.05,
            proxy_fraction=0.3,
            proxy_strength=0.6,
            label_signal_strength=0.3,
            feature_noise=1.4,
            group_homophily=1.5,
            label_homophily=1.5,
        ),
    ),
    "credit": DatasetSpec(
        name="credit",
        paper_nodes=30_000,
        paper_attributes=13,
        paper_edges=1_421_858,
        paper_average_degree=95.79,
        sensitive_name="age",
        label_name="default / no default",
        description=(
            "Credit-card clients connected by similar spending and payment "
            "patterns; semi-synthetic."
        ),
        generated_nodes=1_500,
        bias=BiasSpec(
            group_balance=0.5,
            label_bias=0.15,
            proxy_fraction=0.3,
            proxy_strength=1.0,
            label_signal_strength=0.1,
            feature_noise=1.5,
            group_homophily=2.0,
            label_homophily=1.0,
        ),
    ),
    "pokec_z": DatasetSpec(
        name="pokec_z",
        paper_nodes=67_797,
        paper_attributes=277,
        paper_edges=617_958,
        paper_average_degree=19.23,
        sensitive_name="region",
        label_name="working field",
        description="Slovak social network sample (province z), 2012.",
        generated_nodes=1_400,
        bias=BiasSpec(
            group_balance=0.5,
            label_bias=0.05,
            proxy_fraction=0.15,
            proxy_strength=1.2,
            label_signal_strength=0.07,
            feature_noise=2.3,
            group_homophily=1.0,
            label_homophily=0.8,
        ),
    ),
    "pokec_n": DatasetSpec(
        name="pokec_n",
        paper_nodes=66_569,
        paper_attributes=266,
        paper_edges=517_047,
        paper_average_degree=16.53,
        sensitive_name="region",
        label_name="working field",
        description="Slovak social network sample (province n), 2012.",
        generated_nodes=1_400,
        bias=BiasSpec(
            group_balance=0.5,
            label_bias=0.01,
            proxy_fraction=0.1,
            proxy_strength=0.3,
            label_signal_strength=0.07,
            feature_noise=2.4,
            group_homophily=2.0,
            label_homophily=0.8,
        ),
    ),
    "nba": DatasetSpec(
        name="nba",
        paper_nodes=403,
        paper_attributes=39,
        paper_edges=10_621,
        paper_average_degree=53.71,
        sensitive_name="nationality",
        label_name="salary above median",
        description=(
            "NBA players of the 2016-17 season with Twitter links; kept at "
            "its true size (the smallest paper dataset)."
        ),
        generated_nodes=403,
        bias=BiasSpec(
            group_balance=0.25,
            label_bias=0.15,
            proxy_fraction=0.35,
            proxy_strength=1.2,
            label_signal_strength=0.08,
            feature_noise=4.5,
            group_homophily=4.0,
            label_homophily=1.0,
        ),
    ),
    "occupation": DatasetSpec(
        name="occupation",
        paper_nodes=6_951,
        paper_attributes=768,
        paper_edges=44_166,
        paper_average_degree=13.71,
        sensitive_name="gender",
        label_name="psychology / computer science",
        description="Twitter users classified psychology vs computer science.",
        generated_nodes=800,
        bias=BiasSpec(
            group_balance=0.5,
            label_bias=0.45,
            proxy_fraction=0.2,
            proxy_strength=2.6,
            label_signal_strength=0.15,
            feature_noise=2.2,
            group_homophily=4.0,
            label_homophily=1.2,
            latent_dim=12,
        ),
    ),
}


# Parametric generators addressable by family name.  All three share the
# planted pipeline of ``datasets._planted`` (bias keywords, node draw,
# homophilous rejection, assembly) and O(nodes + edges) sampling; they
# differ only in their candidate edges (degree-heavy-tailed vs uniform vs
# community-blocked), which is exactly the axis the scenario matrix varies.
GRAPH_FAMILIES: dict[str, Callable[..., Graph]] = {
    "scalefree": generate_scale_free_graph,
    "erdos_renyi": generate_erdos_renyi_graph,
    "sbm": generate_sbm_graph,
}


# ``repro run`` dataset flag table, mirroring ``_EXECUTION_CLI_FLAGS``: one
# declarative (load_family kwarg, argparse spec) row per scenario knob.  All
# default to ``None`` = "use the generator's own default"; adding a scenario
# knob means adding a row here, not another add_argument call in the CLI.
_DATASET_CLI_FLAGS: tuple = (
    (
        "family",
        {
            "flag": "--dataset-family",
            "choices": sorted(GRAPH_FAMILIES),
            "help": "generate from a parametric graph family instead of --dataset",
        },
    ),
    (
        "homophily",
        {
            "flag": "--homophily",
            "type": float,
            "help": "same-group edge acceptance boost (family generators)",
        },
    ),
    (
        "mixing",
        {
            "flag": "--mixing",
            "type": float,
            "help": "sensitive-attribute mixing across communities (sbm only)",
        },
    ),
)


def available_datasets() -> list[str]:
    """Named-benchmark keys accepted by :func:`load_dataset`."""
    return sorted(DATASET_SPECS)


def available_families() -> list[str]:
    """Graph-family keys accepted by :func:`load_dataset` / :func:`load_family`."""
    return sorted(GRAPH_FAMILIES)


def dataset_cli_flags() -> tuple:
    """The ``(load_family kwarg, argparse spec)`` table behind ``repro run``."""
    return _DATASET_CLI_FLAGS


def load_family(
    family: str,
    num_nodes: int = 2000,
    seed: int = 0,
    standardize: bool = True,
    homophily: float | None = None,
    mixing: float | None = None,
    **params,
) -> Graph:
    """Generate a graph from one of :data:`GRAPH_FAMILIES`.

    Parameters
    ----------
    family:
        One of :func:`available_families`.
    num_nodes, seed:
        Size and generation seed (same re-draw semantics as
        :func:`load_dataset`).
    standardize:
        Z-score feature columns (recommended for the numpy training stack).
    homophily:
        Scenario-level alias for every family's ``group_homophily``.
    mixing:
        Scenario-level alias for the SBM's ``sensitive_mixing``; rejected
        for families without community structure.
    params:
        Passed through to the family generator verbatim (e.g.
        ``extra_sensitive_attrs``, ``average_degree``).
    """
    key = family.lower().replace("-", "_")
    if key not in GRAPH_FAMILIES:
        raise KeyError(
            f"unknown graph family {family!r}; available: {available_families()}"
        )
    if homophily is not None:
        params["group_homophily"] = homophily
    if mixing is not None:
        if key != "sbm":
            raise ValueError(
                f"mixing only applies to the sbm family, not {family!r}"
            )
        params["sensitive_mixing"] = mixing
    graph = GRAPH_FAMILIES[key](num_nodes, seed=seed, **params)
    return graph.standardized() if standardize else graph


def _looks_like_path(name: str) -> bool:
    """Heuristic split between registry keys and filesystem references."""
    return (
        "/" in name
        or name.endswith(".npz")
        or name in (".", "..")
        or Path(name).exists()
    )


def _load_saved_graph(name: str) -> Graph:
    from repro.io import load_graph

    path = Path(name)
    if not path.exists():
        raise KeyError(
            f"unknown dataset {name!r}: not a registry key and no such path; "
            f"available: {available_datasets() + available_families()}"
        )
    # Directories are the save_graph_mmap layout: open the big arrays
    # memory-mapped so loading a 1M-node artifact stays cheap.
    return load_graph(path, mmap=path.is_dir())


def load_dataset(
    name: str, seed: int = 0, standardize: bool = True, **family_params
) -> Graph:
    """Resolve any dataset reference: benchmark name, family, or saved path.

    Parameters
    ----------
    name:
        One of :func:`available_datasets` (case-insensitive; "pokec-z" and
        "pokec_z" both work), a graph-family key from
        :func:`available_families` (extra keyword arguments reach the
        generator, see :func:`load_family`), or a filesystem path to a graph
        saved with :func:`repro.io.save_graph` /
        :func:`repro.io.save_graph_mmap` (directories load memory-mapped).
    seed:
        Generation seed; different seeds give i.i.d. re-draws from the same
        causal model (the paper instead re-splits a fixed graph — re-drawing
        is the honest analogue for a generator).  Ignored for saved paths,
        which are immutable artifacts.
    standardize:
        Z-score feature columns (recommended for the numpy training stack).
        Ignored for saved paths: they are returned exactly as stored, so a
        graph standardized before saving is not standardized twice.
    """
    key = name.lower().replace("-", "_")
    if key in GRAPH_FAMILIES:
        return load_family(key, seed=seed, standardize=standardize, **family_params)
    if key not in DATASET_SPECS:
        # Registry keys always win; only non-keys fall through to the
        # filesystem, so a stray local file can never shadow "bail".
        if _looks_like_path(name):
            return _load_saved_graph(name)
        raise KeyError(
            f"unknown dataset {name!r}; available: "
            f"{available_datasets() + available_families()}"
        )
    if family_params:
        raise TypeError(
            f"named dataset {name!r} takes no generator parameters "
            f"(got {sorted(family_params)}); use a graph family instead"
        )
    graph = DATASET_SPECS[key].generate(seed=seed)
    return graph.standardized() if standardize else graph


def dataset_statistics_rows() -> list[dict[str, object]]:
    """Rows mirroring the paper's Table I (plus our generated sizes)."""
    rows = []
    for spec in DATASET_SPECS.values():
        rows.append(
            {
                "dataset": spec.name,
                "paper_nodes": spec.paper_nodes,
                "paper_attributes": spec.paper_attributes,
                "paper_edges": spec.paper_edges,
                "paper_avg_degree": spec.paper_average_degree,
                "sensitive": spec.sensitive_name,
                "label": spec.label_name,
                "generated_nodes": spec.generated_nodes,
                "description": spec.description,
            }
        )
    return rows
