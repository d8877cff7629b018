"""Command-line interface: ``python -m repro <command>``.

Commands
--------
datasets
    List the available benchmark datasets with their statistics.
run
    Train one method on one dataset and print its evaluation.
    ``--save DIR`` additionally persists the fitted model as a versioned
    artifact (weights, config, preprocessing state, counterfactual index).
score
    Batch-score nodes from a saved artifact — no retraining.  Optional
    fairness audit, per-window drift report and counterfactual retrieval
    from the persisted index.
serve
    Thin interactive loop over a saved artifact: ``score``, ``cf``,
    ``audit`` and ``windows`` requests from stdin.
audit
    Print the data-side + vanilla-model bias audit of a dataset.
table1 / table2 / fig4 / fig5 / fig6 / fig7 / fig8
    Regenerate a paper table/figure at a chosen scale.

Examples
--------
::

    python -m repro datasets
    python -m repro run --method fairwos --dataset nba --seed 0
    python -m repro run --method fairwos --dataset nba --save artifacts/nba
    python -m repro score --artifact artifacts/nba --audit --audit-windows 4
    python -m repro score --artifact artifacts/nba --node-ids 3,7,12 \\
        --counterfactuals 3
    python -m repro run --method vanilla --dataset scalefree --nodes 100000 \\
        --backbone sage --minibatch --fanout 10,5 --batch-size 512
    repro --method fairwos --dataset scalefree --nodes 50000 \\
        --minibatch --cf-backend ann
    repro --method ksmote --dataset scalefree --nodes 50000 --minibatch
    python -m repro run --method vanilla --dataset-family sbm --nodes 2000 \\
        --homophily 2.0 --mixing 0.3
    python -m repro run --method vanilla --dataset saved/graph_dir
    python -m repro audit --dataset occupation
    python -m repro table2 --datasets nba bail --backbones gcn --scale smoke

An invocation whose first argument is an option (as in the third example)
defaults to the ``run`` subcommand.  See ``docs/CLI.md`` for the complete
flag reference.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.core import ExecutionConfig
from repro.datasets import (
    GRAPH_FAMILIES,
    available_datasets,
    available_families,
    dataset_cli_flags,
    load_dataset,
    load_family,
)
from repro.experiments import (
    Scale,
    available_methods,
    format_fig4,
    format_fig5,
    format_fig6,
    format_fig7,
    format_fig8,
    format_table1,
    format_table2,
    run_fig4,
    run_fig5,
    run_fig6,
    run_fig7,
    run_fig8,
    run_method,
    run_table1,
    run_table2,
)

__all__ = ["main", "build_parser"]

_SCALES = {"smoke": Scale.smoke, "quick": Scale.quick, "paper": Scale.paper}


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fairwos reproduction command line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list benchmark datasets")

    run_parser = sub.add_parser("run", help="train one method on one dataset")
    run_parser.add_argument("--method", choices=available_methods(), default="fairwos")
    _add_dataset_arguments(run_parser)
    run_parser.add_argument("--backbone", default="gcn")
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument("--epochs", type=int, default=150)
    # Execution flags come from ExecutionConfig's declarative table: one
    # row per knob, dest = the config field, default = the config default.
    # Adding an execution knob means adding a table row, not another
    # hand-kept add_argument call here.
    exec_defaults = ExecutionConfig()
    for field_name, spec in ExecutionConfig.cli_flags():
        spec = dict(spec)
        flag = spec.pop("flag")
        if spec.get("type") == "fanouts":
            spec["type"] = _parse_fanouts
        run_parser.add_argument(
            flag,
            dest=field_name,
            default=getattr(exec_defaults, field_name),
            **spec,
        )
    run_parser.add_argument(
        "--save",
        default=None,
        metavar="DIR",
        help="persist the fitted model as a versioned artifact directory "
        "(weights + config + preprocessing state + counterfactual index); "
        "score it later with `repro score --artifact DIR`",
    )
    run_parser.add_argument(
        "--no-save-graph",
        action="store_true",
        help="with --save: skip bundling the training graph into the "
        "artifact (scoring then requires an explicit --dataset)",
    )

    score_parser = sub.add_parser(
        "score", help="batch-score nodes from a saved artifact"
    )
    _add_artifact_arguments(score_parser)
    score_parser.add_argument(
        "--node-ids",
        type=_parse_node_ids,
        default=None,
        metavar="N1,N2,...",
        help="score only these node ids (default: every node)",
    )
    score_parser.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the logits to PATH as a .npy array",
    )
    score_parser.add_argument(
        "--audit",
        action="store_true",
        help="print the model-side fairness audit (test split)",
    )
    score_parser.add_argument(
        "--audit-windows",
        type=int,
        default=None,
        metavar="W",
        help="per-window fairness drift report over the scored stream",
    )
    score_parser.add_argument(
        "--counterfactuals",
        type=int,
        default=None,
        metavar="K",
        help="retrieve K counterfactual twins per scored node from the "
        "persisted index (Fairwos artifacts)",
    )
    score_parser.add_argument(
        "--probes",
        type=_parse_probes_flag,
        default=None,
        metavar="P",
        help="ANN probes override for counterfactual retrieval "
        "(a positive integer, or 'exhaustive' for the exact search)",
    )

    serve_parser = sub.add_parser(
        "serve", help="interactive scoring loop over a saved artifact"
    )
    _add_artifact_arguments(serve_parser)

    audit_parser = sub.add_parser("audit", help="bias audit of a dataset")
    audit_parser.add_argument("--dataset", choices=available_datasets(), default="nba")
    audit_parser.add_argument("--seed", type=int, default=0)

    for name in ("table1", "table2", "fig4", "fig5", "fig6", "fig7", "fig8"):
        exp_parser = sub.add_parser(name, help=f"regenerate {name}")
        exp_parser.add_argument("--scale", choices=sorted(_SCALES), default="quick")
        if name == "table2":
            exp_parser.add_argument("--datasets", nargs="+", default=None)
            exp_parser.add_argument("--backbones", nargs="+", default=None)
            exp_parser.add_argument("--methods", nargs="+", default=None)
        if name in ("fig5", "fig6", "fig7", "fig8"):
            exp_parser.add_argument("--dataset", default=None)
    return parser


def _cmd_datasets() -> str:
    lines = ["available datasets:"]
    for name in available_datasets():
        graph = load_dataset(name, seed=0)
        lines.append(f"  {graph.summary()}  [sensitive: {graph.meta['sensitive_name']}]")
    return "\n".join(lines)


def _add_dataset_arguments(
    parser: argparse.ArgumentParser, default: str | None = "nba"
) -> None:
    """The dataset reference flags shared by run/score/serve.

    ``--dataset`` takes any :func:`repro.datasets.load_dataset` reference —
    a benchmark name, a graph-family key, or a saved-graph path (directories
    written by :func:`repro.io.save_graph_mmap` load memory-mapped).  The
    scenario knobs (``--dataset-family``/``--homophily``/``--mixing``) come
    from the registry's declarative flag table, mirroring how the execution
    knobs come from ``ExecutionConfig.cli_flags()``.
    """
    parser.add_argument(
        "--dataset",
        default=default,
        help="benchmark name "
        f"({', '.join(available_datasets())}), graph family "
        f"({', '.join(available_families())}), or path to a saved graph "
        "(.npz archive or save_graph_mmap directory, loaded memory-mapped)",
    )
    for field_name, spec in dataset_cli_flags():
        spec = dict(spec)
        flag = spec.pop("flag")
        dest = "dataset_family" if field_name == "family" else field_name
        parser.add_argument(flag, dest=dest, default=None, **spec)
    parser.add_argument(
        "--nodes",
        type=int,
        default=20_000,
        help="node count for generated graph families",
    )


def _add_artifact_arguments(parser: argparse.ArgumentParser) -> None:
    """Flags shared by the artifact-consuming commands (score, serve)."""
    parser.add_argument(
        "--artifact",
        required=True,
        metavar="DIR",
        help="artifact directory written by `repro run --save`",
    )
    _add_dataset_arguments(parser, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--batch-size",
        type=int,
        default=None,
        help="batched-inference batch size override",
    )


def _parse_node_ids(text: str) -> np.ndarray:
    """Parse a comma-separated node-id list like ``3,7,12``."""
    try:
        ids = np.array(
            [int(part) for part in text.split(",") if part.strip()],
            dtype=np.int64,
        )
    except ValueError as err:
        raise argparse.ArgumentTypeError(
            f"node ids must be comma-separated integers, got {text!r}"
        ) from err
    if ids.size == 0 or (ids < 0).any():
        raise argparse.ArgumentTypeError(
            f"node ids must be non-negative integers, got {text!r}"
        )
    return ids


def _parse_probes_flag(text: str) -> int | str:
    """Parse ``--probes``: a positive integer or ``exhaustive`` (any case)."""
    if text.lower() == "exhaustive":
        return "exhaustive"
    try:
        probes = int(text)
    except ValueError:
        probes = 0
    if probes < 1:
        raise argparse.ArgumentTypeError(
            f"probes must be a positive integer or 'exhaustive', got {text!r}"
        )
    return probes


def _parse_fanouts(text: str) -> tuple[int, ...]:
    """Parse a comma-separated fanout list like ``10,5``."""
    try:
        fanouts = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as err:
        raise argparse.ArgumentTypeError(
            f"fanouts must be comma-separated integers, got {text!r}"
        ) from err
    if not fanouts or any(fanout < 1 for fanout in fanouts):
        raise argparse.ArgumentTypeError(
            f"fanouts must be positive integers, got {text!r}"
        )
    return fanouts


def _load_cli_graph(args):
    """Dataset loading shared by run/score/serve.

    Resolution: ``--dataset-family`` wins; otherwise ``--dataset`` names a
    family (``--nodes``/``--homophily``/``--mixing`` apply), a benchmark, or
    a saved-graph path (both loaded as stored — the scenario knobs are
    meaningless there and rejected rather than silently dropped).
    """
    family = args.dataset_family
    if family is None and args.dataset.lower().replace("-", "_") in GRAPH_FAMILIES:
        family = args.dataset
    if family is not None:
        return load_family(
            family,
            num_nodes=args.nodes,
            seed=args.seed,
            homophily=args.homophily,
            mixing=args.mixing,
        )
    if args.homophily is not None or args.mixing is not None:
        raise SystemExit(
            f"--homophily/--mixing only apply to graph families "
            f"({', '.join(available_families())}), not {args.dataset!r}"
        )
    return load_dataset(args.dataset, seed=args.seed)


def _cmd_run(args) -> str:
    graph = _load_cli_graph(args)
    execution = ExecutionConfig(
        **{
            field_name: getattr(args, field_name)
            for field_name, _ in ExecutionConfig.cli_flags()
        }
    )
    result = run_method(
        args.method,
        graph,
        backbone=args.backbone,
        seed=args.seed,
        epochs=args.epochs,
        execution=execution,
        keep_model=args.save is not None,
    )
    mode = ""
    if execution.minibatch:
        from repro.training import DEFAULT_FANOUT

        fanouts = execution.fanouts or (DEFAULT_FANOUT,)
        mode = (
            f", minibatch fanout={','.join(map(str, fanouts))} "
            f"batch={execution.batch_size}"
        )
    if args.method == "fairwos" and execution.cf_backend != "exact":
        mode += f", cf-backend={execution.cf_backend}"
        if execution.cf_update != "rebuild":
            mode += f" cf-update={execution.cf_update}"
    if execution.dtype != "float64":
        mode += f", dtype={execution.dtype}"
    output = (
        f"{result.method} on {graph.name} ({args.backbone}, seed {args.seed}"
        f"{mode}):\n  {result.test}\n  trained in {result.seconds:.1f}s"
    )
    if args.save is not None:
        from repro.io import save_artifact

        path = save_artifact(
            result.extra["model"],
            graph,
            args.save,
            include_graph=not args.no_save_graph,
            execution=execution,
        )
        output += f"\n  artifact saved to {path}"
    return output


def _cmd_score(args) -> str:
    from repro.io import load_artifact

    artifact = load_artifact(args.artifact)
    lines = [
        f"{artifact.method_name} artifact at {artifact.path} "
        f"(trained on {artifact.manifest['dataset']['name']}, "
        f"{artifact.manifest['dataset']['num_nodes']} nodes)"
    ]
    if artifact.execution is not None:
        # Only current fields: an artifact may record knobs that have since
        # been removed, and those have no default to compare against.
        defaults = ExecutionConfig()
        shown = {
            key: value
            for key, value in artifact.execution.items()
            if key in ExecutionConfig.field_names()
            and getattr(defaults, key)
            != (tuple(value) if isinstance(value, list) else value)
        }
        if shown:
            lines.append(
                "  execution: "
                + " ".join(f"{k}={v}" for k, v in sorted(shown.items()))
            )
    graph = None
    if args.dataset is not None or args.dataset_family is not None:
        graph = _load_cli_graph(args)
        if not artifact.matches(graph):
            lines.append(
                "  note: scored graph differs from the training dataset "
                "(fingerprint mismatch)"
            )
    logits = artifact.score(
        graph, nodes=args.node_ids, batch_size=args.batch_size
    )
    lines.append(f"  scored {logits.size} nodes")
    if args.node_ids is not None:
        shown = ", ".join(
            f"{int(node)}:{logit:+.4f}"
            for node, logit in zip(args.node_ids[:10], logits[:10])
        )
        lines.append(f"  logits: {shown}" + (" ..." if logits.size > 10 else ""))
    if args.out is not None:
        np.save(args.out, logits)
        lines.append(f"  logits written to {args.out}")
    if args.counterfactuals is not None:
        lines.append(
            _render_counterfactuals(
                artifact, args.node_ids, args.counterfactuals, args.probes
            )
        )
    if args.audit:
        lines.append(artifact.audit(graph).render())
    if args.audit_windows is not None:
        lines.append(
            artifact.audit_windows(
                args.audit_windows, graph, nodes=args.node_ids
            ).render()
        )
    return "\n".join(lines)


def _render_counterfactuals(artifact, node_ids, top_k, probes) -> str:
    """Per-node counterfactual twins from the persisted index.

    Without ``node_ids`` the first five indexed nodes are shown, and only
    they are queried: a search over every node is O(N²) on an exact index.
    """
    if node_ids is None:
        num_points = artifact.manifest["index"].get("num_points", 0)
        node_ids = np.arange(min(5, num_points), dtype=np.int64)
    cf = artifact.counterfactuals(
        nodes=node_ids, top_k=top_k, probes=probes
    )
    lines = [
        f"  counterfactual twins (K={cf.top_k}, {cf.num_attributes} "
        f"pseudo-attributes, persisted index):"
    ]
    for node in node_ids[:10]:
        per_attr = []
        for attr in range(min(cf.num_attributes, 3)):
            if cf.valid[attr, node]:
                twins = ",".join(map(str, cf.indices[attr, node].tolist()))
            else:
                twins = "-"
            per_attr.append(f"a{attr}:[{twins}]")
        more = " ..." if cf.num_attributes > 3 else ""
        lines.append(f"    node {int(node)}: {' '.join(per_attr)}{more}")
    return "\n".join(lines)


def _cmd_serve(args, stdin=None) -> str:
    """Thin request loop: score/cf/audit/windows lines from stdin.

    Protocol (one request per line, responses echoed to stdout):

    * ``score N1,N2,...`` — logits for the listed nodes;
    * ``cf NODE [K]`` — counterfactual twins of one node;
    * ``audit`` — model-side fairness audit of the bundled graph;
    * ``windows W`` — per-window fairness drift report;
    * ``quit`` — exit (EOF also exits).
    """
    from repro.io import load_artifact

    artifact = load_artifact(args.artifact)
    graph = None
    if args.dataset is not None or args.dataset_family is not None:
        graph = _load_cli_graph(args)
    stream = stdin if stdin is not None else sys.stdin
    print(
        f"serving {artifact.method_name} artifact at {artifact.path} — "
        f"commands: score IDS | cf NODE [K] | audit | windows W | quit",
        flush=True,
    )
    served = 0
    for line in stream:
        request = line.strip()
        if not request:
            continue
        try:
            response = _serve_request(artifact, graph, request, args.batch_size)
        except Exception as exc:  # noqa: BLE001 - a serve loop must not die
            response = f"error: {exc}"
        if response is None:
            break
        served += 1
        print(response, flush=True)
    return f"served {served} requests from {artifact.path}"


def _serve_request(artifact, graph, request: str, batch_size) -> str | None:
    """Dispatch one serve-loop request; None means quit."""
    parts = request.split()
    command = parts[0].lower()
    if command in ("quit", "exit"):
        return None
    if command == "score":
        if len(parts) != 2:
            return "usage: score N1,N2,..."
        nodes = _parse_node_ids(parts[1])
        logits = artifact.score(graph, nodes=nodes, batch_size=batch_size)
        return " ".join(
            f"{int(node)}:{logit:+.4f}" for node, logit in zip(nodes, logits)
        )
    if command == "cf":
        if len(parts) not in (2, 3):
            return "usage: cf NODE [K]"
        node = np.array([int(parts[1])], dtype=np.int64)
        top_k = int(parts[2]) if len(parts) == 3 else None
        return _render_counterfactuals(artifact, node, top_k, None)
    if command == "audit":
        return artifact.audit(graph).render()
    if command == "windows":
        if len(parts) != 2:
            return "usage: windows W"
        return artifact.audit_windows(int(parts[1]), graph).render()
    return f"unknown command {request!r}; try score/cf/audit/windows/quit"


def _cmd_audit(args) -> str:
    from repro.fairness.audit import audit_graph, audit_predictions

    graph = load_dataset(args.dataset, seed=args.seed)
    report = audit_graph(graph).render()
    result = run_method("vanilla", graph, seed=args.seed, keep_logits=True)
    model_report = audit_predictions(result.extra["logits"], graph).render()
    return f"{graph.summary()}\n\n{report}\n\n{model_report}"


def main(argv: list[str] | None = None) -> str:
    """Entry point; returns the rendered output (also printed)."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0].startswith("-") and argv[0] not in ("-h", "--help"):
        # `repro --method fairwos ...` is shorthand for `repro run ...`.
        argv = ["run", *argv]
    args = build_parser().parse_args(argv)
    scale = _SCALES[getattr(args, "scale", "quick")]() if hasattr(args, "scale") else None

    if args.command == "datasets":
        output = _cmd_datasets()
    elif args.command == "run":
        output = _cmd_run(args)
    elif args.command == "score":
        output = _cmd_score(args)
    elif args.command == "serve":
        output = _cmd_serve(args)
    elif args.command == "audit":
        output = _cmd_audit(args)
    elif args.command == "table1":
        output = format_table1(run_table1())
    elif args.command == "table2":
        output = format_table2(
            run_table2(
                datasets=args.datasets,
                backbones=args.backbones,
                methods=args.methods,
                scale=scale,
            )
        )
    elif args.command == "fig4":
        output = format_fig4(run_fig4(scale=scale))
    elif args.command == "fig5":
        output = format_fig5(run_fig5(dataset=args.dataset or "nba", scale=scale))
    elif args.command == "fig6":
        output = format_fig6(run_fig6(dataset=args.dataset or "bail", scale=scale))
    elif args.command == "fig7":
        output = format_fig7(run_fig7(dataset=args.dataset or "nba", scale=scale))
    elif args.command == "fig8":
        output = format_fig8(run_fig8(dataset=args.dataset or "nba", scale=scale))
    else:  # pragma: no cover - argparse enforces choices
        raise ValueError(f"unhandled command {args.command!r}")

    print(output)
    return output


if __name__ == "__main__":
    main(sys.argv[1:])
