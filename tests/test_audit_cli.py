"""Tests for the bias-audit module and the command-line interface."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.fairness.audit import audit_graph, audit_predictions


class TestAuditGraph:
    def test_fields_and_ranges(self, small_graph):
        audit = audit_graph(small_graph)
        assert audit.feature_leakage.shape == (small_graph.num_features,)
        assert (audit.feature_leakage >= 0).all()
        assert 0.0 <= audit.sensitive_homophily <= 1.0
        assert 0.0 <= audit.label_homophily <= 1.0
        assert 0.0 <= audit.base_rate_gap <= 1.0
        assert 0.0 <= audit.structural_leakage <= 1.0

    def test_proxy_features_ranked_first(self, small_graph):
        audit = audit_graph(small_graph)
        # The generator's planted proxies should dominate the leakage ranking.
        top = set(audit.top_proxy_features[: small_graph.related_feature_indices.size])
        planted = set(small_graph.related_feature_indices.tolist())
        assert len(top & planted) >= 1

    def test_homophilous_graph_high_structural_leakage(self, small_graph):
        audit = audit_graph(small_graph)
        # group_homophily=2.0 was planted: structure must beat coin flipping.
        assert audit.structural_leakage > 0.5

    def test_render_contains_key_lines(self, small_graph):
        text = audit_graph(small_graph).render()
        assert "homophily" in text
        assert "proxy features" in text


class TestAuditPredictions:
    def test_amplification_of_constant_gap(self, small_graph):
        # A predictor that predicts the label perfectly has amplification 1.
        logits = np.where(small_graph.labels == 1, 5.0, -5.0)
        audit = audit_predictions(logits, small_graph)
        assert audit.amplification == pytest.approx(1.0, abs=1e-6)

    def test_constant_prediction_zero_gap(self, small_graph):
        logits = np.full(small_graph.num_nodes, 5.0)
        audit = audit_predictions(logits, small_graph)
        assert audit.evaluation.delta_sp == 0.0
        assert audit.amplification == pytest.approx(0.0)

    def test_render(self, small_graph):
        logits = np.where(small_graph.labels == 1, 5.0, -5.0)
        text = audit_predictions(logits, small_graph).render()
        assert "amplification" in text
        assert "verdict" in text


class TestCLI:
    def test_parser_commands(self):
        parser = build_parser()
        args = parser.parse_args(["run", "--method", "vanilla", "--dataset", "nba"])
        assert args.command == "run"
        assert args.method == "vanilla"

    def test_parser_rejects_unknown_method(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--method", "bogus"])

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_datasets_command(self, capsys):
        output = main(["datasets"])
        assert "nba" in output
        assert "sensitive" in output

    def test_run_command_vanilla(self):
        output = main(["run", "--method", "vanilla", "--dataset", "nba",
                       "--epochs", "20"])
        assert "Vanilla" in output
        assert "ACC" in output

    def test_audit_command(self):
        output = main(["audit", "--dataset", "nba"])
        assert "homophily" in output
        assert "amplification" in output
        assert "verdict" in output

    def test_table2_smoke(self):
        output = main([
            "table2", "--datasets", "nba", "--backbones", "gcn",
            "--methods", "vanilla", "--scale", "smoke",
        ])
        assert "Table II" in output

    def test_parser_cf_backend_flags(self):
        args = build_parser().parse_args([
            "run", "--method", "fairwos", "--cf-backend", "ann",
            "--cf-refresh", "3",
        ])
        assert args.cf_backend == "ann"
        assert args.cf_refresh_epochs == 3
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--cf-backend", "bogus"])

    def test_leading_option_defaults_to_run(self):
        # `repro --method ...` (no subcommand) is shorthand for `repro run ...`.
        output = main(["--method", "vanilla", "--dataset", "nba",
                       "--epochs", "20"])
        assert "Vanilla" in output

    def test_run_fairwos_ann_minibatch(self):
        output = main([
            "run", "--method", "fairwos", "--dataset", "nba",
            "--epochs", "15", "--minibatch", "--batch-size", "128",
            "--cf-backend", "ann", "--cf-refresh", "5",
        ])
        assert "Fairwos" in output
        assert "cf-backend=ann" in output


class TestAuditPredictionWindows:
    def _stream(self, n=80, seed=0):
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=n)
        labels = rng.integers(0, 2, size=n)
        sensitive = rng.integers(0, 2, size=n)
        return logits, labels, sensitive

    def test_windows_tile_the_stream(self):
        from repro.fairness.audit import audit_prediction_windows

        logits, labels, sensitive = self._stream()
        report = audit_prediction_windows(logits, labels, sensitive, num_windows=4)
        assert report.num_windows == 4
        assert report.starts[0] == 0
        assert report.ends[-1] == logits.size
        np.testing.assert_array_equal(report.starts[1:], report.ends[:-1])
        assert sum(ev.num_nodes for ev in report.evaluations) == logits.size

    def test_single_window_zero_drift(self):
        from repro.fairness.audit import audit_prediction_windows

        logits, labels, sensitive = self._stream()
        report = audit_prediction_windows(logits, labels, sensitive, num_windows=1)
        assert report.delta_sp_drift == 0.0

    def test_drift_detects_flipped_half(self):
        from repro.fairness.audit import audit_prediction_windows

        # First half: predictions independent of s.  Second half: predict s.
        n = 100
        rng = np.random.default_rng(3)
        sensitive = rng.integers(0, 2, size=n)
        labels = rng.integers(0, 2, size=n)
        logits = np.concatenate(
            [rng.normal(size=n // 2), np.where(sensitive[n // 2 :] == 1, 5.0, -5.0)]
        )
        report = audit_prediction_windows(logits, labels, sensitive, num_windows=2)
        assert report.delta_sp_drift > 0.3

    def test_one_sided_window_reports_nan_not_crash(self):
        from repro.fairness.audit import audit_prediction_windows

        logits = np.array([1.0, -1.0, 1.0, -1.0])
        labels = np.array([1, 0, 1, 0])
        sensitive = np.array([0, 0, 1, 1])  # window 0 all-s0, window 1 all-s1
        report = audit_prediction_windows(logits, labels, sensitive, num_windows=2)
        assert np.isnan(report.evaluations[0].delta_sp)
        assert report.evaluations[0].accuracy == 1.0
        assert report.delta_sp_drift == 0.0
        assert "nan" in report.render()

    def test_validation_errors(self):
        from repro.fairness.audit import audit_prediction_windows

        logits, labels, sensitive = self._stream(n=4)
        with pytest.raises(ValueError, match="aligned"):
            audit_prediction_windows(logits, labels[:-1], sensitive)
        with pytest.raises(ValueError, match="num_windows"):
            audit_prediction_windows(logits, labels, sensitive, num_windows=0)
        with pytest.raises(ValueError, match="cannot split"):
            audit_prediction_windows(logits, labels, sensitive, num_windows=5)


@pytest.fixture(scope="module")
def cli_artifact(tmp_path_factory):
    """A small Fairwos artifact trained through the CLI itself."""
    path = tmp_path_factory.mktemp("cli") / "artifact"
    main([
        "run", "--method", "fairwos", "--dataset", "nba", "--epochs", "5",
        "--save", str(path),
    ])
    return path


class TestScoreCommand:
    def test_score_full_graph(self, cli_artifact):
        output = main(["score", "--artifact", str(cli_artifact)])
        assert "Fairwos artifact" in output
        assert "scored 403 nodes" in output

    def test_score_nodes_audit_and_out(self, cli_artifact, tmp_path):
        out = tmp_path / "logits.npy"
        output = main([
            "score", "--artifact", str(cli_artifact),
            "--node-ids", "1,5,9", "--out", str(out),
            "--audit", "--audit-windows", "3", "--counterfactuals", "2",
        ])
        assert "scored 3 nodes" in output
        assert "Bias audit" in output
        assert "Fairness drift audit (3 windows)" in output
        assert "counterfactual twins" in output
        assert np.load(out).shape == (3,)

    def test_counterfactuals_without_node_ids_query_only_shown_nodes(
        self, cli_artifact, monkeypatch
    ):
        """Without --node-ids the first five nodes are printed; only they
        may be searched, and the text must match a full search's."""
        from repro.io.artifact import ModelArtifact

        search = ModelArtifact.counterfactuals
        queried = []

        def spy(self, nodes=None, top_k=None, probes=None):
            queried.append(nodes)
            return search(self, nodes=nodes, top_k=top_k, probes=probes)

        def full_search(self, nodes=None, top_k=None, probes=None):
            return search(self, nodes=None, top_k=top_k, probes=probes)

        command = ["score", "--artifact", str(cli_artifact), "--counterfactuals", "2"]
        monkeypatch.setattr(ModelArtifact, "counterfactuals", spy)
        output = main(command)
        assert len(queried) == 1
        assert queried[0] is not None and 0 < len(queried[0]) <= 5
        monkeypatch.setattr(ModelArtifact, "counterfactuals", full_search)
        assert main(command) == output
        assert output.count("    node ") == 5

    def test_score_missing_artifact_raises(self, tmp_path):
        from repro.io import ArtifactError

        with pytest.raises(ArtifactError, match="not a model artifact"):
            main(["score", "--artifact", str(tmp_path)])

    def test_parser_score_flags(self):
        args = build_parser().parse_args([
            "score", "--artifact", "a", "--node-ids", "1,2", "--probes",
            "exhaustive",
        ])
        assert args.command == "score"
        assert args.probes == "exhaustive"

    def test_probes_flag_is_parsed_before_loading(self, tmp_path, capsys):
        """A bad --probes exits with the usage status before the artifact
        is read (tmp_path is not an artifact); good values parse."""
        for bad in ("abc", "0", "-3"):
            with pytest.raises(SystemExit) as exit_info:
                main(["score", "--artifact", str(tmp_path), "--probes", bad])
            assert exit_info.value.code == 2
            assert "probes must be a positive integer" in capsys.readouterr().err
        parse = lambda value: build_parser().parse_args(  # noqa: E731
            ["score", "--artifact", "a", "--probes", value]
        ).probes
        assert parse("3") == 3
        assert parse("EXHAUSTIVE") == "exhaustive"


class TestServeCommand:
    def test_serve_loop(self, cli_artifact, capsys):
        import io

        from repro.cli import _cmd_serve

        args = build_parser().parse_args(["serve", "--artifact", str(cli_artifact)])
        stdin = io.StringIO("score 1,5,9\ncf 3 2\naudit\nwindows 2\nbogus\nquit\n")
        summary = _cmd_serve(args, stdin=stdin)
        assert "served 5 requests" in summary
        transcript = capsys.readouterr().out
        assert "1:" in transcript and "5:" in transcript
        assert "counterfactual twins" in transcript
        assert "Fairness drift audit (2 windows)" in transcript
        assert "unknown command 'bogus'" in transcript

    def test_serve_bad_request_is_nonfatal(self, cli_artifact, capsys):
        import io

        from repro.cli import _cmd_serve

        args = build_parser().parse_args(["serve", "--artifact", str(cli_artifact)])
        stdin = io.StringIO("score 999999\nscore 1\n")
        summary = _cmd_serve(args, stdin=stdin)
        assert "served 2 requests" in summary
        transcript = capsys.readouterr().out
        assert "error:" in transcript
        assert "1:" in transcript
