"""ExecutionConfig: the unified execution API behind run_method and the CLI."""

from __future__ import annotations

import dataclasses
import inspect

import pytest

from repro.core import ExecutionConfig, FairwosConfig
from repro.experiments import run_method


class TestValidation:
    def test_defaults_validate(self):
        ExecutionConfig().validate()

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"batch_size": 0}, "batch_size"),
            ({"fanouts": (5, 0)}, "fanouts"),
            ({"cf_backend": "faiss"}, "cf_backend"),
            ({"cf_refresh_epochs": 0}, "cf_refresh_epochs"),
            ({"cf_update": "lazy"}, "cf_update"),
            ({"cf_update": "incremental"}, "cf_backend"),
            ({"cf_refresh_epochs": None}, "cf_refresh_epochs"),
            ({"dtype": "half-precision"}, "not a dtype"),
            ({"fanouts": ()}, "fanouts"),
            ({"fanouts": (0,)}, "fanouts"),
            ({"dtype": "float16"}, "float"),
        ],
    )
    def test_rejects_bad_settings(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            ExecutionConfig(**kwargs).validate()

    def test_frozen(self):
        with pytest.raises(Exception):
            ExecutionConfig().minibatch = True

    def test_fairwos_config_is_a_frozen_execution_config(self):
        """The eight execution fields, their defaults and their checks are
        declared once, on ExecutionConfig."""
        config = FairwosConfig()
        assert isinstance(config, ExecutionConfig)
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.alpha = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.minibatch = True
        own = inspect.get_annotations(FairwosConfig)
        assert set(own).isdisjoint(ExecutionConfig.field_names())
        assert set(ExecutionConfig.field_names()) < {
            f.name for f in dataclasses.fields(FairwosConfig)
        }
        for name in ExecutionConfig.field_names():
            assert getattr(config, name) == getattr(ExecutionConfig(), name)
        with pytest.raises(ValueError, match="batch_size"):
            FairwosConfig(batch_size=0).validate()

    def test_fairwos_config_validates_new_knobs(self):
        FairwosConfig(num_workers=0).validate()
        with pytest.raises(TypeError, match="prefetch_epochs"):
            FairwosConfig(prefetch_epochs=1)

    @pytest.mark.parametrize("workers", [-1, 1, 2])
    def test_fairwos_num_workers_must_be_zero(self, workers):
        with pytest.raises(ValueError, match="num_workers"):
            FairwosConfig(num_workers=workers).validate()

    @pytest.mark.parametrize("field", ["num_workers", "prefetch_epochs"])
    def test_execution_config_has_no_worker_fields(self, field):
        with pytest.raises(TypeError, match=field):
            ExecutionConfig(**{field: 0})

    def test_backend_setting_is_gone(self, capsys):
        """numpy is the only array backend, so nothing selects one."""
        from repro.cli import build_parser

        for config in (FairwosConfig, ExecutionConfig):
            with pytest.raises(TypeError, match="backend"):
                config(backend="numpy")
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["run", "--backend", "numpy"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestRunMethodKeywords:
    @pytest.mark.parametrize(
        "kwargs",
        [{"minibatch": True}, {"dtype": "float32"}, {"num_workers": 0}],
        ids=["minibatch", "dtype", "num_workers"],
    )
    def test_flat_keyword_raises(self, small_graph, kwargs):
        """Execution settings are only accepted as ``execution=``."""
        with pytest.raises(TypeError, match=next(iter(kwargs))):
            run_method("vanilla", small_graph, epochs=3, **kwargs)


class TestFairwosConfigConflicts:
    """Every execution field that disagrees with an explicit FairwosConfig
    must be rejected — including fanouts/batch_size, which the historical
    check silently ignored."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("minibatch", True),
            ("fanouts", (7,)),
            ("batch_size", 64),
            ("finetune_minibatch", True),
            ("cf_backend", "ann"),
            ("cf_refresh_epochs", 3),
            ("cf_update", "incremental"),
            ("dtype", "float32"),
        ],
    )
    def test_rejects_disagreeing_field(self, small_graph, field, value):
        kwargs = {field: value}
        if field == "cf_update":
            kwargs["cf_backend"] = "ann"
        with pytest.raises(ValueError, match="fairwos_config"):
            run_method(
                "fairwos",
                small_graph,
                fairwos_config=FairwosConfig(),
                execution=ExecutionConfig(**kwargs),
            )

    def test_agreeing_fields_pass(self, small_graph):
        """Execution values that match the config are not conflicts."""
        config = FairwosConfig(
            minibatch=True, batch_size=64,
            encoder_epochs=3, classifier_epochs=3, finetune_epochs=2,
        )
        result = run_method(
            "fairwos",
            small_graph,
            fairwos_config=config,
            execution=ExecutionConfig(minibatch=True, batch_size=64),
        )
        assert 0.0 <= result.test.accuracy <= 1.0


class TestCliDerivation:
    def test_run_flags_derive_from_table(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(
            [
                "run", "--method", "vanilla", "--minibatch",
                "--fanout", "10,5", "--batch-size", "256",
                "--cf-refresh", "3", "--dtype", "float32",
            ]
        )
        execution = ExecutionConfig(
            **{
                name: getattr(args, name)
                for name, _ in ExecutionConfig.cli_flags()
            }
        )
        assert execution.minibatch is True
        assert execution.fanouts == (10, 5)
        assert execution.batch_size == 256
        assert execution.cf_refresh_epochs == 3
        assert execution.dtype == "float32"
        execution.validate()

    @pytest.mark.parametrize(
        "flags",
        [["--num-workers", "2"], ["--prefetch-epochs", "1"]],
        ids=["num-workers", "prefetch-epochs"],
    )
    def test_worker_flags_are_gone(self, flags, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["run", "--method", "vanilla", *flags])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_every_table_row_is_a_config_field(self):
        names = ExecutionConfig.field_names()
        for field_name, spec in ExecutionConfig.cli_flags():
            assert field_name in names
            assert spec["flag"].startswith("--")

    def test_save_persists_execution(self, small_graph, tmp_path):
        from repro.experiments import run_method as _run
        from repro.io import load_artifact, save_artifact

        execution = ExecutionConfig(minibatch=True, batch_size=64)
        result = _run(
            "vanilla", small_graph, epochs=3, execution=execution,
            keep_model=True,
        )
        path = save_artifact(
            result.extra["model"], small_graph, tmp_path / "art",
            execution=execution,
        )
        artifact = load_artifact(path)
        assert artifact.execution["minibatch"] is True
        assert artifact.execution["batch_size"] == 64
        assert set(artifact.execution) == set(ExecutionConfig.field_names())

    def test_score_shows_only_current_execution_fields(self, small_graph, tmp_path):
        """An artifact's execution record may carry knobs that have since
        been removed; ``repro score`` reports only current fields."""
        import json

        from repro.cli import main
        from repro.io import save_artifact

        execution = ExecutionConfig(minibatch=True, batch_size=64)
        result = run_method(
            "vanilla", small_graph, epochs=3, execution=execution,
            keep_model=True,
        )
        path = save_artifact(
            result.extra["model"], small_graph, tmp_path / "art",
            execution=execution,
        )
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["execution"].update(num_workers=0, prefetch_epochs=1)
        (path / "manifest.json").write_text(json.dumps(manifest))
        output = main(["score", "--artifact", str(path)])
        assert "  execution: batch_size=64 minibatch=True\n" in output
        assert "num_workers" not in output
        assert "prefetch_epochs" not in output
