"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["profile", "--dataset", "nope"])

    def test_serve_impl_accepts_only_asyncio(self):
        args = build_parser().parse_args(["serve", "--impl", "asyncio"])
        assert args.impl == "asyncio"
        assert build_parser().parse_args(["serve"]).impl == "asyncio"

    @pytest.mark.parametrize("impl", ["fastapi", "auto"])
    def test_serve_impl_refuses_retired_transports(self, impl, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", "--impl", impl])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_service_package_has_no_asgi_app_factory(self):
        import repro.service

        assert not hasattr(repro.service, "create_app")


class TestCommands:
    def test_datasets_lists_all_stand_ins(self, capsys):
        code, out = run_cli(capsys, "datasets")
        assert code == 0
        assert "facebook" in out and "synthetic-1k" in out

    def test_related_work_table(self, capsys):
        code, out = run_cli(capsys, "related-work")
        assert code == 0
        assert "This work" in out

    def test_profile_row(self, capsys):
        code, out = run_cli(capsys, "profile", "--dataset", "synthetic-1k", "--vertices", "60")
        assert code == 0
        assert "synthetic-1k" in out
        assert "AD" in out

    def test_speedup_addition(self, capsys):
        code, out = run_cli(
            capsys,
            "speedup", "--dataset", "synthetic-1k", "--vertices", "60",
            "--edges", "2", "--kind", "add", "--variant", "MO",
        )
        assert code == 0
        assert "per-edge speedups" in out

    def test_speedup_removal(self, capsys):
        code, out = run_cli(
            capsys,
            "speedup", "--dataset", "synthetic-1k", "--vertices", "60",
            "--edges", "2", "--kind", "remove",
        )
        assert code == 0
        assert "remove" in out

    def test_online_replay(self, capsys):
        code, out = run_cli(
            capsys,
            "online", "--dataset", "synthetic-1k", "--vertices", "60",
            "--edges", "4", "--mappers", "1,5",
        )
        assert code == 0
        assert "missed" in out
        assert out.count("synthetic-1k") >= 2

    def test_communities(self, capsys):
        code, out = run_cli(
            capsys,
            "communities", "--dataset", "synthetic-1k", "--vertices", "50",
            "--removals", "5",
        )
        assert code == 0
        assert "modularity" in out

    def test_proxies(self, capsys):
        code, out = run_cli(
            capsys, "proxies", "--dataset", "synthetic-1k", "--vertices", "50"
        )
        assert code == 0
        assert "degree" in out and "closeness" in out

    def test_speedup_do_with_store_and_resume(self, capsys, tmp_path):
        store = tmp_path / "bd.bin"
        checkpoint = tmp_path / "ck.bin"
        code, out = run_cli(
            capsys,
            "speedup", "--dataset", "synthetic-1k", "--vertices", "40",
            "--edges", "2", "--variant", "DO",
            "--store-path", str(store), "--checkpoint", str(checkpoint),
        )
        assert code == 0
        assert store.exists() and checkpoint.exists()

        code, out = run_cli(
            capsys,
            "resume", "--checkpoint", str(checkpoint), "--edges", "2",
            "--verify",
        )
        assert code == 0
        assert "resumed from" in out
        assert "match" in out and "MISMATCH" not in out
        assert "checkpoint refreshed" in out

    def test_speedup_store_path_requires_do(self, capsys, tmp_path):
        with pytest.raises(SystemExit):
            run_cli(
                capsys,
                "speedup", "--dataset", "synthetic-1k", "--vertices", "40",
                "--edges", "2", "--variant", "MO",
                "--store-path", str(tmp_path / "bd.bin"),
            )

    def test_speedup_refuses_existing_store_file(self, capsys, tmp_path):
        from repro.exceptions import StoreExistsError

        store = tmp_path / "bd.bin"
        args = (
            "speedup", "--dataset", "synthetic-1k", "--vertices", "40",
            "--edges", "2", "--variant", "DO", "--store-path", str(store),
        )
        code, _ = run_cli(capsys, *args)
        assert code == 0 and store.exists()
        with pytest.raises(StoreExistsError):
            run_cli(capsys, *args)

    def test_speedup_arrays_backend(self, capsys):
        """Regression: the PR-3 arrays kernel is reachable from the CLI."""
        code, out = run_cli(
            capsys,
            "speedup", "--dataset", "synthetic-1k", "--vertices", "60",
            "--edges", "2", "--kind", "add", "--backend", "arrays",
        )
        assert code == 0
        assert "per-edge speedups" in out

    def test_speedup_do_arrays_backend_with_resume(self, capsys, tmp_path):
        store = tmp_path / "bd.bin"
        checkpoint = tmp_path / "ck.bin"
        code, out = run_cli(
            capsys,
            "speedup", "--dataset", "synthetic-1k", "--vertices", "40",
            "--edges", "2", "--variant", "DO", "--backend", "arrays",
            "--store-path", str(store), "--checkpoint", str(checkpoint),
        )
        assert code == 0
        assert store.exists() and checkpoint.exists()

        code, out = run_cli(
            capsys,
            "resume", "--checkpoint", str(checkpoint), "--edges", "2",
            "--verify", "--backend", "arrays",
        )
        assert code == 0
        assert "match" in out and "MISMATCH" not in out

    def test_online_simulated_arrays_backend(self, capsys):
        code, out = run_cli(
            capsys,
            "online", "--dataset", "synthetic-1k", "--vertices", "40",
            "--edges", "2", "--mappers", "1", "--backend", "arrays",
        )
        assert code == 0
        assert "missed" in out

    def test_console_entry_point_accepts_backend(self):
        """`python -m repro.cli` (the console script body) takes --backend."""
        import os
        import subprocess
        import sys

        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro.cli",
                "speedup", "--dataset", "synthetic-1k", "--vertices", "40",
                "--edges", "1", "--backend", "arrays",
            ],
            capture_output=True, text=True, env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert proc.returncode == 0, proc.stderr
        assert "per-edge speedups" in proc.stdout

    def test_invalid_backend_rejected(self, capsys):
        with pytest.raises(SystemExit):
            run_cli(
                capsys,
                "speedup", "--dataset", "synthetic-1k", "--vertices", "40",
                "--backend", "numpy",
            )

    def test_online_store_path_requires_workers(self, capsys, tmp_path):
        with pytest.raises(SystemExit):
            run_cli(
                capsys,
                "online", "--dataset", "synthetic-1k", "--vertices", "40",
                "--edges", "2", "--mappers", "1",
                "--store-path", str(tmp_path / "bd.bin"),
            )


class TestVersionAndConfig:
    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_config_file_supplies_defaults(self, capsys, tmp_path):
        from repro.api import BetweennessConfig

        config_path = tmp_path / "run.json"
        BetweennessConfig(backend="arrays", batch_size=2).save(config_path)
        code, out = run_cli(
            capsys,
            "speedup", "--dataset", "synthetic-1k", "--vertices", "40",
            "--edges", "2", "--config", str(config_path),
        )
        assert code == 0
        # The batch column reflects the config file's batch_size.
        assert "| 2 " in out or "| 2|" in out.replace(" ", "")

    def test_flags_override_config_file(self, capsys, tmp_path):
        from repro.api import BetweennessConfig

        config_path = tmp_path / "run.json"
        BetweennessConfig(batch_size=4).save(config_path)
        code, out = run_cli(
            capsys,
            "speedup", "--dataset", "synthetic-1k", "--vertices", "40",
            "--edges", "2", "--config", str(config_path), "--batch-size", "1",
        )
        assert code == 0
        assert "| 4 " not in out

    def test_config_file_store_uri_is_used(self, capsys, tmp_path):
        from repro.api import BetweennessConfig

        store = tmp_path / "bd.bin"
        config_path = tmp_path / "run.json"
        BetweennessConfig(store=f"disk:{store}").save(config_path)
        code, _ = run_cli(
            capsys,
            "speedup", "--dataset", "synthetic-1k", "--vertices", "40",
            "--edges", "1", "--config", str(config_path),
        )
        assert code == 0
        assert store.exists()

    def test_bad_config_file_rejected(self, capsys, tmp_path):
        from repro.exceptions import ConfigurationError

        config_path = tmp_path / "bad.json"
        config_path.write_text('{"backend": "numpy"}')
        with pytest.raises(ConfigurationError):
            run_cli(
                capsys,
                "speedup", "--dataset", "synthetic-1k", "--vertices", "40",
                "--config", str(config_path),
            )

    def test_resume_needs_no_flags_after_arrays_checkpoint(self, capsys, tmp_path):
        """The checkpoint-embedded config drives resume: no --backend needed."""
        store = tmp_path / "bd.bin"
        checkpoint = tmp_path / "ck.bin"
        code, _ = run_cli(
            capsys,
            "speedup", "--dataset", "synthetic-1k", "--vertices", "40",
            "--edges", "2", "--variant", "DO", "--backend", "arrays",
            "--store-path", str(store), "--checkpoint", str(checkpoint),
        )
        assert code == 0

        code, out = run_cli(
            capsys, "resume", "--checkpoint", str(checkpoint), "--edges", "2",
            "--verify",
        )
        assert code == 0
        assert "backend arrays" in out
        assert "match" in out and "MISMATCH" not in out

    def test_speedup_rejects_parallel_config(self, capsys, tmp_path):
        from repro.api import BetweennessConfig
        from repro.exceptions import ConfigurationError

        config_path = tmp_path / "run.json"
        BetweennessConfig(executor="process", workers=2).save(config_path)
        with pytest.raises(ConfigurationError, match="serial executor"):
            run_cli(
                capsys,
                "speedup", "--dataset", "synthetic-1k", "--vertices", "40",
                "--edges", "1", "--config", str(config_path),
            )

    def test_online_simulate_honours_config_store_and_mappers(
        self, capsys, tmp_path, monkeypatch
    ):
        import repro.cli
        from repro.api import BetweennessConfig

        config_path = tmp_path / "run.json"
        BetweennessConfig(store="disk://").save(config_path)
        stores = []
        simulate = repro.cli.simulate_online_updates

        def recording_simulate(*args, **kwargs):
            stores.append(kwargs["store"])
            return simulate(*args, **kwargs)

        monkeypatch.setattr(repro.cli, "simulate_online_updates", recording_simulate)
        code, out = run_cli(
            capsys,
            "online", "--dataset", "synthetic-1k", "--vertices", "40",
            "--edges", "2", "--mappers", "3", "--config", str(config_path),
        )
        assert code == 0
        # One simulated row, at the flag's mapper count, on the config's store.
        assert out.count("synthetic-1k") == 1
        assert "| 3 " in out
        assert stores == ["disk://"]

    @pytest.mark.parametrize(
        "command",
        [
            ["speedup", "--dataset", "synthetic-1k", "--vertices", "40"],
            ["resume", "--checkpoint", "missing.bin"],
            ["shard", "--dataset", "synthetic-1k", "--vertices", "40", "--root", "r"],
            ["online", "--dataset", "synthetic-1k", "--vertices", "40"],
        ],
        ids=lambda command: command[0],
    )
    def test_config_naming_the_retired_executor_is_refused(
        self, capsys, tmp_path, monkeypatch, command
    ):
        import json

        from repro.exceptions import ConfigurationError

        monkeypatch.chdir(tmp_path)
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"executor": "mapreduce", "workers": 3}))
        with pytest.raises(ConfigurationError, match='executor="process"'):
            run_cli(capsys, *command, "--edges", "1", "--config", str(config_path))
        assert not (tmp_path / "r").exists()

    def test_online_accepts_store_uri(self, capsys):
        code, out = run_cli(
            capsys,
            "online", "--dataset", "synthetic-1k", "--vertices", "40",
            "--edges", "2", "--workers", "2", "--store", "memory://",
        )
        assert code == 0
        assert "(real)" in out
