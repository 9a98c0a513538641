"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_all_commands_parse(self):
        parser = build_parser()
        assert parser.parse_args(["generate"]).command == "generate"
        assert parser.parse_args(["train", "--out", "m.pkl"]).command == "train"
        assert parser.parse_args(
            ["classify", "--model", "m.pkl", "http://a.de"]
        ).command == "classify"
        assert parser.parse_args(
            ["evaluate", "--model", "m.pkl"]
        ).command == "evaluate"
        assert parser.parse_args(["experiment", "table8"]).command == "experiment"

    def test_serve_subcommands_parse(self):
        parser = build_parser()
        start = parser.parse_args(
            ["serve", "start", "--model", "m.urlmodel", "--socket", "s.sock",
             "--workers", "3", "--http", "0"]
        )
        assert (start.command, start.serve_command) == ("serve", "start")
        assert start.http == 0 and not start.foreground
        for name in ("stop", "status", "reload"):
            args = parser.parse_args(["serve", name, "--socket", "s.sock"])
            assert args.serve_command == name
        with pytest.raises(SystemExit):
            parser.parse_args(["serve", "batch", "--model", "m.urlmodel"])

    def test_bulk_parses(self):
        parser = build_parser()
        args = parser.parse_args(
            ["bulk", "--model", "m.urlmodel", "--input", "shards/",
             "--output", "run/", "--workers", "4", "--sink", "jsonl",
             "--chunk-size", "128", "--url-field", "page", "--resume"]
        )
        assert args.command == "bulk"
        assert (args.workers, args.sink, args.chunk_size) == (4, "jsonl", 128)
        assert args.url_field == "page" and args.resume and not args.quiet

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])
        with pytest.raises(SystemExit):  # serve requires a subcommand
            build_parser().parse_args(["serve"])

    def test_experiment_registry_complete(self):
        # 10 tables + 3 figures + selection + error-analysis drivers
        assert len(EXPERIMENTS) == 15


class TestCommands:
    def test_generate(self):
        out = io.StringIO()
        code = main(
            ["generate", "--profile", "ser", "--per-language", "3"], out=out
        )
        assert code == 0
        lines = out.getvalue().strip().splitlines()
        assert len(lines) == 15  # 3 per language x 5
        for line in lines:
            code_col, url = line.split("\t")
            assert code_col in ("en", "de", "fr", "es", "it")
            assert url.startswith("http://")

    def test_generate_deterministic(self):
        first, second = io.StringIO(), io.StringIO()
        main(["generate", "--per-language", "5", "--seed", "3"], out=first)
        main(["generate", "--per-language", "5", "--seed", "3"], out=second)
        assert first.getvalue() == second.getvalue()

    def test_train_classify_evaluate_roundtrip(self, tmp_path):
        model_path = tmp_path / "model.urlmodel"
        out = io.StringIO()
        code = main(
            ["train", "--out", str(model_path), "--scale", "0.08"], out=out
        )
        assert code == 0
        assert model_path.exists()
        assert "trained NB/words" in out.getvalue()

        # The default format is the mmap-able artifact, not a pickle.
        from repro.store import is_artifact

        assert is_artifact(model_path)

        out = io.StringIO()
        code = main(
            [
                "classify",
                "--model",
                str(model_path),
                "http://www.blumen.de/garten/strasse.html",
                "http://www.recherche.fr/produits",
            ],
            out=out,
        )
        assert code == 0
        lines = out.getvalue().strip().splitlines()
        assert len(lines) == 2
        assert lines[0].split("\t")[0] == "de"
        assert lines[1].split("\t")[0] == "fr"

        out = io.StringIO()
        code = main(
            [
                "evaluate",
                "--model",
                str(model_path),
                "--test",
                "wc",
                "--scale",
                "0.08",
            ],
            out=out,
        )
        assert code == 0
        assert "average F:" in out.getvalue()

    def test_experiment_command(self):
        out = io.StringIO()
        code = main(["experiment", "table1", "--scale", "0.08"], out=out)
        assert code == 0
        assert "Table 1" in out.getvalue()

    def test_bulk_matches_classify_and_resumes(self, tmp_path):
        """`bulk` over a shard directory == `classify` over the same
        URLs, and a second `--resume` invocation is a no-op."""
        model_path = tmp_path / "model.urlmodel"
        main(["train", "--out", str(model_path), "--scale", "0.08"],
             out=io.StringIO())

        out = io.StringIO()
        main(["generate", "--per-language", "20", "--seed", "5"], out=out)
        urls = [line.split("\t")[1] for line in
                out.getvalue().strip().splitlines()]
        shard_dir = tmp_path / "shards"
        shard_dir.mkdir()
        (shard_dir / "a.txt").write_text("\n".join(urls[:40]) + "\n")
        (shard_dir / "b.txt").write_text("\n".join(urls[40:]) + "\n")

        reference = io.StringIO()
        code = main(["classify", "--model", str(model_path), *urls],
                    out=reference)
        assert code == 0

        out = io.StringIO()
        code = main(
            ["bulk", "--model", str(model_path), "--input", str(shard_dir),
             "--output", str(tmp_path / "run"), "--workers", "2"],
            out=out,
        )
        assert code == 0
        assert "scored 100 URLs" in out.getvalue()
        assert "manifest:" in out.getvalue()
        produced = "".join(
            (tmp_path / "run" / f"part-{index:05d}.tsv").read_text()
            for index in range(2)
        )
        assert produced == reference.getvalue()

        out = io.StringIO()
        code = main(
            ["bulk", "--model", str(model_path), "--input", str(shard_dir),
             "--output", str(tmp_path / "run"), "--resume", "--quiet"],
            out=out,
        )
        assert code == 0
        assert "scored 0 URLs" in out.getvalue()

    @pytest.mark.parametrize("handle", [
        "repro://{dir}/x.sock?timeout=soon",
        "repro+tcp://127.0.0.1:9?tracing=maybe",
    ])
    def test_bulk_refuses_an_unreadable_handle_option_while_planning(
        self, tmp_path, handle
    ):
        shard_dir = tmp_path / "shards"
        shard_dir.mkdir()
        (shard_dir / "a.txt").write_text("http://www.blumen.de/garten\n")
        args = ["bulk", "--model", handle.format(dir=tmp_path), "--input",
                str(shard_dir), "--output", str(tmp_path / "run"), "--quiet"]
        with pytest.raises(SystemExit, match="is not a"):
            main(args, out=io.StringIO())
        assert not (tmp_path / "run").exists()

    def test_bulk_without_resume_refuses_existing_run(self, tmp_path):
        model_path = tmp_path / "model.urlmodel"
        main(["train", "--out", str(model_path), "--scale", "0.08"],
             out=io.StringIO())
        shard_dir = tmp_path / "shards"
        shard_dir.mkdir()
        (shard_dir / "a.txt").write_text("http://www.blumen.de/garten\n")
        args = ["bulk", "--model", str(model_path), "--input",
                str(shard_dir), "--output", str(tmp_path / "run"), "--quiet"]
        assert main(args, out=io.StringIO()) == 0
        with pytest.raises(SystemExit, match="already records a run"):
            main(args, out=io.StringIO())


class TestModelFormats:
    def _train(self, tmp_path, *extra):
        model_path = tmp_path / "model.bin"
        out = io.StringIO()
        code = main(
            ["train", "--out", str(model_path), "--scale", "0.08", *extra],
            out=out,
        )
        assert code == 0
        return model_path, out.getvalue()

    def test_a_failed_pickle_save_keeps_the_previous_model(
        self, tmp_path, monkeypatch
    ):
        import threading

        from repro.core.pipeline import LanguageIdentifier

        model_path, _ = self._train(tmp_path, "--format", "pickle")
        before = model_path.read_bytes()
        fit = LanguageIdentifier.fit

        def fit_unpicklable(identifier, *args, **kwargs):
            fitted = fit(identifier, *args, **kwargs)
            identifier.guard = threading.Lock()  # pickle refuses a lock
            return fitted

        monkeypatch.setattr(LanguageIdentifier, "fit", fit_unpicklable)
        with pytest.raises(TypeError, match="pickle"):
            self._train(tmp_path, "--format", "pickle")
        assert model_path.read_bytes() == before
        assert [path.name for path in tmp_path.iterdir()] == ["model.bin"]

    def test_pickle_format_is_deprecated_fallback(self, tmp_path):
        from repro.store import is_artifact

        model_path, message = self._train(tmp_path, "--format", "pickle")
        assert not is_artifact(model_path)
        assert "deprecated pickle format" in message

        out = io.StringIO()
        code = main(
            ["classify", "--model", str(model_path), "http://www.blumen.de/haus"],
            out=out,
        )
        assert code == 0
        assert out.getvalue().split("\t")[0] == "de"

    def test_auto_format_falls_back_for_sparse_models(self, tmp_path):
        from repro.store import is_artifact

        model_path, message = self._train(tmp_path, "--backend", "sparse")
        assert not is_artifact(model_path)  # nothing to compile -> pickle
        assert "deprecated pickle format" in message

    def test_artifact_format_requires_compiled_backend(self, tmp_path):
        from repro.store import ArtifactError

        with pytest.raises(ArtifactError, match="no compiled backend"):
            self._train(tmp_path, "--backend", "sparse", "--format", "artifact")

    def test_serve_rejects_pickles(self, tmp_path):
        model_path, _ = self._train(tmp_path, "--format", "pickle")
        with pytest.raises(SystemExit, match="artifact"):
            main(
                ["serve", "start", "--model", str(model_path),
                 "--socket", str(tmp_path / "s.sock")],
                out=io.StringIO(),
            )

    def test_serve_daemon_roundtrip(self, tmp_path):
        """start → classify through the repro:// handle → status → stop.

        The deep daemon behaviours (hot reload, oracle equivalence,
        error paths) live in tests/store/test_daemon.py; this covers
        the CLI wiring around them.
        """
        model_path, _ = self._train(tmp_path)
        socket_path = tmp_path / "cli.sock"
        out = io.StringIO()
        assert main(
            ["serve", "start", "--model", str(model_path),
             "--socket", str(socket_path), "--workers", "1"],
            out=out,
        ) == 0
        assert "serving" in out.getvalue()
        try:
            classify_out = io.StringIO()
            assert main(
                ["classify", "--model", f"repro://{socket_path}",
                 "http://www.blumen.de/garten/strasse.html"],
                out=classify_out,
            ) == 0
            assert classify_out.getvalue().split("\t")[0] == "de"

            status_out = io.StringIO()
            assert main(
                ["serve", "status", "--socket", str(socket_path)],
                out=status_out,
            ) == 0
            import json

            status = json.loads(status_out.getvalue())
            assert status["model"]["name"] == "NB/words"

            # --json: the same block, one compact machine-readable line.
            compact_out = io.StringIO()
            assert main(
                ["serve", "status", "--socket", str(socket_path), "--json"],
                out=compact_out,
            ) == 0
            compact_lines = compact_out.getvalue().strip().splitlines()
            assert len(compact_lines) == 1
            compact = json.loads(compact_lines[0])
            assert compact["model"] == status["model"]
            assert compact["pid"] == status["pid"]
        finally:
            stop_out = io.StringIO()
            assert main(
                ["serve", "stop", "--socket", str(socket_path)], out=stop_out
            ) == 0
            assert "stopped" in stop_out.getvalue()
        assert not socket_path.exists()

    def test_serve_status_without_daemon_fails_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="serve start"):
            main(
                ["serve", "status", "--socket", str(tmp_path / "no.sock")],
                out=io.StringIO(),
            )
