"""End-to-end tests for the noisymine command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


@pytest.fixture
def generated(tmp_path):
    path = tmp_path / "db.txt"
    code = main([
        "generate", str(path),
        "--sequences", "120",
        "--length", "25",
        "--alphabet", "10",
        "--motif-weight", "4",
        "--motifs", "1",
        "--motif-frequency", "0.6",
        "--noise", "0.1",
        "--seed", "42",
    ])
    assert code == 0
    return path


class TestGenerate:
    def test_writes_both_files(self, generated, capsys):
        assert generated.exists()
        assert generated.with_name("db.txt.noisy").exists()

    def test_output_mentions_motifs(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        main(["generate", str(path), "--sequences", "10", "--seed", "1"])
        out = capsys.readouterr().out
        assert "planted motif" in out
        assert "wrote 10 sequences" in out

    def test_custom_noisy_output_path(self, tmp_path):
        path = tmp_path / "g.txt"
        noisy = tmp_path / "custom.txt"
        main([
            "generate", str(path), "--sequences", "10",
            "--noise", "0.2", "--noisy-output", str(noisy), "--seed", "1",
        ])
        assert noisy.exists()


class TestMine:
    @pytest.mark.parametrize(
        "algorithm",
        ["border-collapsing", "levelwise", "maxminer", "toivonen",
         "pincer", "depthfirst"],
    )
    def test_all_algorithms_run(self, generated, capsys, algorithm):
        code = main([
            "mine", str(generated),
            "--alphabet", "10",
            "--min-match", "0.5",
            "--algorithm", algorithm,
            "--max-weight", "5",
            "--max-span", "5",
            "--seed", "7",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "frequent patterns" in out

    def test_json_output_parses(self, generated, capsys):
        code = main([
            "mine", str(generated),
            "--alphabet", "10",
            "--min-match", "0.5",
            "--max-weight", "5",
            "--max-span", "5",
            "--seed", "7",
            "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["algorithm"] == "border-collapsing"
        assert payload["scans"] >= 1
        assert isinstance(payload["patterns"], dict)

    def test_noise_flag_builds_uniform_matrix(self, generated, capsys):
        code = main([
            "mine", str(generated.with_name("db.txt.noisy")),
            "--alphabet", "10",
            "--min-match", "0.3",
            "--noise", "0.1",
            "--max-weight", "4",
            "--max-span", "4",
            "--sample-size", "90",
            "--delta", "0.05",
            "--seed", "7",
        ])
        assert code == 0

    def _levelwise_json(self, path, capsys, *extra):
        code = main([
            "mine", str(path),
            "--alphabet", "10",
            "--min-match", "0.5",
            "--algorithm", "levelwise",
            "--max-weight", "4",
            "--max-span", "4",
            "--json", *extra,
        ])
        assert code == 0
        return json.loads(capsys.readouterr().out)

    def test_json_reports_the_engine_that_ran(self, generated, capsys,
                                              monkeypatch):
        monkeypatch.delenv("NOISYMINE_WORKERS", raising=False)
        payload = self._levelwise_json(generated, capsys)
        assert payload["engine"] == "vectorized"
        assert "lattice" not in payload

    def test_workers_two_runs_parallel_with_identical_patterns(
        self, tmp_path, capsys
    ):
        # 600 rows span three 256-row chunk blocks, so the pool really
        # dispatches shards.
        path = tmp_path / "wide.txt"
        assert main(["generate", str(path), "--sequences", "600",
                     "--length", "12", "--alphabet", "10",
                     "--seed", "5"]) == 0
        capsys.readouterr()
        metrics = tmp_path / "metrics.json"
        one = self._levelwise_json(path, capsys, "--workers", "1")
        two = self._levelwise_json(path, capsys, "--workers", "2",
                                   "--metrics-json", str(metrics))
        assert two["engine"] == one["engine"] == "vectorized"
        assert two["patterns"] == one["patterns"]  # bit-identical
        assert two["scans"] == one["scans"]
        report = json.loads(metrics.read_text())
        assert report["counters"].get("shards_dispatched", 0) > 0
        assert report["context"]["workers"] == 2

    def test_metrics_report_workers_on_one_worker(
        self, generated, capsys, tmp_path
    ):
        metrics = tmp_path / "metrics.json"
        self._levelwise_json(generated, capsys, "--workers", "1",
                             "--metrics-json", str(metrics))
        context = json.loads(metrics.read_text())["context"]
        assert context["workers"] == 1
        assert "kernels" not in context  # one kernel path: nothing to note

    def test_stale_execution_env_vars_change_nothing(
        self, generated, capsys, monkeypatch
    ):
        baseline = self._levelwise_json(generated, capsys)
        for name, value in [
            ("NOISYMINE_ENGINE", "reference"),
            ("NOISYMINE_LATTICE", "reference"),
            ("NOISYMINE_RESIDENT", "0"),
            ("NOISYMINE_RESIDENT_KERNELS", "pure"),
            ("NOISYMINE_OVERSPLIT", "zebra"),
            ("NOISYMINE_NATIVE_FALLBACK", "1"),
        ]:
            monkeypatch.setenv(name, value)
        stale = self._levelwise_json(generated, capsys)
        for payload in (baseline, stale):
            del payload["elapsed_seconds"]
            del payload["metrics"]
        assert stale == baseline

    @pytest.mark.parametrize("flags", [
        ["--engine", "vectorized"],
        ["--lattice", "kernel"],
        ["--resident-sample"],
        ["--resident-kernels", "auto"],
        ["--oversplit", "3"],
        ["--store", "text"],
    ], ids=lambda flags: flags[0])
    def test_removed_execution_flags_rejected_by_argparse(
        self, generated, capsys, flags
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(["mine", str(generated), "--alphabet", "10",
                  "--min-match", "0.5", *flags])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_score_dtype_flag_parses(self):
        args = build_parser().parse_args([
            "mine", "db.txt", "--min-match", "0.5",
            "--score-dtype", "float32",
        ])
        assert args.score_dtype == "float32"

    def test_bad_score_dtype_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([
                "mine", "db.txt", "--min-match", "0.5",
                "--score-dtype", "float16",
            ])

    def test_float32_levelwise_fails_loudly(self, generated, capsys):
        errors = []
        for workers in ("1", "2"):
            code = main([
                "mine", str(generated), "--alphabet", "10",
                "--min-match", "0.5", "--algorithm", "levelwise",
                "--score-dtype", "float32", "--workers", workers,
            ])
            assert code == 2
            errors.append(capsys.readouterr().err)
        assert "float32" in errors[0]
        assert "sampling miner" in errors[0]
        assert errors[1] == errors[0]  # the worker count changes nothing

    def test_float32_sampling_patterns_identical_across_worker_counts(
        self, tmp_path, capsys
    ):
        # float32 is Phase 2's precision; Phase 3 counts in float64 on
        # one worker or a pool alike, so two workers print the patterns
        # one worker prints.
        path = tmp_path / "wide.txt"
        assert main(["generate", str(path), "--sequences", "600",
                     "--length", "12", "--alphabet", "10",
                     "--seed", "5"]) == 0
        capsys.readouterr()
        runs = []
        for workers in ("1", "2"):
            assert main([
                "mine", str(path), "--alphabet", "10", "--min-match", "0.5",
                "--max-weight", "4", "--max-span", "4", "--seed", "3",
                "--score-dtype", "float32", "--workers", workers, "--json",
            ]) == 0
            runs.append(json.loads(capsys.readouterr().out))
        assert runs[0]["patterns"]
        assert runs[1]["patterns"] == runs[0]["patterns"]

    def test_unknown_engine_rejected_by_argparse(self, generated, capsys):
        with pytest.raises(SystemExit):
            main([
                "mine", str(generated),
                "--alphabet", "10",
                "--min-match", "0.5",
                "--engine", "gpu",
            ])

    def test_missing_file_is_graceful_error(self, tmp_path, capsys):
        code = main([
            "mine", str(tmp_path / "missing.txt"),
            "--alphabet", "5",
            "--min-match", "0.5",
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestEvaluate:
    def test_round_trip(self, generated, tmp_path, capsys):
        clean_json = tmp_path / "clean.json"
        noisy_json = tmp_path / "noisy.json"
        for path, source, noise in [
            (clean_json, generated, "0"),
            (noisy_json, generated.with_name("db.txt.noisy"), "0.1"),
        ]:
            main([
                "mine", str(source),
                "--alphabet", "10",
                "--min-match", "0.4",
                "--noise", noise,
                "--max-weight", "4",
                "--max-span", "4",
                "--seed", "7",
                "--json",
            ])
            path.write_text(capsys.readouterr().out)
        code = main(["evaluate", str(noisy_json), str(clean_json)])
        assert code == 0
        out = capsys.readouterr().out
        assert "accuracy=" in out
        assert "completeness=" in out


class TestErrorHandling:
    def test_evaluate_missing_file(self, tmp_path, capsys):
        code = main([
            "evaluate", str(tmp_path / "a.json"), str(tmp_path / "b.json"),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_evaluate_invalid_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["evaluate", str(bad), str(bad)])
        assert code == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_generate_to_unwritable_path(self, tmp_path, capsys):
        code = main([
            "generate", str(tmp_path / "no" / "such" / "dir" / "db.txt"),
            "--sequences", "5", "--seed", "1",
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestFastaInput:
    def test_mine_fasta_end_to_end(self, tmp_path, capsys):
        from repro import Alphabet, Pattern
        from repro.datagen.fasta import write_fasta
        from repro.datagen.motifs import Motif
        from repro.datagen.synthetic import protein_like_database
        import numpy as np

        ab = Alphabet.amino_acids()
        motif = Motif(Pattern.parse("A M T K", ab), frequency=0.7)
        db = protein_like_database(
            80, 25, [motif], rng=np.random.default_rng(3)
        )
        path = tmp_path / "proteins.fasta"
        write_fasta(db, path)
        code = main([
            "mine", str(path),
            "--format", "fasta",
            "--min-match", "0.5",
            "--algorithm", "levelwise",
            "--max-weight", "4",
            "--max-span", "4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "frequent patterns" in out

    def test_text_format_requires_alphabet(self, generated, capsys):
        code = main([
            "mine", str(generated),
            "--min-match", "0.5",
        ])
        assert code == 2
        assert "--alphabet is required" in capsys.readouterr().err


class TestStoreAndConvert:
    MINE = [
        "--alphabet", "10", "--min-match", "0.5",
        "--algorithm", "levelwise", "--max-weight", "4", "--max-span", "4",
        "--json",
    ]

    @pytest.fixture
    def packed(self, generated, tmp_path, capsys):
        path = tmp_path / "db.nmp"
        assert main(["convert", str(generated), str(path)]) == 0
        out = capsys.readouterr().out
        assert "packed" in out and "digest" in out
        return path

    def test_convert_round_trip_preserves_mining_output(
        self, generated, packed, tmp_path, capsys
    ):
        back = tmp_path / "back.txt"
        assert main(["convert", str(packed), str(back), "--to", "text"]) == 0
        capsys.readouterr()
        payloads = {}
        for source in (generated, packed, back):
            assert main(["mine", str(source), *self.MINE]) == 0
            payloads[source] = json.loads(capsys.readouterr().out)
        base = payloads[generated]["patterns"]
        assert payloads[packed]["patterns"] == base  # bit-identical
        assert payloads[back]["patterns"] == base
        assert payloads[packed]["scans"] == payloads[generated]["scans"]

    def test_stale_store_env_var_is_ignored(self, packed, capsys, monkeypatch):
        # The input is always sniffed: no value of the old store variable,
        # valid or not, changes what is read or mined.
        assert main(["mine", str(packed), *self.MINE]) == 0
        baseline = json.loads(capsys.readouterr().out)["patterns"]
        for value in ("text", "bogus"):
            monkeypatch.setenv("NOISYMINE_STORE", value)
            assert main(["mine", str(packed), *self.MINE]) == 0
            assert json.loads(capsys.readouterr().out)["patterns"] == baseline

    def test_fasta_with_packed_store_rejected(self, packed, capsys):
        code = main([
            "mine", str(packed), "--format", "fasta", "--min-match", "0.5",
        ])
        assert code == 2
        assert "fasta" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["packed", "segmented", "text"])
    def test_convert_rejects_negative_symbol(self, tmp_path, capsys, target):
        # A negative symbol would pack into a store no miner can read.
        source = tmp_path / "neg.txt"
        source.write_text("0\t1 2 3\n1\t4 -1 5\n")
        output = tmp_path / "out"
        code = main(["convert", str(source), str(output), "--to", target])
        assert code == 2
        assert f"{source}:2" in capsys.readouterr().err
        assert not output.exists()

    def test_convert_missing_input(self, tmp_path, capsys):
        code = main([
            "convert", str(tmp_path / "nope.txt"), str(tmp_path / "o.nmp"),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestResultSerialization:
    def test_json_round_trips_through_mining_result(self, generated, capsys):
        import json as _json
        from repro import MiningResult

        main([
            "mine", str(generated),
            "--alphabet", "10",
            "--min-match", "0.5",
            "--algorithm", "levelwise",
            "--max-weight", "4",
            "--max-span", "4",
            "--json",
        ])
        payload = _json.loads(capsys.readouterr().out)
        payload["frequent"] = payload.pop("patterns")
        rebuilt = MiningResult.from_dict(payload)
        assert rebuilt.scans == payload["scans"]
        assert len(rebuilt.frequent) == len(payload["frequent"])
        for pattern in rebuilt.frequent:
            assert rebuilt.border.covers(pattern)
