"""Config parsing and end-to-end CLI pipeline behavior."""

import filecmp
import os
import subprocess
import sys

import numpy as np
import pytest

from termforge.cli import main
from termforge.config import PipelineConfig, load_config, parse_assignment
from termforge.errors import ConfigError

BASE_CONFIG = """
seed = 42
fixtures.dir = data
fixtures.seed = 42
corpus.train.source = data/generic.src
corpus.train.target = data/generic.tgt
corpus.dev.source = data/icdtoy-dev.src
corpus.dev.target = data/icdtoy-dev.tgt
corpus.eval.source = data/icdtoy-eval.src
corpus.eval.target = data/icdtoy-eval.tgt
lexicon.path = data/lexicon.tsv
model.smt.dir = run/smt
model.nmt.dir = run/nmt
stats.output = run/stats.txt
smt.em_iterations = 5
smt.max_phrase_len = 4
smt.lm_order = 3
smt.mert.restarts = 1
smt.mert.iterations = 2
nmt.layers = 1
nmt.hidden = 12
nmt.batch_size = 8
nmt.dropout = 0.1
nmt.epochs = 2
nmt.learning_rate = 1.0
nmt.adapt.epochs = 2
inject.mode = exclusive
inject.ranking = uniform
inject.output = run/annotated.txt
inject.lexicon_output = run/lexicon-ranked.tsv
translate.system = smt
translate.input = run/annotated.txt
translate.output = run/hypotheses.txt
evaluate.hypotheses = run/hypotheses.txt
evaluate.references = data/icdtoy-eval.tgt
evaluate.system = smt
evaluate.evalset = icdtoy
evaluate.results = run/results.tsv
report.output = run/report.txt
"""


def write_config(root, extra=""):
    path = root / "pipeline.cfg"
    path.write_text(BASE_CONFIG + extra, encoding="utf-8")
    return str(path)


def run(argv):
    return main(argv)


class TestConfig:
    def test_parse_and_overrides(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# comment\na.b = 1\nname = x y\n", encoding="utf-8")
        cfg = load_config(path, overrides=["a.b=2", "new.key=3"])
        assert cfg.get_int("a.b", 0) == 2
        assert cfg.get("name") == "x y"
        assert cfg.get_int("new.key", 0) == 3

    def test_typed_getters(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("flag = true\nrate = 0.5\n", encoding="utf-8")
        cfg = load_config(path)
        assert cfg.get_bool("flag", False) is True
        assert cfg.get_float("rate", 0.0) == 0.5
        assert cfg.get_bool("missing", True) is True
        with pytest.raises(ConfigError):
            cfg.get_int("rate", 0)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("just a line\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="c.cfg:1"):
            load_config(path)

    def test_relative_paths_resolve_from_config_dir(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("data.dir = sub/data\n", encoding="utf-8")
        cfg = load_config(path)
        assert cfg.path("data.dir") == str(tmp_path / "sub" / "data")

    def test_parse_assignment_rejects_empty_key(self):
        with pytest.raises(ConfigError):
            parse_assignment("=value")

    def test_missing_required_key(self):
        cfg = PipelineConfig({})
        with pytest.raises(ConfigError):
            cfg.require("model.smt.dir")


class TestCliPipeline:
    def test_full_pipeline_and_determinism(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path)

        def run_all(run_dir):
            sets = [
                f"model.smt.dir={run_dir}/smt",
                f"model.nmt.dir={run_dir}/nmt",
                f"stats.output={run_dir}/stats.txt",
                f"inject.output={run_dir}/annotated.txt",
                f"inject.lexicon_output={run_dir}/lexicon-ranked.tsv",
                f"translate.input={run_dir}/annotated.txt",
                f"translate.output={run_dir}/hypotheses.txt",
                f"evaluate.hypotheses={run_dir}/hypotheses.txt",
                f"evaluate.results={run_dir}/results.tsv",
                f"report.output={run_dir}/report.txt",
            ]

            def argv(cmd):
                return [cmd, "--config", cfg] + [
                    x for s in sets for x in ("--set", s)
                ]
            assert run(argv("prepare")) == 0
            assert run(argv("stats")) == 0
            assert run(argv("train-smt")) == 0
            assert run(argv("tune")) == 0
            assert run(argv("train-nmt")) == 0
            assert run(argv("adapt")) == 0
            assert run(argv("inject")) == 0
            assert run(argv("translate")) == 0
            assert run(argv("evaluate")) == 0
            assert run(argv("report")) == 0

        run_all("run1")
        run_all("run2")
        for rel in (
            "stats.txt", "annotated.txt", "hypotheses.txt", "results.tsv",
            "report.txt", "smt/phrase-table.txt", "smt/lm.arpa",
            "smt/weights.txt", "smt/weights-adapted.txt", "nmt/model.tfnmt",
            "nmt/model-adapted.tfnmt",
        ):
            f1 = tmp_path / "run1" / rel
            f2 = tmp_path / "run2" / rel
            assert f1.exists(), rel
            assert filecmp.cmp(f1, f2, shallow=False), f"{rel} differs"

    def test_train_refuses_overwrite_without_force(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path)
        assert run(["prepare", "--config", cfg]) == 0
        assert run(["train-smt", "--config", cfg]) == 0
        assert run(["train-smt", "--config", cfg]) == 1
        assert run(["train-smt", "--config", cfg, "--force"]) == 0

    def test_missing_input_is_actionable_nonzero(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code = run(["stats", "--config", cfg])
        assert code == 1
        err = capsys.readouterr().err
        assert "generic.src" in err

    def test_unknown_subcommand_usage_error(self, tmp_path):
        cfg = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate", "--config", cfg])
        assert exc.value.code != 0

    def test_seed_flag_overrides_config(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path)
        assert run(["prepare", "--config", cfg]) == 0
        assert run(["train-smt", "--config", cfg]) == 0
        assert run(["tune", "--config", cfg, "--seed", "7"]) == 0
        weights_7 = (tmp_path / "run/smt/weights.txt").read_bytes()
        assert run(["tune", "--config", cfg, "--seed", "7"]) == 0
        assert (tmp_path / "run/smt/weights.txt").read_bytes() == weights_7

    def test_console_script_runs(self, tmp_path):
        cfg = write_config(tmp_path)
        result = subprocess.run(
            [sys.executable, "-m", "termforge.cli", "prepare", "--config", cfg],
            capture_output=True,
            text=True,
            cwd=tmp_path,
        )
        assert result.returncode == 0
        assert (tmp_path / "data" / "generic.src").exists()

    def test_log_env_variable(self, tmp_path):
        cfg = write_config(tmp_path)
        result = subprocess.run(
            [sys.executable, "-m", "termforge.cli", "prepare", "--config", cfg],
            capture_output=True, text=True, cwd=tmp_path,
            env={**os.environ, "TERMFORGE_LOG": "info"},
        )
        assert result.returncode == 0
        assert "prepare: wrote" in result.stderr

    def test_translate_nmt_path(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path)
        assert run(["prepare", "--config", cfg]) == 0
        assert run(["train-nmt", "--config", cfg]) == 0
        sets = [
            "--set", "translate.system=nmt",
            "--set", "translate.input=data/icdtoy-eval.src",
            "--set", "translate.output=run/hyp-nmt.txt",
            "--set", "translate.replace_unk_lexicon=data/lexicon.tsv",
        ]
        assert run(["translate", "--config", cfg] + sets) == 0
        lines = (tmp_path / "run/hyp-nmt.txt").read_text().splitlines()
        assert len(lines) == len(
            (tmp_path / "data/icdtoy-eval.src").read_text().splitlines()
        )


class TestConfigValidation:
    @pytest.mark.parametrize(
        "command, setting, key",
        [
            ("translate", "translate.beam=0", "translate.beam"),
            ("train-nmt", "nmt.segmentation=char", "nmt.segmentation"),
            ("inject", "inject.ranking=tfidf", "inject.ranking"),
            ("train-smt", "smt.em_iterations=0", "smt.em_iterations"),
            ("train-smt", "smt.lm_order=0", "smt.lm_order"),
            ("train-smt", "smt.max_phrase_len=0", "smt.max_phrase_len"),
            ("tune", "smt.stack_size=0", "smt.stack_size"),
            ("tune", "smt.distortion_limit=-1", "smt.distortion_limit"),
            ("train-nmt", "nmt.hidden=0", "nmt.hidden"),
            ("train-nmt", "nmt.batch_size=0", "nmt.batch_size"),
        ],
    )
    def test_bad_value_names_key_before_work(
        self, tmp_path, monkeypatch, capsys, command, setting, key
    ):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path)
        sets = ["--set", "translate.system=nmt", "--set", setting]
        assert run([command, "--config", cfg] + sets) == 1
        err = capsys.readouterr().err
        assert key in err
        assert "Traceback" not in err
        # rejected before any input was read or any output written
        assert not (tmp_path / "run").exists()


class TestEvaluate:
    def test_rerun_replaces_rows_in_place(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path)
        (tmp_path / "ref.txt").write_text("a b c d\ne f g h\n", encoding="utf-8")
        (tmp_path / "good.txt").write_text("a b c d\ne f g h\n", encoding="utf-8")
        (tmp_path / "bad.txt").write_text("a b x d\ne y g h\n", encoding="utf-8")

        def evaluate(system, hyps):
            return run([
                "evaluate", "--config", cfg,
                "--set", "evaluate.references=ref.txt",
                "--set", f"evaluate.hypotheses={hyps}",
                "--set", f"evaluate.system={system}",
            ])

        results = tmp_path / "run" / "results.tsv"
        assert evaluate("smt", "bad.txt") == 0
        first = results.read_text()
        assert evaluate("smt", "bad.txt") == 0
        assert results.read_text() == first
        assert evaluate("nmt", "good.txt") == 0
        assert evaluate("smt", "good.txt") == 0
        rows = [line.split("\t") for line in results.read_text().splitlines()]
        assert [(s, m) for s, _, m, _ in rows] == [
            (s, m) for s in ("smt", "nmt") for m in ("bleu", "meteor", "chrf3")
        ]
        # the smt rows now hold the scores of the good hypotheses
        assert [v for *_, v in rows[:3]] == [v for *_, v in rows[3:]]
        assert float(rows[0][3]) == 100.0


class TestTranslateBpe:
    @pytest.mark.parametrize(
        "pieces, expected",
        [
            (("low", "he@@", "art@@"), "low heart"),
            (("low", "@@"), "low"),
            (("he@@", "art", "low"), "heart low"),
        ],
    )
    def test_dangling_final_piece_is_joined(
        self, tmp_path, monkeypatch, pieces, expected
    ):
        from termforge import nmt, pipeline
        from termforge.bpe import learn_bpe
        from termforge.config import PipelineConfig
        from termforge.corpus import ParallelCorpus

        pairs = [(("heart", "low"), ("heart", "lower"))] * 4
        codes = learn_bpe({"heart": 5, "low": 5, "lower": 3}, 4)
        model = nmt.train(
            ParallelCorpus(pairs),
            nmt.TrainConfig(layers=1, hidden=4, batch_size=2, epochs=0, seed=0),
            segmentation="bpe", src_bpe=codes, tgt_bpe=codes,
        )
        nmt.save_model(model, tmp_path / "model.tfnmt")
        (tmp_path / "in.txt").write_text("heart low\n", encoding="utf-8")

        def fake_translate(model, tokens, beam_width=5):
            return pieces, nmt.AttentionTrace(np.zeros((len(pieces), 2))), 0.0

        monkeypatch.setattr(nmt, "translate", fake_translate)
        cfg = PipelineConfig(
            {
                "translate.system": "nmt",
                "model.nmt.dir": ".",
                "translate.input": "in.txt",
                "translate.output": "out.txt",
            },
            base_dir=str(tmp_path),
        )
        assert pipeline.run_translate(cfg) == [tuple(expected.split())]
        assert (tmp_path / "out.txt").read_text() == expected + "\n"
