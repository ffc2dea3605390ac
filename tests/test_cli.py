"""Config parsing and end-to-end CLI pipeline behavior."""

import filecmp
import os
import subprocess
import sys

import numpy as np
import pytest

from termforge.cli import main
from termforge.config import load_config, parse_assignment
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


def small_smt_model(model_dir):
    """A two-entry phrase table, a bigram LM and default weights."""
    from termforge.align import PhraseOption, PhraseTable, save_phrase_table
    from termforge.lm import save_arpa, train_lm
    from termforge.smt import LogLinearWeights, save_weights

    feats = (0.5, 0.5, 0.5, 0.5)
    save_phrase_table(
        PhraseTable({
            ("a",): [PhraseOption(("x",), feats)],
            ("b",): [PhraseOption(("y",), feats)],
        }),
        model_dir / "phrase-table.txt",
    )
    save_arpa(train_lm([("x", "y")], order=2), model_dir / "lm.arpa")
    save_weights(LogLinearWeights.default(), model_dir / "weights.txt")


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
        path.write_text("rate = 0.5\n", encoding="utf-8")
        cfg = load_config(path)
        assert cfg.get_float("rate", 0.0) == 0.5
        with pytest.raises(ConfigError):
            cfg.get_int("rate", 0)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("just a line\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="c.cfg: line 1"):
            load_config(path)

    def test_relative_paths_resolve_from_config_dir(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("data.dir = sub/data\n", encoding="utf-8")
        cfg = load_config(path)
        assert cfg.path("data.dir") == str(tmp_path / "sub" / "data")

    def test_parse_assignment_rejects_empty_key(self):
        with pytest.raises(ConfigError):
            parse_assignment("=value")


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
        # every artifact gets the mode of a plain open, and no temp file stays
        with open(tmp_path / "probe", "w", encoding="utf-8"):
            pass
        plain = os.stat(tmp_path / "probe").st_mode & 0o777
        artifacts = [p for p in (tmp_path / "run1").rglob("*") if p.is_file()]
        assert len(artifacts) == 12
        for path in artifacts:
            assert not path.name.startswith(".tmp-"), path
            assert os.stat(path).st_mode & 0o777 == plain, path

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
            ("tune", "smt.mert.nbest=0", "smt.mert.nbest"),
            ("tune", "smt.mert.restarts=-1", "smt.mert.restarts"),
            ("tune", "smt.mert.iterations=-1", "smt.mert.iterations"),
            ("train-nmt", "bpe.num_merges=-1", "bpe.num_merges"),
            ("translate", "inject.mode=bogus", "inject.mode"),
            ("train-nmt", "nmt.learning_rate=nan", "nmt.learning_rate"),
            ("adapt", "nmt.adapt.learning_rate=0", "nmt.adapt.learning_rate"),
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


class TestModelFiles:
    def test_corrupted_weights_name_the_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path)
        model_dir = tmp_path / "run" / "smt"
        small_smt_model(model_dir)
        (model_dir / "weights.txt").write_text("phrase_fwd 1.0\nlm one\n", encoding="utf-8")
        (tmp_path / "in.txt").write_text("a\n", encoding="utf-8")
        sets = ["--set", "translate.input=in.txt"]
        assert run(["translate", "--config", cfg] + sets) == 1
        err = capsys.readouterr().err
        assert str(model_dir / "weights.txt") in err
        assert "line 2" in err
        assert "Traceback" not in err

    def test_bad_markup_names_the_input_line(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path)
        small_smt_model(tmp_path / "run" / "smt")
        (tmp_path / "in.txt").write_text(
            'a\n\n<n translation="x" prob="nan">a</n>\n', encoding="utf-8"
        )
        sets = ["--set", "translate.input=in.txt"]
        assert run(["translate", "--config", cfg] + sets) == 1
        err = capsys.readouterr().err
        assert f"{tmp_path / 'in.txt'}: line 3: " in err
        assert "Traceback" not in err
        assert not (tmp_path / "run" / "hypotheses.txt").exists()

    def test_uncoverable_input_names_the_input_line(
        self, tmp_path, monkeypatch, capsys
    ):
        from termforge.align import PhraseOption, PhraseTable, save_phrase_table

        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path)
        model_dir = tmp_path / "run" / "smt"
        small_smt_model(model_dir)
        # every token has an option, but no sequence of options covers "a b c"
        feats = (0.5, 0.5, 0.5, 0.5)
        save_phrase_table(
            PhraseTable({
                ("a", "b"): [PhraseOption(("x",), feats)],
                ("b", "c"): [PhraseOption(("y",), feats)],
            }),
            model_dir / "phrase-table.txt",
        )
        (tmp_path / "in.txt").write_text("a b\na b c\n", encoding="utf-8")
        sets = ["--set", "translate.input=in.txt"]
        assert run(["translate", "--config", cfg] + sets) == 1
        err = capsys.readouterr().err
        assert f"{tmp_path / 'in.txt'}: line 2: " in err
        assert "'a b c'" in err
        assert "Traceback" not in err
        assert not (tmp_path / "run" / "hypotheses.txt").exists()

    # the second dev file starts with a blank line, which the corpus drops
    @pytest.mark.parametrize("src, tgt", [("a b\na b c\n", "x\nx y\n"),
                                          ("\na b c\n", "\nx y\n")])
    def test_uncoverable_dev_sentence_names_the_dev_line(
        self, tmp_path, monkeypatch, capsys, src, tgt
    ):
        from termforge.align import PhraseOption, PhraseTable, save_phrase_table

        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path)
        model_dir = tmp_path / "run" / "smt"
        small_smt_model(model_dir)
        feats = (0.5, 0.5, 0.5, 0.5)
        save_phrase_table(
            PhraseTable({
                ("a", "b"): [PhraseOption(("x",), feats)],
                ("b", "c"): [PhraseOption(("y",), feats)],
            }),
            model_dir / "phrase-table.txt",
        )
        weights = (model_dir / "weights.txt").read_bytes()
        (tmp_path / "dev.src").write_text(src, encoding="utf-8")
        (tmp_path / "dev.tgt").write_text(tgt, encoding="utf-8")
        sets = ["--set", "corpus.dev.source=dev.src",
                "--set", "corpus.dev.target=dev.tgt"]
        assert run(["tune", "--config", cfg] + sets) == 1
        err = capsys.readouterr().err
        assert f"{tmp_path / 'dev.src'}: line 2: " in err
        assert "'a b c'" in err
        assert "Traceback" not in err
        assert (model_dir / "weights.txt").read_bytes() == weights

    def test_missing_weights_file_is_named(self, tmp_path, monkeypatch, capsys):
        from termforge.smt import LogLinearWeights, save_weights

        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path)
        model_dir = tmp_path / "run" / "smt"
        model_dir.mkdir(parents=True)
        # the default weights exist; the named ones (adapt has not run) do not
        save_weights(LogLinearWeights.default(), model_dir / "weights.txt")
        (tmp_path / "in.txt").write_text("a\n", encoding="utf-8")
        sets = [
            "--set", "translate.input=in.txt",
            "--set", "translate.weights=weights-adapted.txt",
        ]
        assert run(["translate", "--config", cfg] + sets) == 1
        err = capsys.readouterr().err
        assert "translate.weights" in err
        assert str(model_dir / "weights-adapted.txt") in err
        assert "Traceback" not in err
        assert not (tmp_path / "run" / "hypotheses.txt").exists()


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


    @pytest.mark.parametrize(
        "hyp, ref, message",
        [
            ("a b\n", "a b\nc d\n", "hyp.txt: 1 lines vs {}: 2 lines"),
            ("", "", "no sentence pairs in"),
        ],
    )
    def test_unusable_files_name_both(
        self, tmp_path, monkeypatch, capsys, hyp, ref, message
    ):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path)
        (tmp_path / "ref.txt").write_text(ref, encoding="utf-8")
        (tmp_path / "hyp.txt").write_text(hyp, encoding="utf-8")
        sets = [
            "--set", "evaluate.references=ref.txt",
            "--set", "evaluate.hypotheses=hyp.txt",
        ]
        assert run(["evaluate", "--config", cfg] + sets) == 1
        err = capsys.readouterr().err
        assert str(tmp_path / "hyp.txt") in err
        assert str(tmp_path / "ref.txt") in err
        assert message.format(tmp_path / "ref.txt") in err
        assert "Traceback" not in err
        assert not (tmp_path / "run" / "results.tsv").exists()


class TestReport:
    @pytest.mark.parametrize(
        "bad_row", ["smt\ticdtoy\tbleu", "smt\ticdtoy\tbleu\thigh"]
    )
    def test_malformed_row_names_file_and_line(
        self, tmp_path, monkeypatch, capsys, bad_row
    ):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path)
        results = tmp_path / "run" / "results.tsv"
        results.parent.mkdir()
        results.write_text(
            f"smt\ticdtoy\tmeteor\t50.0\n\n{bad_row}\n", encoding="utf-8"
        )
        assert run(["report", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert f"{results}: line 3: " in err
        assert "Traceback" not in err
        assert not (tmp_path / "run" / "report.txt").exists()


class TestTranslateBpe:
    @pytest.mark.parametrize(
        "pieces, expected",
        [
            (("low", "he@@", "art@@"), "low heart"),
            (("low", "@@"), "low"),
            (("he@@", "art", "low"), "heart low"),
            (("low", "he@@", "@@"), "low he"),
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
            src_bpe=codes, tgt_bpe=codes,
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


class TestUnreadableInput:
    @pytest.mark.parametrize(
        "command, rel",
        [
            ("stats", "pipeline.cfg"),
            ("stats", "data/generic.src"),
            ("inject", "data/lexicon.tsv"),
            ("translate", "in.txt"),
            ("translate", "run/smt/phrase-table.txt"),
            ("translate", "run/smt/lm.arpa"),
            ("translate", "run/smt/weights.txt"),
            ("report", "run/results.tsv"),
        ],
    )
    def test_non_utf8_byte_names_file_and_line(
        self, tmp_path, monkeypatch, capsys, command, rel
    ):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path)
        assert run(["prepare", "--config", cfg]) == 0
        small_smt_model(tmp_path / "run" / "smt")
        (tmp_path / "in.txt").write_text("a\nb\n", encoding="utf-8")
        (tmp_path / "run" / "results.tsv").write_text(
            "smt\ticdtoy\tbleu\t1.0\nsmt\ticdtoy\tchrf3\t2.0\n", encoding="utf-8"
        )
        path = tmp_path / rel
        lines = path.read_bytes().split(b"\n")
        lines[1] = b"\xff" + lines[1]
        path.write_bytes(b"\n".join(lines))
        capsys.readouterr()
        argv = [command, "--config", cfg, "--set", "translate.input=in.txt"]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert f"termforge {command}: {path}: line 2: not UTF-8" in err
        assert "Traceback" not in err

    def test_directory_as_input_is_named(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path)
        assert run(["prepare", "--config", cfg]) == 0
        (tmp_path / "corpus").mkdir()
        argv = ["stats", "--config", cfg, "--set", "corpus.train.source=corpus"]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err == f"termforge stats: {tmp_path / 'corpus'}: Is a directory\n"

    @pytest.mark.parametrize("sep", ["\x85", "\u2028"])
    def test_unicode_break_is_not_a_line_end(self, tmp_path, monkeypatch, sep):
        from termforge.corpus import load_parallel

        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path)
        small_smt_model(tmp_path / "run" / "smt")
        source = tmp_path / "in.txt"
        source.write_text(f"a{sep}b\nb\n", encoding="utf-8")
        assert run(["translate", "--config", cfg, "--set", "translate.input=in.txt"]) == 0
        hypotheses = tmp_path / "run" / "hypotheses.txt"
        assert hypotheses.read_text(encoding="utf-8") == "x y\ny\n"
        pairs = load_parallel(source, hypotheses).pairs
        assert pairs == [(("a", "b"), ("x", "y")), (("b",), ("y",))]
