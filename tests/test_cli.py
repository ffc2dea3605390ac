"""Config parsing and end-to-end CLI pipeline behavior."""

import filecmp
import os
import re
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


def uncoverable_smt_model(model_dir):
    """:func:`small_smt_model` with a table where every token has an
    option, but no sequence of options covers "a b c"."""
    from termforge.align import PhraseOption, PhraseTable, save_phrase_table

    small_smt_model(model_dir)
    feats = (0.5, 0.5, 0.5, 0.5)
    save_phrase_table(
        PhraseTable({
            ("a", "b"): [PhraseOption(("x",), feats)],
            ("b", "c"): [PhraseOption(("y",), feats)],
        }),
        model_dir / "phrase-table.txt",
    )


def small_nmt_model(model_dir):
    """An untrained one-layer word model over the words of the SMT one."""
    from termforge.nmt import Seq2SeqModel, TrainConfig, build_vocab, save_model
    from termforge.nmt.model import init_params

    config = TrainConfig(layers=1, hidden=4)
    src = build_vocab([("a", "b")], config.source_vocab_cap)
    tgt = build_vocab([("x", "y")], config.target_vocab_cap)
    params = init_params(config, len(src), len(tgt), np.random.default_rng(0))
    save_model(Seq2SeqModel(config, src, tgt, params), model_dir / "model.tfnmt")


class TestConfig:
    def test_parse_and_overrides(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(
            "# comment\nsmt.stack_size = 1\nevaluate.system = x y\n", encoding="utf-8"
        )
        cfg = load_config(path, overrides=["smt.stack_size=2", "translate.beam=3"])
        assert cfg["smt.stack_size"] == 2
        assert cfg["evaluate.system"] == "x y"
        assert cfg["translate.beam"] == 3

    def test_typed_getters(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("nmt.dropout = 0.5\n", encoding="utf-8")
        cfg = load_config(path)
        assert cfg["nmt.dropout"] == 0.5
        # an unset key has its declared default
        assert cfg["nmt.learning_rate"] == 1.0 and cfg["translate.system"] == "smt"
        assert cfg["model.smt.dir"] == str(tmp_path / "smt-model")
        with pytest.raises(ConfigError):
            load_config(path, overrides=["nmt.layers=0.5"])

    @pytest.mark.parametrize(
        "line, message",
        [
            ("smt.stack_sise = 3", "unknown key 'smt.stack_sise'"),
            ("smt.stack_size = ten", "smt.stack_size must be an integer, got 'ten'"),
            ("smt.stack_size = 0", "smt.stack_size must be >= 1, got '0'"),
            ("nmt.dropout = 1", "nmt.dropout must be in [0, 1), got '1'"),
            ("inject.mode = bogus", "inject.mode must be one of exclusive, "),
            ("evaluate.system = a\tb", "evaluate.system must be a non-empty name"),
            ("model.smt.dir =", "model.smt.dir must be a non-empty path"),
        ],
    )
    def test_bad_file_line_names_file_line_and_key(self, tmp_path, line, message):
        path = tmp_path / "c.cfg"
        path.write_text(f"seed = 1\n\n{line}\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=re.escape(f"c.cfg: line 3: {message}")):
            load_config(path)
        # an override is checked the same way, and named as one
        path.write_text("seed = 1\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=re.escape(f"--set: {message}")):
            load_config(path, overrides=[line])

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("just a line\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="c.cfg: line 1"):
            load_config(path)

    def test_repeated_key_names_file_line_and_key(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("seed = 1\n# again\nseed = 2\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=r"c.cfg: line 3: repeated key 'seed'"):
            load_config(path)
        # an override still replaces the file's value
        path.write_text("seed = 1\n", encoding="utf-8")
        assert load_config(path, overrides=["seed=2", "seed=3"])["seed"] == 3

    def test_relative_paths_resolve_from_config_dir(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("corpus.train.source = sub/data\n", encoding="utf-8")
        cfg = load_config(path)
        assert cfg.path("corpus.train.source") == str(tmp_path / "sub" / "data")

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
            # a key, or a value, that no stage reads is checked all the same
            ("tune", "smt.stack_sise=3", "unknown key 'smt.stack_sise'"),
            ("tune", "smt.stack_size=ten", "smt.stack_size must be an integer"),
            ("train-nmt", "nmt.clip_norm=1", "unknown key 'nmt.clip_norm'"),
            ("evaluate", "evaluate.system=a\tb", "evaluate.system"),
            ("prepare", "threads=4", "threads must be one of 1, got '4'"),
            ("train-smt", "nmt.dropout=1", "nmt.dropout"),
            # numpy's generators take no negative seed
            ("train-nmt", "seed=-1", "seed must be >= 0"),
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

    @pytest.mark.parametrize(
        "command, key, top",
        [
            ("train-nmt", "nmt.hidden", 4096),
            ("train-nmt", "nmt.layers", 16),
            ("train-smt", "smt.lm_order", 10),
        ],
    )
    def test_size_over_its_bound_fails_naming_the_key(
        self, tmp_path, monkeypatch, capsys, command, key, top
    ):
        """Sizes that allocate or loop before any data is read have an
        upper bound; a value past it, however large, is a ConfigError."""
        path = write_config(tmp_path)
        assert load_config(path, overrides=[f"{key}={top}"])[key] == top
        for value in (top + 1, 100000000, 12345678901234567890):
            with pytest.raises(
                ConfigError, match=re.escape(f"--set: {key} must be in [1, {top}], got")
            ):
                load_config(path, overrides=[f"{key}={value}"])
        monkeypatch.chdir(tmp_path)
        assert run([command, "--config", path, "--set", f"{key}={top + 1}"]) == 1
        err = capsys.readouterr().err
        assert f"{key} must be in [1, {top}]" in err
        assert "Traceback" not in err
        assert not (tmp_path / "run").exists()


class TestLineForLine:
    """Each input line gives one output line; a blank one gives a blank one."""

    @pytest.mark.parametrize("system", ["smt", "nmt"])
    def test_blank_line_gives_blank_line(self, tmp_path, monkeypatch, system):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path)
        small_smt_model(tmp_path / "run" / "smt")
        small_nmt_model(tmp_path / "run" / "nmt")
        (tmp_path / "in.txt").write_text("a b\n\nb\n", encoding="utf-8")
        sets = ["--set", "translate.input=in.txt", "--set", f"translate.system={system}"]
        assert run(["translate", "--config", cfg] + sets) == 0
        text = (tmp_path / "run" / "hypotheses.txt").read_text(encoding="utf-8")
        lines = text.split("\n")
        assert len(lines) == 4 and lines[1] == lines[3] == ""
        if system == "smt":
            assert text == "x y\n\ny\n"

    def test_translate_then_evaluate(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path)
        small_smt_model(tmp_path / "run" / "smt")
        (tmp_path / "in.txt").write_text("a\n\nb\n", encoding="utf-8")
        (tmp_path / "ref.txt").write_text("x\nz\ny\n", encoding="utf-8")
        assert run(["translate", "--config", cfg, "--set", "translate.input=in.txt"]) == 0
        assert run(["evaluate", "--config", cfg, "--set", "evaluate.references=ref.txt"]) == 0

    @pytest.mark.parametrize("translation", ["a||", "||"])
    def test_empty_candidate_names_the_input_line(self, tmp_path, monkeypatch, translation):
        from termforge import pipeline
        from termforge.errors import MarkupError

        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path)
        small_smt_model(tmp_path / "run" / "smt")
        (tmp_path / "in.txt").write_text(
            f'a\n<n translation="{translation}">b</n>\n', encoding="utf-8"
        )
        with pytest.raises(
            MarkupError, match=rf"^{re.escape(str(tmp_path / 'in.txt'))}: line 2: empty candidate"
        ):
            pipeline.run_translate(load_config(cfg, ["translate.input=in.txt"]))

    @pytest.mark.parametrize("prob", ["1.5", "-0.1"])
    def test_prob_outside_unit_interval_names_the_input_line(
        self, tmp_path, monkeypatch, prob
    ):
        from termforge import pipeline
        from termforge.errors import MarkupError

        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path)
        small_smt_model(tmp_path / "run" / "smt")
        (tmp_path / "in.txt").write_text(
            f'a\n<n translation="x||y" prob="0.5||{prob}">b</n>\n', encoding="utf-8"
        )
        where = re.escape(f"{tmp_path / 'in.txt'}: line 2: ")
        with pytest.raises(
            MarkupError, match=rf"^{where}probability {prob} outside \[0, 1\]$"
        ):
            pipeline.run_translate(load_config(cfg, ["translate.input=in.txt"]))


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

    @pytest.mark.parametrize("text", ["", "\n\n"])
    def test_empty_phrase_table_is_named(self, tmp_path, monkeypatch, capsys, text):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path)
        model_dir = tmp_path / "run" / "smt"
        small_smt_model(model_dir)
        (model_dir / "phrase-table.txt").write_text(text, encoding="utf-8")
        (tmp_path / "in.txt").write_text("a\n", encoding="utf-8")
        sets = ["--set", "translate.input=in.txt"]
        assert run(["translate", "--config", cfg] + sets) == 1
        err = capsys.readouterr().err
        assert f"{model_dir / 'phrase-table.txt'}: no phrase entries" in err
        assert "Traceback" not in err
        assert not (tmp_path / "run" / "hypotheses.txt").exists()

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
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path)
        uncoverable_smt_model(tmp_path / "run" / "smt")
        (tmp_path / "in.txt").write_text("a b\na b c\n", encoding="utf-8")
        sets = ["--set", "translate.input=in.txt"]
        assert run(["translate", "--config", cfg] + sets) == 1
        err = capsys.readouterr().err
        assert f"{tmp_path / 'in.txt'}: line 2: " in err
        assert "'a b c'" in err
        assert "Traceback" not in err
        assert not (tmp_path / "run" / "hypotheses.txt").exists()

    def test_uncoverable_input_error_keeps_the_tokens(self, tmp_path, monkeypatch):
        from termforge import pipeline
        from termforge.errors import SearchError

        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path)
        uncoverable_smt_model(tmp_path / "run" / "smt")
        (tmp_path / "in.txt").write_text("a b\na b c\n", encoding="utf-8")
        with pytest.raises(
            SearchError, match=rf"^{re.escape(str(tmp_path / 'in.txt'))}: line 2: .*'a b c'"
        ) as info:
            pipeline.run_translate(load_config(cfg, ["translate.input=in.txt"]))
        assert info.value.tokens == ("a", "b", "c")

    # the second dev file starts with a blank line, which the corpus drops
    @pytest.mark.parametrize("src, tgt", [("a b\na b c\n", "x\nx y\n"),
                                          ("\na b c\n", "\nx y\n")])
    def test_uncoverable_dev_sentence_names_the_dev_line(
        self, tmp_path, monkeypatch, capsys, src, tgt
    ):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path)
        model_dir = tmp_path / "run" / "smt"
        uncoverable_smt_model(model_dir)
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

    def test_merged_results_and_report_bytes(self, tmp_path, monkeypatch):
        """Five evaluate calls over three systems' sets, the first pair
        rescored last, then report: the exact bytes of both files.  The
        report's columns are one system's sets after another's (icd ifrs,
        then zz), not the sets in row order (icd zz ifrs)."""
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path)
        (tmp_path / "ref.txt").write_text("a b c d\ne f g h\n", encoding="utf-8")
        (tmp_path / "one.txt").write_text("a b x d\ne f g h\n", encoding="utf-8")
        (tmp_path / "two.txt").write_text("a b c\ne y g h\n", encoding="utf-8")
        (tmp_path / "three.txt").write_text("d c b a\ne f\n", encoding="utf-8")
        for system, evalset, hyps in [
            ("smt", "icd", "one.txt"),
            ("nmt", "zz", "two.txt"),
            ("smt", "ifrs", "three.txt"),
            ("nmt", "icd", "one.txt"),
            ("smt", "icd", "two.txt"),
        ]:
            assert run([
                "evaluate", "--config", cfg,
                "--set", "evaluate.references=ref.txt",
                "--set", f"evaluate.hypotheses={hyps}",
                "--set", f"evaluate.system={system}",
                "--set", f"evaluate.evalset={evalset}",
            ]) == 0
        assert run(["report", "--config", cfg]) == 0
        assert (tmp_path / "run" / "results.tsv").read_text(encoding="utf-8") == (
            "smt\ticd\tbleu\t0.313674\n"
            "smt\ticd\tmeteor\t71.202532\n"
            "smt\ticd\tchrf3\t38.118410\n"
            "nmt\tzz\tbleu\t0.313674\n"
            "nmt\tzz\tmeteor\t71.202532\n"
            "nmt\tzz\tchrf3\t38.118410\n"
            "smt\tifrs\tbleu\t0.001347\n"
            "smt\tifrs\tmeteor\t54.665242\n"
            "smt\tifrs\tchrf3\t23.544521\n"
            "nmt\ticd\tbleu\t61.796546\n"
            "nmt\ticd\tmeteor\t84.056122\n"
            "nmt\ticd\tchrf3\t63.541667\n"
        )
        assert (tmp_path / "run" / "report.txt").read_text(encoding="utf-8") == (
            "BLEU\n"
            "                   icd        ifrs          zz\n"
            "smt               0.31        0.00           /\n"
            "nmt              61.80           /        0.31\n"
            "\n"
            "METEOR\n"
            "                   icd        ifrs          zz\n"
            "smt              71.20       54.67           /\n"
            "nmt              84.06           /       71.20\n"
            "\n"
            "chrF3\n"
            "                   icd        ifrs          zz\n"
            "smt              38.12       23.54           /\n"
            "nmt              63.54           /       38.12\n"
        )

    def test_malformed_existing_row_leaves_results_unchanged(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path)
        (tmp_path / "ref.txt").write_text("a b c d\n", encoding="utf-8")
        results = tmp_path / "run" / "results.tsv"
        results.parent.mkdir()
        # a value that is not a number, or not a finite one
        for value in ("high", "nan", "inf", "-inf"):
            before = f"nmt\ticdtoy\tbleu\t50.0\n\nnmt\ticdtoy\tmeteor\t{value}\n"
            results.write_text(before, encoding="utf-8")
            assert run([
                "evaluate", "--config", cfg,
                "--set", "evaluate.references=ref.txt",
                "--set", "evaluate.hypotheses=ref.txt",
            ]) == 1
            err = capsys.readouterr().err
            assert f"{results}: line 3: " in err, value
            assert "Traceback" not in err
            assert results.read_text(encoding="utf-8") == before


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
    @pytest.mark.parametrize("text", ["", "\n  \n\n"])
    def test_no_rows_names_the_file(self, tmp_path, monkeypatch, capsys, text):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path)
        results = tmp_path / "run" / "results.tsv"
        results.parent.mkdir()
        results.write_text(text, encoding="utf-8")
        assert run(["report", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err == f"termforge report: {results}: no results to report\n"
        assert not (tmp_path / "run" / "report.txt").exists()

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

    def test_unknown_metric_names_file_and_line(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path)
        results = tmp_path / "run" / "results.tsv"
        results.parent.mkdir()
        results.write_text("smt\ticdtoy\tbleu\t12.5\nsmt\ticdtoy\tter\t0.5\n", encoding="utf-8")
        assert run(["report", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert f"{results}: line 2: unknown metric 'ter'" in err
        assert "Traceback" not in err
        assert not (tmp_path / "run" / "report.txt").exists()

    def test_missing_metric_prints_as_missing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path)
        results = tmp_path / "run" / "results.tsv"
        results.parent.mkdir()
        results.write_text("smt\ticdtoy\tbleu\t12.5\n", encoding="utf-8")
        assert run(["report", "--config", cfg]) == 0
        blocks = (tmp_path / "run" / "report.txt").read_text(encoding="utf-8").split("\n\n")
        rows = {block.splitlines()[0]: block.splitlines()[2].split() for block in blocks}
        assert rows == {"BLEU": ["smt", "12.50"], "METEOR": ["smt", "/"], "chrF3": ["smt", "/"]}


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

        def fake_translate(model, encoded, beam_width=5):
            return pieces, np.zeros((len(pieces), 2)), 0.0

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


class TestTranslateReplaceUnk:
    @pytest.mark.parametrize(
        "lexicon, expected",
        [
            ("b\tzz\n", "zz"),
            # the attended word is looked up as a one-token term only
            ("a b\tzz\n", "b"),
        ],
    )
    def test_unknown_takes_the_one_token_term_of_its_source_word(
        self, tmp_path, monkeypatch, lexicon, expected
    ):
        from termforge import nmt, pipeline
        from termforge.config import PipelineConfig

        small_nmt_model(tmp_path)
        (tmp_path / "in.txt").write_text("a b\n", encoding="utf-8")
        (tmp_path / "lexicon.tsv").write_text(lexicon, encoding="utf-8")

        def fake_translate(model, encoded, beam_width=5):
            return ("<unk>",), np.array([[0.0, 1.0]]), 0.0  # attends to "b"

        monkeypatch.setattr(nmt, "translate", fake_translate)
        cfg = PipelineConfig(
            {
                "translate.system": "nmt",
                "model.nmt.dir": ".",
                "translate.input": "in.txt",
                "translate.output": "out.txt",
                "translate.replace_unk_lexicon": "lexicon.tsv",
            },
            base_dir=str(tmp_path),
        )
        assert pipeline.run_translate(cfg) == [(expected,)]
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

    def test_directory_as_output_is_named(self, tmp_path, monkeypatch, capsys):
        """A failed replace names the output, not the temp file it wrote."""
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path)
        assert run(["prepare", "--config", cfg]) == 0
        (tmp_path / "out").mkdir()
        argv = ["stats", "--config", cfg, "--set", "stats.output=out"]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err == f"termforge stats: {tmp_path / 'out'}: Is a directory\n"
        assert list(tmp_path.rglob(".tmp-*")) == []

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
