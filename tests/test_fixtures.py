"""Synthetic two-domain fixture properties."""

from termforge.corpus import load_lexicon, load_parallel
from termforge.fixtures import build_fixture_set, write_fixture_files


class TestFixtureSet:
    def test_deterministic(self):
        a = build_fixture_set(seed=5)
        b = build_fixture_set(seed=5)
        assert a.generic.pairs == b.generic.pairs
        assert a.domain_a.dev.pairs == b.domain_a.dev.pairs
        assert a.domain_b.eval.pairs == b.domain_b.eval.pairs

    def test_domains_have_disjoint_vocabulary(self):
        fx = build_fixture_set(seed=3)
        for side in ("source", "target"):
            a_vocab = fx.domain_a.dev.vocab(side) | fx.domain_a.eval.vocab(side)
            b_vocab = fx.domain_b.dev.vocab(side) | fx.domain_b.eval.vocab(side)
            assert not a_vocab & b_vocab

    def test_dev_eval_pairs_disjoint_but_share_vocab(self):
        fx = build_fixture_set(seed=4)
        dev_pairs = set(fx.domain_a.dev.pairs)
        eval_pairs = set(fx.domain_a.eval.pairs)
        assert not dev_pairs & eval_pairs
        assert fx.domain_a.dev.vocab("source") == fx.domain_a.eval.vocab("source")

    def test_reorder_style_swaps_targets(self):
        fx = build_fixture_set(seed=6, domain_a_style="reorder")
        mapping = {}
        for (sx, sy), (ty, tx) in fx.domain_a.dev.pairs:
            assert len((ty, tx)) == 2
            mapping.setdefault(sx, tx)
            assert mapping[sx] == tx  # reversed target aligns second word first

    def test_compound_style_single_token(self):
        fx = build_fixture_set(seed=6, domain_a_style="compound")
        for _, ref in fx.domain_a.dev.pairs:
            assert len(ref) == 1

    def test_generic_prefers_straight_style(self):
        fx = build_fixture_set(seed=7)
        bare = sum(
            1 for s, t in fx.generic.pairs if len(s) == 2 and len(t) == 2
        )
        assert bare > len(fx.generic.pairs) / 3

    def test_lexicon_covers_dev_terms_with_abstracts(self):
        fx = build_fixture_set(seed=8)
        sources = {e.source_term for e in fx.lexicon.entries.values()}
        for src, _ in fx.domain_a.dev.pairs:
            assert src in sources
        assert all(e.abstract for e in fx.lexicon.entries.values())


class TestWriteFixtureFiles:
    def test_files_load_back(self, tmp_path):
        paths = write_fixture_files(tmp_path / "fx", seed=11)
        generic = load_parallel(paths["generic.src"], paths["generic.tgt"])
        fx = build_fixture_set(seed=11)
        assert generic.pairs == fx.generic.pairs
        lexicon = load_lexicon(paths["lexicon.tsv"])
        assert list(lexicon.entries.values()) == list(fx.lexicon.entries.values())

    def test_rewrite_is_byte_identical(self, tmp_path):
        write_fixture_files(tmp_path / "fx", seed=12)
        first = (tmp_path / "fx" / "generic.src").read_bytes()
        write_fixture_files(tmp_path / "fx", seed=12)
        assert (tmp_path / "fx" / "generic.src").read_bytes() == first
