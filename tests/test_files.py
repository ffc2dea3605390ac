"""The shared text reader and atomic writer."""

import os
import re

import pytest

from termforge.align import PhraseOption, PhraseTable, save_phrase_table
from termforge.corpus import load_parallel
from termforge.errors import InputError
from termforge.files import atomic_open, read_lines


def plain_mode(directory):
    """The permission bits ``open(..., "w")`` gives a new file in ``directory``."""
    probe = directory / "plain"
    with open(probe, "w", encoding="utf-8"):
        pass
    mode = os.stat(probe).st_mode & 0o777
    probe.unlink()
    return mode


def leftovers(directory):
    return sorted(p.name for p in directory.iterdir() if p.name.startswith(".tmp-"))


class TestReadLines:
    @pytest.mark.parametrize(
        "data, lines",
        [
            (b"", []),
            (b"a", ["a"]),
            (b"a\n", ["a"]),
            (b"a\n\nb", ["a", "", "b"]),
            (b"a\r\nb\rc\n", ["a", "b", "c"]),
            (b"a\r\n\r\n", ["a", ""]),
            ("café\n".encode(), ["café"]),
        ],
    )
    def test_line_ends(self, tmp_path, data, lines):
        path = tmp_path / "in.txt"
        path.write_bytes(data)
        assert read_lines(path) == lines

    @pytest.mark.parametrize("sep", ["\x85", "\u2028", "\u2029", "\x0c", "\x0b", "\x1c"])
    def test_unicode_breaks_stay_inside_a_line(self, tmp_path, sep):
        path = tmp_path / "in.txt"
        path.write_text(f"a{sep}b\nc\n", encoding="utf-8")
        assert read_lines(path) == [f"a{sep}b", "c"]

    @pytest.mark.parametrize(
        "data, lineno",
        [
            (b"\xffa\nb\n", 1),
            (b"a\nb\xff\n", 2),
            (b"a\r\nb\rc\xff", 3),
            (b"a\n\n\xff", 3),
            (b"a\n\xc3", 2),  # truncated two-byte sequence
        ],
    )
    def test_undecodable_byte_names_file_and_line(self, tmp_path, data, lineno):
        path = tmp_path / "in.txt"
        path.write_bytes(data)
        with pytest.raises(InputError, match=rf"^{re.escape(str(path))}: line {lineno}: not UTF-8"):
            read_lines(path)


class TestAtomicOpen:
    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_mode_is_that_of_a_plain_open(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            expected = plain_mode(tmp_path)
            with atomic_open(tmp_path / "out.txt") as f:
                f.write("x\n")
        finally:
            os.umask(old)
        assert os.stat(tmp_path / "out.txt").st_mode & 0o777 == expected

    def test_text_and_binary(self, tmp_path):
        with atomic_open(tmp_path / "sub" / "t.txt") as f:
            f.write("café\n")
        with atomic_open(tmp_path / "b.bin", "wb") as f:
            f.write(b"\x00\xff")
        assert (tmp_path / "sub" / "t.txt").read_bytes() == "café\n".encode()
        assert (tmp_path / "b.bin").read_bytes() == b"\x00\xff"
        assert leftovers(tmp_path) == leftovers(tmp_path / "sub") == []

    @pytest.mark.parametrize("mode", ["w", "wb"])
    def test_failed_writer_keeps_old_content(self, tmp_path, mode):
        path = tmp_path / "out"
        path.write_text("old\n", encoding="utf-8")
        with pytest.raises(RuntimeError):
            with atomic_open(path, mode) as f:
                f.write("new\n" if mode == "w" else b"new\n")
                raise RuntimeError("halfway")
        assert path.read_text(encoding="utf-8") == "old\n"
        assert leftovers(tmp_path) == []

    def test_failed_saver_keeps_old_file(self, tmp_path):
        path = tmp_path / "phrase-table.txt"
        good = PhraseOption(("x",), (0.5, 0.5, 0.5, 0.5))
        save_phrase_table(PhraseTable({("a",): [good]}), path)
        before = path.read_bytes()
        # the second entry fails after the first has been written
        bad = PhraseOption(("y",), (0.5, 0.5, 0.5, "high"))
        with pytest.raises(ValueError):
            save_phrase_table(PhraseTable({("a",): [good], ("b",): [bad]}), path)
        assert path.read_bytes() == before
        assert leftovers(tmp_path) == []


@pytest.mark.parametrize("sep", ["\x85", "\u2028"])
def test_parallel_files_split_like_wc(tmp_path, sep):
    src = tmp_path / "nel.src"
    tgt = tmp_path / "nel.tgt"
    src.write_text(f"a{sep}b\nc\n", encoding="utf-8")
    tgt.write_text("x y\nz\n", encoding="utf-8")
    assert load_parallel(src, tgt).pairs == [(("a", "b"), ("x", "y")), (("c",), ("z",))]
