"""The one text reader and the one atomic writer that every module uses.

A text input is UTF-8, and its lines end at ``\\n``, ``\\r\\n`` or ``\\r``
(as in Python's text mode), never at U+0085, U+2028 or a form feed.  An
artifact is written to a temp file beside it and renamed into place only
when its writer finishes, so a failed save leaves no partial file.
"""

from __future__ import annotations

import contextlib
import os

from .errors import InputError


def read_lines(path) -> list[str]:
    """The lines of the text file ``path``, without their ends; an
    undecodable byte raises :class:`InputError` naming its line."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        text = data.decode("utf-8")
        del data  # the bytes are not needed while the text is split
    except UnicodeDecodeError as exc:
        # the lines before the bad byte, plus the one it starts or continues
        lineno = len(_split(data[:exc.start].decode("utf-8") + "?"))
        raise InputError(
            f"{path}: line {lineno}: not UTF-8 (byte {data[exc.start]:#04x})"
        ) from None
    return _split(text)


def _split(text: str) -> list[str]:
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()  # the end of the last line, or an empty file
    return lines


@contextlib.contextmanager
def atomic_open(path, mode: str = "w"):
    """A file for ``"w"`` (UTF-8 text) or ``"wb"`` writing that replaces
    ``path`` when the block succeeds and is removed when it raises.  It gets
    the mode a plain ``open`` would give it under the process umask."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, mode, encoding=None if "b" in mode else "utf-8") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
