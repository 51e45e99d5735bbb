"""The reply corpus: spnum's exit code, stdout and stderr for a fixed list of
argv, so that the README's byte-identity promise is one test.

`replies.tsv` holds one row per argv, tab-separated: the exit code, stdout,
stderr, then the argv words, stored literally.  A reply of at most 200
bytes is stored in full as a JSON string; a longer one as the sha256 of its
UTF-8 bytes.  The first line names the Python version that wrote the file.
argparse's help and usage texts change between Python versions, so a reply
that starts with `usage:` is compared only under that version.

Replies come from `spnum.cli.main`, in-process, with COLUMNS=80 and the
interpreter's default int-to-str limit of 4300 digits.  Run

    PYTHONPATH=src python tests/replies.py --update

to recompute every row's reply from its argv; the argv list is kept as it
is.  To add a row, append a line whose first three fields are placeholders
(`-`), then run --update.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
from pathlib import Path
from unittest import mock

CORPUS = Path(__file__).with_name("replies.tsv")
FULL_BYTES = 200  # a reply this long or shorter is stored in full
_HEADER = "# spnum replies under Python {}: exit code, stdout, stderr, argv\n"


@contextlib.contextmanager
def contract():
    """The settings the corpus was written under: an 80-column terminal for
    argparse's help and the default int-to-str limit."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with mock.patch.dict(os.environ, COLUMNS="80"):
            yield
    finally:
        sys.set_int_max_str_digits(limit)


def reply(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of spnum.cli.main(argv), usage errors included."""
    from spnum.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(list(argv))
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def _field(text: str) -> str:
    data = text.encode()
    if len(data) <= FULL_BYTES:
        return json.dumps(text, ensure_ascii=False)
    return hashlib.sha256(data).hexdigest()


def row(argv: list[str], rc: int, out: str, err: str) -> str:
    """The corpus line of one reply."""
    return "\t".join([str(rc), _field(out), _field(err), *argv]) + "\n"


def load() -> tuple[str, list[tuple[list[str], str]]]:
    """The writer's Python version, and each row's argv with its stored line."""
    header, *lines = CORPUS.read_text(encoding="utf-8").splitlines(keepends=True)
    version = header.split("Python ", 1)[1].split(":", 1)[0]
    return version, [(line.rstrip("\n").split("\t")[3:], line) for line in lines]


def main(argv: list[str]) -> int:
    if argv != ["--update"]:
        print("usage: python tests/replies.py --update", file=sys.stderr)
        return 2
    _, rows = load()
    with contract():
        lines = [row(words, *reply(words)) for words, _ in rows]
    CORPUS.write_text(_HEADER.format(platform.python_version()) + "".join(lines),
                      encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
