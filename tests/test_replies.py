"""The reply corpus: every stored argv still gets its stored reply, byte for byte."""

import platform
import shlex
import sys

import pytest

import replies


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="the corpus was written under the int-to-str limit")
def test_every_reply_matches_the_corpus():
    """Replay each row through spnum.cli.main and name each argv whose exit
    code, stdout or stderr changed.  argparse's help and usage texts are
    compared only under the Python version that wrote the corpus."""
    version, rows = replies.load()
    same_python = version == platform.python_version()
    changed = []
    with replies.contract():
        for argv, stored in rows:
            rc, out, err = replies.reply(argv)
            if not same_python and (out.startswith("usage:") or err.startswith("usage:")):
                continue
            if replies.row(argv, rc, out, err) != stored:
                changed.append(shlex.join(argv))
    assert not changed, (f"{len(changed)} replies changed; after a deliberate change run "
                         "`python tests/replies.py --update`:\n" + "\n".join(changed))
