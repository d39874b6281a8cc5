"""Replay the committed CLI corpus: every argv gives the bytes it was hashed
with (see ``cli_corpus.py``, which also re-hashes it)."""

from __future__ import annotations

import json

import pytest

from cli_corpus import CORPUS, run

ENTRIES = json.loads(CORPUS.read_text())


def test_corpus_covers_the_cli():
    argvs = [argv for argv, _ in ENTRIES]
    assert len(argvs) == len({json.dumps(argv) for argv in argvs}) >= 500
    words = {word for argv in argvs for word in argv}
    from seqarea.cli import FAMILY_NAMES

    assert {"gen", "area", "verify", "polygonal", "third-order", "--out"} <= words
    assert {*FAMILY_NAMES, "markdown", "json", "csv", "oracle", "closed", "both"} <= words


@pytest.mark.parametrize("argv, digest", ENTRIES, ids=range(len(ENTRIES)))
def test_corpus_bytes(argv, digest):
    assert run(argv) == digest
