"""Replay the golden CLI corpus: every recorded command gives the same exit code and output.

The corpus and the script that rewrites it are described in record_golden.py.
"""

from __future__ import annotations

import json

import pytest

from record_golden import CORPUS, replay

GROUPS = json.loads(CORPUS.read_text())


@pytest.mark.parametrize("group", GROUPS, ids=[g["group"] for g in GROUPS])
def test_corpus_replays(group):
    runs = group["runs"]
    got = replay([run["argv"] for run in runs])
    for run, rec in zip(runs, got):
        want = {key: run[key] for key in ("code", "stdout", "stderr", "files")}
        assert rec == want, " ".join(run["argv"])
