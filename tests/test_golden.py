"""Every case of the golden-output corpus (`golden.py`) reproduces the
digest committed in `golden.json`: plan documents, `verify` output,
lowered sigmas, converted stripes, access reports and corruption errors,
byte for byte."""

import json

import golden


def test_outputs_match_the_committed_digests():
    want = json.loads(golden.CORPUS.read_text(encoding="utf-8"))
    got = golden.digests()
    assert sorted(got) == sorted(want)
    changed = [name for name in want if got[name] != want[name]]
    assert not changed, changed
