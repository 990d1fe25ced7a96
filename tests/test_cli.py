import argparse
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from mdsconv.cli import main
from mdsconv.errors import CertificateError
from mdsconv.convert import ConvertParams, build_split
from mdsconv.field import GF, PRIME_LIMIT
from mdsconv.grs import ExtGrsSpec, encode, is_codeword, parity_check, puncture, spec_from_dict
from mdsconv.record import replace
from mdsconv import linalg, oracle, plandoc

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).parents[1] / "src"
README_MERGE = {"regime": "merge", "q": 8, "initial": [[5, 3], [5, 3]], "r_F": 2}
README_SPLIT = {"regime": "split", "q": 16, "initial": [[10, 7]], "final": [[6, 4], [5, 3]]}
# What a refused certificate block's text says after its document key.
STORES = "the document stores a matrix that the codes and grid do not give"

# `mdsconv verify` stdout for the README merge plan, line for line.
README_VERIFY = """\
PASS initial code 1 MDS
PASS initial code 2 MDS
PASS final code MDS
PASS optimal structure
PASS access cost meets bound: rho = 6, bound = 6
access cost ρ = 6 (bound: 6)
"""

# `mdsconv verify` stdout for the README split plan, line for line.
README_SPLIT_VERIFY = """\
PASS initial code MDS
PASS final code 1 MDS
PASS final code 2 MDS
PASS final code 1 keeps k_F unchanged symbols
PASS final code 2 keeps k_F unchanged symbols
PASS privileged restricted parity
PASS access cost meets bound: rho = 9, bound = 9
access cost ρ = 9 (bound: 9)
"""


def write_json(path, doc):
    path.write_text(json.dumps(doc, indent=2))


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_merge_pipeline(tmp_path, capsys):
    cfg = tmp_path / "merge.json"
    write_json(cfg, {"regime": "merge", "q": 8, "initial": [[5, 3], [5, 3]], "r_F": 2})
    plan_path = tmp_path / "plan.json"
    code, out, _ = run(capsys, "plan", "--config", cfg, "--out", plan_path)
    assert code == 0
    assert "field: GF(8)" in out
    assert "S: [1, 2]" in out
    assert "bound ρ = 6" in out

    msgs = tmp_path / "msgs.txt"
    msgs.write_text("1 2 3\n4 5 6\n")
    cws = tmp_path / "cws.txt"
    code, out, _ = run(capsys, "encode", "--plan", plan_path, "--in", msgs, "--out", cws)
    assert code == 0

    finals = tmp_path / "finals.txt"
    code, out, _ = run(capsys, "convert", "--plan", plan_path, "--in", cws, "--out", finals)
    assert code == 0
    report = json.loads(out)
    assert report["rho"] == 6 and report["bound"] == 6 and report["optimal"]
    assert "trace" not in report
    plan = plandoc.load_plan(str(plan_path))
    final_syms = plandoc.read_symbol_lines(str(finals), plan.field)
    assert len(final_syms) == 1
    assert is_codeword(plan.final_spec, final_syms[0])

    code, out, _ = run(capsys, "verify", "--plan", plan_path)
    assert code == 0
    assert "PASS optimal structure" in out


def test_convert_trace_flag(tmp_path, capsys):
    cfg = tmp_path / "merge.json"
    write_json(cfg, {"regime": "merge", "q": 8, "initial": [[4, 2], [4, 2]], "r_F": 2})
    plan_path = tmp_path / "plan.json"
    run(capsys, "plan", "--config", cfg, "--out", plan_path)
    msgs = tmp_path / "m.txt"
    msgs.write_text("0 1\n2 3\n")
    cws = tmp_path / "c.txt"
    run(capsys, "encode", "--plan", plan_path, "--in", msgs, "--out", cws)
    code, out, _ = run(
        capsys, "convert", "--plan", plan_path, "--in", cws, "--out", tmp_path / "f.txt", "--trace"
    )
    assert code == 0
    report = json.loads(out)
    statuses = {(e["code"], e["position"]): e["status"] for e in report["trace"]}
    assert statuses[(1, 1)] == "unchanged"
    assert statuses[(3, 1)] == "written"


def test_split_pipeline(tmp_path, capsys):
    cfg = tmp_path / "split.json"
    write_json(
        cfg,
        {"regime": "split", "q": 16, "initial": [[10, 7]], "final": [[6, 4], [5, 3]]},
    )
    plan_path = tmp_path / "plan.json"
    code, out, _ = run(capsys, "plan", "--config", cfg, "--out", plan_path)
    assert code == 0
    assert "privileged final j* = 1" in out
    assert "bound ρ = 9" in out

    msgs = tmp_path / "m.txt"
    msgs.write_text("1 2 3 4 5 6 7\n")
    cws = tmp_path / "c.txt"
    code, _, _ = run(capsys, "encode", "--plan", plan_path, "--in", msgs, "--out", cws)
    assert code == 0
    finals = tmp_path / "f.txt"
    code, out, _ = run(capsys, "convert", "--plan", plan_path, "--in", cws, "--out", finals)
    assert code == 0
    report = json.loads(out)
    assert report["rho_r"] == 5 and report["rho_w"] == 4 and report["optimal"]
    plan = plandoc.load_plan(str(plan_path))
    rows = plandoc.read_symbol_lines(str(finals), plan.field)
    assert len(rows) == 2
    for spec, row in zip(plan.final_specs, rows):
        assert is_codeword(spec, row)
    code, _, _ = run(capsys, "verify", "--plan", plan_path)
    assert code == 0


def test_general_fixture_pipeline(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    shutil.copy(FIXTURES / "two_by_two_plan.json", plan_path)
    plan = plandoc.load_plan(str(plan_path))
    rng = random.Random(5)
    rows = [
        encode(spec, tuple(rng.randrange(8) for _ in range(spec.k))).symbols
        for spec in plan.initial_specs
    ]
    cws = tmp_path / "c.txt"
    plandoc.write_symbol_lines(str(cws), rows)
    finals = tmp_path / "f.txt"
    code, out, _ = run(capsys, "convert", "--plan", plan_path, "--in", cws, "--out", finals)
    assert code == 0
    report = json.loads(out)
    assert report["rho_r"] == 4 and report["rho_w"] == 5
    code, out, _ = run(capsys, "verify", "--plan", plan_path)
    assert code == 0


def test_plan_small_field_exit_2(tmp_path, capsys):
    cfg = tmp_path / "merge.json"
    write_json(cfg, {"regime": "merge", "q": 5, "initial": [[5, 3], [5, 3]], "r_F": 2})
    code, _, err = run(capsys, "plan", "--config", cfg, "--out", tmp_path / "p.json")
    assert code == 2
    assert "q >= 7" in err


def test_malformed_config_exit_1(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{broken")
    code, _, err = run(capsys, "plan", "--config", cfg, "--out", tmp_path / "p.json")
    assert code == 1
    write_json(cfg, {"regime": "sideways", "q": 8, "initial": [[5, 3]]})
    code, _, err = run(capsys, "plan", "--config", cfg, "--out", tmp_path / "p.json")
    assert code == 1
    code, _, err = run(capsys, "plan", "--config", tmp_path / "missing.json", "--out", tmp_path / "p.json")
    assert code == 1


def test_encode_bad_symbol_exit_1(tmp_path, capsys):
    cfg = tmp_path / "merge.json"
    write_json(cfg, {"regime": "merge", "q": 8, "initial": [[5, 3], [5, 3]], "r_F": 2})
    plan_path = tmp_path / "plan.json"
    run(capsys, "plan", "--config", cfg, "--out", plan_path)
    msgs = tmp_path / "m.txt"
    msgs.write_text("1 2 9\n4 5 6\n")  # 9 is not in GF(8)
    code, _, err = run(capsys, "encode", "--plan", plan_path, "--in", msgs, "--out", tmp_path / "c.txt")
    assert code == 1
    msgs.write_text("1 2\n4 5 6\n")  # wrong message length
    code, _, err = run(capsys, "encode", "--plan", plan_path, "--in", msgs, "--out", tmp_path / "c.txt")
    assert code == 1


def test_convert_tampered_exit_3(tmp_path, capsys):
    cfg = tmp_path / "merge.json"
    write_json(cfg, {"regime": "merge", "q": 8, "initial": [[5, 3], [5, 3]], "r_F": 2})
    plan_path = tmp_path / "plan.json"
    run(capsys, "plan", "--config", cfg, "--out", plan_path)
    msgs = tmp_path / "m.txt"
    msgs.write_text("1 2 3\n4 5 6\n")
    cws = tmp_path / "c.txt"
    run(capsys, "encode", "--plan", plan_path, "--in", msgs, "--out", cws)
    rows = plandoc.read_symbol_lines(str(cws), GF(8))
    tampered = list(rows[0])
    tampered[0] ^= 1
    plandoc.write_symbol_lines(str(cws), [tuple(tampered), rows[1]])
    code, _, err = run(capsys, "convert", "--plan", plan_path, "--in", cws, "--out", tmp_path / "f.txt")
    assert code == 3


def test_verify_perturbed_plan_exit_2(tmp_path, capsys):
    cfg = tmp_path / "merge.json"
    write_json(cfg, {"regime": "merge", "q": 8, "initial": [[5, 3], [5, 3]], "r_F": 2})
    plan_path = tmp_path / "plan.json"
    run(capsys, "plan", "--config", cfg, "--out", plan_path)
    doc = json.loads(plan_path.read_text())
    lines = doc["punctured_parity"][0]["matrix"]
    first_row = lines[1].split()
    first_row[0] = str(int(first_row[0]) ^ 1)  # GF(8) addition of 1
    lines[1] = " ".join(first_row)
    write_json(plan_path, doc)
    code, out, _ = run(capsys, "verify", "--plan", plan_path)
    assert code == 2
    assert out == f"FAIL punctured_parity: code 1: {STORES}\n"


def test_bounds_command(tmp_path, capsys):
    code, out, _ = run(capsys, "bounds", "--initial", "5,3", "--initial", "7,4", "--final", "9,7")
    assert code == 0
    assert "per-code read minimums: [2, 2]" in out
    assert "bound ρ = 6" in out
    code, out, _ = run(capsys, "bounds", "--initial", "5,3", "--initial", "7,4", "--final", "12,7")
    assert "per-code read minimums: [3, 4]" in out and "bound ρ = 12" in out
    code, out, _ = run(capsys, "bounds", "--initial", "5,3", "--initial", "5,3", "--final", "8,6")
    assert "special case: uniform initial codes" in out
    code, out, _ = run(capsys, "bounds", "--initial", "10,7", "--final", "6,4", "--final", "5,3")
    assert code == 0
    assert "read bound ρ_r = 5" in out and "bound ρ = 9" in out
    code, out, _ = run(capsys, "bounds", "--initial", "6,4", "--final", "7,4")
    assert code == 0
    assert "degenerate" in out
    code, _, err = run(capsys, "bounds", "--initial", "5,3", "--final", "9,7")
    assert code == 1  # dimension mismatch


def test_encode_zero_messages(tmp_path, capsys):
    cfg = tmp_path / "merge.json"
    write_json(cfg, {"regime": "merge", "q": 8, "initial": [[5, 3], [5, 3]], "r_F": 2})
    plan_path = tmp_path / "plan.json"
    run(capsys, "plan", "--config", cfg, "--out", plan_path)
    msgs = tmp_path / "m.txt"
    msgs.write_text("0 0 0\n0 0 0\n")
    cws = tmp_path / "c.txt"
    code, _, _ = run(capsys, "encode", "--plan", plan_path, "--in", msgs, "--out", cws)
    assert code == 0
    assert plandoc.read_symbol_lines(str(cws), GF(8)) == [(0,) * 5, (0,) * 5]


def test_pipeline_matrix(tmp_path, capsys):
    """plan -> encode -> convert -> verify succeeds across a small parameter matrix."""
    cases = [
        {"regime": "merge", "q": 8, "initial": [[5, 3], [6, 4]], "r_F": 2},
        {"regime": "merge", "q": 11, "initial": [[4, 2], [5, 3], [6, 4]], "r_F": 1},
        {"regime": "merge", "q": 7, "initial": [[4, 2], [4, 2]], "r_F": 3},
        {"regime": "split", "q": 11, "initial": [[9, 6]], "final": [[5, 3], [5, 3]]},
        {"regime": "split", "q": 7, "initial": [[7, 6]], "final": [[5, 3], [5, 3]]},
    ]
    rng = random.Random(13)
    for idx, cfg_doc in enumerate(cases):
        cfg = tmp_path / f"cfg{idx}.json"
        write_json(cfg, cfg_doc)
        plan_path = tmp_path / f"plan{idx}.json"
        code, _, _ = run(capsys, "plan", "--config", cfg, "--out", plan_path)
        assert code == 0
        plan = plandoc.load_plan(str(plan_path))
        specs = (plan.initial_spec,) if cfg_doc["regime"] == "split" else plan.initial_specs
        msgs = tmp_path / f"m{idx}.txt"
        msgs.write_text(
            "\n".join(
                " ".join(str(rng.randrange(cfg_doc["q"])) for _ in range(spec.k))
                for spec in specs
            )
            + "\n"
        )
        cws = tmp_path / f"c{idx}.txt"
        code, _, _ = run(capsys, "encode", "--plan", plan_path, "--in", msgs, "--out", cws)
        assert code == 0
        finals = tmp_path / f"f{idx}.txt"
        code, out, _ = run(capsys, "convert", "--plan", plan_path, "--in", cws, "--out", finals)
        assert code == 0
        assert json.loads(out)["optimal"] is True
        code, _, _ = run(capsys, "verify", "--plan", plan_path)
        assert code == 0


def test_plan_deterministic(tmp_path, capsys):
    cfg = tmp_path / "merge.json"
    write_json(cfg, {"regime": "merge", "q": 8, "initial": [[5, 3], [5, 3]], "r_F": 2})
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "plan", "--config", cfg, "--out", a)
    run(capsys, "plan", "--config", cfg, "--out", b)
    assert a.read_bytes() == b.read_bytes()


def test_plan_documents_match_fixtures(tmp_path, capsys):
    """`plan` writes the committed README plan documents byte for byte, and
    `verify` prints the committed lines for them."""
    readme = (("merge", README_MERGE, README_VERIFY), ("split", README_SPLIT, README_SPLIT_VERIFY))
    for kind, cfg, lines in readme:
        cfg_path, plan_path = tmp_path / f"{kind}.json", tmp_path / f"{kind}-plan.json"
        write_json(cfg_path, cfg)
        assert run(capsys, "plan", "--config", cfg_path, "--out", plan_path)[0] == 0
        assert plan_path.read_bytes() == (FIXTURES / f"readme_{kind}_plan.json").read_bytes()
        assert run(capsys, "verify", "--plan", plan_path) == (0, lines, "")


def test_verify_rejects_out_of_range_code_index(tmp_path, capsys):
    cfg = tmp_path / "merge.json"
    write_json(cfg, {"regime": "merge", "q": 8, "initial": [[5, 3], [5, 3]], "r_F": 2})
    plan_path = tmp_path / "plan.json"
    run(capsys, "plan", "--config", cfg, "--out", plan_path)
    doc = json.loads(plan_path.read_text())
    entry = next(e for e in doc["punctured_parity"] if e["code"] == 2)
    entry["code"] = 0  # would index the last slot from the end
    write_json(plan_path, doc)
    code, _, err = run(capsys, "verify", "--plan", plan_path)
    assert code == 1
    assert "out of range" in err


def _readme_merge(tmp_path, capsys):
    """Plan and codeword files of the README merge, as the CLI writes them."""
    cfg = tmp_path / "merge.json"
    write_json(cfg, {"regime": "merge", "q": 8, "initial": [[5, 3], [5, 3]], "r_F": 2})
    plan_path = tmp_path / "plan.json"
    run(capsys, "plan", "--config", cfg, "--out", plan_path)
    msgs = tmp_path / "m.txt"
    msgs.write_text("1 2 3\n4 5 6\n")
    cws = tmp_path / "c.txt"
    run(capsys, "encode", "--plan", plan_path, "--in", msgs, "--out", cws)
    return plan_path, cws


def _tamper_bit(cws, q):
    """Flip the low bit of the first symbol in a codeword file over GF(q), q = 2^m."""
    rows = [list(r) for r in plandoc.read_symbol_lines(str(cws), GF(q))]
    rows[0][0] ^= 1
    plandoc.write_symbol_lines(str(cws), rows)


def _corrupt_input_then_refusal(tmp_path, capsys, plan_path, cws, doc, q):
    """`doc` loads but fails `verify` on its structure, so `convert` checks
    its inputs first: a corrupt one exits 3, then a clean stripe exits 1."""
    write_json(plan_path, doc)
    assert run(capsys, "verify", "--plan", plan_path)[0] == 2
    clean = cws.read_text()
    _tamper_bit(cws, q)
    code, _, _ = run(capsys, "convert", "--plan", plan_path, "--in", cws, "--out", tmp_path / "f.txt")
    assert code == 3
    cws.write_text(clean)
    code, _, err = run(capsys, "convert", "--plan", plan_path, "--in", cws, "--out", tmp_path / "f.txt")
    assert code == 1 and "plan is not executable" in err


def test_convert_singular_written_block_exit_1(tmp_path, capsys):
    plan_path, cws = _readme_merge(tmp_path, capsys)
    original = plan_path.read_text()
    doc = json.loads(original)
    for block in (["2 2 8", "1 1", "1 1"], ["2 2 8", "0 0", "0 0"]):
        doc["final_written_block"] = block
        write_json(plan_path, doc)
        code, _, err = run(capsys, "convert", "--plan", plan_path, "--in", cws, "--out", tmp_path / "f.txt")
        assert code == 1
        assert f"final_written_block: {STORES}" in err
    # The stored certificate is refused as the plan is read, before any input.
    clean = cws.read_text()
    _tamper_bit(cws, 8)
    code, _, err = run(capsys, "convert", "--plan", plan_path, "--in", cws, "--out", tmp_path / "f.txt")
    assert code == 1 and f"final_written_block: {STORES}" in err
    cws.write_text(clean)
    doc = json.loads(original)
    _overlapping_reads(doc)
    _corrupt_input_then_refusal(tmp_path, capsys, plan_path, cws, doc, 8)


def test_convert_singular_privileged_block_exit_1(tmp_path, capsys):
    cfg = tmp_path / "split.json"
    write_json(cfg, {"regime": "split", "q": 16, "initial": [[10, 7]], "final": [[6, 4], [5, 3]]})
    plan_path = tmp_path / "plan.json"
    run(capsys, "plan", "--config", cfg, "--out", plan_path)
    msgs = tmp_path / "m.txt"
    msgs.write_text("1 2 3 4 5 6 7\n")
    cws = tmp_path / "c.txt"
    run(capsys, "encode", "--plan", plan_path, "--in", msgs, "--out", cws)
    original = plan_path.read_text()
    doc = json.loads(original)
    support = sorted({pos for per_final in doc["unchanged"] for _, pos in per_final} | {pos for _, pos in doc["V"]})
    v_slots = {support.index(pos) for _, pos in doc["V"]}
    lines = doc["punctured_parity"]
    lines[1:] = [
        " ".join("0" if c in v_slots else e for c, e in enumerate(line.split())) for line in lines[1:]
    ]
    write_json(plan_path, doc)
    code, _, err = run(capsys, "convert", "--plan", plan_path, "--in", cws, "--out", tmp_path / "f.txt")
    assert code == 1
    assert f"error: punctured_parity: {STORES}" in err
    # The privileged final drops its read of final 2's first unchanged symbol.
    doc = json.loads(original)
    del doc["reads"][0][0]
    _corrupt_input_then_refusal(tmp_path, capsys, plan_path, cws, doc, 16)


def test_verify_readme_plan_output(tmp_path, capsys):
    plan_path, _ = _readme_merge(tmp_path, capsys)
    for extra in ((), ("--seed", "3")):  # --seed is accepted and changes nothing
        assert run(capsys, "verify", "--plan", plan_path, *extra) == (0, README_VERIFY, "")


def test_reads_outside_s_edited_exit_1(tmp_path, capsys):
    cfg = tmp_path / "merge.json"
    write_json(cfg, {"regime": "merge", "q": 8, "initial": [[5, 3], [4, 2]], "r_F": 2})
    plan_path = tmp_path / "plan.json"
    run(capsys, "plan", "--config", cfg, "--out", plan_path)
    msgs = tmp_path / "m.txt"
    msgs.write_text("1 2 3\n4 5\n")
    cws = tmp_path / "c.txt"
    assert run(capsys, "encode", "--plan", plan_path, "--in", msgs, "--out", cws)[0] == 0
    doc = json.loads(plan_path.read_text())
    assert doc["S"] == [1] and doc["reads"][1] == [[2, 1], [2, 2]]
    doc["reads"][1] = [[2, 3], [2, 4]]
    write_json(plan_path, doc)
    code, _, err = run(capsys, "verify", "--plan", plan_path)
    assert code == 1 and "outside S" in err
    code, _, err = run(capsys, "convert", "--plan", plan_path, "--in", cws, "--out", tmp_path / "f.txt")
    assert code == 1 and "outside S" in err


def test_config_not_an_object_exit_1(tmp_path, capsys):
    cfg = tmp_path / "list.json"
    write_json(cfg, [{"regime": "merge", "q": 8, "initial": [[5, 3], [5, 3]], "r_F": 2}])
    code, _, err = run(capsys, "plan", "--config", cfg, "--out", tmp_path / "p.json")
    assert code == 1 and err.startswith("error:") and "JSON object" in err


# An integer literal longer than Python's default int digit limit (4300), which
# json raises as a plain ValueError, not a JSONDecodeError.
HUGE_Q = "1" * 5000


def test_config_q_past_the_int_digit_limit_exit_1(tmp_path, capsys):
    cfg = tmp_path / "merge.json"
    cfg.write_text(json.dumps(README_MERGE).replace('"q": 8', f'"q": {HUGE_Q}'))
    out = tmp_path / "p.json"
    code, _, err = run(capsys, "plan", "--config", cfg, "--out", out)
    assert code == 1 and err.startswith("error:") and not out.exists()


def test_plan_q_past_the_int_digit_limit_exit_1(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    text = (FIXTURES / "readme_merge_plan.json").read_text()
    assert '"q": 8' in text
    plan_path.write_text(text.replace('"q": 8', f'"q": {HUGE_Q}', 1))
    code, out, err = run(capsys, "verify", "--plan", plan_path)
    assert code == 1 and out == "" and err.startswith("error:")


def test_config_r_final_not_an_integer_exit_1(tmp_path, capsys):
    cfg = tmp_path / "merge.json"
    write_json(cfg, {"regime": "merge", "q": 8, "initial": [[5, 3], [5, 3]], "r_F": "a"})
    code, _, err = run(capsys, "plan", "--config", cfg, "--out", tmp_path / "p.json")
    assert code == 1 and err.startswith("error:") and "'r_F'" in err


def test_config_merge_final_not_a_shape_exit_1(tmp_path, capsys):
    cfg = tmp_path / "merge.json"
    write_json(cfg, {"regime": "merge", "q": 8, "initial": [[5, 3], [5, 3]], "final": [[8]]})
    code, _, err = run(capsys, "plan", "--config", cfg, "--out", tmp_path / "p.json")
    assert code == 1 and err.startswith("error:") and "'final'" in err


def test_plan_document_not_an_object_exit_1(tmp_path, capsys):
    plan_path, cws = _readme_merge(tmp_path, capsys)
    write_json(plan_path, [json.loads(plan_path.read_text())])
    for argv in (("verify", "--plan", plan_path),
                 ("convert", "--plan", plan_path, "--in", cws, "--out", tmp_path / "f.txt")):
        code, _, err = run(capsys, *argv)
        assert code == 1 and err.startswith("error:") and "JSON object" in err


def test_unwritable_out_exit_1(tmp_path, capsys):
    plan_path, cws = _readme_merge(tmp_path, capsys)
    msgs = tmp_path / "m.txt"
    cfg = tmp_path / "merge.json"
    for out in (tmp_path / "no-such-dir" / "out.txt", tmp_path):
        for argv in (("plan", "--config", cfg),
                     ("encode", "--plan", plan_path, "--in", msgs),
                     ("convert", "--plan", plan_path, "--in", cws)):
            code, _, err = run(capsys, *argv, "--out", out)
            assert code == 1, argv
            assert err.startswith("error: cannot write"), err


def test_verify_builds_the_access_report_once(tmp_path, capsys, monkeypatch):
    from mdsconv import cli, convert

    plan_path, _ = _readme_merge(tmp_path, capsys)
    calls = []
    real = convert.access_report

    def counted(plan):
        calls.append(plan)
        return real(plan)

    # Every binding, so that a verb importing it by name is counted too.
    monkeypatch.setattr(convert, "access_report", counted)
    monkeypatch.setattr(cli, "access_report", counted, raising=False)
    assert run(capsys, "verify", "--plan", plan_path) == (0, README_VERIFY, "")
    assert len(calls) == 1


# `plan` configs whose plans read through restricted parity checks: the
# README merge and split, and merge-stream's shape.
DERIVING_CONFIGS = {
    "readme merge": README_MERGE,
    "readme split": README_SPLIT,
    "merge-stream": {"regime": "merge", "q": 256, "initial": [[14, 10], [14, 10], [12, 8], [6, 4]], "r_F": 4},
}


def counted_derivations(monkeypatch) -> list:
    """The (spec, support) of every restricted parity check derived from now on."""
    from mdsconv import convert

    calls = []
    real = convert._restricted_parity

    def counted(spec, support, kept, h):
        calls.append((spec, tuple(support)))
        return real(spec, support, kept, h)

    monkeypatch.setattr(convert, "_restricted_parity", counted)
    return calls


@pytest.mark.parametrize("name", DERIVING_CONFIGS)
def test_each_verb_derives_each_restricted_parity_check_once(tmp_path, capsys, monkeypatch, name):
    cfg, plan_path = tmp_path / "cfg.json", tmp_path / "plan.json"
    write_json(cfg, DERIVING_CONFIGS[name])
    assert run(capsys, "plan", "--config", cfg, "--out", plan_path)[0] == 0
    plan = plandoc.load_plan(str(plan_path))
    cells = len(plan.reduced) if hasattr(plan, "reduced") else int(plan.privileged is not None)
    assert cells
    msgs, cws, finals = tmp_path / "m.txt", tmp_path / "c.txt", tmp_path / "f.txt"
    msgs.write_text("".join(" ".join(["1"] * spec.k) + "\n" for spec in plan.initial_specs))
    calls = counted_derivations(monkeypatch)
    for argv in (("plan", "--config", cfg, "--out", plan_path),
                 ("verify", "--plan", plan_path),
                 ("encode", "--plan", plan_path, "--in", msgs, "--out", cws),
                 ("convert", "--plan", plan_path, "--in", cws, "--out", finals)):
        calls.clear()
        assert run(capsys, *argv)[0] == 0, argv
        assert len(calls) == len(set(calls)) == cells, (argv, len(calls))


def test_main_builds_its_parser_at_most_once(tmp_path, capsys, monkeypatch):
    builds = []
    real = argparse.ArgumentParser.add_subparsers

    def counted(self, **kwargs):
        builds.append(self)
        return real(self, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counted)
    for _ in range(3):
        assert run(capsys, "bounds", "--initial", "5,3", "--initial", "5,3", "--final", "8,6")[0] == 0
    assert run(capsys, "verify", "--plan", tmp_path / "missing.json")[0] == 1
    assert len(builds) <= 1


def test_plan_over_a_61_bit_field_ends_quickly(tmp_path, capsys):
    cfg = tmp_path / "merge.json"
    write_json(cfg, {"regime": "merge", "q": 2**61 - 1, "initial": [[5, 3], [5, 3]], "r_F": 2})
    pythonpath = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}
    proc = subprocess.run(
        [sys.executable, "-m", "mdsconv", "plan", "--config", str(cfg), "--out", str(tmp_path / "p.json")],
        env=env, capture_output=True, text=True, timeout=5,
    )
    assert proc.returncode == 0, proc.stderr
    write_json(cfg, {"regime": "merge", "q": PRIME_LIMIT, "initial": [[5, 3], [5, 3]], "r_F": 2})
    code, _, err = run(capsys, "plan", "--config", cfg, "--out", tmp_path / "p.json")
    assert code == 1 and err.startswith("error:") and str(PRIME_LIMIT) in err


@pytest.mark.parametrize("verb", ["encode", "convert"])
def test_symbol_file_not_utf8_exit_1(tmp_path, capsys, verb):
    plan_path, _ = _readme_merge(tmp_path, capsys)
    symbols = tmp_path / "symbols.txt"
    symbols.write_bytes(b"\xff\xfe 1 2\n")
    out = tmp_path / "out.txt"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "mdsconv", verb, "--plan", str(plan_path), "--in", str(symbols), "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1, proc.stderr
    assert "Traceback" not in proc.stderr and not out.exists()


def _bump_first_entry(lines, q):
    row = lines[1].split()
    row[0] = str((int(row[0]) + 1) % q)
    lines[1] = " ".join(row)


def test_convert_rejects_stored_final_blocks_off_the_final_code(tmp_path, capsys):
    """A merge lowered from stored final parity-check blocks that are not the
    final code's would write symbols outside the final code."""
    plan_path, cws = _readme_merge(tmp_path, capsys)
    doc = json.loads(plan_path.read_text())
    _bump_first_entry(doc["final_written_block"], 8)
    write_json(plan_path, doc)
    code, out, err = run(capsys, "convert", "--plan", plan_path, "--in", cws, "--out", tmp_path / "f.txt")
    assert (code, out) == (1, "") and f"final_written_block: {STORES}" in err
    code, out, _ = run(capsys, "verify", "--plan", plan_path)
    assert code == 2 and f"FAIL final_written_block: {STORES}" in out

    cfg = tmp_path / "mixed.json"
    write_json(cfg, {"regime": "merge", "q": 8, "initial": [[5, 3], [4, 2]], "r_F": 2})
    run(capsys, "plan", "--config", cfg, "--out", plan_path)
    (tmp_path / "m.txt").write_text("1 2 3\n4 5\n")
    assert run(capsys, "encode", "--plan", plan_path, "--in", tmp_path / "m.txt", "--out", cws)[0] == 0
    doc = json.loads(plan_path.read_text())
    assert [entry["code"] for entry in doc["final_unchanged_blocks"]] == [2]
    _bump_first_entry(doc["final_unchanged_blocks"][0]["matrix"], 8)
    write_json(plan_path, doc)
    code, out, err = run(capsys, "convert", "--plan", plan_path, "--in", cws, "--out", tmp_path / "f.txt")
    assert (code, out) == (1, "") and f"final_unchanged_blocks: code 2: {STORES}" in err


def _grid_fault_plan(tmp_path, capsys, kind):
    """Plan and codeword files of the README merge, the README split or the
    2x2 general fixture."""
    if kind == "merge":
        return _readme_merge(tmp_path, capsys)
    plan_path, msgs, cws = tmp_path / "plan.json", tmp_path / "m.txt", tmp_path / "c.txt"
    if kind == "split":
        write_json(tmp_path / "split.json", README_SPLIT)
        run(capsys, "plan", "--config", tmp_path / "split.json", "--out", plan_path)
        msgs.write_text("1 2 3 4 5 6 7\n")
    else:
        shutil.copy(FIXTURES / "two_by_two_plan.json", plan_path)
        msgs.write_text("1 2 3\n4 5 6 7\n")
    run(capsys, "encode", "--plan", plan_path, "--in", msgs, "--out", cws)
    return plan_path, cws


def _unchanged_set(doc, kind, index):
    """The unchanged pairs of initial code `index` (merge), final code `index`
    (split) or code 2 of final code `index` (general)."""
    return doc["unchanged"][index][1] if kind == "general" else doc["unchanged"][index]


def _out_of_range(doc, kind):
    """The last unchanged position moves one past its initial code's length."""
    code = 1 if kind == "general" else 0
    _unchanged_set(doc, kind, 0)[-1][1] = doc["params"]["initial"][code][0] + 1


def _not_ascending(doc, kind):
    _unchanged_set(doc, kind, 0).reverse()


def _overlapping(doc, kind):
    """Final code 2 also keeps the first unchanged symbol of final code 1."""
    _unchanged_set(doc, kind, 1).insert(0, list(_unchanged_set(doc, kind, 0)[0]))


def _shape_mismatch(doc, kind):
    doc["params"]["initial"][0][0] += 1


GRID_FAULTS = {
    "out of range": _out_of_range,
    "ascending": _not_ascending,
    "disjoint": _overlapping,
    "declared shape": _shape_mismatch,
}


# A merge has one final code, so its unchanged sets cannot overlap across finals.
GRID_CASES = [(kind, message) for kind in ("merge", "split", "general") for message in GRID_FAULTS
              if (kind, message) != ("merge", "disjoint")]


@pytest.mark.parametrize("kind, message", GRID_CASES)
def test_grid_faults_exit_1(tmp_path, capsys, kind, message):
    plan_path, cws = _grid_fault_plan(tmp_path, capsys, kind)
    assert run(capsys, "verify", "--plan", plan_path)[0] == 0
    doc = json.loads(plan_path.read_text())
    GRID_FAULTS[message](doc, kind)
    write_json(plan_path, doc)
    for argv in (("verify", "--plan", plan_path),
                 ("convert", "--plan", plan_path, "--in", cws, "--out", tmp_path / "f.txt")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error:") and message in err, err


WRITTEN_FAULTS = {
    "merge names a missing code": ("merge", lambda doc: doc.update(written=[[9, 9]])),
    "split drops a written pair": ("split", lambda doc: doc["written"][1].pop()),
}


@pytest.mark.parametrize("case", WRITTEN_FAULTS)
def test_written_list_must_match_the_plan(tmp_path, capsys, case):
    """A document's `written` list is checked against the symbols its plan writes."""
    kind, tamper = WRITTEN_FAULTS[case]
    plan_path, cws = _grid_fault_plan(tmp_path, capsys, kind)
    doc = json.loads(plan_path.read_text())
    tamper(doc)
    write_json(plan_path, doc)
    finals = tmp_path / "f.txt"
    for argv in (("verify", "--plan", plan_path),
                 ("convert", "--plan", plan_path, "--in", cws, "--out", finals)):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error: written:"), err
    assert not finals.exists()


def _bump_read_entry(doc):
    """Add 1 to entry (1, 4) of code 1's restricted parity check, a read column."""
    row = doc["punctured_parity"][0]["matrix"][1].split()
    row[3] = str((int(row[3]) + 1) % 8)
    doc["punctured_parity"][0]["matrix"][1] = " ".join(row)


def _zero_read_columns(doc):
    """Zero the read columns (support slots 4 and 5) of code 1's restricted parity check."""
    lines = doc["punctured_parity"][0]["matrix"]
    lines[1:] = [" ".join(line.split()[:3] + ["0", "0"]) for line in lines[1:]]


def _flip_privileged_multiplier(doc):
    doc["final_codes"][0]["w"][0] ^= 1


def _overlapping_reads(doc):
    """Code 1 also reads position 3, one of its unchanged symbols."""
    doc["reads"][0] = [[1, 3], [1, 4], [1, 5]]


UNSOUND_CERTIFICATES = {
    "merge read entry": (
        "merge", _bump_read_entry, f"FAIL punctured_parity: code 1: {STORES}",
    ),
    "merge zeroed read columns": (
        "merge", _zero_read_columns, f"FAIL punctured_parity: code 1: {STORES}",
    ),
    "split privileged multiplier": (
        "split", _flip_privileged_multiplier, f"FAIL punctured_parity: {STORES}",
    ),
    "merge reads overlap unchanged": (
        "merge", _overlapping_reads,
        "FAIL optimal structure: read-cardinality: code 1 reads 3 symbols, need r_F = 2",
    ),
    "merge S names code 3": (
        "merge", lambda doc: doc.update(S=[1, 2, 3]),
        "FAIL optimal structure: classification: plan S = [1, 2, 3] but parameters give [1, 2]",
    ),
    "merge S names code 0": (
        "merge", lambda doc: doc.update(S=[0, 1, 2]),
        "FAIL optimal structure: classification: plan S = [0, 1, 2] but parameters give [1, 2]",
    ),
}


@pytest.mark.parametrize("case", UNSOUND_CERTIFICATES)
def test_convert_rejects_unsound_certificates(tmp_path, capsys, case):
    """A plan whose certificate `verify` rejects would convert into symbols
    outside its final code, so `convert` refuses it with the same condition:
    as the plan is read when the stored certificate is not the one its codes
    and grid give, else when the plan is lowered."""
    kind, tamper, fail_line = UNSOUND_CERTIFICATES[case]
    plan_path, cws = _grid_fault_plan(tmp_path, capsys, kind)
    doc = json.loads(plan_path.read_text())
    tamper(doc)
    write_json(plan_path, doc)
    finals = tmp_path / "f.txt"
    code, out, err = run(capsys, "convert", "--plan", plan_path, "--in", cws, "--out", finals)
    assert (code, out) == (1, "") and err.startswith("error: " + fail_line[len("FAIL "):]), err
    assert not finals.exists()
    code, out, _ = run(capsys, "verify", "--plan", plan_path)
    assert code == 2 and fail_line + "\n" in out


def test_privileged_reads_must_cover_the_restricted_parity_check(tmp_path, capsys):
    """The privileged final solves its written symbols from every column of
    the restricted parity check outside its own; a read set that drops one,
    though another final still reads it (so the access cost is unchanged),
    would write a non-codeword."""
    plan_path, cws = _grid_fault_plan(tmp_path, capsys, "split")
    doc = json.loads(plan_path.read_text())
    assert doc["privileged"] == 1 and doc["reads"][0][0] == doc["unchanged"][1][0]
    del doc["reads"][0][0]
    write_json(plan_path, doc)
    code, out, _ = run(capsys, "verify", "--plan", plan_path)
    assert code == 2 and (
        "FAIL privileged restricted parity: privileged final code must read the other "
        "finals' unchanged symbols and V\n" in out
    )
    assert "PASS access cost meets bound" in out
    finals = tmp_path / "f.txt"
    code, out, err = run(capsys, "convert", "--plan", plan_path, "--in", cws, "--out", finals)
    assert (code, out) == (1, "") and "plan is not executable" in err and not finals.exists()


def test_scaled_certificate_verifies_and_converts(tmp_path, capsys):
    """Scaling code 1's unchanged final multipliers and its restricted parity
    check by the same c gives a sound certificate that is not the closed
    form: the one derived with T = c I, which only the solve for T gives."""
    field = GF(8)
    c = 3
    plan_path, cws = _readme_merge(tmp_path, capsys)
    doc = json.loads(plan_path.read_text())
    w = doc["final_code"]["w"]
    w[:3] = [field.mul(c, x) for x in w[:3]]
    lines = doc["punctured_parity"][0]["matrix"]
    lines[1:] = [" ".join(str(field.mul(c, int(e))) for e in line.split()) for line in lines[1:]]
    write_json(plan_path, doc)
    assert run(capsys, "verify", "--plan", plan_path)[0] == 0
    finals = tmp_path / "f.txt"
    assert run(capsys, "convert", "--plan", plan_path, "--in", cws, "--out", finals)[0] == 0
    plan = plandoc.load_plan(str(plan_path))
    (row,) = plandoc.read_symbol_lines(str(finals), field)
    assert is_codeword(plan.final_spec, row)


def test_certificate_with_a_non_diagonal_t_verifies_and_converts(tmp_path, capsys):
    """Adding 8 to the final code's points at code 1's unchanged symbols of
    the README merge over GF(16), which keep the restricted code's
    multipliers, multiplies those parity-check columns by T = [[1, 0],
    [8, 1]].  The certificate T . ref, solved by the oracle, verifies, and
    `convert` writes what the oracle's per-stripe solve does: a codeword of
    the final code."""
    field = GF(16)
    cfg, plan_path = tmp_path / "merge.json", tmp_path / "plan.json"
    write_json(cfg, {**README_MERGE, "q": 16})
    run(capsys, "plan", "--config", cfg, "--out", plan_path)
    built = plandoc.load_plan(str(plan_path))
    spec, support, kept = built.initial_specs[0], built.support(1), built.unchanged[0]
    restricted = puncture(spec, support)
    doc = json.loads(plan_path.read_text())
    final = doc["final_code"]
    final["gamma"][:3] = [g ^ 8 for g in final["gamma"][:3]]
    final["w"][:3] = [restricted.w[support.index(pos)] for pos in kept]
    h_kept = linalg.submatrix_cols(parity_check(spec_from_dict(final)), kept)
    hbar = oracle.restricted_parity_by_solve(spec, support, kept, h_kept)
    t = linalg.from_rows(field, [[1, 0], [8, 1]])
    assert hbar == linalg.matmul(t, parity_check(restricted)) != parity_check(restricted)
    doc["punctured_parity"][0]["matrix"] = linalg.matrix_to_text(hbar).splitlines()
    write_json(plan_path, doc)
    assert run(capsys, "verify", "--plan", plan_path)[0] == 0
    msgs, cws, finals = tmp_path / "m.txt", tmp_path / "c.txt", tmp_path / "f.txt"
    msgs.write_text("1 2 3\n4 5 6\n")
    assert run(capsys, "encode", "--plan", plan_path, "--in", msgs, "--out", cws)[0] == 0
    assert run(capsys, "convert", "--plan", plan_path, "--in", cws, "--out", finals)[0] == 0
    plan = plandoc.load_plan(str(plan_path))
    (row,) = plandoc.read_symbol_lines(str(finals), field)
    want = oracle.merge_convert_by_solve(plan, plandoc.read_symbol_lines(str(cws), field))
    assert row == want.symbols and is_codeword(plan.final_spec, row)


def _certificate_blocks(doc):
    """(document key, matrix lines) of each block of a document's certificate,
    in order; a per-code key names its code."""
    if doc["kind"] == "split":
        return [("punctured_parity", doc["punctured_parity"])]
    return [
        *((f"{key}: code {entry['code']}", entry["matrix"])
          for key in ("punctured_parity", "final_unchanged_blocks") for entry in doc[key]),
        ("final_written_block", doc["final_written_block"]),
    ]


@pytest.mark.parametrize("config, messages, keys", [
    (README_MERGE, "1 2 3\n4 5 6\n", ["punctured_parity: code 1", "punctured_parity: code 2", "final_written_block"]),
    ({**README_MERGE, "initial": [[5, 3], [4, 2]]}, "1 2 3\n4 5\n",
     ["punctured_parity: code 1", "final_unchanged_blocks: code 2", "final_written_block"]),
    (README_SPLIT, "1 2 3 4 5 6 7\n", ["punctured_parity"]),
], ids=["readme merge", "mixed merge", "readme split"])
def test_each_certificate_refusal_names_its_key(tmp_path, capsys, config, messages, keys):
    """One entry changed in any one block of a document's certificate is
    refused as the plan is read, with a text that starts with the block's
    key (and, for a per-code key, its code): `verify` prints it as its one
    FAIL line and exits 2, and `convert` and `encode` exit 1 with it and
    write nothing."""
    cfg, plan_path, msgs, cws, out = (tmp_path / name for name in ("cfg.json", "plan.json", "m.txt", "c.txt", "o.txt"))
    write_json(cfg, config)
    run(capsys, "plan", "--config", cfg, "--out", plan_path)
    msgs.write_text(messages)
    run(capsys, "encode", "--plan", plan_path, "--in", msgs, "--out", cws)
    original = json.loads(plan_path.read_text())
    assert [key for key, _ in _certificate_blocks(original)] == keys
    for at, key in enumerate(keys):
        doc = json.loads(json.dumps(original))
        _bump_first_entry(_certificate_blocks(doc)[at][1], doc["field"]["q"])
        write_json(plan_path, doc)
        fail = f"{key}: {STORES}"
        with pytest.raises(CertificateError) as caught:
            plandoc.plan_from_doc(doc)
        assert str(caught.value) == fail
        assert run(capsys, "verify", "--plan", plan_path) == (2, f"FAIL {fail}\n", "")
        for verb, source in (("convert", cws), ("encode", msgs)):
            assert run(capsys, verb, "--plan", plan_path, "--in", source, "--out", out) == (1, "", f"error: {fail}\n")
            assert not out.exists()


def test_encode_refuses_a_plan_with_a_tampered_certificate(tmp_path, capsys):
    """A stored certificate that the codes and grid do not give is refused as
    the plan is read: `encode` exits 1 and writes nothing, and `verify`
    prints the refusal, which names the block's key, and exits 2."""
    plan_path, _ = _readme_merge(tmp_path, capsys)
    doc = json.loads(plan_path.read_text())
    _bump_first_entry(doc["punctured_parity"][0]["matrix"], 8)
    write_json(plan_path, doc)
    fail = f"punctured_parity: code 1: {STORES}"
    out = tmp_path / "out.txt"
    code, stdout, err = run(capsys, "encode", "--plan", plan_path, "--in", tmp_path / "m.txt", "--out", out)
    assert (code, stdout, err) == (1, "", f"error: {fail}\n")
    assert not out.exists()
    assert run(capsys, "verify", "--plan", plan_path) == (2, f"FAIL {fail}\n", "")


def _interleaved_split(tmp_path, capsys, layout_order):
    """Plan and codeword files of a split over the README split's initial code
    in which final 1 keeps positions 1, 2, 3 and 9, final 2 keeps 4, 5 and 6,
    and V = (8, 10), so final 1's coordinates run 1, 2, 3, 9, 8, 10.  Final
    1's code takes the restriction's points and multipliers in that order, or
    in ascending order (1, 2, 3, 8, 9, 10)."""
    built = build_split(ConvertParams(((10, 7),), ((6, 4), (5, 3))), GF(16))
    initial = built.initial_spec
    unchanged, extra = ((1, 2, 3, 9), (4, 5, 6)), (8, 10)
    support = (1, 2, 3, 4, 5, 6, 8, 9, 10)
    restricted = puncture(initial, support)
    positions = unchanged[0] + extra if layout_order else sorted(unchanged[0] + extra)
    final = ExtGrsSpec(
        GF(16), 6, 2,
        tuple(initial.gamma[pos - 1] for pos in positions if pos != 10),
        tuple(restricted.w[support.index(pos)] for pos in positions),
    )
    plan = replace(
        built, final_specs=(final, built.final_specs[1]), unchanged=unchanged,
        reads=((4, 5, 6, 8, 10), (4, 5, 6)), extra_reads=extra,
    )
    plan_path, msgs, cws = tmp_path / "plan.json", tmp_path / "m.txt", tmp_path / "c.txt"
    plandoc.save_plan(plan, str(plan_path))
    msgs.write_text("1 2 3 4 5 6 7\n")
    assert run(capsys, "encode", "--plan", plan_path, "--in", msgs, "--out", cws)[0] == 0
    return plan_path, cws


@pytest.mark.parametrize("layout_order", [True, False], ids=["layout order", "ascending order"])
def test_privileged_final_is_checked_in_layout_order(tmp_path, capsys, layout_order):
    """Execution writes the privileged final's unchanged symbols, then V, so
    its code must match the restricted parity check in that order: taken in
    ascending order it is another code, which the lowered map misses."""
    plan_path, cws = _interleaved_split(tmp_path, capsys, layout_order)
    finals = tmp_path / "f.txt"
    verify_code, verify_out, _ = run(capsys, "verify", "--plan", plan_path)
    code, out, err = run(capsys, "convert", "--plan", plan_path, "--in", cws, "--out", finals)
    if layout_order:
        assert (verify_code, code) == (0, 0), err
        plan = plandoc.load_plan(str(plan_path))
        rows = plandoc.read_symbol_lines(str(finals), GF(16))
        assert len(rows) == 2 and all(map(is_codeword, plan.final_specs, rows))
    else:
        assert verify_code == 2 and (
            "FAIL privileged restricted parity: privileged final code does not match "
            "the restricted parity block\n" in verify_out
        )
        assert (code, out) == (1, "") and not finals.exists()
        assert err.startswith("error: privileged restricted parity: ") and "plan is not executable" in err


def _first_matrix(doc):
    """The text lines of the first matrix a plan document embeds."""
    if doc["kind"] == "merge":
        return doc["punctured_parity"][0]["matrix"]
    return doc["punctured_parity"] if doc["kind"] == "split" else doc["sigma"][0]


@pytest.mark.parametrize("kind", ["merge", "split", "general"])
@pytest.mark.parametrize("entry", ["q", "-1", "True"])
def test_matrix_entry_outside_the_field_exit_1(tmp_path, capsys, kind, entry):
    """A matrix entry of a plan document that is not a field element (q, a
    negative number, a bool) is refused when the plan is read."""
    plan_path, cws = _grid_fault_plan(tmp_path, capsys, kind)
    doc = json.loads(plan_path.read_text())
    lines = _first_matrix(doc)
    row = lines[1].split()
    row[0] = str(doc["field"]["q"]) if entry == "q" else entry
    lines[1] = " ".join(row)
    write_json(plan_path, doc)
    finals = tmp_path / "f.txt"
    for argv in (("verify", "--plan", plan_path),
                 ("convert", "--plan", plan_path, "--in", cws, "--out", finals)):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "") and err.startswith("error: ")
    assert not finals.exists()


# Integers read from outside input must be canonical: ASCII digits in text
# files, JSON integers in documents.  Each case is one input of one kind.
def _assert_refused(code, out, err, written):
    assert (code, out) == (1, "") and err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err and not written.exists()


@pytest.mark.parametrize("line", ["0_1 +2 ３", "0_1 2 3", "+2 1 1", "３ 1 1", "1.0 2 3"])
def test_symbol_file_refuses_non_decimal_symbols(tmp_path, capsys, line):
    plan_path, _ = _readme_merge(tmp_path, capsys)
    msgs, out = tmp_path / "m.txt", tmp_path / "out.txt"
    msgs.write_text(f"{line}\n4 5 6\n", encoding="utf-8")
    code, stdout, err = run(capsys, "encode", "--plan", plan_path, "--in", msgs, "--out", out)
    _assert_refused(code, stdout, err, out)
    assert f"{msgs}:1: symbol " in err


def test_convert_refuses_a_symbol_outside_the_field(tmp_path, capsys):
    """`convert` checks each symbol once, as it reads the codeword file: a
    symbol q of GF(q) exits 1 with the reader's message, and no output file
    is written."""
    plan_path, cws = _readme_merge(tmp_path, capsys)
    rows = cws.read_text().splitlines()
    rows[1] = " ".join(["8", *rows[1].split()[1:]])
    cws.write_text("\n".join(rows) + "\n")
    out = tmp_path / "f.txt"
    code, stdout, err = run(capsys, "convert", "--plan", plan_path, "--in", cws, "--out", out)
    _assert_refused(code, stdout, err, out)
    assert err == f"error: {cws}:2: symbol 8 is not an element of GF(8)\n"


def _set_read_position(doc):
    doc["reads"][0][0][1] = 1.9


def _set_gamma(doc):
    doc["initial_codes"][0]["gamma"][0] = "0"


def _set_s(doc):
    doc["S"] = [1.5, 2]


def _set_dump_entry(doc):
    lines = doc["punctured_parity"][0]["matrix"]
    lines[1] = "+" + lines[1]


def _set_field_q(doc):
    doc["field"]["q"] = 8.0


def _set_params_shape(doc):
    doc["params"]["initial"][0][1] = True


@pytest.mark.parametrize(
    "tamper, message",
    [
        (_set_read_position, "reads[1]: expected an integer, got 1.9"),
        (_set_gamma, "gamma: expected an integer, got '0'"),
        (_set_s, "S: expected an integer, got 1.5"),
        (_set_dump_entry, "bad matrix row '+"),
        (_set_field_q, "q: expected an integer, got 8.0"),
        (_set_params_shape, "initial: expected an integer, got True"),
    ],
)
def test_plan_document_refuses_non_integer_numbers(tmp_path, capsys, tamper, message):
    plan_path, cws = _readme_merge(tmp_path, capsys)
    doc = json.loads(plan_path.read_text())
    tamper(doc)
    write_json(plan_path, doc)
    finals = tmp_path / "f.txt"
    code, out, err = run(capsys, "convert", "--plan", plan_path, "--in", cws, "--out", finals)
    _assert_refused(code, out, err, finals)
    assert message in err
    code, out, err = run(capsys, "verify", "--plan", plan_path)
    assert (code, out) == (1, "") and message in err


@pytest.mark.parametrize(
    "change, message",
    [
        ({"q": 8.9}, "'q'"),
        ({"q": "8"}, "'q'"),
        ({"initial": [[5, 3], [5, 3.7]]}, "'initial'"),
        ({"initial": [5, True]}, "'initial'"),
        ({"r_F": True}, "'r_F'"),
        ({"r_F": 2.0}, "'r_F'"),
        ({"r_F": None, "final": [[8, "6"]]}, "'final'"),
    ],
)
def test_config_refuses_non_integer_numbers(tmp_path, capsys, change, message):
    cfg, out = tmp_path / "merge.json", tmp_path / "p.json"
    doc = {**README_MERGE, **change}
    if doc["r_F"] is None:
        del doc["r_F"]
    write_json(cfg, doc)
    code, stdout, err = run(capsys, "plan", "--config", cfg, "--out", out)
    _assert_refused(code, stdout, err, out)
    assert message in err


@pytest.mark.parametrize(
    "initial, final",
    [
        (("5,+3", "０5, 3"), "8,6"),
        (("5,3", "5_0,3"), "8,6"),
        (("5,3", "5,3"), "8,-6"),
        (("5,3", "5,3"), "8,6.0"),
        (("5,3", "5 3"), "8,6"),
        (("5,3", "5,3,"), "8,6"),
    ],
)
def test_bounds_refuses_non_decimal_shapes(capsys, initial, final):
    argv = [arg for shape in initial for arg in ("--initial", shape)] + ["--final", final]
    code, out, err = run(capsys, "bounds", *argv)
    assert (code, out) == (1, "") and err.startswith("error: ") and err.count("\n") == 1, err
    assert "expected a shape 'n,k'" in err


def test_bounds_shapes_may_carry_spaces(capsys):
    code, out, _ = run(capsys, "bounds", "--initial", "5, 3", "--initial", " 5,3 ", "--final", "8,6")
    assert code == 0 and "bound ρ = 6" in out


@pytest.mark.parametrize("seed", ["+1", "-1", "1_0", "３", "1.0", "", "1 2"])
def test_verify_refuses_non_decimal_seeds(tmp_path, capsys, seed):
    plan_path, _ = _readme_merge(tmp_path, capsys)
    code, out, err = run(capsys, "verify", "--plan", plan_path, "--seed", seed)
    assert (code, out) == (1, "") and err.startswith("error: ") and err.count("\n") == 1, err
    assert f"expected a seed in the digits 0-9, got {seed!r}" in err
    assert run(capsys, "verify", "--plan", plan_path, "--seed", "0042") == (0, README_VERIFY, "")


@pytest.mark.parametrize("q", [512, 1 << 16])
def test_fields_above_256_build_no_tables(tmp_path, capsys, monkeypatch, q):
    """Above GF(256) no verb builds log/exp tables, whose cost grows with q:
    with `_build_tables` refusing to run, the README merge and split run
    through all four verbs and every final is a codeword."""
    from mdsconv import grs
    from mdsconv.field import FieldSpec

    def refuse(self):
        raise AssertionError(f"log/exp tables built for {self!r}")

    for cache in (GF, grs.parity_check, grs.generator):
        cache.cache_clear()
    monkeypatch.setattr(FieldSpec, "_build_tables", refuse)
    configs = {
        "merge": ({"regime": "merge", "q": q, "initial": [[5, 3], [5, 3]], "r_F": 2}, "1 2 3\n4 5 6\n"),
        "split": ({"regime": "split", "q": q, "initial": [[10, 7]], "final": [[6, 4], [5, 3]]},
                  "1 2 3 4 5 6 7\n"),
    }
    for kind, (config, messages) in configs.items():
        cfg, plan_path = tmp_path / f"{kind}.json", tmp_path / f"{kind}-plan.json"
        msgs, cws, finals = (tmp_path / f"{kind}-{name}.txt" for name in ("m", "c", "f"))
        write_json(cfg, config)
        msgs.write_text(messages)
        assert run(capsys, "plan", "--config", cfg, "--out", plan_path)[0] == 0, kind
        assert run(capsys, "encode", "--plan", plan_path, "--in", msgs, "--out", cws)[0] == 0, kind
        assert run(capsys, "convert", "--plan", plan_path, "--in", cws, "--out", finals)[0] == 0, kind
        assert run(capsys, "verify", "--plan", plan_path)[0] == 0, kind
        plan = plandoc.load_plan(str(plan_path))
        rows = plandoc.read_symbol_lines(str(finals), plan.field)
        assert len(rows) == len(plan.final_specs) and all(map(is_codeword, plan.final_specs, rows)), kind
