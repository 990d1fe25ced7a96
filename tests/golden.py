"""The golden-output corpus: one sha256 per case of the bytes a plan
produces, kept in `golden.json` and checked by `test_golden.py`.

A case is one `MERGE_MATRIX`, `SPLIT_MATRIX` or `SPLIT_MATRIX_INFEASIBLE`
entry over each of GF(16), GF(256), GF(257), GF(512), GF(65536) and
GF(1000003) that its shapes admit, or one committed plan document.  Its bytes are, in order:

- the plan document, as `plan` writes it;
- the stdout of `verify` on that document;
- the lowered layouts and sigmas (`matrix_to_text`);
- three seeded stripes and their finals, as symbol-file text;
- the access report with its trace, as `convert --trace` prints it;
- the error of one corrupted stripe.

Every part is text the program writes itself, so no byte depends on the
Python version.  Each case is digested on its own, so a mismatch names it.

Only a change that means to alter outputs rewrites the corpus, and it lists
every case that changed.  To rewrite it:

    PYTHONPATH=src python tests/golden.py
"""

import contextlib
import hashlib
import io
import json
import random
import tempfile
from pathlib import Path

from mdsconv import cli, plandoc
from mdsconv.convert import (
    ConvertParams,
    build_merge,
    build_split,
    lower,
    merge_params,
    required_field_order,
    run_conversion,
)
from mdsconv.errors import MdsconvError
from mdsconv.field import GF
from mdsconv.grs import encode
from mdsconv.linalg import matrix_to_text

from test_acceptance import MERGE_MATRIX, SPLIT_MATRIX, SPLIT_MATRIX_INFEASIBLE

TESTS = Path(__file__).parent
CORPUS = TESTS / "golden.json"
FIELDS = (16, 256, 257, 512, 65536, 1000003)
DOCUMENTS = (
    *sorted((TESTS / "fixtures").glob("*.json")),
    TESTS.parent / "perfbench" / "two_by_two_plan.json",
)
STRIPES = 3


def cases():
    """(name, plan builder) for every case, in corpus order."""
    out = []
    for shapes, rf in MERGE_MATRIX:
        params = merge_params(shapes, rf)
        out += [(f"merge {shapes} r_F={rf} GF({q})", lambda p=params, q=q: build_merge(p, GF(q)))
                for q in FIELDS if q >= required_field_order(params)]
    for initial, finals in SPLIT_MATRIX + SPLIT_MATRIX_INFEASIBLE:
        params = ConvertParams((initial,), tuple(finals))
        out += [(f"split {initial} -> {finals} GF({q})", lambda p=params, q=q: build_split(p, GF(q)))
                for q in FIELDS if q >= required_field_order(params)]
    for path in DOCUMENTS:
        name = f"document {path.parent.name}/{path.name}"
        out.append((name, lambda path=path: plandoc.load_plan(str(path))))
    return out


def _symbol_text(rows) -> str:
    return "".join(" ".join(map(str, row)) + "\n" for row in rows)


def case_bytes(name: str, plan, workdir: Path) -> bytes:
    """The bytes of one case, its parts in the order the module docstring lists."""
    parts = []
    doc = plandoc.dump_json(plandoc.plan_to_doc(plan))
    parts.append(doc)
    path = workdir / "plan.json"
    path.write_text(doc, encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(["verify", "--plan", str(path)])
    parts.append(f"exit {status}\n{out.getvalue()}")
    plan = plandoc.load_plan(str(path))
    g = lower(plan)
    for j, (layout, sigma) in enumerate(zip(g.layouts, g.sigmas), 1):
        coords = " ".join(f"{code}:{pos}" for code, pos in layout)
        parts.append(f"final {j} layout {coords}\n{matrix_to_text(sigma)}")
    rng = random.Random(name)
    stripes = []
    for _ in range(STRIPES):
        stripe = [encode(spec, [rng.getrandbits(32) % plan.field.q for _ in range(spec.k)]).symbols
                  for spec in plan.initial_specs]
        outputs, report = run_conversion(plan, stripe)
        parts.append(_symbol_text(stripe) + _symbol_text(cw.symbols for cw in outputs))
        stripes.append(stripe)
    parts.append(plandoc.dump_json(plandoc.report_to_doc(report, include_trace=True)))
    bad = [list(cw) for cw in stripes[0]]
    bad[-1][0] = (bad[-1][0] + 1) % plan.field.q
    try:
        run_conversion(plan, bad)
        parts.append("no error\n")
    except MdsconvError as exc:
        parts.append(f"{type(exc).__name__}: {exc}\n")
    return "".join(f"== part {idx}\n{part}" for idx, part in enumerate(parts)).encode()


def digests() -> dict[str, str]:
    """name -> sha256 of the case's bytes, for every case."""
    with tempfile.TemporaryDirectory() as tmp:
        return {name: hashlib.sha256(case_bytes(name, build(), Path(tmp))).hexdigest()
                for name, build in cases()}


if __name__ == "__main__":
    CORPUS.write_text(json.dumps(digests(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {CORPUS}")
