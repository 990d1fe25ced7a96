"""Command-line front end.

Verbs: plan (build a conversion plan from a scenario config), encode
(messages -> initial codewords), convert (initial codewords -> final
codewords plus an access report), verify (structural, MDS and access
checks of a plan), bounds (print the access-cost lower bounds for
parameters).

Exit codes: 0 success, 1 usage/config, 2 parameter/feasibility,
3 data corruption.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from functools import lru_cache

from . import plandoc
from .convert import (
    ConvertParams,
    build_merge,
    build_split,
    merge_lower_bound,
    merge_params,
    plan_report,
    reduced_read_codes,
    required_field_order,
    run_conversion,
    split_lower_bound,
    verify_plan,
)
from .errors import (
    CertificateError,
    CorruptionError,
    InsufficientDataError,
    MdsconvError,
    ParameterError,
    UsageError,
    decimals,
    json_int,
)
from .field import GF
from .grs import Codeword, encode


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit 2; usage errors are 1 here
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _shape(text: str) -> tuple[int, int]:
    try:
        (n,), (k,) = map(decimals, text.split(","))
    except ValueError:
        raise UsageError(f"expected a shape 'n,k' in the digits 0-9, got {text!r}") from None
    return n, k


def _seed(text: str) -> int:
    try:
        (seed,) = decimals(text)
    except ValueError:
        raise UsageError(f"expected a seed in the digits 0-9, got {text!r}") from None
    return seed


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once and shared by every `main` call."""
    parser = _Parser(prog="mdsconv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_plan = sub.add_parser("plan", help="build a conversion plan from a scenario config")
    p_plan.add_argument("--config", required=True, help="scenario config (JSON)")
    p_plan.add_argument("--out", required=True, help="plan document to write")

    p_encode = sub.add_parser("encode", help="encode messages into initial codewords")
    p_encode.add_argument("--plan", required=True)
    p_encode.add_argument("--in", dest="infile", required=True, help="message file, one per line")
    p_encode.add_argument("--out", required=True, help="codeword file to write")

    p_convert = sub.add_parser("convert", help="run a conversion and report access costs")
    p_convert.add_argument("--plan", required=True)
    p_convert.add_argument("--in", dest="infile", required=True, help="initial codeword file")
    p_convert.add_argument("--out", required=True, help="final codeword file to write")
    p_convert.add_argument("--trace", action="store_true", help="include the device trace")

    p_verify = sub.add_parser("verify", help="check a plan's structure and MDS properties")
    p_verify.add_argument("--plan", required=True)
    p_verify.add_argument(
        "--seed", type=_seed, default=0, help="accepted for compatibility; has no effect"
    )

    p_bounds = sub.add_parser("bounds", help="print access-cost lower bounds")
    p_bounds.add_argument(
        "--initial", action="append", type=_shape, required=True, metavar="N,K"
    )
    p_bounds.add_argument(
        "--final", action="append", type=_shape, required=True, metavar="N,K"
    )
    return parser


def _load_config(path: str) -> dict:
    cfg = plandoc._read_json(path, "config")
    if not isinstance(cfg, dict):
        raise UsageError(f"config {path} must be a JSON object, got {type(cfg).__name__}")
    return cfg


def _shapes(raw, label: str) -> list[tuple[int, int]]:
    try:
        return [(json_int(n, label), json_int(k, label)) for n, k in raw]
    except (TypeError, ValueError):
        raise UsageError(f"{label} must be [n, k] pairs") from None


def _config_params(cfg: dict) -> tuple[str, ConvertParams, int]:
    regime = cfg.get("regime")
    if regime not in ("merge", "split"):
        raise UsageError(f"config regime must be 'merge' or 'split', got {regime!r}")
    try:
        q = json_int(cfg["q"], "q")
    except (KeyError, TypeError):
        raise UsageError("config needs an integer field order 'q'") from None
    raw_initial = cfg.get("initial")
    if raw_initial is None:
        raise UsageError("config needs 'initial' code shapes")
    if isinstance(raw_initial, list) and raw_initial and isinstance(raw_initial[0], int):
        raw_initial = [raw_initial]
    initial = _shapes(raw_initial, "'initial'")
    if regime == "merge":
        if "r_F" in cfg:
            try:
                r_final = json_int(cfg["r_F"], "r_F")
            except TypeError:
                raise UsageError(f"'r_F' must be an integer, got {cfg['r_F']!r}") from None
            params = merge_params(initial, r_final)
        elif "final" in cfg:
            params = ConvertParams(tuple(initial), tuple(_shapes(cfg["final"], "merge 'final'")))
        else:
            raise UsageError("merge config needs 'r_F' (or an explicit 'final' shape)")
    else:
        params = ConvertParams(tuple(initial), tuple(_shapes(cfg.get("final"), "split 'final'")))
    return regime, params, q


def cmd_plan(args) -> int:
    cfg = _load_config(args.config)
    regime, params, q = _config_params(cfg)
    field = GF(q)
    if regime == "merge":
        plan = build_merge(params, field)
        bound = merge_lower_bound(params)
        print(f"field: GF({field.q})")
        print(f"S: {sorted(reduced_read_codes(params))}")
        print(f"per-code read minimums: {list(bound.per_code_reads)}")
        print(f"bound ρ = {bound.rho}")
    else:
        plan = build_split(params, field)
        bound = split_lower_bound(params)
        star = plan.privileged if plan.privileged is not None else "none"
        print(f"field: GF({field.q})")
        print(f"privileged final j* = {star}")
        print(f"read bound ρ_r = {bound.rho_r}")
        print(f"bound ρ = {bound.rho}")
    plandoc.save_plan(plan, args.out)
    print(f"plan written to {args.out}")
    return 0


def cmd_encode(args) -> int:
    plan = plandoc.load_plan(args.plan)
    specs = plan.initial_specs
    messages = plandoc.read_symbol_lines(args.infile, plan.field)
    if len(messages) != len(specs):
        raise UsageError(f"expected {len(specs)} messages (one per initial code), got {len(messages)}")
    codewords = []
    for i, (spec, message) in enumerate(zip(specs, messages), 1):
        if len(message) != spec.k:
            raise UsageError(f"message {i} has {len(message)} symbols, initial code {i} needs k = {spec.k}")
        codewords.append(encode(spec, message).symbols)
    plandoc.write_symbol_lines(args.out, codewords)
    print(f"wrote {len(codewords)} codeword(s) to {args.out}")
    return 0


def cmd_convert(args) -> int:
    plan = plandoc.load_plan(args.plan)
    specs = plan.initial_specs
    rows = plandoc.read_symbol_lines(args.infile, plan.field)
    if len(rows) != len(specs):
        raise UsageError(f"expected {len(specs)} codewords (one per initial code), got {len(rows)}")
    # `read_symbol_lines` has refused every symbol outside [0, q), and its
    # symbols are exact ints, so each row of the right length is canonical.
    stripe = []
    for i, (spec, row) in enumerate(zip(specs, rows), 1):
        if len(row) != spec.n:
            raise UsageError(f"codeword {i} has {len(row)} symbols, initial code {i} has n = {spec.n}")
        stripe.append(Codeword._trusted(row, spec))
    outputs, report = run_conversion(plan, stripe)
    plandoc.write_symbol_lines(args.out, [cw.symbols for cw in outputs])
    sys.stdout.write(plandoc.dump_json(plandoc.report_to_doc(report, include_trace=args.trace)))
    return 0


def cmd_verify(args) -> int:
    try:
        plan = plandoc.load_plan(args.plan)
    except CertificateError as exc:
        print(f"FAIL {exc}")
        return 2
    results = verify_plan(plan)
    failed = False
    for name, ok, detail in results:
        suffix = f": {detail}" if detail else ""
        print(f"{'PASS' if ok else 'FAIL'} {name}{suffix}")
        failed = failed or not ok
    if failed:
        return 2
    report = plan_report(plan)
    print(f"access cost ρ = {report.rho} (bound: {report.bound})")
    return 0


def _special_case(params: ConvertParams) -> str:
    if params.t1 == 1 and params.t2 == 1:
        return "single-code conversion (degenerate)"
    if params.t2 == 1:
        if len(set(params.initial)) == 1:
            return "uniform initial codes"
        if len(set(params.r_initial)) == 1:
            return "uniform initial redundancy"
    if params.t1 == 1:
        if len(set(params.final)) == 1:
            return "uniform final codes"
        if len(set(params.r_final)) == 1:
            return "uniform final redundancy"
    return "none"


def cmd_bounds(args) -> int:
    params = ConvertParams(tuple(args.initial), tuple(args.final))
    if params.t2 == 1:
        print("regime: merge" if params.t1 > 1 else "regime: degenerate (t1 = t2 = 1)")
        bound = merge_lower_bound(params)
        print(f"field requirement: q >= {required_field_order(params)}")
        print(f"per-code read minimums: {list(bound.per_code_reads)}")
        print(f"write cost: {params.r_final[0]}")
        print(f"bound ρ = {bound.rho}")
    elif params.t1 == 1:
        print("regime: split")
        bound = split_lower_bound(params)
        print(f"feasible finals: {list(bound.feasible)}")
        print(f"read bound ρ_r = {bound.rho_r}")
        print(f"write cost: {sum(params.r_final)}")
        print(f"bound ρ = {bound.rho}")
    else:
        print("regime: general (t1 > 1 and t2 > 1)")
        print("no closed-form access-cost bound is available for this regime")
    print(f"special case: {_special_case(params)}")
    return 0


_COMMANDS = {
    "plan": cmd_plan,
    "encode": cmd_encode,
    "convert": cmd_convert,
    "verify": cmd_verify,
    "bounds": cmd_bounds,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (UsageError, InsufficientDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CorruptionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MdsconvError as exc:  # internal invariant failures
        print(f"internal error: {exc}", file=sys.stderr)
        return 70


if __name__ == "__main__":
    sys.exit(main())
