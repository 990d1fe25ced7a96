"""Command-line front end: `mdsconv VERB [--OPTION VALUE]...`.

Verbs: plan (build a conversion plan from a scenario config), encode
(messages -> initial codewords), convert (initial codewords -> final
codewords plus an access report), verify (structural, MDS and access
checks of a plan), bounds (access-cost lower bounds for parameters).
Options are exact names, given as `--opt value` or `--opt=value`, read by
one table (`_VERBS`); `-h`/`--help` lists them.  Exit codes: 0 success or
help, 1 usage/config, 2 parameter/feasibility, 3 data corruption.
"""

from __future__ import annotations

import sys
from collections.abc import Sequence
from types import SimpleNamespace

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


VALUE, REPEAT, FLAG = "value", "repeat", "flag"
# verb -> (command, summary, {option: (destination, converter, kind, help)}):
# a VALUE option takes one value (the last one wins), a REPEAT option one or
# more, kept in order, a FLAG none.  Options outside `_DEFAULTS` must be given.
_VERBS = {
    "plan": (cmd_plan, "build a conversion plan from a scenario config", {
        "--config": ("config", str, VALUE, "scenario config (JSON)"),
        "--out": ("out", str, VALUE, "plan document to write")}),
    "encode": (cmd_encode, "encode messages into initial codewords", {
        "--plan": ("plan", str, VALUE, "plan document"),
        "--in": ("infile", str, VALUE, "message file, one per line"),
        "--out": ("out", str, VALUE, "codeword file to write")}),
    "convert": (cmd_convert, "run a conversion and report access costs", {
        "--plan": ("plan", str, VALUE, "plan document"),
        "--in": ("infile", str, VALUE, "initial codeword file"),
        "--out": ("out", str, VALUE, "final codeword file to write"),
        "--trace": ("trace", None, FLAG, "optional flag, no value: include the device trace")}),
    "verify": (cmd_verify, "check a plan's structure and MDS properties", {
        "--plan": ("plan", str, VALUE, "plan document"),
        "--seed": ("seed", _seed, VALUE, "optional: accepted for compatibility, has no effect")}),
    "bounds": (cmd_bounds, "print access-cost lower bounds", {
        "--initial": ("initial", _shape, REPEAT, "an initial code's shape N,K, once per code"),
        "--final": ("final", _shape, REPEAT, "a final code's shape N,K, once per code")}),
}
_DEFAULTS = {"trace": False, "seed": 0}
_HELP = frozenset(("-h", "--help"))


def _help(verb: str | None) -> str:
    head = "usage: mdsconv VERB [--OPTION VALUE | --OPTION=VALUE]...; mdsconv VERB --help lists its options"
    rows = {name: summary for name, (_, summary, _) in _VERBS.items()}
    if verb is not None:
        head = f"usage: mdsconv {verb} OPTIONS: {_VERBS[verb][1]}\noptions, required unless marked optional:"
        rows = {name: text for name, (*_, text) in _VERBS[verb][2].items()}
    return "\n".join([head, *(f"  {name:<11}{text}" for name, text in rows.items()), ""])


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """The verb and options `argv` gives, or None once the help it asks for is written."""
    verb, *words = argv or [""]
    if verb not in _VERBS and verb not in _HELP:
        raise UsageError(f"expected a verb, one of {', '.join(_VERBS)}, got {verb!r}")
    if verb in _HELP or not _HELP.isdisjoint(words):
        sys.stdout.write(_help(None if verb in _HELP else verb))
        return None
    options = _VERBS[verb][2]
    values = {dest: _DEFAULTS[dest] for dest, *_ in options.values() if dest in _DEFAULTS}
    words = iter(words)
    for word in words:
        name, eq, value = word.partition("=")
        if name not in options:
            raise UsageError(f"{verb}: unrecognized argument {word!r}; its options are {', '.join(options)}")
        dest, convert, kind, _ = options[name]
        if kind == FLAG and eq:
            raise UsageError(f"{verb}: {name} takes no value")
        if kind != FLAG and not eq:
            value = next(words, None)
            # A word that looks like an option, not a negative number, is no value.
            if value is None or value[:1] == "-" and not value[1:].isdigit():
                raise UsageError(f"{verb}: {name} expects a value")
        if kind == REPEAT:
            values.setdefault(dest, []).append(convert(value))
        else:
            values[dest] = True if kind == FLAG else convert(value)
    if missing := [name for name, (dest, *_) in options.items() if dest not in values]:
        raise UsageError(f"{verb}: missing {', '.join(missing)}")
    return SimpleNamespace(command=verb, **values)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parse(list(sys.argv[1:] if argv is None else argv))
        return 0 if args is None else _VERBS[args.command][0](args)
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
