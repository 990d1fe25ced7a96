"""The benchmark's three workloads over mdsconv.

Each workload runs in one thread with one closed-loop caller: the next
operation starts when the previous one has returned.  A workload is
driven in whole rounds, each the same fixed list of operations, so the
share of failed operations is the same in every run whatever its length.

Every round has a control-plane part and, for the streams, a data-plane
part:

- `plan` then `verify` through `cli.main` on each rung of the workload's
  ladder, with the grs caches cleared before each call as a fresh CLI
  process would start;
- the README's four-verb flow (`plan`, `encode`, `convert`, `verify`) as
  separate `python -m mdsconv` processes on the workload's geometry;
- streams only: passes over a seeded pool of stripes, each encoded
  (`grs.encode`) and converted in-process.

The program's outputs are checked against `refmath`, never against mdsconv.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from array import array

import refmath
from mdsconv import cli, convert, field, grs, plandoc
from mdsconv.errors import MdsconvError

HERE = os.path.dirname(os.path.abspath(__file__))
GENERAL_PLAN = os.path.join(HERE, "two_by_two_plan.json")
clock = time.perf_counter_ns

# The lru caches, captured before a traced run wraps the module attributes.
CACHES = {"parity_check": grs.parity_check, "generator": grs.generator}

POOL_STRIPES = 256  # distinct seeded stripes per stream; a pass sends each once
GENERAL_PER_SPLIT = 6  # split-stream sends 1 split stripe, then 6 general stripes

README_MERGE = {"regime": "merge", "q": 8, "initial": [[5, 3], [5, 3]], "r_F": 2}
MERGE_STREAM = {"regime": "merge", "q": 256, "initial": [[14, 10], [14, 10], [12, 8], [6, 4]], "r_F": 4}
SPLIT_STREAM = {"regime": "split", "q": 256, "initial": [[40, 32]], "final": [[20, 16], [20, 16]]}
# name, scenario config, plan+verify repetitions per round
LADDER = (
    ("merge-5x2-gf8", README_MERGE, 20),
    ("merge-14x4-gf256", {"regime": "merge", "q": 256, "initial": [[14, 10]] * 4, "r_F": 4}, 3),
    ("merge-40x4-gf256", {"regime": "merge", "q": 256, "initial": [[40, 32]] * 4, "r_F": 8}, 1),
    ("merge-100x2-gf256", {"regime": "merge", "q": 256, "initial": [[100, 90]] * 2, "r_F": 10}, 1),
    ("merge-5x2-gf1000003", {**README_MERGE, "q": 1000003}, 5),
    ("split-14-gf16", {"regime": "split", "q": 16, "initial": [[14, 9]], "final": [[6, 4], [7, 5]]}, 3),
    ("split-40-gf256", SPLIT_STREAM, 3),
)
GENERAL_RUNG = "verify-2x2-general"

# Per-layer metrics and their units.  A workload that never calls a layer
# reports 0 for it: that is the "should not move" side of the README table.
LAYER_UNITS = {
    "trace.overhead_pct": "%",
    "field.mul_ns.gf256": "ns", "field.mul_ns.gf257": "ns",
    "field.inv_ns.gf256": "ns", "field.inv_ns.gf257": "ns",
    "field.mul_calls_per_stripe": "count", "field.inv_calls_per_stripe": "count",
    "field.check_calls_per_stripe": "count",
    "field.mul_calls_per_pass": "count", "field.inv_calls_per_pass": "count",
    "field.check_calls_per_pass": "count",
    "linalg.rref_calls_per_stripe": "count", "linalg.rref_self_us_per_stripe": "us",
    "linalg.solve_linear_calls_per_stripe": "count",
    "linalg.submatrix_cols_calls_per_stripe": "count",
    "linalg.matvec_self_us_per_stripe": "us", "linalg.vecmat_self_us_per_stripe": "us",
    "linalg.rref_self_ms": "ms",
    "grs.is_codeword_us": "us", "grs.is_codeword_calls_per_stripe": "count",
    "grs.recover_erasures_us": "us", "grs.recover_erasures_calls_per_stripe": "count",
    "grs.encode_us": "us",
    "grs.parity_check_hit_ratio": "ratio", "grs.generator_hit_ratio": "ratio",
    "convert.merge_convert_us": "us", "convert.split_convert_us": "us",
    "convert.general_convert_us": "us",
    "convert.access_report_us": "us", "convert.access_report_calls_per_stripe": "count",
    "oracle.mds_exhaustive_ms": "ms", "oracle.mds_sampled_ms": "ms",
    "plandoc.save_plan_ms": "ms", "plandoc.load_plan_ms": "ms", "plandoc.plan_bytes": "bytes",
    "plandoc.read_symbol_lines_us": "us", "plandoc.write_symbol_lines_us": "us",
    "cli.import_ms": "ms", "cli.plan_ms": "ms", "cli.encode_ms": "ms",
    "cli.convert_ms": "ms", "cli.verify_ms": "ms",
}
for _rung, _cfg, _ in LADDER:
    LAYER_UNITS[f"grs.puncture_ms.{_rung}"] = "ms"
    LAYER_UNITS[f"grs.puncture_calls.{_rung}"] = "count"
    if _cfg["regime"] == "merge":
        LAYER_UNITS[f"convert.build_merge_ms.{_rung}"] = "ms"
        LAYER_UNITS[f"convert.verify_optimal_structure_ms.{_rung}"] = "ms"
    else:
        LAYER_UNITS[f"convert.build_split_ms.{_rung}"] = "ms"
for _rung in [r for r, _, _ in LADDER] + [GENERAL_RUNG]:
    LAYER_UNITS[f"convert.verify_plan_ms.{_rung}"] = "ms"


def bytes_per_symbol(q: int) -> float:
    """Payload carried by one symbol: log2(q) bits."""
    return math.log2(q) / 8


def _messages(rng: random.Random, cfg: dict) -> list[tuple[int, ...]]:
    """One seeded message per initial code of a scenario config."""
    return [tuple(rng.randrange(cfg["q"]) for _ in range(k)) for _, k in cfg["initial"]]


def _payload(cfg: dict) -> float:
    return sum(k for _, k in cfg["initial"]) * bytes_per_symbol(cfg["q"])


def _bound(cfg: dict) -> tuple[tuple[int, ...] | None, int]:
    """Per-initial read minimums (merge only) and the access-cost bound of a config."""
    initial = [tuple(s) for s in cfg["initial"]]
    if cfg["regime"] == "merge":
        return refmath.merge_bound(initial, cfg["r_F"])
    return None, refmath.split_bound(initial[0], [tuple(s) for s in cfg["final"]])


def _general_rho(doc: dict) -> int:
    """Distinct reads per initial code plus written symbols per final, from a plan document."""
    t1 = len(doc["initial_codes"])
    reads = sum(
        len({pair[1] for per_final in doc["reads"] for pair in per_final[i]}) for i in range(t1)
    )
    written = sum(1 for layout in doc["layout"] for code, _ in layout if code > t1)
    return reads + written


def _geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _merge_summary(into: dict, summary: dict) -> None:
    for name, agg in summary.items():
        merged = into.setdefault(name, [0, 0, 0])
        for k in range(3):
            merged[k] += agg[k]


def _per_call_us(summary: dict, name: str) -> float:
    calls, total, _ = summary.get(name, (0, 0, 0))
    return total / calls / 1e3 if calls else 0.0


PROBE_SIZE = 40  # the speed probe round-trips a PROBE_SIZE x PROBE_SIZE table through json
PROBE_FILE_BYTES = 2048  # and, for in-process operations that write files, writes this much
# The probe's time at the reference speed, without and with the file write.
PROBE_REF_NS = {False: 500_000, True: 750_000}


def _probe_work() -> dict:
    table = [[i * j % 251 for j in range(PROBE_SIZE)] for i in range(PROBE_SIZE)]
    return json.loads(json.dumps({str(i): row for i, row in enumerate(table)}))


class Timings:
    """Operation times, each with the host's speed probed just before and after it.

    On a shared host other tenants slow the process by up to 2x for seconds
    to minutes at a time.  The probe is a fixed piece of work of the kind
    the program does: building lists and dicts of small integers and a json
    round trip, plus a small file write for in-process operations that
    write files.  CLI processes use the probe without the write: the write's
    time jumps several-fold when other tenants load the disk, while a
    process start, which reads cached files, does not.  A sample is scaled by (the probe's time at the reference speed,
    PROBE_REF_NS) / (mean of its two probes): the time the operation takes
    at the reference speed.  A metric is the median of its scaled samples.
    The reference is a constant rather than a statistic of the run (such as
    its fastest probe), so it does not depend on how many probes a run takes.
    """

    def __init__(self, workdir: str):
        self.probe_path = os.path.join(workdir, "probe.bin")
        # key -> (times, probe factors), compact so that they barely touch peak RSS
        self.samples: dict[tuple, tuple[array, array]] = {}

    def probe(self, files: bool) -> float:
        """The host's slowness now: probe time over its reference time."""
        t0 = clock()
        _probe_work()
        if files:
            with open(self.probe_path, "wb") as fh:
                fh.write(bytes(PROBE_FILE_BYTES))
        return (clock() - t0) / PROBE_REF_NS[files]

    def add(self, key: tuple, ns: int, probe: float) -> None:
        times, probes = self.samples.setdefault(key, (array("q"), array("d")))
        times.append(ns)
        probes.append(probe)

    def median(self, key: tuple) -> float:
        """Median scaled time in ns."""
        times, probes = self.samples[key]
        return statistics.median(ns / probe for ns, probe in zip(times, probes))

    def keys(self, kind: str) -> list[tuple]:
        return [key for key in self.samples if key[0] == kind]


class CacheStats:
    """Hits and misses of the grs caches, kept across cache_clear (which zeroes them)."""

    def __init__(self):
        self.base = {name: [0, 0] for name in CACHES}

    def clear(self) -> None:
        for name, fn in CACHES.items():
            info = fn.cache_info()
            self.base[name][0] += info.hits
            self.base[name][1] += info.misses
            fn.cache_clear()

    def totals(self) -> dict[str, tuple[int, int]]:
        out = {}
        for name, fn in CACHES.items():
            info = fn.cache_info()
            out[name] = (self.base[name][0] + info.hits, self.base[name][1] + info.misses)
        return out


class Workload:
    """Control-plane rounds: ladder rungs, general-plan verifies, tampered plans, CLI flows."""

    name = ""
    ladder: tuple = ()
    general_reps = 0  # verify-only repetitions of the 2x2 general plan per round
    tampered = False  # verify the two tampered plans once per round
    flow_config: dict = README_MERGE
    flows_per_round = 6
    cli_stripes_per_round = 0  # in-process encode+convert of a README stripe
    setups_per_round = 6  # timed set-ups, for a steadier setup_s
    setup_files = False  # whether set-up writes files, which decides its speed probe
    passes_per_round = 0  # stream pool passes

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.attempted = 0
        self.failed = 0
        self.busy_ns = 0  # time inside measured operations
        self.errors: list[str] = []
        self.caches = CacheStats()
        self.verify_seed = str(self.rng.randrange(1 << 30))
        self.flow_messages = [_messages(self.rng, self.flow_config) for _ in range(self.flows_per_round)]
        self.cli_stripe_messages = [_messages(self.rng, README_MERGE)
                                    for _ in range(self.cli_stripes_per_round)]
        self.timings = Timings(workdir)
        self.traced_verb_ns: dict[str, list[int]] = {}
        self.rep_layers: dict[str, list[tuple[dict, dict]]] = {}
        self.plan_bytes: dict[str, int] = {}
        self.children: list[dict] = []
        src = os.path.dirname(os.path.dirname(field.__file__))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        with open(GENERAL_PLAN, encoding="utf-8") as fh:
            self.gdoc = json.load(fh)
        self._write_inputs()

    @property
    def correct(self) -> bool:
        return not self.errors

    def error(self, message: str) -> None:
        if len(self.errors) < 10:
            self.errors.append(message)

    def path(self, *parts: str) -> str:
        return os.path.join(self.workdir, *parts)

    # -- set-up ---------------------------------------------------------------

    def _write_inputs(self) -> None:
        """The benchmark's own input files: scenario configs and general plan copies.

        Written once per run and not timed: they are inputs, like the seeded
        messages, and no change to the program can make them cheaper.
        """
        os.makedirs(self.path("flow"))
        if self.cli_stripes_per_round:
            os.makedirs(self.path("stripe"))
        for rung, cfg, _ in self.ladder:
            with open(self.path(f"{rung}.config.json"), "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
        with open(self.path("flow", "config.json"), "w", encoding="utf-8") as fh:
            json.dump(self.flow_config, fh)
        if self.general_reps:
            shutil.copyfile(GENERAL_PLAN, self.path(f"{GENERAL_RUNG}.plan.json"))
        if self.tampered:
            # Fixed tampering, independent of the seed: the first sigma entry
            # of the 2x2 general plan, changed by adding 1.
            gdoc = json.loads(json.dumps(self.gdoc))
            _bump_first_entry(gdoc["sigma"][0], gdoc["field"]["q"])
            with open(self.path("bad-general.plan.json"), "w", encoding="utf-8") as fh:
                json.dump(gdoc, fh)

    def setup(self) -> None:
        """What the program does before the first operation: build and save plans."""
        if self.tampered:
            self._write_readme_plans()
        self.setup_stream()

    def _write_readme_plans(self) -> None:
        """The README merge plan for the CLI stripes, and a tampered copy of it."""
        readme = convert.build_merge(convert.merge_params([(5, 3), (5, 3)], 2), field.GF(8))
        plandoc.save_plan(readme, self.path("stripe", "plan.json"))
        # Fixed tampering, independent of the seed (as in _write_inputs): the
        # first entry of the first restricted parity check, changed by adding 1.
        doc = plandoc.plan_to_doc(readme)
        _bump_first_entry(doc["punctured_parity"][0]["matrix"], readme.field.q)
        with open(self.path("bad-merge.plan.json"), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    def setup_stream(self) -> None:
        pass

    def prepare_checks(self) -> None:
        pass

    # -- rounds -----------------------------------------------------------------

    def schedule(self) -> list[tuple]:
        """One round: (method, args) pairs, each kind spread evenly through the round.

        The host's speed drifts for seconds at a time; spreading each kind
        of operation over the round samples it in several of those stretches.
        """
        queues = [[(self._rung, (rung, cfg))] * reps for rung, cfg, reps in self.ladder]
        queues.append([(self._general, ())] * self.general_reps)
        if self.tampered:
            queues += [[(self._tampered, ("bad-merge",))], [(self._tampered, ("bad-general",))]]
        queues.append([(self._flow, (messages,)) for messages in self.flow_messages])
        queues.append([(self._cli_stripe, (messages,)) for messages in self.cli_stripe_messages])
        queues.append([(self.timed_setup, ())] * self.setups_per_round)
        queues.append([(self.data_pass, ())] * self.passes_per_round)
        slots = [((i + 0.5) / len(q), qi, item) for qi, q in enumerate(queues) for i, item in enumerate(q)]
        return [item for _, _, item in sorted(slots, key=lambda slot: slot[:2])]

    def round(self, tracer=None) -> None:
        for method, args in self.schedule():
            method(*args, tracer)

    def timed_setup(self, tracer=None) -> None:
        """One set-up from cold grs caches."""
        self.caches.clear()
        p0 = self.timings.probe(self.setup_files)
        t0 = clock()
        self.setup()
        t1 = clock()
        self.timings.add(("setup",), t1 - t0, (p0 + self.timings.probe(self.setup_files)) / 2)

    def data_pass(self, tracer) -> None:
        raise NotImplementedError

    def _general(self, tracer) -> None:
        code, out, summary, counts = self._call(
            ["verify", "--plan", self.path(f"{GENERAL_RUNG}.plan.json"), "--seed", self.verify_seed],
            tracer, ("verify", GENERAL_RUNG))
        self._check_verify(GENERAL_RUNG, code, out, _general_rho(self.gdoc), "None")
        if tracer:
            self.rep_layers.setdefault(GENERAL_RUNG, []).append((summary, counts))

    def _tampered(self, bad: str, tracer) -> None:
        code, _, _, _ = self._call(
            ["verify", "--plan", self.path(f"{bad}.plan.json"), "--seed", self.verify_seed], tracer)
        if code != 2:
            # verify passed a tampered plan: the operation failed.
            self.failed += 1

    def _call(self, argv: list[str], tracer, key: tuple | None = None,
              files: bool = False) -> tuple[int, str, dict, dict]:
        """One in-process CLI call, starting from the caches a fresh process has.

        `files` marks a call whose time goes mostly to reading and writing
        files, which picks the speed probe that writes a file too.
        """
        self.caches.clear()
        start = len(tracer.spans) if tracer else 0
        before = tracer.counts() if tracer else {}
        out, err = io.StringIO(), io.StringIO()
        p0 = self.timings.probe(files)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = clock()
            code = cli.main(argv)
            t1 = clock()
        if key:
            self.timings.add(key, t1 - t0, (p0 + self.timings.probe(files)) / 2)
        self.attempted += 1
        self.busy_ns += t1 - t0
        summary, counts = {}, {}
        if tracer:
            summary = tracer.summary(start)
            counts = {k: v - before.get(k, 0) for k, v in tracer.counts().items()}
        return code, out.getvalue(), summary, counts

    def _rung(self, rung: str, cfg: dict, tracer) -> None:
        plan_path = self.path(f"{rung}.plan.json")
        code, out, s1, c1 = self._call(
            ["plan", "--config", self.path(f"{rung}.config.json"), "--out", plan_path], tracer,
            ("plan", rung))
        reads, bound = _bound(cfg)
        if code != 0 or f"bound ρ = {bound}\n" not in out:
            self.error(f"{rung}: plan exited {code} or did not print bound {bound}")
        else:
            self.plan_bytes[rung] = os.path.getsize(plan_path)
            problem = _check_plan_doc(plan_path, cfg, reads, bound)
            if problem:
                self.error(f"{rung}: {problem}")
        code, out, s2, c2 = self._call(
            ["verify", "--plan", plan_path, "--seed", self.verify_seed], tracer, ("verify", rung))
        self._check_verify(rung, code, out, bound, str(bound))
        if tracer:
            _merge_summary(s1, s2)
            counts = {k: c1.get(k, 0) + c2.get(k, 0) for k in set(c1) | set(c2)}
            self.rep_layers.setdefault(rung, []).append((s1, counts))

    def _check_verify(self, rung: str, code: int, out: str, rho: int, bound: str) -> None:
        lines = out.splitlines()
        if code != 0 or not lines:
            self.error(f"{rung}: verify exited {code}")
            return
        if not all(line.startswith("PASS ") for line in lines[:-1]):
            self.error(f"{rung}: verify printed a line other than PASS: {lines[:-1]}")
        if lines[-1] != f"access cost ρ = {rho} (bound: {bound})":
            self.error(f"{rung}: verify reported {lines[-1]!r}, expected rho {rho}")

    def _flow(self, messages, tracer) -> None:
        flow = self.path("flow")
        _write_messages(os.path.join(flow, "messages.txt"), messages)
        verbs = [
            ["plan", "--config", "config.json", "--out", "plan.json"],
            ["encode", "--plan", "plan.json", "--in", "messages.txt", "--out", "codewords.txt"],
            ["convert", "--plan", "plan.json", "--in", "codewords.txt", "--out", "final.txt", "--trace"],
            ["verify", "--plan", "plan.json", "--seed", self.verify_seed],
        ]
        outputs = {}
        for verb in verbs:
            if tracer:
                argv = [sys.executable, os.path.join(HERE, "cli_traced.py"), "layers.json", *verb]
            else:
                argv = [sys.executable, "-m", "mdsconv", *verb]
            p0 = self.timings.probe(False)
            t0 = clock()
            proc = subprocess.run(argv, cwd=flow, env=self.env, capture_output=True, text=True, timeout=120)
            ns = clock() - t0
            self.attempted += 1
            self.busy_ns += ns
            if tracer:
                self.traced_verb_ns.setdefault(verb[0], []).append(ns)
            else:
                self.timings.add(("verb", verb[0]), ns, (p0 + self.timings.probe(False)) / 2)
            outputs[verb[0]] = proc.stdout
            if proc.returncode != 0:
                self.failed += 1
                self.error(f"flow: {verb[0]} exited {proc.returncode}: {proc.stderr.strip()}")
                return
            if tracer:
                with open(os.path.join(flow, "layers.json"), encoding="utf-8") as fh:
                    self.children.append(json.load(fh))
        problem = _check_flow(flow, self.flow_config, messages, outputs)
        if problem:
            self.error(f"flow: {problem}")

    def _cli_stripe(self, messages, tracer) -> None:
        """`encode` then `convert` of one README stripe through cli.main."""
        folder = self.path("stripe")
        _write_messages(os.path.join(folder, "messages.txt"), messages)
        files = {name: os.path.join(folder, name)
                 for name in ("plan.json", "messages.txt", "codewords.txt", "final.txt")}
        code, _, _, _ = self._call(
            ["encode", "--plan", files["plan.json"], "--in", files["messages.txt"],
             "--out", files["codewords.txt"]], tracer, ("encode", "cli"), files=True)
        if code != 0:
            self.failed += 1
            self.error(f"cli stripe: encode exited {code}")
            return
        code, out, _, _ = self._call(
            ["convert", "--plan", files["plan.json"], "--in", files["codewords.txt"],
             "--out", files["final.txt"]], tracer, ("convert", "cli"), files=True)
        if code != 0:
            self.failed += 1
            self.error(f"cli stripe: convert exited {code}")
            return
        problem = _check_stripe_files(folder, README_MERGE, messages, out)
        if problem:
            self.error(f"cli stripe: {problem}")

    # -- metrics ------------------------------------------------------------------

    def mark(self) -> dict:
        """State at the start of the traced phase."""
        return {"busy_ns": self.busy_ns, "attempted": self.attempted, "caches": self.caches.totals()}

    def overhead_pct(self, mark: dict) -> float:
        untraced = mark["busy_ns"] / mark["attempted"]
        traced = (self.busy_ns - mark["busy_ns"]) / (self.attempted - mark["attempted"])
        return 100.0 * (traced / untraced - 1.0)

    def end_to_end(self) -> dict[str, float]:
        t = self.timings
        out = {
            "setup_s": t.median(("setup",)) / 1e9,
            "plan_ms_geomean": _geomean([t.median(k) / 1e6 for k in t.keys("plan")]),
            "verify_ms_geomean": _geomean([t.median(k) / 1e6 for k in t.keys("verify")]),
            "cli_flow_s": sum(t.median(k) for k in t.keys("verb")) / 1e9,
        }
        out.update(self.stripe_metrics())
        return out

    def stripe_metrics(self) -> dict[str, float]:
        raise NotImplementedError

    def layers(self, tracer, mark: dict) -> dict[str, float]:
        def rung_mean(rung: str, name: str, k: int) -> float:
            reps = self.rep_layers.get(rung, [])
            return sum(s.get(name, (0, 0, 0))[k] for s, _ in reps) / len(reps) if reps else 0.0

        def count_mean(rung: str, name: str) -> float:
            reps = self.rep_layers.get(rung, [])
            return sum(c.get(name, 0) for _, c in reps) / len(reps) if reps else 0.0

        out: dict[str, float] = {}
        for rung, cfg, _ in LADDER:
            out[f"grs.puncture_ms.{rung}"] = rung_mean(rung, "grs.puncture", 1) / 1e6
            out[f"grs.puncture_calls.{rung}"] = rung_mean(rung, "grs.puncture", 0)
            if cfg["regime"] == "merge":
                out[f"convert.build_merge_ms.{rung}"] = rung_mean(rung, "convert.build_merge", 1) / 1e6
                out[f"convert.verify_optimal_structure_ms.{rung}"] = (
                    rung_mean(rung, "convert.verify_optimal_structure", 1) / 1e6)
            else:
                out[f"convert.build_split_ms.{rung}"] = rung_mean(rung, "convert.build_split", 1) / 1e6
        for rung in [r for r, _, _ in LADDER] + [GENERAL_RUNG]:
            out[f"convert.verify_plan_ms.{rung}"] = rung_mean(rung, "convert.verify_plan", 1) / 1e6
        # "Per pass": one repetition of each of the workload's own rungs.
        rungs = list(self.rep_layers)
        for metric, name, k in (
            ("linalg.rref_self_ms", "linalg.rref", 2),
            ("oracle.mds_exhaustive_ms", "oracle.mds_exhaustive", 1),
            ("oracle.mds_sampled_ms", "oracle.mds_sampled", 1),
            ("plandoc.save_plan_ms", "plandoc.save_plan", 1),
            ("plandoc.load_plan_ms", "plandoc.load_plan", 1),
        ):
            out[metric] = sum(rung_mean(r, name, k) for r in rungs) / 1e6
        for op in ("mul", "inv", "check"):
            out[f"field.{op}_calls_per_pass"] = sum(count_mean(r, f"field.{op}") for r in rungs)
        out["plandoc.plan_bytes"] = float(sum(self.plan_bytes.values()))
        child: dict = {}
        for doc in self.children:
            _merge_summary(child, doc["layers"])
        out["plandoc.read_symbol_lines_us"] = _per_call_us(child, "plandoc.read_symbol_lines")
        out["plandoc.write_symbol_lines_us"] = _per_call_us(child, "plandoc.write_symbol_lines")
        out["cli.import_ms"] = statistics.median(d["import_ns"] for d in self.children) / 1e6
        for verb in ("plan", "encode", "convert", "verify"):
            out[f"cli.{verb}_ms"] = statistics.median(self.traced_verb_ns[verb]) / 1e6
        after = self.caches.totals()
        for name in CACHES:
            hits = after[name][0] - mark["caches"][name][0]
            misses = after[name][1] - mark["caches"][name][1]
            out[f"grs.{name}_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        return out


class PlanLadder(Workload):
    """The shape ladder, the general plan, tampered plans, CLI flows and README stripes."""

    name = "plan-ladder"
    ladder = LADDER
    general_reps = 20
    tampered = True
    flows_per_round = 12
    cli_stripes_per_round = 60
    setups_per_round = 160
    setup_files = True

    def stripe_metrics(self) -> dict[str, float]:
        """README stripes through `encode` and `convert` in cli.main, one per call."""
        enc = self.timings.median(("encode", "cli")) / 1e9
        conv = self.timings.median(("convert", "cli")) / 1e9
        return {
            "encode_stripes_per_s": 1 / enc,
            "convert_stripes_per_s": 1 / conv,
            "convert_MiBps": _payload(README_MERGE) / conv / 2**20,
        }


# -- streams ---------------------------------------------------------------------


def _encode_check(ref: refmath.RefField, h, g, message, symbols) -> str:
    if tuple(symbols) != refmath.vecmat(ref, message, g):
        return "codeword is not the message times the canonical generator"
    if not refmath.in_code(ref, h, symbols):
        return "codeword fails the reference parity check"
    return ""


class _RefCode:
    """Reference parity check and canonical generator of one code."""

    def __init__(self, ref: refmath.RefField, doc: dict):
        self.ok = refmath.code_ok(ref, doc)
        self.h = refmath.parity_check(ref, doc["n"], doc["r"], doc["gamma"], doc["w"])
        self.g = refmath.kernel_basis(ref, self.h)


class Stream(Workload):
    """The control-plane round on the stream's own geometry, then pool passes."""

    passes_per_round = 8

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.stripes = 0
        self.verified: dict[int, tuple] = {}
        self.data_summary: dict = {}
        self.data_counts: dict[str, int] = {}
        self.traced_stripes = 0

    def data_pass(self, tracer) -> None:
        start = len(tracer.spans) if tracer else 0
        before = tracer.counts() if tracer else {}
        stripes = self.stripes
        self._pass()
        if tracer:
            self.traced_stripes += self.stripes - stripes
            _merge_summary(self.data_summary, tracer.summary(start))
            for k, v in tracer.counts().items():
                self.data_counts[k] = self.data_counts.get(k, 0) + v - before.get(k, 0)

    def _pass(self) -> None:
        times = []
        p0 = self.timings.probe(False)
        for idx in range(POOL_STRIPES):
            self.attempted += 2
            try:
                t0 = clock()
                codewords = self.encode(idx)
                t1 = clock()
            except MdsconvError as exc:
                self.failed += 2
                self.error(f"stripe {idx}: encode raised {exc!r}")
                continue
            try:
                outputs, report = self.convert(idx, codewords)
                t2 = clock()
            except MdsconvError as exc:
                self.failed += 1
                self.error(f"stripe {idx}: convert raised {exc!r}")
                continue
            times.append((self.kinds[idx], t1 - t0, t2 - t1))
            self.busy_ns += t2 - t0
            self.stripes += 1
            self._check(idx, codewords, outputs, report)
        probe = (p0 + self.timings.probe(False)) / 2
        for kind, enc_ns, conv_ns in times:
            self.timings.add(("encode", kind), enc_ns, probe)
            self.timings.add(("convert", kind), conv_ns, probe)

    def _check(self, idx: int, codewords, outputs, report) -> None:
        got = (tuple(cw.symbols for cw in codewords), tuple(cw.symbols for cw in outputs))
        if idx in self.verified:
            if self.verified[idx] != got:
                self.error(f"stripe {idx}: output differs from its verified first conversion")
            return
        problem = self.verify_stripe(idx, *got) or self.verify_report(idx, report)
        if problem:
            self.error(f"stripe {idx}: {problem}")
        self.verified[idx] = got

    def stripe_metrics(self) -> dict[str, float]:
        """Rates of one pool pass at each stripe kind's median time."""
        enc = {kind: self.timings.median(("encode", kind)) for kind in set(self.kinds)}
        conv = {kind: self.timings.median(("convert", kind)) for kind in set(self.kinds)}
        enc_s = sum(enc[kind] for kind in self.kinds) / 1e9
        conv_s = sum(conv[kind] for kind in self.kinds) / 1e9
        return {
            "encode_stripes_per_s": POOL_STRIPES / enc_s,
            "convert_stripes_per_s": POOL_STRIPES / conv_s,
            "convert_MiBps": sum(self.payload) / conv_s / 2**20,
        }

    def layers(self, tracer, mark: dict) -> dict[str, float]:
        out = super().layers(tracer, mark)
        s, stripes = self.data_summary, self.traced_stripes

        def calls(name):
            return s.get(name, (0, 0, 0))[0] / stripes

        def self_us(name):
            return s.get(name, (0, 0, 0))[2] / stripes / 1e3

        for op in ("mul", "inv", "check"):
            out[f"field.{op}_calls_per_stripe"] = self.data_counts.get(f"field.{op}", 0) / stripes
        out.update({
            "linalg.rref_calls_per_stripe": calls("linalg.rref"),
            "linalg.rref_self_us_per_stripe": self_us("linalg.rref"),
            "linalg.solve_linear_calls_per_stripe": calls("linalg.solve_linear"),
            "linalg.submatrix_cols_calls_per_stripe": calls("linalg.submatrix_cols"),
            "linalg.matvec_self_us_per_stripe": self_us("linalg.matvec"),
            "linalg.vecmat_self_us_per_stripe": self_us("linalg.vecmat"),
            "grs.is_codeword_calls_per_stripe": calls("grs.is_codeword"),
            "grs.recover_erasures_calls_per_stripe": calls("grs.recover_erasures"),
            "convert.access_report_calls_per_stripe": calls("convert.access_report"),
        })
        for name in ("grs.is_codeword", "grs.recover_erasures", "grs.encode",
                     "convert.merge_convert", "convert.split_convert",
                     "convert.general_convert", "convert.access_report"):
            out[f"{name}_us"] = _per_call_us(s, name)
        return out


class MergeStream(Stream):
    """[(14,10),(14,10),(12,8),(6,4)], r_F=4 -> [36,32] over GF(256)."""

    name = "merge-stream"
    ladder = (("merge-stream", MERGE_STREAM, 4),)
    flow_config = MERGE_STREAM

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.ref = refmath.RefField(MERGE_STREAM["q"])
        self.kinds = ["merge"] * POOL_STRIPES
        self.pool = [_messages(self.rng, MERGE_STREAM) for _ in range(POOL_STRIPES)]
        self.payload = [_payload(MERGE_STREAM)] * POOL_STRIPES
        self.bound = _bound(MERGE_STREAM)[1]

    def setup_stream(self) -> None:
        shapes = [tuple(s) for s in MERGE_STREAM["initial"]]
        params = convert.merge_params(shapes, MERGE_STREAM["r_F"])
        self.plan = convert.build_merge(params, field.GF(MERGE_STREAM["q"]))
        self.convert(0, self.encode(0))

    def prepare_checks(self) -> None:
        self.initial_refs = [_RefCode(self.ref, grs.spec_to_dict(s)) for s in self.plan.initial_specs]
        self.final_ref = _RefCode(self.ref, grs.spec_to_dict(self.plan.final_spec))
        if not self.final_ref.ok:
            self.error("final code has repeated points or a zero multiplier")
        self.layout = [(i, pos) for i, u in enumerate(self.plan.unchanged, 1) for pos in u]
        if len(self.layout) != self.plan.final_spec.k:
            self.error(f"{len(self.layout)} unchanged symbols do not form an information set")

    def encode(self, idx: int):
        return [grs.encode(spec, msg) for spec, msg in zip(self.plan.initial_specs, self.pool[idx])]

    def convert(self, idx: int, codewords):
        final, report = convert.merge_convert(self.plan, codewords)
        return (final,), report

    def verify_stripe(self, idx, codewords, outputs) -> str:
        if len(codewords) != len(self.initial_refs) or len(outputs) != 1:
            return f"{len(codewords)} codewords and {len(outputs)} final codewords for one stripe"
        for i, (ref, msg, cw) in enumerate(zip(self.initial_refs, self.pool[idx], codewords), 1):
            problem = _encode_check(self.ref, ref.h, ref.g, msg, cw)
            if problem:
                return f"initial {i}: {problem}"
        final = outputs[0]
        if not refmath.in_code(self.ref, self.final_ref.h, final):
            return "final codeword fails the reference parity check"
        for slot, (i, pos) in enumerate(self.layout):
            if final[slot] != codewords[i - 1][pos - 1]:
                return f"final position {slot + 1} is not unchanged symbol ({i}, {pos})"
        return ""

    def verify_report(self, idx, report) -> str:
        if report.rho != self.bound or report.optimal is not True:
            return f"report rho={report.rho} optimal={report.optimal}, bound is {self.bound}"
        return ""


class SplitStream(Stream):
    """(40,32) -> [(20,16),(20,16)] over GF(256), 1:6 with the 2x2 general plan over GF(8)."""

    name = "split-stream"
    ladder = (("split-stream", SPLIT_STREAM, 4),)
    general_reps = 5
    flow_config = SPLIT_STREAM

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        gcfg = {"q": self.gdoc["field"]["q"], "initial": self.gdoc["params"]["initial"]}
        self.kinds = ["split" if idx % (GENERAL_PER_SPLIT + 1) == 0 else "general"
                      for idx in range(POOL_STRIPES)]
        self.pool = [_messages(self.rng, gcfg if kind == "general" else SPLIT_STREAM)
                     for kind in self.kinds]
        self.payload = [_payload(gcfg if kind == "general" else SPLIT_STREAM) for kind in self.kinds]
        self.ref = refmath.RefField(SPLIT_STREAM["q"])
        self.gref = refmath.RefField(gcfg["q"])
        self.split_bound = _bound(SPLIT_STREAM)[1]
        self.general_rho = _general_rho(self.gdoc)

    def setup_stream(self) -> None:
        params = convert.ConvertParams(
            tuple(tuple(s) for s in SPLIT_STREAM["initial"]), tuple(tuple(s) for s in SPLIT_STREAM["final"]))
        self.plan = convert.build_split(params, field.GF(SPLIT_STREAM["q"]))
        self.gplan = plandoc.load_plan(GENERAL_PLAN)
        first_general = self.kinds.index("general")
        self.convert(0, self.encode(0))
        self.convert(first_general, self.encode(first_general))

    def prepare_checks(self) -> None:
        self.initial_ref = _RefCode(self.ref, grs.spec_to_dict(self.plan.initial_spec))
        self.final_refs = [_RefCode(self.ref, grs.spec_to_dict(s)) for s in self.plan.final_specs]
        self.general_refs = [_RefCode(self.gref, doc) for doc in self.gdoc["initial_codes"]]
        if not all(r.ok for r in self.final_refs):
            self.error("a final code has repeated points or a zero multiplier")
        for j, ((_, kf), u) in enumerate(zip(SPLIT_STREAM["final"], self.plan.unchanged), 1):
            if len(u) != kf:
                self.error(f"final {j} keeps {len(u)} unchanged symbols, not k_F = {kf}")
        self.sigmas = [[[int(t) for t in line.split()] for line in lines[1:]]
                       for lines in self.gdoc["sigma"]]

    def encode(self, idx: int):
        if self.kinds[idx] == "split":
            return [grs.encode(self.plan.initial_spec, self.pool[idx][0])]
        return [grs.encode(spec, msg) for spec, msg in zip(self.gplan.initial_specs, self.pool[idx])]

    def convert(self, idx: int, codewords):
        if self.kinds[idx] == "split":
            return convert.split_convert(self.plan, codewords[0])
        return convert.general_convert(self.gplan, codewords)

    def verify_stripe(self, idx, codewords, outputs) -> str:
        if self.kinds[idx] == "split":
            if len(codewords) != 1:
                return f"{len(codewords)} codewords for one split message"
            return self._verify_split(idx, codewords[0], outputs)
        return self._verify_general(idx, codewords, outputs)

    def _verify_split(self, idx, cw, outputs) -> str:
        problem = _encode_check(self.ref, self.initial_ref.h, self.initial_ref.g, self.pool[idx][0], cw)
        if problem:
            return f"initial: {problem}"
        if len(outputs) != len(self.final_refs):
            return f"{len(outputs)} final codewords for {len(self.final_refs)} final codes"
        for j, (ref, u, out) in enumerate(zip(self.final_refs, self.plan.unchanged, outputs), 1):
            if not refmath.in_code(self.ref, ref.h, out):
                return f"final {j} fails the reference parity check"
            if tuple(out[: len(u)]) != tuple(cw[pos - 1] for pos in u):
                return f"final {j} does not start with its unchanged symbols"
        return ""

    def _verify_general(self, idx, codewords, outputs) -> str:
        if len(codewords) != len(self.general_refs):
            return f"{len(codewords)} general codewords for {len(self.general_refs)} initial codes"
        for i, (ref, msg, cw) in enumerate(zip(self.general_refs, self.pool[idx], codewords), 1):
            problem = _encode_check(self.gref, ref.h, ref.g, msg, cw)
            if problem:
                return f"general initial {i}: {problem}"
        t1 = len(codewords)
        if len(outputs) != len(self.gdoc["layout"]):
            return f"{len(outputs)} general final codewords for {len(self.gdoc['layout'])} final codes"
        for j, out in enumerate(outputs):
            reads = [codewords[i][pair[1] - 1]
                     for i, pairs in enumerate(self.gdoc["reads"][j]) for pair in pairs]
            written = refmath.vecmat(self.gref, reads, self.sigmas[j])
            expect = [codewords[code - 1][pos - 1] if code <= t1 else written[pos - 1]
                      for code, pos in self.gdoc["layout"][j]]
            if tuple(out) != tuple(expect):
                return f"general final {j + 1} is not its unchanged symbols and reads times sigma"
        return ""

    def verify_report(self, idx, report) -> str:
        if self.kinds[idx] == "split":
            if report.rho != self.split_bound or report.optimal is not True:
                return f"report rho={report.rho} optimal={report.optimal}, bound is {self.split_bound}"
        elif report.rho != self.general_rho:
            return f"general report rho={report.rho}, plan declares {self.general_rho}"
        return ""


# -- checks on files the CLI wrote -------------------------------------------------


def _write_messages(path: str, messages) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(" ".join(map(str, m)) + "\n" for m in messages))


def _bump_first_entry(lines: list[str], q: int) -> None:
    """Add 1 (mod q) to the first entry of a matrix dump's first row."""
    row = lines[1].split()
    row[0] = str((int(row[0]) + 1) % q)
    lines[1] = " ".join(row)


def _check_plan_doc(path: str, cfg: dict, reads, bound: int) -> str:
    """Code and access-cost checks of a plan document, read as plain JSON."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    ref = refmath.RefField(cfg["q"])
    if cfg["regime"] == "merge":
        codes = doc["initial_codes"] + [doc["final_code"]]
        got_reads = tuple(len(r) for r in doc["reads"])
        if got_reads != reads:
            return f"per-code reads {got_reads}, bound gives {reads}"
        rho = sum(got_reads) + len(doc["written"])
    else:
        codes = [doc["initial_code"]] + doc["final_codes"]
        rho = len({pair[1] for per_final in doc["reads"] for pair in per_final})
        rho += sum(len(w) for w in doc["written"])
    if not all(refmath.code_ok(ref, c) for c in codes):
        return "a code has repeated points or a zero multiplier"
    if rho != bound:
        return f"plan access cost {rho}, bound is {bound}"
    return ""


def _read_rows(path: str) -> list[list[int]]:
    with open(path, encoding="utf-8") as fh:
        return [[int(t) for t in line.split()] for line in fh if line.strip()]


def _check_flow(flow: str, cfg: dict, messages, outputs: dict) -> str:
    """The CLI flow's codewords, final codewords, report and verify output."""
    problem = _check_stripe_files(flow, cfg, messages, outputs["convert"])
    if problem:
        return problem
    bound = _bound(cfg)[1]
    lines = outputs["verify"].splitlines()
    if not all(line.startswith("PASS ") for line in lines[:-1]) or lines[-1] != (
        f"access cost ρ = {bound} (bound: {bound})"
    ):
        return f"verify printed {lines}"
    return ""


def _check_stripe_files(flow: str, cfg: dict, messages, report_json: str) -> str:
    """Codewords, final codewords and access report an encode+convert left in `flow`."""
    with open(os.path.join(flow, "plan.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    ref = refmath.RefField(cfg["q"])
    reads, bound = _bound(cfg)
    merge = cfg["regime"] == "merge"
    codewords = _read_rows(os.path.join(flow, "codewords.txt"))
    initial = doc["initial_codes"] if merge else [doc["initial_code"]]
    if len(codewords) != len(messages):
        return f"{len(codewords)} codewords for {len(messages)} messages"
    for i, (code, msg, cw) in enumerate(zip(initial, messages, codewords), 1):
        rc = _RefCode(ref, code)
        problem = _encode_check(ref, rc.h, rc.g, msg, cw)
        if problem:
            return f"codeword {i}: {problem}"
    finals = _read_rows(os.path.join(flow, "final.txt"))
    final_codes = [doc["final_code"]] if merge else doc["final_codes"]
    # Unchanged symbols lead each final codeword, in layout order.
    layouts = [[p for per_code in doc["unchanged"] for p in per_code]] if merge else doc["unchanged"]
    if len(finals) != len(final_codes):
        return f"{len(finals)} final codewords for {len(final_codes)} final codes"
    for j, (code, layout, final) in enumerate(zip(final_codes, layouts, finals), 1):
        if not refmath.code_ok(ref, code):
            return f"final code {j} has repeated points or a zero multiplier"
        h = refmath.parity_check(ref, code["n"], code["r"], code["gamma"], code["w"])
        if not refmath.in_code(ref, h, final):
            return f"final codeword {j} fails the reference parity check"
        if any(final[slot] != codewords[i - 1][pos - 1] for slot, (i, pos) in enumerate(layout)):
            return f"final codeword {j} does not keep its unchanged symbols in layout order"
    report = json.loads(report_json)
    if report["rho"] != bound or report["bound"] != bound or report["optimal"] is not True:
        return f"convert report {report['rho']}/{report['bound']}, bound is {bound}"
    if merge and tuple(report["per_initial_reads"]) != reads:
        return f"convert report reads {report['per_initial_reads']}, bound gives {reads}"
    return ""


WORKLOADS = {cls.name: cls for cls in (MergeStream, SplitStream, PlanLadder)}
