"""Generalized convertible codes over extended GRS codes.

A conversion turns t1 initial codewords into t2 final codewords carrying
the same message.  Each final code keeps some initial symbols verbatim
(unchanged), reads some initial symbols, and computes the rest (written).
This module provides the access-cost lower bounds for the merge (t2 = 1)
and split (t1 = 1) regimes, builders for access-optimal merge and split
plans, plan execution, the structural optimality check for merge plans,
plan verification, and access accounting with a per-device trace.

Every plan kind runs through one executor, `run_conversion`.  The first
time a plan object runs, `lower` compiles it to a general plan: for each
final code, the initial symbols it reads, a matrix sigma with
written = reads . sigma, and the layout of its coordinates.  A merge or
split plan is lowered once `verify_plan` passes it, by one reduced
echelon form per final code of W . written = B . reads (`_parity_blocks`).
The lowered form is then compiled (`_Executable`) into one
`linalg.fold_step` per initial code, lines whose outputs are the code's
parity symbols and its share of every final code's written symbols.
Those lines and the access report are kept on the plan object, so every
later stripe is one pass: each input in turn is checked and adds its
share in one `linalg.fold_kernel` step.  Over a
byte field that step is one lookup per message symbol.  On codewords the
shares sum to the read symbols times sigma, so execution reads every
input symbol to check it, while the access report states the plan's
access cost.

Every code of a plan is an extended GRS code, and an extended GRS code
with n - 1 distinct evaluation points and nonzero column multipliers is
MDS (Roth, "Introduction to Coding Theory", ch. 5).  `ExtGrsSpec`
rejects any code that breaks either condition, so `verify_plan` reports
the MDS property of each code from that invariant, and the test suite
holds those lines to a brute-force check.

Code indices and codeword positions are 1-based, as in plan documents;
written blocks use code index t1 + j for final code j.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from itertools import chain

from . import linalg
from .errors import CorruptionError, InternalError, MdsconvError, ParameterError, UsageError
from .field import FieldSpec
from .grs import Codeword, ExtGrsSpec, generator, is_codeword, parity_check, puncture
from .linalg import FieldMatrix, _computed
from .record import Record

SymbolId = tuple[int, int]
# Position sets indexed [final j][initial i], as in `GeneralPlan`.
Grid = tuple[tuple[tuple[int, ...], ...], ...]


# -- parameters and bounds -------------------------------------------------


class ConvertParams(Record):
    """Shapes of a conversion: (n, k) per initial and per final code."""

    initial: tuple[tuple[int, int], ...]
    final: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "initial", tuple((int(n), int(k)) for n, k in self.initial))
        object.__setattr__(self, "final", tuple((int(n), int(k)) for n, k in self.final))
        if not self.initial or not self.final:
            raise UsageError("need at least one initial and one final code")
        for n, k in self.initial + self.final:
            if not 0 < k < n:
                raise UsageError(f"every code needs 0 < k < n, got (n, k) = ({n}, {k})")
        if sum(k for _, k in self.initial) != sum(k for _, k in self.final):
            raise UsageError(
                "total dimension mismatch: initial codes carry "
                f"{sum(k for _, k in self.initial)} message symbols, final codes "
                f"{sum(k for _, k in self.final)}"
            )

    @property
    def t1(self) -> int:
        return len(self.initial)

    @property
    def t2(self) -> int:
        return len(self.final)

    @property
    def n_initial(self) -> tuple[int, ...]:
        return tuple(n for n, _ in self.initial)

    @property
    def k_initial(self) -> tuple[int, ...]:
        return tuple(k for _, k in self.initial)

    @property
    def r_initial(self) -> tuple[int, ...]:
        return tuple(n - k for n, k in self.initial)

    @property
    def n_final(self) -> tuple[int, ...]:
        return tuple(n for n, _ in self.final)

    @property
    def k_final(self) -> tuple[int, ...]:
        return tuple(k for _, k in self.final)

    @property
    def r_final(self) -> tuple[int, ...]:
        return tuple(n - k for n, k in self.final)

    @property
    def total_dimension(self) -> int:
        return sum(self.k_initial)


def reduced_read_codes(params: ConvertParams) -> frozenset[int]:
    """Initial codes a merge can convert by reading only r_F symbols.

    Code i qualifies when r_F < k_I(i) and r_F <= r_I(i): reading r_F
    symbols beats the default approach and the code is long enough to
    keep its unchanged symbols disjoint from the read ones.
    """
    if params.t2 != 1:
        raise UsageError("reduced-read classification applies to merge parameters (t2 = 1)")
    rf = params.r_final[0]
    return frozenset(
        i
        for i in range(1, params.t1 + 1)
        if rf < params.k_initial[i - 1] and rf <= params.r_initial[i - 1]
    )


class MergeBound(Record):
    """Per-initial-code read minimums and the total access-cost bound."""

    per_code_reads: tuple[int, ...]
    rho: int


def merge_lower_bound(params: ConvertParams) -> MergeBound:
    """Access-cost lower bound for a merge (t2 = 1).

    Each initial code must be read at least r_F times when
    r_F <= min(k_I, r_I) and k_I times otherwise; the write cost adds r_F.
    """
    if params.t2 != 1:
        raise UsageError("merge bound applies to t2 = 1")
    rf = params.r_final[0]
    reads = tuple(
        rf if rf <= min(k, r) else k
        for k, r in zip(params.k_initial, params.r_initial)
    )
    return MergeBound(reads, rf + sum(reads))


class SplitBound(Record):
    """Read bound, total access-cost bound, and the feasible final indices."""

    rho_r: int
    rho: int
    feasible: tuple[int, ...]


def split_lower_bound(params: ConvertParams) -> SplitBound:
    """Access-cost lower bound for a split (t1 = 1).

    Final code j is feasible when r_F(j) <= min(k_F(j), r_I); the read
    bound is k_I minus the best feasible savings k_F(j) - r_F(j), floored
    at zero savings, and the write cost adds every r_F(j).
    """
    if params.t1 != 1:
        raise UsageError("split bound applies to t1 = 1")
    ri = params.r_initial[0]
    ki = params.k_initial[0]
    feasible = tuple(
        j
        for j in range(1, params.t2 + 1)
        if params.r_final[j - 1] <= min(params.k_final[j - 1], ri)
    )
    savings = max(
        [0] + [params.k_final[j - 1] - params.r_final[j - 1] for j in feasible]
    )
    rho_r = ki - savings
    return SplitBound(rho_r, rho_r + sum(params.r_final), feasible)


# -- plans -------------------------------------------------------------------
#
# Every plan kind exposes the same per-final view: `initial_specs`,
# `final_specs` and `grid`, the pair (unchanged, reads) of position sets
# indexed [final j][initial i].  Shape validation, access accounting and
# lowering read that view, so each has one body for all kinds; merge and
# split plans add `restricted_parity(j, i)`, the one place where their
# lowering differs: which cells read through a restricted parity check.


def _check_positions(label: str, positions: Sequence[int], n: int) -> None:
    if all(map(operator.lt, [0, *positions], [*positions, n + 1])):
        return
    if list(positions) != sorted(set(positions)):
        raise UsageError(f"{label}: positions must be strictly ascending")
    for p in positions:
        if not 1 <= p <= n:
            raise UsageError(f"{label}: position {p} out of range 1..{n}")


def _written_count(params: ConvertParams, j: int, unchanged_row: Sequence[Sequence[int]]) -> int:
    """Symbols final code j writes: its length minus the symbols it keeps."""
    return params.n_final[j - 1] - sum(len(u) for u in unchanged_row)


def _layout(params: ConvertParams, j: int, unchanged_row: Sequence[Sequence[int]]) -> tuple[SymbolId, ...]:
    """Final code j's coordinates: unchanged symbols in code order, then its written symbols."""
    kept = tuple((i, pos) for i, u in enumerate(unchanged_row, 1) for pos in u)
    written = range(1, _written_count(params, j, unchanged_row) + 1)
    return kept + tuple((params.t1 + j, idx) for idx in written)


def _check_grid(plan: Plan) -> None:
    """Shape checks shared by every plan kind: code shapes, one grid row per
    final code and one set per initial code, ascending in-range positions,
    unchanged sets disjoint across final codes, and no final code keeping
    more symbols than its length."""
    p = plan.params
    for kind, specs, shapes in (
        ("initial", plan.initial_specs, p.initial),
        ("final", plan.final_specs, p.final),
    ):
        if len(specs) != len(shapes):
            raise UsageError(f"{kind}_specs must have one entry per {kind} code")
        for idx, (spec, shape) in enumerate(zip(specs, shapes), 1):
            if spec is not None and ((spec.n, spec.k) != shape or spec.field != plan.field):
                raise UsageError(f"{kind} code {idx} does not match its declared shape")
    unchanged, reads = plan.grid
    if len(unchanged) != p.t2 or len(reads) != p.t2:
        raise UsageError("unchanged and read sets must have one entry per final code")
    kept: list[set[int]] = [set() for _ in range(p.t1)]
    n_initial = p.n_initial
    for j in range(1, p.t2 + 1):
        if len(unchanged[j - 1]) != p.t1 or len(reads[j - 1]) != p.t1:
            raise UsageError(f"final code {j} needs per-initial unchanged and read sets")
        for i, n_i in enumerate(n_initial, 1):
            u = unchanged[j - 1][i - 1]
            _check_positions(f"unchanged symbols of code {i} in final code {j}", u, n_i)
            _check_positions(f"read symbols of code {i} for final code {j}", reads[j - 1][i - 1], n_i)
            overlap = kept[i - 1] & set(u)
            if overlap:
                raise UsageError(
                    f"unchanged sets of code {i} must be disjoint across final codes; "
                    f"positions {sorted(overlap)} repeat"
                )
            kept[i - 1] |= set(u)
        if _written_count(p, j, unchanged[j - 1]) < 0:
            raise UsageError(f"final code {j} keeps more symbols than its length")


def _check_at_most_k(what: str, kept: Sequence[int], k: int) -> None:
    if len(kept) > k:
        raise UsageError(
            f"{what} keeps {len(kept)} unchanged symbols; an MDS conversion allows at most k = {k}"
        )


def _columns_at(hbar: FieldMatrix, support: Sequence[int], positions: Sequence[int]) -> FieldMatrix:
    """The columns of `hbar`, whose columns follow the ascending `support`, at `positions`."""
    slot = {pos: idx for idx, pos in enumerate(support)}
    pick = _picker([slot[pos] for pos in positions])
    entries = tuple(chain.from_iterable(map(pick, map(hbar.row, range(hbar.rows)))))
    return _computed(hbar.field, hbar.rows, len(positions), entries)


def _negated(m: FieldMatrix) -> FieldMatrix:
    return _computed(m.field, m.rows, m.cols, tuple(map(m.field.neg, m.entries)))


class MergePlan(Record):
    """An executable merge conversion (t2 = 1).

    `unchanged` and `reads` hold ascending positions per initial code; a
    code outside `reduced` reads exactly its unchanged symbols.
    `punctured_parity[i-1]` is set for i in `reduced`: the parity check of
    initial code i restricted to its unchanged + read positions, columns
    ordered by ascending position.  `final_unchanged_blocks[i-1]` is set
    for i outside `reduced`: the final parity-check columns of code i's
    unchanged block.  `final_written_block` holds the final parity-check
    columns of the written positions.  `verify_plan` checks the stored
    blocks; lowering reads the final code itself.
    """

    params: ConvertParams
    field: FieldSpec
    initial_specs: tuple[ExtGrsSpec, ...]
    final_spec: ExtGrsSpec
    reduced: frozenset[int]
    unchanged: tuple[tuple[int, ...], ...]
    reads: tuple[tuple[int, ...], ...]
    punctured_parity: tuple[FieldMatrix | None, ...]
    final_unchanged_blocks: tuple[FieldMatrix | None, ...]
    final_written_block: FieldMatrix

    def __post_init__(self):
        _check_grid(self)
        t1 = self.params.t1
        if len(self.punctured_parity) != t1 or len(self.final_unchanged_blocks) != t1:
            raise UsageError("restricted parity checks and final blocks need one entry per initial code")
        for i, k in enumerate(self.params.k_initial, 1):
            _check_at_most_k(f"code {i}", self.unchanged[i - 1], k)
            if (self.punctured_parity[i - 1] is None) == (i in self.reduced):
                raise UsageError(f"punctured parity must be present exactly for codes in S (code {i})")
            if (self.final_unchanged_blocks[i - 1] is None) == (i not in self.reduced):
                raise UsageError(f"final-code blocks must be present exactly for codes outside S (code {i})")
            if i not in self.reduced and self.reads[i - 1] != self.unchanged[i - 1]:
                raise UsageError(f"code {i} is outside S, so it must read exactly its unchanged symbols")

    @property
    def final_specs(self) -> tuple[ExtGrsSpec]:
        return (self.final_spec,)

    @property
    def grid(self) -> tuple[Grid, Grid]:
        return (self.unchanged,), (self.reads,)

    def support(self, i: int) -> tuple[int, ...]:
        """Ascending unchanged + read positions of initial code i."""
        return tuple(sorted(set(self.unchanged[i - 1]) | set(self.reads[i - 1])))

    def final_layout(self) -> tuple[SymbolId, ...]:
        """Final coordinates: unchanged blocks in code order, then written symbols."""
        return _layout(self.params, 1, self.unchanged)

    def restricted_parity(self, j: int, i: int) -> tuple[FieldMatrix, tuple[int, ...]] | None:
        """Code i's restricted parity check and its support when i is in S, else None."""
        return (self.punctured_parity[i - 1], self.support(i)) if i in self.reduced else None


class SplitPlan(Record):
    """An executable split conversion (t1 = 1).

    `unchanged[j-1]` holds the initial positions kept by final code j;
    the sets are pairwise disjoint.  When a final code can be produced
    with fewer than k_I reads, `privileged` names it, `extra_reads` holds
    the read positions outside every unchanged set (doc key "V"), and
    `punctured_parity` is the parity check of the initial code restricted
    to all unchanged positions plus `extra_reads`, columns ordered by
    ascending position.  Every other final code reads exactly its
    unchanged positions.
    """

    params: ConvertParams
    field: FieldSpec
    initial_spec: ExtGrsSpec
    final_specs: tuple[ExtGrsSpec, ...]
    unchanged: tuple[tuple[int, ...], ...]
    reads: tuple[tuple[int, ...], ...]
    privileged: int | None
    extra_reads: tuple[int, ...]
    punctured_parity: FieldMatrix | None

    def __post_init__(self):
        _check_grid(self)
        p = self.params
        if self.privileged is not None:
            if not 1 <= self.privileged <= p.t2:
                raise UsageError(f"privileged index {self.privileged} out of range 1..{p.t2}")
            if self.punctured_parity is None:
                raise UsageError("a privileged final code requires the restricted parity check")
        for j, k in enumerate(p.k_final, 1):
            _check_at_most_k(f"final code {j}", self.unchanged[j - 1], k)
            if j != self.privileged and self.reads[j - 1] != self.unchanged[j - 1]:
                raise UsageError(
                    f"final code {j} is not privileged, so it must read exactly its unchanged symbols"
                )
        _check_positions("extra_reads", self.extra_reads, p.n_initial[0])
        if set(self.extra_reads) & set().union(*self.unchanged):
            raise UsageError("extra read positions must avoid every unchanged set")

    @property
    def initial_specs(self) -> tuple[ExtGrsSpec]:
        return (self.initial_spec,)

    @property
    def grid(self) -> tuple[Grid, Grid]:
        return tuple((u,) for u in self.unchanged), tuple((r,) for r in self.reads)

    def support(self) -> tuple[int, ...]:
        """Ascending positions covered by the restricted parity check."""
        return tuple(sorted(set(self.extra_reads).union(*self.unchanged)))

    def restricted_parity(self, j: int, i: int) -> tuple[FieldMatrix, tuple[int, ...]] | None:
        """The restricted parity check and its support when final code j is privileged, else None."""
        return (self.punctured_parity, self.support()) if j == self.privileged else None


class GeneralPlan(Record):
    """A hand-specified conversion with explicit per-final linear maps.

    `unchanged[j-1][i-1]` and `reads[j-1][i-1]` hold positions of initial
    code i used by final code j.  `layouts[j-1]` orders final code j's
    coordinates as symbol ids: (i, pos) for an unchanged symbol, or
    (t1 + j, idx) for written symbol idx.  `sigmas[j-1]` maps the
    concatenated read symbols (codes in order, positions ascending) to
    the written symbols.
    """

    params: ConvertParams
    field: FieldSpec
    initial_specs: tuple[ExtGrsSpec, ...]
    final_specs: tuple[ExtGrsSpec | None, ...]
    unchanged: Grid
    reads: Grid
    layouts: tuple[tuple[SymbolId, ...], ...]
    sigmas: tuple[FieldMatrix, ...]

    def __post_init__(self):
        _check_grid(self)
        p = self.params
        if len(self.layouts) != p.t2 or len(self.sigmas) != p.t2:
            raise UsageError("layouts and sigmas must have one entry per final code")
        for j in range(1, p.t2 + 1):
            wj = _written_count(p, j, self.unchanged[j - 1])
            if sorted(self.layouts[j - 1]) != sorted(_layout(p, j, self.unchanged[j - 1])):
                raise UsageError(
                    f"layout of final code {j} must arrange its unchanged symbols and "
                    f"written symbols 1..{wj} exactly once each"
                )
            read_len = sum(len(rp) for rp in self.reads[j - 1])
            sigma = self.sigmas[j - 1]
            if (sigma.rows, sigma.cols) != (read_len, wj) or sigma.field != self.field:
                raise UsageError(
                    f"conversion matrix of final code {j} must be {read_len}x{wj} over the plan field"
                )

    @property
    def grid(self) -> tuple[Grid, Grid]:
        return self.unchanged, self.reads


Plan = MergePlan | SplitPlan | GeneralPlan


# -- access accounting -------------------------------------------------------


class AccessReport(Record):
    """Read/write accounting for one conversion plan.

    `bound` and `optimal` are None for plans outside the merge and split
    regimes, where no lower bound is available.  `trace` classifies every
    initial position as unchanged/read/retired and lists written symbols.
    """

    per_initial_reads: tuple[int, ...]
    rho_r: int
    rho_w: int
    rho: int
    bound: int | None
    optimal: bool | None
    stable: bool
    trace: tuple[tuple[int, int, str], ...]


def access_report(plan: Plan) -> AccessReport:
    """Exact access accounting: distinct reads per initial code, writes per final."""
    p = plan.params
    unchanged, reads = plan.grid
    kept = [set().union(*(row[i] for row in unchanged)) for i in range(p.t1)]
    read = [set().union(*(row[i] for row in reads)) for i in range(p.t1)]
    written = [_written_count(p, j, row) for j, row in enumerate(unchanged, 1)]
    per_initial = tuple(map(len, read))
    rho_r = sum(per_initial)
    rho_w = sum(written)
    rho = rho_r + rho_w
    bound: int | None
    optimal: bool | None
    if p.t2 == 1:
        mb = merge_lower_bound(p)
        bound = mb.rho
        optimal = rho == bound and per_initial == mb.per_code_reads
    elif p.t1 == 1:
        sb = split_lower_bound(p)
        bound = sb.rho
        optimal = rho == bound and rho_r == sb.rho_r
    else:
        bound = None
        optimal = None
    # Unchanged sets are disjoint across final codes (`_check_grid`).
    stable = sum(map(len, kept)) == p.total_dimension
    trace: list[tuple[int, int, str]] = []
    for i in range(1, p.t1 + 1):
        for pos in range(1, p.n_initial[i - 1] + 1):
            if pos in kept[i - 1]:
                status = "unchanged"
            elif pos in read[i - 1]:
                status = "read"
            else:
                status = "retired"
            trace.append((i, pos, status))
    for j in range(1, p.t2 + 1):
        for idx in range(1, written[j - 1] + 1):
            trace.append((p.t1 + j, idx, "written"))
    return AccessReport(per_initial, rho_r, rho_w, rho, bound, optimal, stable, tuple(trace))


def plan_report(plan: Plan) -> AccessReport:
    """The plan's `access_report`, computed once and kept on the plan,
    which never changes; execution and `verify` share it."""
    report = getattr(plan, "_report", None)
    if report is None:
        report = access_report(plan)
        object.__setattr__(plan, "_report", report)
    return report


# -- merge construction -------------------------------------------------------


def merge_params(initial: Sequence[tuple[int, int]], r_final: int) -> ConvertParams:
    """Merge parameters with the final shape implied by the initial dimensions."""
    if r_final < 1:
        raise UsageError(f"final redundancy must be >= 1, got {r_final}")
    k_total = sum(k for _, k in initial)
    return ConvertParams(tuple(initial), ((k_total + r_final, k_total),))


def required_field_order(params: ConvertParams) -> int:
    """Smallest field order the plan builders accept for these parameters."""
    return max(max(params.n_initial), max(params.n_final)) - 1


def build_merge(params: ConvertParams, field: FieldSpec) -> MergePlan:
    """An access-optimal merge plan over `field`.

    Evaluation points are drawn from one global pool, the field elements
    in ascending encoding, so that the points of all unchanged
    coordinates plus the fresh written coordinates stay pairwise
    distinct; each initial code's remaining coordinates are filled with
    the smallest further points distinct within that code.  The pool is
    sliced and scanned lazily, so the draw costs O(n) whatever q is.
    Unchanged positions are the leading k_I of each code; reduced-read
    codes read their trailing r_F positions (which include the extension
    position), and their restricted parity checks come from the closed
    form in `grs.puncture`; other codes re-read their unchanged symbols.
    """
    if params.t2 != 1:
        raise UsageError("merge construction requires exactly one final code")
    need = required_field_order(params)
    if field.q < need:
        raise ParameterError(
            f"field of order {field.q} is too small for these parameters: need q >= {need}"
        )
    rf = params.r_final[0]
    nf = params.n_final[0]
    pool = field.elements()
    gammas: list[tuple[int, ...]] = []
    cursor = 0
    for n, k in params.initial:
        head = list(pool[cursor : cursor + k])
        cursor += k
        used = set(head)
        fill: list[int] = []
        for x in pool:
            if len(head) + len(fill) == n - 1:
                break
            if x not in used:
                fill.append(x)
                used.add(x)
        gammas.append(tuple(head + fill))
    gamma_prime = tuple(pool[cursor : cursor + rf - 1])
    initial_specs = tuple(
        ExtGrsSpec(field, n, n - k, gammas[idx], (1,) * n)
        for idx, (n, k) in enumerate(params.initial)
    )
    reduced = reduced_read_codes(params)
    unchanged = tuple(tuple(range(1, k + 1)) for _, k in params.initial)
    reads = tuple(
        tuple(range(n - rf + 1, n + 1)) if i in reduced else tuple(range(1, k + 1))
        for i, (n, k) in enumerate(params.initial, 1)
    )
    punctured: list[FieldMatrix | None] = []
    w_star: list[int] = []
    gamma_star: list[int] = []
    for i, spec in enumerate(initial_specs, 1):
        u = unchanged[i - 1]
        gamma_star.extend(spec.gamma[pos - 1] for pos in u)
        if i in reduced:
            support = sorted(set(u) | set(reads[i - 1]))
            psec = puncture(spec, support)
            punctured.append(parity_check(psec))
            slot = {pos: idx for idx, pos in enumerate(support)}
            w_star.extend(psec.w[slot[pos]] for pos in u)
        else:
            punctured.append(None)
            w_star.extend(spec.w[pos - 1] for pos in u)
    gamma_star.extend(gamma_prime)
    w_star.extend([1] * rf)
    final_spec = ExtGrsSpec(field, nf, rf, tuple(gamma_star), tuple(w_star))
    stored = {i: _computed(field, rf, width, _final_block(final_spec, unchanged, i))
              for i, width in enumerate([*params.k_initial, rf], 1) if i not in reduced}
    return MergePlan(
        params=params,
        field=field,
        initial_specs=initial_specs,
        final_spec=final_spec,
        reduced=reduced,
        unchanged=unchanged,
        reads=reads,
        punctured_parity=tuple(punctured),
        final_unchanged_blocks=tuple(map(stored.get, range(1, params.t1 + 1))),
        final_written_block=stored[params.t1 + 1],
    )


# -- merge optimality structure ----------------------------------------------


class StructureCheck(Record):
    ok: bool
    diagnostic: str = ""

    def __bool__(self) -> bool:
        return self.ok


def verify_optimal_structure(plan: MergePlan) -> StructureCheck:
    """Check the structural characterization of access-optimal merges.

    Conditions: the plan's S is the one its parameters give; every code
    keeps exactly k_I unchanged symbols; reduced codes read exactly r_F
    symbols disjoint from their unchanged set; every block of the
    certificate is sound (`_merge_block_fault`).  (Codes outside S read
    exactly their unchanged symbols; `MergePlan` enforces that.)  Codes
    are checked in order, then the written block; the diagnostic names
    the first violated condition.
    """
    p = plan.params
    expected = reduced_read_codes(p)
    if plan.reduced != expected:
        return StructureCheck(
            False,
            f"classification: plan S = {sorted(plan.reduced)} but parameters give {sorted(expected)}",
        )
    rf = p.r_final[0]
    for i in range(1, p.t1 + 1):
        k = p.k_initial[i - 1]
        unchanged = plan.unchanged[i - 1]
        if len(unchanged) != k:
            return StructureCheck(
                False,
                f"unchanged-cardinality: code {i} keeps {len(unchanged)} symbols, need {k}",
            )
        if i in plan.reduced:
            if len(plan.reads[i - 1]) != rf:
                return StructureCheck(
                    False,
                    f"read-cardinality: code {i} reads {len(plan.reads[i - 1])} symbols, need r_F = {rf}",
                )
            if set(plan.reads[i - 1]) & set(unchanged):
                return StructureCheck(False, f"overlap: code {i} reads symbols it also keeps unchanged")
        fault = _merge_block_fault(plan, i)
        if fault:
            return StructureCheck(False, fault)
    fault = _merge_block_fault(plan, p.t1 + 1)
    return StructureCheck(not fault, fault)


def _final_block(final_spec: ExtGrsSpec, unchanged: Sequence[Sequence[int]], i: int) -> tuple[int, ...]:
    """Row-major entries of the final parity check's columns for initial code
    i's unchanged symbols in a final layout whose unchanged sets are
    `unchanged` (i = t1 + 1: the written symbols)."""
    start = sum(map(len, unchanged[: i - 1]))
    stop = start + len(unchanged[i - 1]) if i <= len(unchanged) else final_spec.n
    h = parity_check(final_spec)
    rows = range(0, len(h.entries), h.cols)
    return tuple(chain.from_iterable(h.entries[r + start : r + stop] for r in rows))


def _merge_block_fault(plan: MergePlan, i: int) -> str:
    """Why block i of a merge's certificate (t1 + 1: the written block) is
    unsound, or "".  A code in S needs a restricted parity check that
    matches the final parity check on its unchanged columns and is a parity
    check of its restriction; every other block must be the final parity
    check's columns.  `lower` refuses any plan that `verify_plan` fails, so a
    fault here also stops `convert`; execution solves from the final code
    and the restricted parity checks, so the stored blocks are only checked."""
    final = _final_block(plan.final_spec, plan.unchanged, i)
    if i in plan.reduced:
        rf = plan.final_spec.r
        support = plan.support(i)
        hbar = plan.punctured_parity[i - 1]
        # Unchanged columns first, so a fault there is named block-mismatch.
        shaped = (hbar.rows, hbar.cols) == (rf, len(support))
        if shaped and _columns_at(hbar, support, plan.unchanged[i - 1]).entries != final:
            return (f"block-mismatch: code {i} unchanged columns of the restricted parity "
                    "check differ from the final parity check")
        fault = _restricted_parity_fault(plan.initial_specs[i - 1], support, hbar, rf)
        return fault and f"punctured-parity: code {i}: {fault}"
    written = i > plan.params.t1
    stored = plan.final_written_block if written else plan.final_unchanged_blocks[i - 1]
    what = "stored written block" if written else f"code {i} stored block"
    if (stored.field, stored.rows, stored.entries) != (plan.field, plan.final_spec.r, final):
        return f"final-block: {what} differs from the final parity check"
    return ""


def _restricted_parity_fault(
    spec: ExtGrsSpec, support: Sequence[int], hbar: FieldMatrix, r: int
) -> str:
    """Why `hbar` is not an r-row parity check of `spec` restricted to
    `support` (ascending, columns in that order), or "" when it is one.

    `hbar` must be the closed-form parity check of the restriction, or have
    the same reduced echelon form: the same row space, of full rank r.
    """
    try:
        reference = parity_check(puncture(spec, support))
    except UsageError as exc:
        return str(exc)
    if (hbar.rows, hbar.cols) != (r, len(support)):
        return "stored matrix has the wrong shape"
    if hbar != reference and linalg.rref(hbar)[0] != linalg.rref(reference)[0]:
        return "stored matrix is not a parity check of the restriction"
    return ""


# -- split construction --------------------------------------------------------


def build_split(params: ConvertParams, field: FieldSpec) -> SplitPlan:
    """An access-optimal split plan over `field`.

    Unchanged sets partition the leading k_I positions in final-code
    order.  Among final codes with r_F <= min(k_F, r_I), the one with the
    largest k_F - r_F (smallest index on ties) is produced from the
    initial code's restricted parity check, reading the other finals'
    unchanged symbols plus r_F trailing positions; every other final code
    is a fresh code re-encoded from its unchanged symbols.

    Every code takes the leading field elements (ascending encoding) as
    its evaluation points, sliced lazily so the draw costs O(n) whatever
    q is; the privileged final inherits its points and closed-form
    multipliers from `grs.puncture` of the initial code, in its layout
    order: its unchanged positions, then V.
    """
    if params.t1 != 1:
        raise UsageError("split construction requires exactly one initial code")
    need = required_field_order(params)
    if field.q < need:
        raise ParameterError(
            f"field of order {field.q} is too small for these parameters: need q >= {need}"
        )
    n_i, k_i = params.initial[0]
    pool = field.elements()
    initial_spec = ExtGrsSpec(field, n_i, n_i - k_i, tuple(pool[: n_i - 1]), (1,) * n_i)
    unchanged: list[tuple[int, ...]] = []
    offset = 0
    for _, kf in params.final:
        unchanged.append(tuple(range(offset + 1, offset + kf + 1)))
        offset += kf
    bound = split_lower_bound(params)
    privileged: int | None = None
    if bound.feasible:
        best = max(params.k_final[j - 1] - params.r_final[j - 1] for j in bound.feasible)
        privileged = min(j for j in bound.feasible if params.k_final[j - 1] - params.r_final[j - 1] == best)
    extra: tuple[int, ...] = ()
    hbar: FieldMatrix | None = None
    final_specs: list[ExtGrsSpec] = []
    theta: tuple[int, ...] = ()
    support: tuple[int, ...] = ()
    if privileged is not None:
        rf = params.r_final[privileged - 1]
        extra = tuple(range(n_i - rf + 1, n_i + 1))
        support = tuple(sorted(set(range(1, k_i + 1)) | set(extra)))
        psec = puncture(initial_spec, support)
        hbar = parity_check(psec)
        theta = psec.w
    slot = {pos: idx for idx, pos in enumerate(support)}
    for j, (nf, kf) in enumerate(params.final, 1):
        if j == privileged:
            positions = unchanged[j - 1] + extra
            gamma = tuple(initial_spec.gamma[pos - 1] for pos in positions if pos != n_i)
            w = tuple(theta[slot[pos]] for pos in positions)
            final_specs.append(ExtGrsSpec(field, nf, nf - kf, gamma, w))
        else:
            final_specs.append(ExtGrsSpec(field, nf, nf - kf, tuple(pool[: nf - 1]), (1,) * nf))
    # The privileged final reads the other finals' unchanged symbols and V.
    reads = [
        tuple(sorted(set(support) - set(u))) if j == privileged else u
        for j, u in enumerate(unchanged, 1)
    ]
    return SplitPlan(
        params=params,
        field=field,
        initial_spec=initial_spec,
        final_specs=tuple(final_specs),
        unchanged=tuple(unchanged),
        reads=tuple(reads),
        privileged=privileged,
        extra_reads=extra,
        punctured_parity=hbar,
    )


# -- execution ---------------------------------------------------------------------


def _parity_blocks(plan: MergePlan | SplitPlan, j: int) -> tuple[FieldMatrix, list[FieldMatrix]]:
    """W and read blocks B with W . written = B . reads for final code j.

    W is final code j's parity check on its written coordinates.  Initial
    code i gives the read columns of `restricted_parity(j, i)`, which agrees
    with the final parity check on the symbols i keeps, or else minus the
    final parity check on those symbols, which are then the ones it reads.
    """
    spec = plan.final_specs[j - 1]
    kept, reads = (row[j - 1] for row in plan.grid)

    def final(i: int) -> FieldMatrix:
        entries = _final_block(spec, kept, i)
        return _computed(spec.field, spec.r, len(entries) // spec.r, entries)

    blocks = []
    for i, read in enumerate(reads, 1):
        hbar = plan.restricted_parity(j, i)
        blocks.append(_negated(final(i)) if hbar is None else _columns_at(*hbar, read))
    return final(plan.params.t1 + 1), blocks


def _solve_block(square: FieldMatrix, blocks: Sequence[FieldMatrix]) -> FieldMatrix:
    """(square^-1 . [blocks])^T from one rref of [square | blocks]."""
    n = square.cols
    width = sum(block.cols for block in blocks)
    rows = (m.row(i) for i in range(n) for m in (square, *blocks))
    red, pivots = linalg.rref(_computed(square.field, n, n + width, tuple(chain.from_iterable(rows))))
    # `lower` solves only verified plans: r_F columns of an MDS parity check.
    if pivots[:n] != tuple(range(n)):
        raise InternalError("the written block of a verified plan is singular")
    solved = [red.row(i)[n:] for i in range(n)]
    return _computed(square.field, width, n, tuple(chain.from_iterable(zip(*solved))))


def lower(plan: Plan) -> GeneralPlan:
    """The plan in general form: per final code, read sets, a layout, and
    sigma with written symbols = read symbols . sigma.  A merge or split
    plan runs exactly when `verify_plan` passes it, so the first FAIL line
    refuses the plan before any solve; then each final code's sigma is
    solved once from `_parity_blocks`.
    """
    if isinstance(plan, GeneralPlan):
        return plan
    for name, ok, detail in verify_plan(plan):
        if not ok:
            raise UsageError(f"{name}: {detail}; plan is not executable")
    p = plan.params
    unchanged, reads = plan.grid
    sigmas = tuple(_solve_block(*_parity_blocks(plan, j)) for j in range(1, p.t2 + 1))
    return GeneralPlan(
        params=p,
        field=plan.field,
        initial_specs=plan.initial_specs,
        final_specs=plan.final_specs,
        unchanged=unchanged,
        reads=reads,
        layouts=tuple(_layout(p, j, row) for j, row in enumerate(unchanged, 1)),
        sigmas=sigmas,
    )


def _picker(indices: Sequence[int]) -> operator.itemgetter:
    """An itemgetter for `indices` that returns a sequence even for one or no index.

    With two or more indices the result is a tuple.  Itemgetters, unlike
    lambdas, keep a plan that has run picklable.
    """
    if len(indices) > 1:
        return operator.itemgetter(*indices)
    start = indices[0] if indices else 0
    return operator.itemgetter(slice(start, start + len(indices)))


class _Executable:
    """A plan compiled for `run_conversion` from its lowered form g.

    `inputs` holds, per initial code i, its length n_i and the
    `linalg.fold_step` of its generator G_i = [A_i | I_k] and of S_i
    (`_shares`), the step that `fold` (of `linalg.fold_kernel`) runs to
    check input i against its parity symbols, message . A_i, and add its
    share of every final code's written symbols, c_i . S_i.  S_i holds
    input i's rows of the lowered sigmas at its read positions, the finals'
    columns side by side, so the shares sum to reads . sigma, the written
    symbols.  Over byte fields and GF(p) the step computes a share as
    message . C_i with C_i = G_i . S_i, equal on codewords, so it runs over
    the message symbols alone.  `spill` unpacks the sum; `width` counts its
    symbols.
    `finals` holds, per final code, its spec and a picker that lays out its
    coordinates from the concatenated inputs followed by all written
    symbols.  `report` is the plan's access report.
    """

    def __init__(self, plan: Plan, g: GeneralPlan):
        p = g.params
        self.fold, self.spill = linalg.fold_kernel(g.field)
        widths = [sigma.cols for sigma in g.sigmas]
        self.width = sum(widths)
        self.inputs = tuple(
            (spec.n, linalg.fold_step(generator(spec), spec.r, _shares(g, i, spec.n)))
            for i, spec in enumerate(g.initial_specs)
        )
        offsets = [0]
        for n in p.n_initial + tuple(widths):
            offsets.append(offsets[-1] + n)

        def index(code: int, pos: int) -> int:
            return offsets[code - 1] + pos - 1

        self.finals = tuple(
            (spec, _picker([index(code, pos) for code, pos in layout]))
            for spec, layout in zip(g.final_specs, g.layouts)
        )
        self.report = plan_report(plan)


def _shares(g: GeneralPlan, i: int, n: int) -> FieldMatrix:
    """S_i of `_Executable` for the initial code i (0-based, length n) of a
    lowered plan: per final code a block of columns that holds, at each
    position i reads for it, that read's row of sigma, and zeros elsewhere."""
    width = sum(sigma.cols for sigma in g.sigmas)
    rows = [[0] * width for _ in range(n)]
    at = 0
    for reads, sigma in zip(g.reads, g.sigmas):
        for s, pos in enumerate(reads[i], sum(map(len, reads[:i]))):
            rows[pos - 1][at : at + sigma.cols] = sigma.row(s)
        at += sigma.cols
    return _computed(g.field, n, width, tuple(chain.from_iterable(rows)))


def _check_count(codewords: Sequence, t1: int) -> None:
    if len(codewords) != t1:
        raise UsageError(f"expected {t1} input codewords, got {len(codewords)}")


def _compile(plan: Plan, codewords: Sequence[Sequence[int] | Codeword]) -> _Executable:
    """The plan's `_Executable`, kept on it.  When `lower` refuses the
    plan, the stripe's inputs are still checked first, in order, so a
    corrupt or non-canonical input is named before the plan is refused, as
    on a compiled plan."""
    try:
        g = lower(plan)
    except MdsconvError:
        _check_count(codewords, plan.params.t1)
        for i, (spec, cw) in enumerate(zip(plan.initial_specs, codewords), 1):
            if not is_codeword(spec, cw.symbols if isinstance(cw, Codeword) else tuple(cw)):
                raise CorruptionError(f"input {i} is not a codeword of initial code {i}") from None
        raise
    exe = _Executable(plan, g)
    object.__setattr__(plan, "_executable", exe)
    return exe


def run_conversion(
    plan: Plan, codewords: Sequence[Sequence[int] | Codeword]
) -> tuple[tuple[Codeword, ...], AccessReport]:
    """Execute any plan; always returns a tuple of final codewords.

    Every input must be a codeword of its initial code.  The inputs are
    checked in order, each before the next: a wrong length or a nonzero
    syndrome raises CorruptionError, a non-canonical symbol UsageError.
    Execution reads every input symbol to check it, and forms the written
    symbols from the message symbols (over GF(2^m) with m > 8, from the
    read symbols), which on codewords equal the read symbols times sigma;
    the `AccessReport` is the plan's access cost, not a count of what
    execution touched.  The first time a plan runs it is lowered and
    compiled (`_Executable`) and kept on the plan, so a later stripe is one
    `linalg.fold_kernel` step per input, over byte fields one lookup per
    message symbol, with no solve and no matrix or cache lookup.
    """
    exe = getattr(plan, "_executable", None) or _compile(plan, codewords)
    _check_count(codewords, len(exe.inputs))
    fold = exe.fold
    acc = 0
    flat: list[int] = []
    for i, ((n, step), cw) in enumerate(zip(exe.inputs, codewords), 1):
        symbols = cw.symbols if isinstance(cw, Codeword) else tuple(cw)
        if len(symbols) != n or (acc := fold(step, symbols, acc)) is None:
            raise CorruptionError(f"input {i} is not a codeword of initial code {i}")
        flat += symbols
    flat += exe.spill(acc, exe.width)
    outputs = []
    for spec, pick in exe.finals:
        outputs.append(Codeword(pick(flat), spec))
    return tuple(outputs), exe.report


def merge_convert(
    plan: MergePlan, codewords: Sequence[Sequence[int] | Codeword]
) -> tuple[Codeword, AccessReport]:
    """Execute a merge: the single final codeword and the access report."""
    (final,), report = run_conversion(plan, codewords)
    return final, report


def split_convert(
    plan: SplitPlan, codeword: Sequence[int] | Codeword
) -> tuple[tuple[Codeword, ...], AccessReport]:
    """Execute a split of one initial codeword."""
    return run_conversion(plan, (codeword,))


def general_convert(
    plan: GeneralPlan, codewords: Sequence[Sequence[int] | Codeword]
) -> tuple[tuple[Codeword, ...], AccessReport]:
    """Execute a hand-specified plan: written symbols are read symbols times sigma."""
    return run_conversion(plan, codewords)


# -- plan verification ----------------------------------------------------------


def verify_plan(plan: Plan) -> list[tuple[str, bool, str]]:
    """Checks behind the CLI verify command: (name, passed, detail) triples.

    One MDS line per initial code and per declared final code, each a
    pass by theorem: an extended GRS code with n - 1 distinct points and
    nonzero multipliers is MDS, and `ExtGrsSpec` admits no other code.
    Then merge plans run the structural optimality check and split plans
    their construction checks, and both get the access-bound line.
    General plans get a plan-structure line and no bound.  `lower`
    refuses a merge or split plan with any FAIL line, so this list is also
    what `convert` accepts.
    """
    p = plan.params
    if isinstance(plan, SplitPlan):
        codes = ["initial code"]
    else:
        codes = [f"initial code {i}" for i in range(1, p.t1 + 1)]
    if isinstance(plan, MergePlan):
        codes.append("final code")
    else:
        codes += [f"final code {j}" for j, spec in enumerate(plan.final_specs, 1) if spec is not None]
    results = [(f"{code} MDS", True, "") for code in codes]
    if isinstance(plan, MergePlan):
        check = verify_optimal_structure(plan)
        results.append(("optimal structure", check.ok, check.diagnostic))
    elif isinstance(plan, SplitPlan):
        for j, kf in enumerate(p.k_final, 1):
            kept = len(plan.unchanged[j - 1])
            results.append(
                (f"final code {j} keeps k_F unchanged symbols", kept == kf,
                 "" if kept == kf else f"keeps {kept}, need {kf}")
            )
        if plan.privileged is not None:
            fault = _privileged_fault(plan)
            results.append(("privileged restricted parity", not fault, fault))
    else:
        results.append(("plan structure", True, "layouts and conversion matrices consistent"))
        return results
    report = plan_report(plan)
    results.append(
        ("access cost meets bound", bool(report.optimal), f"rho = {report.rho}, bound = {report.bound}")
    )
    return results


def _privileged_fault(plan: SplitPlan) -> str:
    """Why the privileged final code is not produced by the restricted parity check, or ""."""
    j = plan.privileged
    rf = plan.params.r_final[j - 1]
    if len(plan.extra_reads) != rf:
        return f"extra read set has {len(plan.extra_reads)} positions, need r_F = {rf}"
    support = plan.support()
    hbar = plan.punctured_parity
    fault = _restricted_parity_fault(plan.initial_spec, support, hbar, rf)
    if fault:
        return fault
    # Layout order: its unchanged symbols, then the written ones, which are V.
    own = plan.unchanged[j - 1] + plan.extra_reads
    if _columns_at(hbar, support, own).entries != parity_check(plan.final_specs[j - 1]).entries:
        return "privileged final code does not match the restricted parity block"
    if set(plan.reads[j - 1]) != set(support) - set(plan.unchanged[j - 1]):
        return "privileged final code must read the other finals' unchanged symbols and V"
    return ""
