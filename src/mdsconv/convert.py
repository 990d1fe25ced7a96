"""Generalized convertible codes over extended GRS codes.

A conversion turns t1 initial codewords into t2 final codewords carrying
the same message.  Each final code keeps some initial symbols verbatim
(unchanged), reads some initial symbols, and computes the rest (written).
This module provides the access-cost lower bounds for the merge (t2 = 1)
and split (t1 = 1) regimes, builders for access-optimal merge and split
plans, plan execution, the structural optimality check for merge plans,
plan verification, and access accounting with a per-device trace.

A merge or split plan stores no certificate.  The codes and the read
grid determine each restricted parity check it reads through
(`restricted_parity`), and so every block of its certificate
(`certificate`); `verify_plan` judges the plan alone.  Each check and
each block of the final parity check is derived once per plan object and
kept on it (`record.kept`), so loading, verifying, lowering and saving a
plan share one derivation.

Every plan kind runs through one executor, `run_conversion`.  The first
time a plan object runs, `lower` compiles it to a general plan: for each
final code, the initial symbols it reads, a matrix sigma with
written = reads . sigma, and the layout of its coordinates (`_sigma`,
once `verify_plan` passes the plan).  `_executable` then compiles that
into one `linalg.fold_step` step per initial code and binds them, with
the final layouts and the access report, to the stripe loop of the plan
field's form, kept on the plan object as `_executable`.  So every later
stripe is one call of that loop, which checks, folds and spills every
input and builds every final codeword in one frame, over GF(2^m) one
lookup pass over the bytes of each whole codeword (`run_conversion`).

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
import struct
from bisect import bisect_left
from collections.abc import Iterable, Iterator, Sequence
from functools import partial, reduce
from itertools import accumulate, chain, islice, repeat
from operator import getitem, mul, xor

from . import linalg
from .errors import CorruptionError, InternalError, MdsconvError, ParameterError, UsageError
from .field import FieldSpec
from .grs import Codeword, ExtGrsSpec, is_codeword, parity_check, parity_part, puncture
from .linalg import FieldMatrix
from .record import Record, freeze, kept

SymbolId = tuple[int, int]
# Position sets indexed [final j][initial i], as in `GeneralPlan`.
Grid = tuple[tuple[tuple[int, ...], ...], ...]


# -- parameters and bounds -------------------------------------------------


def _int_shapes(shapes, label: str) -> tuple[tuple[int, int], ...]:
    """`shapes` as a tuple of (n, k) pairs; UsageError unless each entry is
    an int (not a bool, float or other int subclass)."""
    try:
        pairs = tuple((n, k) for n, k in shapes)
    except (TypeError, ValueError):
        raise UsageError(f"{label} shapes must be (n, k) pairs, got {shapes!r}") from None
    for pair in pairs:
        if type(pair[0]) is not int or type(pair[1]) is not int:
            raise UsageError(f"{label} shape {pair!r} must hold two integers")
    return pairs


class ConvertParams(Record):
    """Shapes of a conversion: (n, k) per initial and per final code."""

    initial: tuple[tuple[int, int], ...]
    final: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "initial", _int_shapes(self.initial, "initial"))
        object.__setattr__(self, "final", _int_shapes(self.final, "final"))
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
    return frozenset(i for i, (n, k) in enumerate(params.initial, 1) if rf < k and rf <= n - k)


class MergeBound(Record):
    """Per-initial-code read minimums and the total access-cost bound."""

    per_code_reads: tuple[int, ...]
    rho: int

    def __post_init__(self):
        freeze(self, per_code_reads=1)


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

    def __post_init__(self):
        freeze(self, feasible=1)


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
    if {int}.issuperset(map(type, positions)) and all(map(operator.lt, [0, *positions], [*positions, n + 1])):
        return
    for p in positions:
        if type(p) is not int or not 1 <= p <= n:
            raise UsageError(f"{label}: position {p!r} out of range; need an integer in 1..{n}")
    raise UsageError(f"{label}: positions must be strictly ascending")


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


def _columns(m: FieldMatrix, cols: Iterable[int]) -> list[tuple[int, ...]]:
    """Columns `cols` (0-based, in that order) of m, each a tuple: one
    strided slice of its entries, with no matrix built."""
    entries, step = m.entries, m.cols
    return [entries[c::step] for c in cols]


def _all_columns(m: FieldMatrix) -> list[tuple[int, ...]]:
    return _columns(m, range(m.cols))


def _slots(support: Sequence[int], positions: Iterable[int]) -> Iterator[int]:
    """The indices in the ascending `support` of `positions`, each in it:
    the columns of a restricted parity check, which follow its support."""
    return map(bisect_left, repeat(support), positions)


def _matrix(field: FieldSpec, rows: int, columns: Sequence[Sequence[int]]) -> FieldMatrix:
    """The rows x len(columns) matrix with these columns."""
    return FieldMatrix._trusted(field, rows, len(columns), tuple(chain.from_iterable(zip(*columns))))


class MergePlan(Record):
    """An executable merge conversion (t2 = 1).

    `unchanged` and `reads` hold ascending positions per initial code; a
    code outside `reduced` reads exactly its unchanged symbols, and a code
    in it through a restricted parity check derived from the codes and the
    grid (`restricted_parity`); the plan stores no certificate.
    """

    params: ConvertParams
    field: FieldSpec
    initial_specs: tuple[ExtGrsSpec, ...]
    final_spec: ExtGrsSpec
    reduced: frozenset[int]
    unchanged: tuple[tuple[int, ...], ...]
    reads: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        freeze(self, initial_specs=1, unchanged=2, reads=2)
        if isinstance(self.reduced, (set, list, tuple)):
            object.__setattr__(self, "reduced", frozenset(self.reduced))
        _check_grid(self)
        if not {int}.issuperset(map(type, self.reduced)):
            raise UsageError(f"S must hold integer code indices, got {set(self.reduced)}")
        for i, k in enumerate(self.params.k_initial, 1):
            _check_at_most_k(f"code {i}", self.unchanged[i - 1], k)
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
        """Code i's restricted parity check and its support when i is in S,
        else None; derived on the first call and kept on the plan."""
        if i not in self.reduced:
            return None
        return kept(self, f"_restricted_{j}_{i}", self._derive_restricted, i)

    def _derive_restricted(self, i: int) -> tuple[FieldMatrix, tuple[int, ...]]:
        support, spec = self.support(i), self.initial_specs[i - 1]
        return _restricted_parity(spec, support, self.unchanged[i - 1], _final_blocks(self)[i - 1]), support


class SplitPlan(Record):
    """An executable split conversion (t1 = 1).

    `unchanged[j-1]` holds the initial positions kept by final code j;
    the sets are pairwise disjoint.  When a final code can be produced
    with fewer than k_I reads, `privileged` names it, `extra_reads` holds
    the read positions outside every unchanged set (doc key "V"), and it
    reads through the restricted parity check of the initial code on every
    unchanged position and V (`restricted_parity`); the plan stores no
    certificate.  Every other final code reads exactly its unchanged
    positions.
    """

    params: ConvertParams
    field: FieldSpec
    initial_spec: ExtGrsSpec
    final_specs: tuple[ExtGrsSpec, ...]
    unchanged: tuple[tuple[int, ...], ...]
    reads: tuple[tuple[int, ...], ...]
    privileged: int | None
    extra_reads: tuple[int, ...]

    def __post_init__(self):
        freeze(self, final_specs=1, unchanged=2, reads=2, extra_reads=1)
        _check_grid(self)
        p = self.params
        privileged = self.privileged
        if privileged is not None and (type(privileged) is not int or not 1 <= privileged <= p.t2):
            raise UsageError(f"privileged index {privileged!r} out of range; need an integer in 1..{p.t2}")
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
        """The restricted parity check, matched to final j's coordinates in
        layout order (its unchanged symbols, then V), and its support when
        final j is privileged, else None; derived on the first call and
        kept on the plan."""
        if j != self.privileged:
            return None
        return kept(self, f"_restricted_{j}_{i}", self._derive_restricted, j)

    def _derive_restricted(self, j: int) -> tuple[FieldMatrix, tuple[int, ...]]:
        support, own = self.support(), self.unchanged[j - 1] + self.extra_reads
        h = parity_check(self.final_specs[j - 1])
        return _restricted_parity(self.initial_spec, support, own, h), support


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
        freeze(self, initial_specs=1, final_specs=1, unchanged=3, reads=3, layouts=3, sigmas=1)
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

    def __post_init__(self):
        freeze(self, per_initial_reads=1, trace=2)


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
    trace = [
        (i, pos, "unchanged" if pos in k else "read" if pos in r else "retired")
        for i, (n, k, r) in enumerate(zip(p.n_initial, kept, read), 1)
        for pos in range(1, n + 1)
    ]
    trace += [(p.t1 + j, idx, "written") for j, w in enumerate(written, 1) for idx in range(1, w + 1)]
    # Derived from a checked plan, with every sequence a tuple: unchecked.
    return AccessReport._trusted(per_initial, rho_r, rho_w, rho, bound, optimal, stable, tuple(trace))


def plan_report(plan: Plan) -> AccessReport:
    """The plan's `access_report`, computed once and kept on the plan;
    execution and `verify` share it."""
    return kept(plan, "_report", access_report, plan)


# -- merge construction -------------------------------------------------------


def merge_params(initial: Sequence[tuple[int, int]], r_final: int) -> ConvertParams:
    """Merge parameters with the final shape implied by the initial dimensions."""
    if type(r_final) is not int:
        raise UsageError(f"final redundancy must be an integer, got {r_final!r}")
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
    the smallest further points outside its head.  The pool is a range,
    sliced and chained lazily, so the draw costs O(n) whatever q is.
    Unchanged positions are the leading k_I of each code; reduced-read
    codes read their trailing r_F positions (which include the extension
    position), and the final code takes those codes' restricted multipliers
    (`grs.puncture`) at their unchanged symbols; other codes re-read theirs.
    Every point is drawn distinct and every multiplier is 1 or a restricted
    one, so the codes and the plan are built unchecked (`_trusted`); the
    checked constructors give equal records.
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
        # The code's head of the pool, then the smallest points outside it.
        rest = chain(pool[:cursor], pool[cursor + k :])
        gammas.append((*pool[cursor : cursor + k], *islice(rest, n - 1 - k)))
        cursor += k
    gamma_prime = tuple(pool[cursor : cursor + rf - 1])
    initial_specs = tuple(
        ExtGrsSpec._trusted(field, n, n - k, gammas[idx], (1,) * n)
        for idx, (n, k) in enumerate(params.initial)
    )
    reduced = reduced_read_codes(params)
    unchanged = tuple(tuple(range(1, k + 1)) for _, k in params.initial)
    reads = tuple(
        tuple(range(n - rf + 1, n + 1)) if i in reduced else tuple(range(1, k + 1))
        for i, (n, k) in enumerate(params.initial, 1)
    )
    gamma_star: list[int] = []
    w_star: list[int] = []
    for i, (spec, (_, k)) in enumerate(zip(initial_specs, params.initial), 1):
        # The unchanged symbols lead both the code and its restriction.
        w = _restriction(spec, unchanged[i - 1] + reads[i - 1]).w if i in reduced else spec.w
        gamma_star += spec.gamma[:k]
        w_star += w[:k]
    final_spec = ExtGrsSpec._trusted(field, nf, rf, (*gamma_star, *gamma_prime), (*w_star, *[1] * rf))
    return MergePlan._trusted(
        params=params,
        field=field,
        initial_specs=initial_specs,
        final_spec=final_spec,
        reduced=reduced,
        unchanged=unchanged,
        reads=reads,
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
    symbols disjoint from their unchanged set, through a derived restricted
    parity check (`restricted_parity`) that equals the final parity check
    on their unchanged columns.  (Codes outside S read exactly their
    unchanged symbols; `MergePlan` enforces that.)  The diagnostic names
    the first violated condition, codes in order.  `lower` refuses a plan
    that fails it.
    """
    fault = next(filter(None, _merge_faults(plan)), "")
    return StructureCheck(not fault, fault)


def _merge_faults(plan: MergePlan):
    """Each condition of `verify_optimal_structure` in turn, "" when it holds."""
    p = plan.params
    expected = reduced_read_codes(p)
    if plan.reduced != expected:
        yield f"classification: plan S = {sorted(plan.reduced)} but parameters give {sorted(expected)}"
    rf = p.r_final[0]
    for i, (k, unchanged, reads) in enumerate(zip(p.k_initial, plan.unchanged, plan.reads), 1):
        if len(unchanged) != k:
            yield f"unchanged-cardinality: code {i} keeps {len(unchanged)} symbols, need {k}"
        if i in plan.reduced:
            if len(reads) != rf:
                yield f"read-cardinality: code {i} reads {len(reads)} symbols, need r_F = {rf}"
            if set(reads) & set(unchanged):
                yield f"overlap: code {i} reads symbols it also keeps unchanged"
            try:
                hbar, support = plan.restricted_parity(1, i)
            except UsageError as exc:
                yield f"punctured-parity: code {i}: {exc}"
                continue
            if _columns(hbar, _slots(support, unchanged)) != _all_columns(_final_blocks(plan)[i - 1]):
                yield (f"block-mismatch: code {i} unchanged columns of the restricted parity "
                       "check differ from the final parity check")


def _final_blocks(plan: MergePlan) -> tuple[FieldMatrix, ...]:
    """The final parity check's columns at each initial code's unchanged
    symbols, in code order, and then at the written symbols: t1 + 1
    blocks in layout order, built on the first call and kept on the
    plan."""
    return kept(plan, "_final_blocks", _parity_blocks, plan.final_spec, plan.unchanged)


def _parity_blocks(spec: ExtGrsSpec, unchanged: Sequence[Sequence[int]]) -> tuple[FieldMatrix, ...]:
    """The blocks of `spec`'s parity check at each code's `unchanged`
    symbols, in turn, and then at the rest, each built directly from the
    code's points and multipliers at its columns (`linalg._vandermonde` of
    their slices; the last block ends with the extension column), so the
    whole parity check is never built."""
    cuts = [0, *accumulate(map(len, unchanged)), spec.n]
    return tuple(linalg._vandermonde(spec.field, spec.r, spec.gamma[a:b], spec.w[a:b])
                 for a, b in zip(cuts, cuts[1:]))


def _restriction(spec: ExtGrsSpec, support: tuple[int, ...]) -> ExtGrsSpec:
    """`grs.puncture(spec, support)`, derived once per support and kept on
    spec: the builder takes the restriction's multipliers, and the plan's
    restricted parity check (`_restricted_parity`) its parity check."""
    restrictions = kept(spec, "_restrictions", dict)
    if support not in restrictions:
        restrictions[support] = puncture(spec, support)
    return restrictions[support]


def _restricted_parity(
    spec: ExtGrsSpec, support: Sequence[int], kept: Sequence[int], h: FieldMatrix
) -> FieldMatrix:
    """T . ref: the parity check of `spec` restricted to `support`
    (ascending) that equals h, a final parity check's columns at `kept`, on
    the first r_F of them.  ref = parity_check(puncture(spec, support)), and
    T = h_c . ref_c^-1 on those columns c (r_F columns of MDS parity checks)
    is the identity, with no solve, when ref equals h there: the test
    compares the r_F columns of each, as tuples.  UsageError when the codes
    and grid do not determine it."""
    ref = parity_check(_restriction(spec, support))
    r = h.rows
    if ref.rows != r or len(kept) < r:
        raise UsageError(f"restriction has {ref.rows} parity rows, {len(kept)} kept symbols, r_F = {r}")
    ref_c, h_c = _columns(ref, _slots(support, kept[:r])), _columns(h, range(r))
    if ref_c == h_c:
        return ref
    f = ref.field
    return linalg.matmul(linalg.matmul(_matrix(f, r, h_c), linalg.invert(_matrix(f, r, ref_c))), ref)


def certificate(plan: MergePlan | SplitPlan) -> Iterator[FieldMatrix]:
    """The blocks a plan document stores, in its order, each derived from
    the codes and grid as it is reached: a merge's restricted parity check
    per code in S, else the final parity check's columns at the code's
    unchanged symbols, then those at the written symbols; a split's
    privileged restricted parity check, if any."""
    if isinstance(plan, SplitPlan):
        if plan.privileged is not None:
            yield plan.restricted_parity(plan.privileged, 1)[0]
        return
    t1 = plan.params.t1
    for i in range(1, t1 + 2):
        yield plan.restricted_parity(1, i)[0] if i <= t1 and i in plan.reduced else _final_blocks(plan)[i - 1]


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
    order: its unchanged positions, then V.  As in `build_merge`, the codes
    and the plan are built unchecked (`_trusted`).
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
    initial_spec = ExtGrsSpec._trusted(field, n_i, n_i - k_i, tuple(pool[: n_i - 1]), (1,) * n_i)
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
    final_specs = [ExtGrsSpec._trusted(field, n, n - k, tuple(pool[: n - 1]), (1,) * n)
                   for n, k in params.final]
    reads, extra = list(unchanged), ()
    if privileged is not None:
        nf, kf = params.final[privileged - 1]
        extra = tuple(range(n_i - (nf - kf) + 1, n_i + 1))
        support = tuple(range(1, k_i + 1)) + extra
        theta = _restriction(initial_spec, support).w
        positions = unchanged[privileged - 1] + extra
        gamma = tuple(initial_spec.gamma[pos - 1] for pos in positions if pos != n_i)
        w = tuple(theta[support.index(pos)] for pos in positions)
        final_specs[privileged - 1] = ExtGrsSpec._trusted(field, nf, nf - kf, gamma, w)
        # It reads the other finals' unchanged symbols and V.
        reads[privileged - 1] = tuple(sorted(set(support) - set(unchanged[privileged - 1])))
    return SplitPlan._trusted(
        params=params,
        field=field,
        initial_spec=initial_spec,
        final_specs=tuple(final_specs),
        unchanged=tuple(unchanged),
        reads=tuple(reads),
        privileged=privileged,
        extra_reads=extra,
    )


# -- execution ---------------------------------------------------------------------


def _sigma(plan: MergePlan | SplitPlan, j: int) -> FieldMatrix:
    """Final code j's sigma, read off one `rref` of [W | B] with
    W . written = B . reads, assembled from columns.

    W is final j's parity check H on its written coordinates, which end its
    layout.  Each initial code i in turn adds the columns of
    `restricted_parity(j, i)` at the symbols i reads, which agrees with H on
    the symbols i keeps, or else minus H's columns of the symbols i keeps,
    which are then the ones it reads.  H's columns come in blocks: a
    merge's are its kept `_final_blocks`, built directly, and a split's
    final j has its kept columns and then its written ones, read off its
    parity check (`grs.parity_check`, which the privileged final's check
    has built).  W is the last block, and a code's block is read only when
    it has no restricted parity check.  Each column is a tuple; no block of
    [W | B] is cut as a matrix, and a merge's H is never built.
    """
    f = plan.field
    kept, reads = (row[j - 1] for row in plan.grid)
    if isinstance(plan, MergePlan):
        blocks, block_columns = _final_blocks(plan), _all_columns
    else:
        h, k = parity_check(plan.final_specs[j - 1]), len(kept[0])
        blocks, block_columns = (range(k), range(k, h.cols)), partial(_columns, h)
    columns = block_columns(blocks[-1])
    w = len(columns)
    for i, (block, read) in enumerate(zip(blocks, reads), 1):
        cell = plan.restricted_parity(j, i)
        if cell is not None:
            columns += _columns(cell[0], _slots(cell[1], read))
        elif f.p == 2:  # minus is the identity
            columns += block_columns(block)
        else:
            columns += [tuple(map(f.neg, col)) for col in block_columns(block)]
    red, pivots = linalg.rref(_matrix(f, w, columns))
    # `lower` solves only verified plans: r_F columns of an MDS parity check.
    if pivots[:w] != tuple(range(w)):
        raise InternalError("the written block of a verified plan is singular")
    solved = [red.row(t)[w:] for t in range(w)]
    return FieldMatrix._trusted(f, red.cols - w, w, tuple(chain.from_iterable(zip(*solved))))


def lower(plan: Plan) -> GeneralPlan:
    """The plan in general form: per final code, read sets, a layout, and
    sigma with written symbols = read symbols . sigma.  A merge or split
    plan runs exactly when `verify_plan` passes it, so the first FAIL line
    refuses the plan before any solve; then each final code's sigma is
    solved once (`_sigma`) from the derived restricted parity checks (no
    solve for those of a built plan).  The result skips the `GeneralPlan`
    checks (`GeneralPlan._trusted`): its grid is the verified plan's, and
    its layouts and sigmas are built to the shapes those checks test.
    """
    if isinstance(plan, GeneralPlan):
        return plan
    for name, ok, detail in verify_plan(plan):
        if not ok:
            raise UsageError(f"{name}: {detail}; plan is not executable")
    p = plan.params
    unchanged, reads = plan.grid
    sigmas = tuple(_sigma(plan, j) for j in range(1, p.t2 + 1))
    return GeneralPlan._trusted(
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


def _executable(plan: Plan, g: GeneralPlan) -> partial:
    """The plan compiled for `run_conversion` from its lowered form g: the
    stripe loop of the plan field's form bound to the plan's data
    (`_stripe_run`), picked once, here, and kept on the plan as
    `_executable`.

    Per initial code i the data hold its spec, its length n_i, the text of
    its CorruptionError and the step of `linalg.fold_step` on its parity
    part A_i (`grs.parity_part`) and on C_i (`_shares`), which checks input
    i against its parity symbols, message . A_i, and gives its share of
    every final code's written symbols.  That share is c_i . S_i, with S_i
    holding input i's rows of the lowered sigmas at its read positions, the
    finals' columns side by side, so the shares sum to reads . sigma, the
    written symbols; over every field the step computes it as message . C_i
    with C_i = G_i . S_i, equal on codewords.  Per final code the data hold
    its spec and a picker that lays out its coordinates from the
    concatenated inputs followed by all written symbols, and last the
    plan's access report.
    """
    p = g.params
    widths = [sigma.cols for sigma in g.sigmas]
    parts = map(parity_part, g.initial_specs)
    steps = [linalg.fold_step(a, _shares(g, i, a)) for i, a in enumerate(parts)]
    # Symbol (code, pos) is at starts[code - 1] + pos - 1 of the inputs
    # followed by the written symbols.
    starts = [0, *accumulate(p.n_initial + tuple(widths))]
    finals = tuple(
        (spec, _picker([starts[code - 1] + pos - 1 for code, pos in layout]))
        for spec, layout in zip(g.final_specs, g.layouts)
    )
    return _stripe_run(g.field, g.initial_specs, steps, sum(widths), finals, plan_report(plan))


def _shares(g: GeneralPlan, i: int, a: FieldMatrix) -> list[tuple[int, ...]]:
    """C_i = G_i . S_i of `_executable` for the initial code i (0-based) of
    a lowered plan, whose parity part is a, as its columns.  S_i is a list
    of rows, one shared zero row at each position i does not read and
    sigma's row at each one it reads, no matrix.  Row t of G_i is A_i's row
    t, then 1 at message position t: so row t of C_i is S_i's row at that
    position, plus A_i[t][p] times S_i's row at each parity position p
    that i reads."""
    f = g.field
    r = a.cols
    zero = (0,) * sum(sigma.cols for sigma in g.sigmas)
    rows = [zero] * (r + a.rows)
    at = 0
    for reads, sigma in zip(g.reads, g.sigmas):
        end = at + sigma.cols
        for idx, pos in enumerate(reads[i], sum(map(len, reads[:i]))):
            row = rows[pos - 1]
            rows[pos - 1] = row[:at] + sigma.row(idx) + row[end:]
        at = end
    c = rows[r:]
    add, mul = (xor if f.p == 2 else f.add), f.mul
    for p, row in enumerate(rows[:r]):
        if row is not zero:
            for t, coef in enumerate(a.entries[p::r]):
                c[t] = [add(x, mul(coef, y)) for x, y in zip(c[t], row)]
    return list(zip(*c)) or [()] * len(zero)


def _stripe_run(field: FieldSpec, specs: Sequence[ExtGrsSpec], steps: Sequence[tuple], width: int,
                finals: tuple, report: AccessReport) -> partial:
    """codewords -> (final codewords, report): the stripe loop of `field`'s
    form (`_lane_stripe` over GF(2^m), `_mod_stripe` over GF(p)) bound to
    the inputs' specs and `linalg.fold_step` steps, the `width` written
    symbols (2 width bytes above GF(256), read back by `unpack`), the
    finals' (spec, picker) pairs and the report.  A partial of a module
    function, so a plan that ran stays picklable."""
    inputs = tuple((spec, spec.n, f"input {i} is not a codeword of initial code {i}", *step)
                   for i, (spec, step) in enumerate(zip(specs, steps), 1))
    if field.p == 2:
        spill = (2 * width, partial(struct.unpack, f"<{width}H")) if field.m > 8 else (width, None)
        return partial(_lane_stripe, inputs, *spill, finals, report)
    bits = linalg._mod_lane_bits(field.p)
    lanes = field.p, (1 << bits) - 1, range(0, bits * width, bits)
    return partial(_mod_stripe, inputs, lanes, finals, report)


# The stripe loops, one per field form.  Each checks the input count, then
# each input in turn, before the next: its length, then its symbols (unless
# it is a `Codeword` of that very initial code object), then its syndrome,
# which it folds inline in the same frame as its share of the written
# symbols.  Then it spills the written symbols and lays out the finals.  So
# a stripe of such codewords makes no Python-level call per input.  Each
# final codeword is built inline, as `Codeword._trusted` builds it, so a
# stripe makes no Python-level call at all.

_new, _set = object.__new__, object.__setattr__


def _lane_stripe(inputs: tuple, width: int, unpack: partial | None, finals: tuple, report: AccessReport,
                 codewords: Sequence[Sequence[int] | Codeword]) -> tuple[tuple[Codeword, ...], AccessReport]:
    # The lanes of all groups read as one int, lane l in byte l, starting
    # from acc above the r parity lanes.  Each group XORs in one lookup per
    # byte of the codeword from its start at its shift: a parity byte
    # through its unit row, a message byte through its lane row of M.  So
    # the syndrome is left in the low r lanes and the shares above.  Above
    # GF(256) the checked symbols are read as their bytes, low byte first.
    if len(codewords) != len(inputs):
        _check_count(codewords, len(inputs))
    acc = 0
    flat: list[int] = []
    for (spec, n, fault, shift, mask, first, more, pack), cw in zip(inputs, codewords):
        if isinstance(cw, Codeword):
            symbols, checked = cw.symbols, cw.code is spec
        else:
            symbols, checked = tuple(cw), False
        if len(symbols) != n:
            raise CorruptionError(fault)
        if not checked:
            spec.field.check_all(symbols)
        data = pack(*symbols) if pack else symbols
        acc = reduce(xor, map(getitem, first, data), acc << shift)
        for start, at, rows in more:
            acc ^= reduce(xor, map(getitem, rows, data[start:]), 0) << at
        if acc & mask:
            raise CorruptionError(fault)
        acc >>= shift
        flat += symbols
    written = acc.to_bytes(width, "little")
    flat += unpack(written) if unpack else written
    outputs = []
    for spec, pick in finals:
        codeword = _new(Codeword)
        _set(codeword, "symbols", pick(flat))
        _set(codeword, "code", spec)
        outputs.append(codeword)
    return tuple(outputs), report


def _mod_stripe(inputs: tuple, lanes: tuple, finals: tuple, report: AccessReport,
                codewords: Sequence[Sequence[int] | Codeword]) -> tuple[tuple[Codeword, ...], AccessReport]:
    # One sum of packed products per input; its low r lanes, each reduced
    # mod p, must equal the parity symbols, and the lanes above add to acc.
    p, mask, spill = lanes
    if len(codewords) != len(inputs):
        _check_count(codewords, len(inputs))
    acc = 0
    flat: list[int] = []
    for (spec, n, fault, r, shifts, shift, rows), cw in zip(inputs, codewords):
        if isinstance(cw, Codeword):
            symbols, checked = cw.symbols, cw.code is spec
        else:
            symbols, checked = tuple(cw), False
        if len(symbols) != n:
            raise CorruptionError(fault)
        if not checked:
            spec.field.check_all(symbols)
        out = sum(map(mul, rows, symbols[r:]))
        for at, a in zip(shifts, symbols):
            if (out >> at & mask) % p != a:
                raise CorruptionError(fault)
        acc += out >> shift
        flat += symbols
    for at in spill:
        flat.append((acc >> at & mask) % p)
    outputs = []
    for spec, pick in finals:
        codeword = _new(Codeword)
        _set(codeword, "symbols", pick(flat))
        _set(codeword, "code", spec)
        outputs.append(codeword)
    return tuple(outputs), report


def _check_count(codewords: Sequence, t1: int) -> None:
    if len(codewords) != t1:
        raise UsageError(f"expected {t1} input codewords, got {len(codewords)}")


def _compile(plan: Plan, codewords: Sequence[Sequence[int] | Codeword]) -> partial:
    """The plan's `_executable`, kept on it.  When `lower` refuses the
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
    return kept(plan, "_executable", _executable, plan, g)


def run_conversion(
    plan: Plan, codewords: Sequence[Sequence[int] | Codeword]
) -> tuple[tuple[Codeword, ...], AccessReport]:
    """Execute any plan; always returns a tuple of final codewords.

    Every input must be a codeword of its initial code.  The input count is
    checked first (UsageError), then the inputs in order, each before the
    next: its length, then its symbols, then its syndrome.  A wrong length
    or a nonzero syndrome raises CorruptionError, a non-canonical symbol
    UsageError.  An input that is a `Codeword` of that very initial code
    object (not an equal one) gets no symbol check: its constructor checked
    its symbols, or the program derived them unchecked, as `encode` does.
    Every other input is checked by `FieldSpec.check_all`, here and nowhere
    else.  An unpickled `Codeword` skipped its constructor's check, as
    every record does.
    Execution reads every input symbol to check it, and forms the written
    symbols from the message symbols, which on codewords equal the read
    symbols times sigma; the `AccessReport` is the plan's access cost, not
    a count of what execution touched.  The first time a plan runs it is
    lowered and compiled to its stripe loop, kept on the plan as
    `_executable`, so a later stripe is this lookup and one call of that
    loop.  The loop checks, folds and spills every input and builds the
    final codewords in its own frame, with no solve and no matrix or cache
    lookup, and no other Python-level call: over GF(2^m) one lookup per
    codeword byte and lane group, a symbol above GF(256) read as its two
    bytes by one C call per input.
    """
    return (getattr(plan, "_executable", None) or _compile(plan, codewords))(codewords)


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
    split = isinstance(plan, SplitPlan)
    codes = ["initial code"] if split else [f"initial code {i}" for i in range(1, p.t1 + 1)]
    codes += ["final code"] if isinstance(plan, MergePlan) else [
        f"final code {j}" for j, spec in enumerate(plan.final_specs, 1) if spec is not None]
    results = [(f"{code} MDS", True, "") for code in codes]
    if isinstance(plan, MergePlan):
        check = verify_optimal_structure(plan)
        results.append(("optimal structure", check.ok, check.diagnostic))
    elif split:
        for j, (kf, kept) in enumerate(zip(p.k_final, map(len, plan.unchanged)), 1):
            results.append((f"final code {j} keeps k_F unchanged symbols", kept == kf,
                            "" if kept == kf else f"keeps {kept}, need {kf}"))
        if plan.privileged is not None:
            fault = _privileged_fault(plan)
            results.append(("privileged restricted parity", not fault, fault))
    else:
        results.append(("plan structure", True, "layouts and conversion matrices consistent"))
        return results
    report = plan_report(plan)
    bound = f"rho = {report.rho}, bound = {report.bound}"
    results.append(("access cost meets bound", bool(report.optimal), bound))
    return results


def _privileged_fault(plan: SplitPlan) -> str:
    """Why the privileged final code is not produced by its restricted parity check, or ""."""
    j = plan.privileged
    rf = plan.params.r_final[j - 1]
    if len(plan.extra_reads) != rf:
        return f"extra read set has {len(plan.extra_reads)} positions, need r_F = {rf}"
    try:
        hbar, support = plan.restricted_parity(j, 1)
    except UsageError as exc:
        return str(exc)
    own, h = plan.unchanged[j - 1] + plan.extra_reads, parity_check(plan.final_specs[j - 1])
    if _columns(hbar, _slots(support, own)) != _all_columns(h):
        return "privileged final code does not match the restricted parity block"
    if set(plan.reads[j - 1]) != set(support) - set(plan.unchanged[j - 1]):
        return "privileged final code must read the other finals' unchanged symbols and V"
    return ""
