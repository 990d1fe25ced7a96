import random

import pytest

from mdsconv.convert import (
    ConvertParams,
    merge_lower_bound,
    merge_params,
    reduced_read_codes,
    split_lower_bound,
)
from mdsconv.errors import UsageError


def test_params_validation():
    with pytest.raises(UsageError):
        ConvertParams(((5, 3), (5, 3)), ((8, 5),))  # dimension mismatch
    with pytest.raises(UsageError):
        ConvertParams(((5, 5),), ((6, 5),))  # k = n
    with pytest.raises(UsageError):
        ConvertParams((), ((6, 5),))
    p = merge_params([(5, 3), (5, 3)], 2)
    assert p.final == ((8, 6),)
    assert p.r_initial == (2, 2) and p.r_final == (2,)


def test_reduced_read_codes_examples():
    # r_F = 2 against (k, r_I) pairs (3,2), (4,1), (2,3)
    params = ConvertParams(((5, 3), (5, 4), (5, 2)), ((11, 9),))
    assert reduced_read_codes(params) == frozenset({1})
    # r_F at least every k: nobody qualifies
    params = ConvertParams(((5, 3), (5, 2)), ((10, 5),))
    assert reduced_read_codes(params) == frozenset()
    # r_F = 1 below every k with r_I >= 1: everybody qualifies
    params = ConvertParams(((5, 3), (6, 4), (4, 2)), ((10, 9),))
    assert reduced_read_codes(params) == frozenset({1, 2, 3})
    with pytest.raises(UsageError):
        reduced_read_codes(ConvertParams(((7, 6),), ((5, 3), (5, 3))))


def test_merge_lower_bound_examples():
    params = ConvertParams(((5, 3), (7, 4)), ((9, 7),))  # k=(3,4), r_I=(2,3), r_F=2
    bound = merge_lower_bound(params)
    assert bound.per_code_reads == (2, 2)
    assert bound.rho == 6
    params = ConvertParams(((5, 3), (7, 4)), ((12, 7),))  # r_F=5 exceeds both minima
    bound = merge_lower_bound(params)
    assert bound.per_code_reads == (3, 4)
    assert bound.rho == 12
    with pytest.raises(UsageError):
        merge_lower_bound(ConvertParams(((7, 6),), ((5, 3), (5, 3))))


def uniform_initial_formula(t1, n, k, rf):
    """Closed form for identical initial codes."""
    r = n - k
    if rf <= min(k, r):
        return t1 * rf + rf
    return t1 * k + rf


def uniform_initial_redundancy_formula(ks, r, rf):
    """Closed form when every initial code has redundancy r."""
    if rf <= r:
        return sum(rf if rf <= k else k for k in ks) + rf
    return sum(ks) + rf


def test_merge_bound_matches_uniform_initial_closed_form():
    rng = random.Random(100)
    for _ in range(100):
        t1 = rng.randrange(2, 6)
        k = rng.randrange(1, 9)
        r = rng.randrange(1, 7)
        rf = rng.randrange(1, 8)
        params = merge_params([(k + r, k)] * t1, rf)
        assert merge_lower_bound(params).rho == uniform_initial_formula(t1, k + r, k, rf)


def test_merge_bound_matches_uniform_redundancy_closed_form():
    rng = random.Random(101)
    for _ in range(100):
        t1 = rng.randrange(2, 6)
        r = rng.randrange(1, 7)
        ks = [rng.randrange(1, 9) for _ in range(t1)]
        rf = rng.randrange(1, 8)
        params = merge_params([(k + r, k) for k in ks], rf)
        assert merge_lower_bound(params).rho == uniform_initial_redundancy_formula(ks, r, rf)


def test_split_lower_bound_examples():
    params = ConvertParams(((10, 7),), ((6, 4), (5, 3)))
    bound = split_lower_bound(params)
    assert bound.feasible == (1, 2)
    assert bound.rho_r == 5  # 7 - max(4-2, 3-2)
    assert bound.rho == 9
    # no feasible final: read bound is the full dimension
    params = ConvertParams(((7, 6),), ((5, 3), (5, 3)))  # r_I=1 < r_F=2
    bound = split_lower_bound(params)
    assert bound.feasible == ()
    assert bound.rho_r == 6
    assert bound.rho == 6 + 4
    with pytest.raises(UsageError):
        split_lower_bound(ConvertParams(((5, 3), (5, 3)), ((8, 6),)))


def uniform_final_formula(t2, n, k, ri):
    """Closed form for identical final codes (r_I different from r_F)."""
    r = n - k
    if ri > r:
        return (t2 - 1) * k + min(r, k) + t2 * r
    return t2 * n


def uniform_final_redundancy_formula(ki, ri, kfs, rf):
    """Closed form when every final code has redundancy rf."""
    best = max(kfs) - rf if rf <= ri else 0
    return ki - max(0, best) + len(kfs) * rf


def test_split_bound_matches_uniform_final_closed_form():
    rng = random.Random(102)
    checked = 0
    while checked < 100:
        t2 = rng.randrange(2, 6)
        k = rng.randrange(1, 7)
        r = rng.randrange(1, 6)
        ri = rng.randrange(1, 9)
        if ri == r:
            continue  # the closed form assumes the redundancies differ
        params = ConvertParams(((t2 * k + ri, t2 * k),), ((k + r, k),) * t2)
        assert split_lower_bound(params).rho == uniform_final_formula(t2, k + r, k, ri)
        checked += 1


def test_split_bound_matches_uniform_final_redundancy_closed_form():
    rng = random.Random(103)
    for _ in range(100):
        t2 = rng.randrange(2, 6)
        rf = rng.randrange(1, 6)
        kfs = [rng.randrange(1, 8) for _ in range(t2)]
        ri = rng.randrange(1, 9)
        params = ConvertParams(
            ((sum(kfs) + ri, sum(kfs)),), tuple((k + rf, k) for k in kfs)
        )
        assert split_lower_bound(params).rho == uniform_final_redundancy_formula(
            sum(kfs), ri, kfs, rf
        )


def test_degenerate_single_code_bounds_agree():
    rng = random.Random(104)
    for _ in range(50):
        k = rng.randrange(1, 8)
        ri = rng.randrange(1, 6)
        rf = rng.randrange(1, 6)
        params = ConvertParams(((k + ri, k),), ((k + rf, k),))
        assert merge_lower_bound(params).rho == split_lower_bound(params).rho


class _Int(int):
    pass


@pytest.mark.parametrize(
    "initial, final",
    [
        (((5.9, 3.2), (5, True)), ((9.99, 4),)),
        (((5, 3), (5, True)), ((8, 4),)),
        (((5, 3), (5, 3)), ((8, 6.0),)),
        (((5, 3), (5, 3)), ((8, "6"),)),
        (((5, 3), (5, 3)), ((_Int(8), 6),)),
        (((5, 3, 1),), ((2, 1),)),
        ((5,), ((8, 6),)),
        (((5, 3), (5, 3)), None),
    ],
)
def test_params_refuse_non_integers(initial, final):
    """Every entry must be an int: no coercion of floats, strings, bools or
    other int subclasses, and no shape that is not a pair."""
    with pytest.raises(UsageError):
        ConvertParams(initial, final)


def test_params_keep_integer_shapes_as_tuples():
    params = ConvertParams([[5, 3], [5, 3]], [[8, 6]])
    assert params.initial == ((5, 3), (5, 3)) and params.final == ((8, 6),)
    assert ConvertParams(params.initial, params.final) == params
    for r_final in (2.0, True, "2"):
        with pytest.raises(UsageError):
            merge_params([(5, 3), (5, 3)], r_final)
