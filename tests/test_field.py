import pickle
import random

import pytest

from mdsconv import grs
from mdsconv.errors import UsageError
from mdsconv.field import GF, PRIME_LIMIT, FieldSpec, _default_modulus, _is_prime

EXHAUSTIVE_ORDERS = [2, 3, 4, 5, 7, 8, 11, 13, 16]


def brute_inverse(f, a):
    """Search oracle: the unique b with a*b == 1."""
    for b in f.elements():
        if f.mul(a, b) == 1:
            return b
    raise AssertionError(f"no inverse of {a} in {f}")


def test_add_examples():
    assert GF(7).add(3, 5) == 1
    assert GF(8).add(0b011, 0b101) == 0b110
    f = GF(13)
    for a in f.elements():
        assert f.add(a, 0) == a


def test_mul_examples():
    assert GF(7).mul(3, 5) == 1
    # x * x^2 = x^3 = x + 1 modulo x^3 + x + 1
    assert GF(8).mul(0b010, 0b100) == 0b011
    assert GF(7).inv(3) == 5


def test_inverse_matches_search_oracle():
    for q in [7, 8, 13, 16]:
        f = GF(q)
        for a in range(1, q):
            assert f.inv(a) == brute_inverse(f, a)


def test_inv_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        GF(7).inv(0)
    with pytest.raises(ZeroDivisionError):
        GF(8).inv(0)


def test_pow():
    f = GF(8)
    assert f.pow(0, 0) == 1
    assert f.pow(5, 0) == 1
    assert f.pow(0, 3) == 0
    for a in f.elements():
        acc = 1
        for e in range(6):
            assert f.pow(a, e) == acc
            acc = f.mul(acc, a)
    with pytest.raises(UsageError):
        f.pow(3, -1)


def test_fermat_lagrange():
    for q in EXHAUSTIVE_ORDERS:
        f = GF(q)
        for a in range(1, q):
            assert f.pow(a, q - 1) == 1


@pytest.mark.parametrize("q", EXHAUSTIVE_ORDERS)
def test_field_axioms_exhaustive(q):
    f = GF(q)
    els = list(f.elements())
    for a in els:
        assert f.add(a, f.neg(a)) == 0
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
    for a in els:
        for b in els:
            for c in els:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_field_axioms_gf256_sampled():
    f = GF(256)
    rng = random.Random(0)
    for _ in range(1000):
        a, b, c = (rng.randrange(256) for _ in range(3))
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        if a:
            assert f.mul(a, f.inv(a)) == 1


def test_elements_ascending():
    assert list(GF(2).elements()) == [0, 1]
    assert list(GF(7).elements()) == list(range(7))
    assert list(GF(8).elements()) == list(range(8))


def test_pinned_moduli():
    """Symbols are bit-packed polynomials reduced by these moduli, so they
    pin the symbol encoding of every file format."""
    assert GF(4).modulus == 0b111
    assert GF(8).modulus == 0b1011
    assert GF(16).modulus == 0b10011
    assert GF(256).modulus == 0b100011011
    assert {m: _default_modulus(m) for m in range(2, 17)} == {
        2: 0b111,
        3: 0b1011,
        4: 0b10011,
        5: 0b100101,
        6: 0b1000011,
        7: 0b10000011,
        8: 0b100011011,
        9: 0b1000000011,
        10: 0b10000001001,
        11: 0b100000000101,
        12: 0b1000000001001,
        13: 0b10000000011011,
        14: 0b100000000100001,
        15: 0b1000000000000011,
        16: 0b10000000000101011,
    }


def test_sub_and_neg():
    f = GF(13)
    for a in f.elements():
        for b in f.elements():
            assert f.add(f.sub(a, b), b) == a
    g = GF(16)
    for a in g.elements():
        assert g.neg(a) == a  # characteristic 2


def test_invalid_fields_rejected():
    with pytest.raises(UsageError):
        FieldSpec(4)  # not prime
    with pytest.raises(UsageError):
        FieldSpec(2, 0)
    with pytest.raises(UsageError):
        FieldSpec(3, 2)  # odd-characteristic extension
    with pytest.raises(UsageError):
        FieldSpec(2, 17)  # beyond supported degree
    with pytest.raises(UsageError):
        GF(12)
    with pytest.raises(UsageError):
        GF(9)  # 3^2: odd-characteristic extension
    with pytest.raises(UsageError):
        GF(1)


def test_check_rejects_out_of_range():
    f = GF(7)
    assert f.check(6) == 6
    with pytest.raises(UsageError):
        f.check(7)
    with pytest.raises(UsageError):
        f.check(-1)
    f.check_all(())
    f.check_all((0, 6, 3))
    for bad in ((0, 7), (-1, 0), (1, True), (1, 2.0), (1, "2")):
        with pytest.raises(UsageError):
            f.check_all(bad)


def test_field_identity():
    assert GF(8) == FieldSpec(2, 3)
    assert GF(8) != GF(16)
    assert GF(7) == FieldSpec(7)
    assert hash(GF(8)) == hash(FieldSpec(2, 3))


def test_a_field_is_a_frozen_record():
    """(p, m) identify a field, whether or not its tables are built; no
    attribute can be assigned; a pickled GF(256) is the shared `GF(256)`,
    with its tables and its products, and neither it nor a code over it
    carries the tables in its bytes; and each refused field keeps its
    message."""
    fresh, built = FieldSpec(2, 3), GF(8)
    built.product_rows()
    assert fresh._exp is None and built._exp is not None
    assert fresh == built == FieldSpec(p=2, m=3) and hash(fresh) == hash(built)
    assert FieldSpec(7) == FieldSpec(7, 1) != FieldSpec(2, 3)
    for name in ("p", "m", "q", "modulus", "_exp", "_log", "_product_rows", "other"):
        with pytest.raises(AttributeError):
            setattr(built, name, 9)
    assert (built.p, built.m, built.q, built.modulus) == (2, 3, 8, 0b1011)

    field = GF(256)
    field.mul(2, 3)
    clone = pickle.loads(pickle.dumps(field))
    assert clone == field and clone is field and clone._exp == field._exp
    assert pickle.loads(pickle.dumps(FieldSpec(2, 3))) is GF(8)
    spec = grs.ExtGrsSpec(field, 14, 4, tuple(range(1, 14)), (1,) * 14)
    assert len(pickle.dumps(field)) < 1024 and len(pickle.dumps(spec)) < 1024
    assert pickle.loads(pickle.dumps(spec)).field is field
    assert clone.mul(0x57, 0x83) == 0xC1 and clone.inv(0x53) == 0xCA
    rng = random.Random(256)
    for a, b in ((rng.randrange(256), rng.randrange(1, 256)) for _ in range(200)):
        assert clone.mul(a, b) == field.mul(a, b) and clone.inv(b) == field.inv(b)

    for args, message in (
        ((4,), "characteristic 4 is not prime"),
        ((2, 0), "extension degree must be >= 1, got 0"),
        ((3, 2), "extension fields are supported for characteristic 2 only"),
        ((2, 17), "extension degree 17 exceeds supported maximum 16"),
    ):
        with pytest.raises(UsageError) as info:
            FieldSpec(*args)
        assert str(info.value) == message


@pytest.mark.parametrize("q", [4, 8, 16, 256, 1 << 16])
def test_table_inverse_exhaustive(q):
    f = GF(q)
    assert all(f.mul(a, f.inv(a)) == 1 for a in range(1, q))


@pytest.mark.parametrize("q", [4, 8, 16, 256])
def test_mul_and_row_tables_share_one_table_pair(q):
    """`mul` and the row kernels read the same (log, exp) pair, zero included,
    and agree with shift-and-add multiplication."""
    f = FieldSpec(2, q.bit_length() - 1)
    log, exp = f.row_tables()
    assert f.row_tables()[0] is log and f.row_tables()[1] is exp
    for a in range(q):
        for b in range(q):
            assert f.mul(a, b) == exp[log[a] + log[b]] == f._mul_nolut(a, b)


def _reference_tables(modulus):
    """(log, exp) of GF(2^m) built from `modulus` alone: a carry-less
    product reduced afterwards, and the first element whose powers reach
    every nonzero one.  exp is one period long; log[0] is unused."""
    m = modulus.bit_length() - 1
    q = 1 << m

    def mul(a, b):
        out = 0
        while b:
            if b & 1:
                out ^= a
            a, b = a << 1, b >> 1
        while out >= q:
            out ^= modulus << (out.bit_length() - 1 - m)
        return out

    for gen in range(2, q):
        exp, val = [], 1
        while not exp or val != 1:
            exp.append(val)
            val = mul(val, gen)
        if len(exp) == q - 1:
            log = [0] * q
            for e, v in enumerate(exp):
                log[v] = e
            return log, exp
    raise AssertionError(f"no generator modulo {modulus}")


@pytest.mark.parametrize("m", range(9, 17))
def test_table_free_arithmetic_matches_a_log_exp_reference(m):
    """Above GF(256) `mul` and `inv` build no tables and agree with log/exp
    tables built here from the modulus: every product for m = 9, sampled
    products above, and every inverse for m = 9..12."""
    f = FieldSpec(2, m)
    q = f.q
    log, exp = _reference_tables(f.modulus)

    def product(a, b):
        return exp[(log[a] + log[b]) % (q - 1)] if a and b else 0

    if m == 9:
        for a in range(q):
            assert [f.mul(a, b) for b in range(q)] == [product(a, b) for b in range(q)]
    else:
        rng = random.Random(m)
        for _ in range(3000):
            a, b = rng.randrange(q), rng.choice((0, 1, q - 1, rng.randrange(q)))
            assert f.mul(a, b) == f.mul(b, a) == product(a, b)
    if m <= 12:
        assert [f.inv(a) for a in range(1, q)] == [exp[-log[a] % (q - 1)] for a in range(1, q)]
    assert f._exp is None and f._log is None
    with pytest.raises(UsageError):
        f.row_tables()


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_is_prime_agrees_with_trial_division():
    assert [n for n in range(20000) if _is_prime(n)] == [n for n in range(20000) if _trial_division(n)]


def test_is_prime_rejects_strong_pseudoprimes():
    # A Carmichael number, a strong pseudoprime to bases 2, 3, 5 and 7, and
    # one to every prime base up to 31.
    for n in (561, 3215031751, 3825123056546413051):
        assert not _is_prime(n)
    assert all(_is_prime(p) for p in (10**9 + 7, 2**31 - 1, 2**61 - 1))


def test_field_order_at_or_above_the_limit_rejected():
    assert GF(2**61 - 1).q == 2**61 - 1
    for q in (PRIME_LIMIT, PRIME_LIMIT + 2, 2**100):
        with pytest.raises(UsageError, match=str(PRIME_LIMIT)):
            GF(q)
