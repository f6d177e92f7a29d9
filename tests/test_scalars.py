"""Field arithmetic, parsing, and formatting."""

import math
import sys
from fractions import Fraction

import pytest

from operad_lab.scalars import (
    PrimeField,
    RationalField,
    ScalarError,
    _is_prime,
    get_field,
    power_sign,
)


def test_rational_basics():
    f = RationalField()
    assert f.label == "q"
    assert f.zero == Fraction(0)
    assert f.one == Fraction(1)
    a = f.from_int(3)
    b = f.parse("-1/2")
    assert f.add(a, b) == Fraction(5, 2)
    assert f.sub(a, b) == Fraction(7, 2)
    assert f.mul(a, b) == Fraction(-3, 2)
    assert f.neg(b) == Fraction(1, 2)
    assert f.inv(b) == Fraction(-2)
    assert f.is_zero(f.sub(a, a))
    assert f.format(b) == "-1/2"
    assert f.format(a) == "3"


def test_rational_parse_round_trip():
    f = RationalField()
    for text in ("0", "7", "-4", "2/3", "-9/7"):
        assert f.format(f.parse(text)) == text


def test_rational_text_past_the_digit_limit_is_a_scalar_error():
    f = RationalField()
    limit = sys.get_int_max_str_digits()
    assert f.parse(f"1e{limit}") == Fraction(10) ** limit
    assert f.parse("-2.5E-3") == Fraction(-1, 400)
    assert f.format(Fraction(10) ** (limit - 1)) == "1" + "0" * (limit - 1)
    # one digit past the limit, in the numerator or the denominator
    for value in (Fraction(10) ** limit, Fraction(1, 10**limit)):
        with pytest.raises(ScalarError, match=f"more than {limit} digits"):
            f.format(value)
    # refused before Fraction expands the power, however large the exponent
    for text in (f"1e{limit + 1}", f"1e-{limit + 1}", "1e99999999", "1E+99999999"):
        with pytest.raises(ScalarError, match=f"exponent beyond {limit}"):
            f.parse(text)
    for text in ("1e", "e5", "1e5.5", "1e" + "9" * (limit + 1)):
        with pytest.raises(ScalarError, match="bad rational scalar"):
            f.parse(text)


def test_prime_field_basics():
    f = PrimeField(7)
    assert f.label == "gfp:7"
    assert f.from_int(10) == 3
    assert f.add(5, 4) == 2
    assert f.mul(3, 5) == 1
    assert f.neg(2) == 5
    assert f.inv(3) == 5
    assert f.is_zero(f.from_int(14))
    assert f.format(f.from_int(4)) == "4 mod 7"


def test_prime_field_parse_forms():
    f = PrimeField(32003)
    assert f.parse("4 mod 32003") == 4
    assert f.parse("-1") == 32002
    assert f.parse("1/2") == f.inv(2)
    with pytest.raises(ScalarError):
        f.parse("3 mod 7")


def test_prime_field_rejects_composite_and_zero_division():
    with pytest.raises(ScalarError):
        PrimeField(6)
    with pytest.raises(ScalarError):
        PrimeField(1)
    f = PrimeField(5)
    with pytest.raises(ScalarError):
        f.inv(0)


def test_get_field_labels():
    assert get_field("q").label == "q"
    assert get_field("gfp:13").label == "gfp:13"
    with pytest.raises(ScalarError):
        get_field("gf:13")
    with pytest.raises(ScalarError):
        get_field("gfp:15")


def test_field_equality_and_hash():
    assert get_field("q") == get_field("q")
    assert get_field("gfp:7") == get_field("gfp:7")
    assert get_field("gfp:7") != get_field("gfp:11")
    assert hash(get_field("gfp:7")) == hash(PrimeField(7))


def test_power_sign():
    q = get_field("q")
    assert power_sign(q, 0) == q.one
    assert power_sign(q, 1) == q.from_int(-1)
    assert power_sign(q, 2) == q.one
    assert power_sign(q, -3) == q.from_int(-1)
    p = get_field("gfp:3")
    assert power_sign(p, 5) == p.from_int(-1)


def test_large_prime_accepted():
    f = PrimeField(32003)
    assert f.mul(f.inv(1234), 1234) == 1


def test_is_prime_matches_a_sieve():
    limit = 10**5
    sieve = [False, False] + [True] * (limit - 2)
    for n in range(2, math.isqrt(limit) + 1):
        if sieve[n]:
            sieve[n * n::n] = [False] * len(range(n * n, limit, n))
    assert [n for n in range(-3, limit) if _is_prime(n)] == [n for n in range(limit) if sieve[n]]


def test_is_prime_on_strong_pseudoprimes_and_the_largest_modulus():
    # strong pseudoprimes to the bases 2; 2, 3; and 2, 3, 5
    for n in (2047, 1373653, 25326001):
        assert not _is_prime(n)
    assert _is_prime(2**31 - 1)
    assert not _is_prime(2**31 - 3)
