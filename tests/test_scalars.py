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


def test_rational_integral_values_are_ints():
    """The field makes ints of integral values, so integral data run in int
    arithmetic; a Fraction appears only where a non-integer does."""
    f = RationalField()
    for value in (f.zero, f.one, f.from_int(7), f.parse("6/3"), f.parse("1e3"),
                  f.inv(f.from_int(-1))):
        assert type(value) is int, value
    assert (f.from_int(7), f.parse("6/3"), f.parse("1e3")) == (7, 2, 1000)
    assert f.inv(f.from_int(-1)) == -1
    assert type(f.parse("1/2")) is Fraction and f.parse("1/2") == Fraction(1, 2)
    assert type(f.inv(3)) is Fraction and f.inv(3) == Fraction(1, 3)
    assert f.add(1, Fraction(1, 2)) == Fraction(3, 2)
    # an integral Fraction that arithmetic leaves behaves as its int
    two = f.mul(4, Fraction(1, 2))
    assert two == 2 and hash(two) == hash(2) and f.format(two) == f.format(2) == "2"
    assert f.is_zero(f.sub(two, 2))


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


def test_coerce_makes_a_public_coefficient_a_scalar():
    f5, q = PrimeField(5), RationalField()
    assert [f5.coerce(n) for n in (-6, -1, 0, 4, 5, 12, 10**30 + 1)] == [4, 4, 0, 4, 0, 2, 1]
    assert q.coerce(-3) == -3 and type(q.coerce(-3)) is int
    half = Fraction(1, 2)
    assert q.coerce(half) is half
    assert type(q.coerce(Fraction(4, 2))) is Fraction
    for field in (f5, q):
        for bad in (0.5, 1.0, 0.0, True, False, "1", None):
            with pytest.raises(ScalarError, match=f"got {bad!r}$"):
                field.coerce(bad)
    with pytest.raises(ScalarError, match="over gfp:5 must be an int"):
        f5.coerce(half)


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
