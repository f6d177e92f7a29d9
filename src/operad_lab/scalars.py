"""Exact coefficient arithmetic over the rationals and over prime fields.

Every scalar that flows through the library is either a rational, an ``int``
or a ``fractions.Fraction`` (rational field, see ``RationalField``), or a plain
int in ``[0, p)`` (prime field).  No floats, ever.  Field objects own all
arithmetic so the rest of the code never branches on the coefficient kind.
"""

import math
import sys
from fractions import Fraction

MAX_PRIME = 2**31


class ScalarError(ValueError):
    """Bad coefficient, bad field label, or mixed-field arithmetic."""


def _is_prime(n):
    """Trial division by 2 and the odd numbers up to sqrt(n): exact, and below
    2^31 at most about 23000 divisions."""
    if n < 4:
        return n > 1
    if n % 2 == 0:
        return False
    return all(n % d for d in range(3, math.isqrt(n) + 1, 2))


class RationalField:
    """The field of rational numbers.

    A scalar is an ``int`` or a ``Fraction``: the field makes ints of the
    integral values it builds (``zero``, ``one``, ``from_int``, ``parse``,
    ``inv``), so integral data run in int arithmetic, and a ``Fraction``
    appears only where a non-integer does.  Arithmetic may still leave an
    integral ``Fraction``, which is not normalised: by the numeric tower
    (PEP 3141) ``Fraction(3) == 3``, with the same hash and the same
    ``str``, so no comparison, dict key or printed output can tell the two
    apart.
    """

    kind = "rational"
    label = "q"

    def __init__(self):
        self.zero = 0
        self.one = 1

    def from_int(self, n):
        return n

    def coerce(self, a):
        """A public constructor's coefficient: an int or a Fraction as it is."""
        if isinstance(a, (int, Fraction)) and not isinstance(a, bool):
            return a
        raise ScalarError(f"a rational coefficient must be an int or a Fraction, got {a!r}")

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ScalarError("division by zero")
        return _int_if_integral(1 / Fraction(a))

    def is_zero(self, a):
        return a == 0

    def format(self, a):
        try:
            return str(a)
        except ValueError:
            raise ScalarError(
                f"a coefficient has more than {sys.get_int_max_str_digits()} digits,"
                " the interpreter's limit for printing an integer") from None

    def parse(self, text):
        s = text.strip()
        # Fraction expands 1e<exponent> into an int: refuse an exponent past
        # the interpreter's digit limit (0: no limit) before it does
        limit = sys.get_int_max_str_digits()
        try:
            exponent = int(s.lower().partition("e")[2] or 0)
            if not limit or abs(exponent) <= limit:
                return _int_if_integral(Fraction(s))
        except (ValueError, ZeroDivisionError) as exc:
            raise ScalarError(f"bad rational scalar {text!r}") from exc
        raise ScalarError(
            f"rational scalar {text!r} has an exponent beyond {limit},"
            " the interpreter's digit limit")

    def signature(self):
        return ("rational",)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash(self.signature())


def _int_if_integral(f):
    """A Fraction as an int when it is integral."""
    return f.numerator if f.denominator == 1 else f


class PrimeField:
    """The field with p elements; scalars are ints reduced to [0, p)."""

    kind = "prime"

    def __init__(self, p):
        if not isinstance(p, int) or not (2 <= p < MAX_PRIME) or not _is_prime(p):
            raise ScalarError(f"modulus must be a prime below 2^31, got {p!r}")
        self.p = p
        self.zero = 0
        self.one = 1 % p
        self.label = f"gfp:{p}"

    def from_int(self, n):
        return n % self.p

    def coerce(self, a):
        """A public constructor's coefficient: an int, reduced into [0, p)."""
        if isinstance(a, int) and not isinstance(a, bool):
            return a % self.p
        raise ScalarError(f"a coefficient over {self.label} must be an int, got {a!r}")

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ScalarError("division by zero")
        return pow(a, -1, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    def format(self, a):
        return f"{a % self.p} mod {self.p}"

    def parse(self, text):
        s = text.strip()
        if "mod" in s:
            left, _, right = s.partition("mod")
            if right.strip() != str(self.p):
                raise ScalarError(f"scalar {text!r} names a different modulus")
            s = left.strip()
        try:
            if "/" in s:
                num, _, den = s.partition("/")
                return self.mul(self.from_int(int(num)), self.inv(self.from_int(int(den))))
            return self.from_int(int(s))
        except (ValueError, ScalarError) as exc:
            raise ScalarError(f"bad scalar {text!r} for {self.label}") from exc

    def signature(self):
        return ("prime", self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(self.signature())


def get_field(label):
    """Build a field from a label: 'q' or 'gfp:<p>'."""
    s = label.strip().lower()
    if s in ("q", "qq", "rational"):
        return RationalField()
    if s.startswith("gfp:"):
        try:
            p = int(s.split(":", 1)[1])
        except ValueError as exc:
            raise ScalarError(f"bad field label {label!r}") from exc
        return PrimeField(p)
    raise ScalarError(f"unknown field label {label!r} (want 'q' or 'gfp:<p>')")


def linear_combination(field, pairs):
    """The canonical sparse sum of (key, coeff) pairs: a dict in which
    repeated keys are merged with ``field.add`` and no coefficient is zero."""
    add, is_zero = field.add, field.is_zero
    acc = {}
    merged = False
    for key, coeff in pairs:
        if is_zero(coeff):
            continue
        if key in acc:
            acc[key] = add(acc[key], coeff)
            merged = True
        else:
            acc[key] = coeff
    # Only a merge can cancel to zero.
    return {k: v for k, v in acc.items() if not is_zero(v)} if merged else acc


def power_sign(field, exponent):
    """(-1)^exponent as a scalar of the field."""
    return field.one if exponent % 2 == 0 else field.neg(field.one)
