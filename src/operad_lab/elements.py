"""Linear combinations of operad basis elements with exact coefficients.

An Element is a finite sum ``sum c_b * b`` of basis keys of a single arity,
attached to one operad instance (which owns the field).  Arithmetic is plain
linear algebra; all operadic structure lives in :mod:`operad_lab.core` and in
the per-operad modules, which subclass the ``Operad`` base defined here.  The
JSON readers of keys, elements, dense maps and algebras share the reader and
the integer and coefficient checks defined here.
"""

import json
import re
import sys
from decimal import Decimal
from itertools import chain

from .scalars import linear_combination


class OperadError(ValueError):
    """Domain error: bad arity, bad slot, malformed basis key, mixed operads."""


# The deepest nesting of arrays and objects that ``read_json`` reads, a rule
# of its own: below the depth at which any supported interpreter's parser
# stops (about 900 levels on 3.10), so every interpreter reads the same text.
_JSON_DEPTH = 512
# a string, closed or not, or one bracket outside strings
_NESTING = re.compile(r'"(?:[^"\\]+|\\.)*"?|[][{}]', re.S)


class _Number(str):
    """A JSON number literal with a fraction or an exponent, kept as its own
    text, so that a reader takes the value the literal writes; its repr is
    that text, as a number's is."""

    __repr__ = str.__str__


def _digits_refusal():
    return OperadError(f"a JSON integer has more than {sys.get_int_max_str_digits()} digits,"
                       " the interpreter's limit for reading an integer")


def read_json(text):
    """The JSON value of ``text``, or of the UTF-8 file it names as
    ``@path``, each number literal with a fraction or an exponent kept as
    its text (``_Number``).  Undecodable bytes, arrays and objects nested
    more than 512 deep, malformed JSON and an integer literal too long to
    convert each raise one ``OperadError``; a file that cannot be opened
    raises ``OSError``.  The depth is counted in one pass over the text,
    outside its strings, before the text is parsed."""
    if text.startswith("@"):
        try:
            with open(text[1:], "r", encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise OperadError(f"{text[1:]} is not UTF-8 text: {exc}") from None
    depth = 0
    for token in _NESTING.findall(text):
        if token in ("[", "{"):
            depth += 1
            if depth > _JSON_DEPTH:
                raise OperadError("JSON nested too deeply to read")
        elif token in ("]", "}"):
            depth -= 1
    try:
        return json.loads(text, parse_float=_Number)
    except json.JSONDecodeError as exc:
        raise OperadError(str(exc)) from None
    except ValueError:
        # the parser raises a plain ValueError only for an integer literal
        # past the interpreter's digit limit
        raise _digits_refusal() from None


def _json_text(value):
    """A refused JSON value as it reads in JSON (``true``, ``null``,
    ``"x"``, ``2.9``), or an array or an object by its kind alone, since it
    may nest deeper than the encoder recurses."""
    if isinstance(value, (list, dict)):
        return "an array" if isinstance(value, list) else "an object"
    return value if isinstance(value, _Number) else json.dumps(value)


def json_int(value, what):
    """An integer read from JSON.  JSON ``true`` decodes to a Python int and
    ``2.9`` is no integer; both are rejected here instead of being
    truncated.  An integral literal with a fraction or an exponent (``2.0``,
    ``1e5``) is read exactly, unless it has more digits than the
    interpreter reads into an int."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, _Number):
        try:
            number = Decimal(value)
        except ArithmeticError:
            # an exponent of 19 digits or more: past the digit limit when
            # positive, and no integer when negative
            if "e-" in value.lower():
                raise OperadError(f"{what} must be an integer, got {value}") from None
            raise _digits_refusal() from None
        if number == number.to_integral_value():
            limit = sys.get_int_max_str_digits()
            if number and limit and number.adjusted() >= limit:
                raise _digits_refusal()
            return int(number)
    raise OperadError(f"{what} must be an integer, got {_json_text(value)}")


def json_scalar(field, value):
    """A coefficient read from JSON: an int exactly, and a string or a
    number literal (``read_json`` keeps its text) through ``field.parse``.
    Anything else is refused before ``field.parse``, ``true`` too, though
    it decodes to a Python int."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise OperadError(f"a coefficient must be a number or a string, got {_json_text(value)}")
    if isinstance(value, int):
        return field.from_int(value)
    return field.parse(str(value))


class Element:
    """Public construction, ``Element(operad, arity, terms)`` and
    ``Element.basis``, checks every coefficient (``field.coerce``) and
    validates every basis key with a nonzero one.  Every combination the
    library builds itself goes through ``Element._sum``, which does neither."""

    __slots__ = ("operad", "arity", "terms")

    def __init__(self, operad, arity, terms):
        if arity < 0:
            raise OperadError(f"negative arity {arity}")
        field, validate = operad.field, operad.validate_basis
        self._fill(operad, arity, [
            (validate(key, arity), c)
            for key, coeff in (terms.items() if isinstance(terms, dict) else terms)
            if not field.is_zero(c := field.coerce(coeff))
        ])

    @classmethod
    def _sum(cls, operad, arity, pairs):
        """Trusted constructor: sum (key, coeff) pairs whose keys are known
        to be valid for ``arity``."""
        out = cls.__new__(cls)
        out._fill(operad, arity, pairs)
        return out

    def _fill(self, operad, arity, pairs):
        self.operad = operad
        self.arity = arity
        self.terms = linear_combination(operad.field, pairs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, operad, arity):
        return cls(operad, arity, {})

    @classmethod
    def basis(cls, operad, key):
        return cls(operad, operad.arity_of(key), {key: operad.field.one})

    # -- linear structure --------------------------------------------------

    def _check_mate(self, other):
        if not isinstance(other, Element):
            raise OperadError(f"expected Element, got {type(other).__name__}")
        if self.operad.signature() != other.operad.signature():
            raise OperadError(
                f"mixed operads: {self.operad.label} vs {other.operad.label}"
            )
        if self.arity != other.arity:
            raise OperadError(f"mixed arities: {self.arity} vs {other.arity}")

    def __add__(self, other):
        self._check_mate(other)
        return Element._sum(
            self.operad, self.arity, chain(self.terms.items(), other.terms.items())
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        neg = self.operad.field.neg
        return Element._sum(
            self.operad, self.arity, [(k, neg(v)) for k, v in self.terms.items()]
        )

    def scale(self, coeff):
        mul = self.operad.field.mul
        return Element._sum(
            self.operad, self.arity, [(k, mul(coeff, v)) for k, v in self.terms.items()]
        )

    def is_zero(self):
        return not self.terms

    def coefficient(self, key):
        return self.terms.get(key, self.operad.field.zero)

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return (
            self.operad.signature() == other.operad.signature()
            and self.arity == other.arity
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(
            (self.operad.signature(), self.arity, tuple(self.sorted_terms()))
        )

    def __repr__(self):
        return f"Element({self.operad.label}, arity={self.arity}, {self.format()})"

    def format(self):
        """Human-readable sum, deterministic term order."""
        if self.is_zero():
            return "0"
        field = self.operad.field
        parts = []
        for key, coeff in self.sorted_terms():
            word = self.operad.format_basis(key)
            c = field.format(coeff)
            parts.append(word if c == "1" else f"{c}*{word}")
        return " + ".join(parts)


class Operad:
    """What the operad instances share: a field, tuple keys whose length is
    their arity, the unit (1,), the product (1, 2), the point () and the
    JSON list codec of keys.  An instance sets ``label`` and defines
    ``validate_basis``, ``compose_basis``, ``basis_keys``, ``dimension``,
    ``random_basis``, ``format_basis`` and ``parse_basis``; ``core`` needs
    nothing else.  ``compose_basis`` is called only on a key of arity >= 1
    and a slot in range, which ``core.compose`` checks."""

    def __init__(self, field):
        self.field = field
        self._point = self._product = None

    def signature(self):
        return (self.label, self.field.signature())

    def arity_of(self, key):
        return len(key)

    def unit_one(self):
        return Element._sum(self, 1, [((1,), self.field.one)])

    def unit_zero(self):
        """The point, built on first use and shared after that."""
        if self._point is None:
            self._point = Element._sum(self, 0, [((), self.field.one)])
        return self._point

    def multiplication(self):
        """The product (1, 2), built on first use and shared after that."""
        if self._product is None:
            self._product = Element._sum(self, 2, [((1, 2), self.field.one)])
        return self._product

    def basis_to_json(self, key):
        return list(key)

    def basis_from_json(self, data):
        if not isinstance(data, list):
            raise OperadError(f"basis must be an array, got {_json_text(data)}")
        return tuple(json_int(v, "basis entry") for v in data)
