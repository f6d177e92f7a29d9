"""Linear combinations of operad basis elements with exact coefficients.

An Element is a finite sum ``sum c_b * b`` of basis keys of a single arity,
attached to one operad instance (which owns the field).  Arithmetic is plain
linear algebra; all operadic structure lives in :mod:`operad_lab.core` and in
the per-operad modules, which subclass the ``Operad`` base defined here.  The
JSON readers of keys, elements, dense maps and algebras share the reader and
the integer and coefficient checks defined here.
"""

import json
from itertools import chain

from .scalars import linear_combination


class OperadError(ValueError):
    """Domain error: bad arity, bad slot, malformed basis key, mixed operads."""


def read_json(text):
    """The JSON value of ``text``, or of the UTF-8 file it names as
    ``@path``.  Undecodable bytes, nesting too deep for the parser, malformed
    JSON and an integer literal too long to convert each raise one
    ``OperadError``; a file that cannot be opened raises ``OSError``."""
    try:
        if text.startswith("@"):
            with open(text[1:], "r", encoding="utf-8") as fh:
                return json.load(fh)
        return json.loads(text)
    except UnicodeDecodeError as exc:
        raise OperadError(f"{text[1:]} is not UTF-8 text: {exc}") from None
    except RecursionError:
        raise OperadError("JSON nested too deeply to read") from None
    except ValueError as exc:
        raise OperadError(str(exc)) from None


def json_int(value, what):
    """An integer read from JSON.  JSON ``true`` decodes to a Python int and
    ``2.9`` to a float; both are rejected here instead of being truncated."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise OperadError(f"{what} must be an integer, got {value!r}")


def json_scalar(field, value):
    """A coefficient read from JSON: an int exactly, anything else through
    ``field.parse``, where a ``true`` fails."""
    if isinstance(value, int) and not isinstance(value, bool):
        return field.from_int(value)
    return field.parse(str(value))


class Element:
    """Public construction, ``Element(operad, arity, terms)`` and
    ``Element.basis``, validates every basis key with a nonzero coefficient.
    Every combination the library builds from keys it produced itself goes
    through ``Element._sum``, which does not validate again."""

    __slots__ = ("operad", "arity", "terms")

    def __init__(self, operad, arity, terms):
        if arity < 0:
            raise OperadError(f"negative arity {arity}")
        is_zero, validate = operad.field.is_zero, operad.validate_basis
        self._fill(operad, arity, [
            (validate(key, arity), coeff)
            for key, coeff in (terms.items() if isinstance(terms, dict) else terms)
            if not is_zero(coeff)
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
        return tuple(json_int(v, "basis entry") for v in data)
