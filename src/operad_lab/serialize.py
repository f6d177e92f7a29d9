"""JSON encodings for elements and verification reports.

Element JSON: {"operad": label, "arity": n, "terms": [{"basis": [...],
"coeff": "..."}]} with terms sorted by basis key and coefficients rendered
by the field ("3", "-1/2", "4 mod 32003").  All dumps are deterministic:
sorted keys, fixed separators, no timestamps.
"""

import json

from .elements import Element, OperadError, _json_text, json_int, json_scalar


def element_to_json(x):
    return {
        "operad": x.operad.label,
        "arity": x.arity,
        "terms": [
            {"basis": x.operad.basis_to_json(k), "coeff": x.operad.field.format(v)}
            for k, v in x.sorted_terms()
        ],
    }


def element_from_json(data, operad):
    if not isinstance(data, dict) or "terms" not in data:
        raise OperadError("element JSON needs an object with a 'terms' array")
    label = data.get("operad")
    if label is not None and label != operad.label:
        raise OperadError(f"element JSON is for operad {label!r}, expected {operad.label!r}")
    if "arity" not in data:
        raise OperadError("element JSON needs an 'arity' field")
    try:
        arity = json_int(data["arity"], "arity")
        terms = data["terms"]
        if not isinstance(terms, list):
            raise OperadError(f"terms must be an array, got {_json_text(terms)}")
        for t in terms:
            if not isinstance(t, dict):
                raise OperadError(f"a term must be an object, got {_json_text(t)}")
        raw = [(operad.basis_from_json(t["basis"]), t["coeff"]) for t in terms]
    except KeyError as exc:
        raise OperadError(f"element JSON term needs a {exc} field") from None
    except OperadError as exc:
        raise OperadError(f"malformed element JSON: {exc}") from None
    return Element(operad, arity, [(key, json_scalar(operad.field, c)) for key, c in raw])


def dumps(obj):
    """Canonical deterministic JSON text."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def pairs_to_json(pairs):
    """Tensor summand list -> JSON array of {left, right} element objects."""
    return [
        {"left": element_to_json(a), "right": element_to_json(b)} for a, b in pairs
    ]
