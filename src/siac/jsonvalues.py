"""Typed values of the JSON documents: kernels, DG fields and run configs.

Each converter returns its value as the type its loader needs, or raises
TypeError saying what it expected (a string that does not parse raises
ValueError, or `float.fromhex`'s OverflowError); a JSON true or false is
never a number.  The kernel and run-config loaders (`FilterKernel.from_dict`,
`RunConfig.from_dict`) and the CLI's fraction flags read through the
converters and name the key or flag in their own errors.  `is_finite` is the
one finiteness rule for input numbers: `DGField.from_dict`, `Mesh` and
`solve` use it too.
"""

from __future__ import annotations

import numbers
import sys
from fractions import Fraction


def is_a(v, kind) -> bool:
    """v is a number of the `numbers` class `kind`; a JSON true or false is not."""
    return isinstance(v, kind) and not isinstance(v, bool)


def is_finite(v) -> bool:
    """v is a number (`is_a`) within the float range: not NaN, inf, or an integer such as 10**400."""
    return is_a(v, numbers.Real) and abs(v) <= sys.float_info.max


def check_header(doc: dict, fmt: str, what: str) -> None:
    """Raise ValueError unless doc is a `fmt` document of version 1, the one version written."""
    if not isinstance(doc, dict) or doc.get("format") != fmt:
        raise ValueError(f"not a {what} document")
    if not (is_a(doc.get("version"), numbers.Integral) and doc["version"] == 1):
        raise ValueError(f"{what} document has version {doc.get('version')!r}; only version 1 can be read")


def integer(v) -> int:
    if not is_a(v, numbers.Integral):
        raise TypeError(f"expected an integer, got {v!r}")
    return int(v)


def number(v) -> float:
    if not is_finite(v):
        raise TypeError(f"expected a finite number, got {v!r}")
    return float(v)


def rational(v) -> Fraction:
    """A fraction string such as "1/4", or an integer or Fraction; never a float.

    A string `Fraction` refuses, "1/0" among them, raises ValueError("not a rational number: ...").
    """
    if not (isinstance(v, str) or is_a(v, numbers.Rational)):
        raise TypeError(f"expected a fraction string, got {v!r}")
    try:
        return Fraction(v)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not a rational number: {v!r}") from None


def hex_float(v) -> float:
    if not isinstance(v, str):
        raise TypeError(f"expected a hex float string, got {v!r}")
    return float.fromhex(v)


def mapping(v) -> dict:
    if not isinstance(v, dict):
        raise TypeError(f"expected an object, got {v!r}")
    return v


def list_of(convert):
    """A converter of lists, `convert` applied to each entry."""

    def parse(v) -> tuple:
        if not isinstance(v, (list, tuple)):
            raise TypeError(f"expected a list, got {v!r}")
        return tuple(convert(x) for x in v)

    return parse
