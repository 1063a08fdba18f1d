"""Typed values of the JSON documents: kernels, DG fields and run configs.

Each converter returns its value as the type its loader needs, or raises
TypeError saying what it expected (a string that does not parse raises
ValueError naming it); a JSON true or false is never a number.  The kernel,
basis and run-config loaders (`FilterKernel.from_dict`, `basis_from_dict`,
`RunConfig.from_dict`) and the CLI's fraction flags read through the
converters and name the key or flag in their own errors.  `is_finite` is the
one finiteness rule for input numbers: `hex_float`, `DGField.from_dict`,
`Mesh`, `solve` and the basis constructors use it too.
"""

from __future__ import annotations

import numbers
import re
import sys
from fractions import Fraction

# Every value read ends up in binary64 (decimal exponents -324 to 308); a bound
# past both ends refuses "1e-3000000" before `Fraction` expands it to millions
# of digits, seconds of work and more than the 4300 digits Python prints.
MAX_DECIMAL_EXPONENT = 400
_EXPONENT = re.compile(r"[eE][-+]?(\d+(?:_\d+)*)\s*\Z")


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

    A string `Fraction` refuses, "1/0" among them, raises ValueError("not a
    rational number: ..."), and so does one whose decimal exponent lies
    beyond MAX_DECIMAL_EXPONENT.
    """
    if not (isinstance(v, str) or is_a(v, numbers.Rational)):
        raise TypeError(f"expected a fraction string, got {v!r}")
    exponent = _EXPONENT.search(v) if isinstance(v, str) else None
    # float, not int: an exponent of more than 4300 digits compares too
    if exponent and float(exponent[1]) > MAX_DECIMAL_EXPONENT:
        raise ValueError(f"not a rational number: {v!r} has a decimal exponent beyond {MAX_DECIMAL_EXPONENT}")
    try:
        return Fraction(v)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not a rational number: {v!r}") from None


def hex_float(v) -> float:
    """A finite binary64 written by `float.hex`; "inf", "nan" and overflow ("0x1p+2000") raise ValueError."""
    if not isinstance(v, str):
        raise TypeError(f"expected a hex float string, got {v!r}")
    try:
        x = float.fromhex(v)
    except (ValueError, OverflowError):
        x = None
    if not is_finite(x):
        raise ValueError(f"not a finite hex float: {v!r}")
    return x


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
