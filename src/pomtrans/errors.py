"""Exception types shared across the package, and the one rule for what is a number:
in a record, in a message and in a cell of a text file."""

import sys

import numpy as np


def is_number(value, arrays: bool = False) -> bool:
    """Whether ``value`` is a real number: a float, an int within float range or a
    numpy real scalar; with ``arrays``, also a numpy array of ints or floats.

    A boolean (which would read as 0 or 1), a string, a list, a complex value
    and an int too large for a float are not numbers.  The JSON readers parse
    integers as floats, so an integer literal beyond float range reads as inf.
    """
    if type(value) is float:
        return True
    dtype = getattr(value, "dtype", None)
    if dtype is not None:
        return dtype.kind in "iuf" and (arrays or value.ndim == 0)
    return type(value) is int and abs(value) <= sys.float_info.max


def shown(value) -> str:
    """``repr(value)``, except that an int with more decimal digits than Python converts
    (``sys.get_int_max_str_digits()``), alone or in a tuple or list, is shown by its bit count."""
    limit = sys.get_int_max_str_digits()
    if isinstance(value, int) and limit and abs(value) >= 10**limit:
        return f"<int of {value.bit_length()} bits>"
    if type(value) is list:
        return f"[{', '.join(map(shown, value))}]"
    if type(value) is tuple:
        return f"({', '.join(map(shown, value))}{',' if len(value) == 1 else ''})"
    return repr(value)


def parse_number(text: str, convert=float):
    """``convert(text)`` of a text-file cell, read by the rule ``np.loadtxt`` reads rows by.

    Whitespace around the cell is dropped; a cell with an underscore or a
    non-ASCII character, which ``float()`` and ``int()`` would read (``'1_0'``
    as 10), raises ``ValueError``, as any other malformed cell does.

    ``text`` may also be a numpy array of byte cells, each byte one latin-1
    character as ``np.loadtxt`` stores a cell in a bytes field: it is read
    cell by cell to a float array by the same rule, in one cast unless a cell
    has an underscore or is refused by ``float()`` of bytes, which drops only
    ASCII whitespace; then each cell is read as its text, in order.
    """
    if isinstance(text, np.ndarray):
        if not (np.strings.find(text, b"_") >= 0).any():
            try:
                return text.astype(float)
            except ValueError:
                pass
        return np.array([parse_number(cell.decode("latin-1"))
                         for cell in text.ravel().tolist()]).reshape(text.shape)
    text = text.strip()
    if "_" in text or not text.isascii():
        raise ValueError(f"not a number: {text!r}")
    return convert(text)


def require_number(value, what: str, arrays: bool = False) -> None:
    """Raise :class:`ParameterError` naming ``what`` unless :func:`is_number` holds."""
    if not is_number(value, arrays):
        raise ParameterError(f"{what} is not a number: {shown(value)}")


class PomtransError(Exception):
    """Base class for all package errors."""


class ParameterError(PomtransError):
    """Invalid, inconsistent, or unknown input parameters."""


class UnknownNodeError(PomtransError):
    """A graph operation referenced a node id that does not exist."""

    def __init__(self, node_id):
        super().__init__(f"unknown node id: {node_id!r}")
        self.node_id = node_id


class EdgeGainError(PomtransError):
    """An edge gain function failed to evaluate; carries the edge identity."""

    def __init__(self, src, dst, cause):
        super().__init__(f"gain evaluation failed on edge {src!r} -> {dst!r}: {cause}")
        self.src = src
        self.dst = dst


class SingularityError(PomtransError):
    """The linear network is singular at the requested frequency."""

    def __init__(self, omega, detail=""):
        msg = f"singular network response at omega = {omega!r} rad/s"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
        self.omega = omega


class ModelViolationError(PomtransError):
    """A physical bound was violated, signalling an invalid parameter set."""


class UndefinedOptimumError(PomtransError):
    """An optimum was requested for a configuration where none exists."""


class GridError(PomtransError):
    """A sampling grid is unusable for the requested operation."""


class MaterialDataError(PomtransError):
    """Missing or malformed material property data."""
