"""Float rows inside, numpy arrays at the edge.

The engine computes on Python floats: a vector is a tuple of three
floats, a matrix a tuple of its rows and a 3x3x3 array a tuple of such
matrices.  numpy is imported only where the public API hands an array
out: an ``ArrayField`` of a dataclass builds a read-only ndarray from its
rows on first read, and ``array`` builds one for a function that returns
a matrix.  So a CLI subcommand that reads no such field never imports
numpy.
"""

from __future__ import annotations

from typing import Any

#: a vector of three Python floats
Vec = tuple[float, float, float]
#: a 3x3 matrix as its rows
Rows = tuple[Vec, Vec, Vec]
#: what an ArrayField reads as: a read-only numpy.ndarray
Array = Any


def float_rows(value, rank: int = 2):
    """value, a 3 x ... x 3 array of the given rank (an ndarray or nested
    sequences), as nested tuples of Python floats; ValueError or TypeError
    if it has another shape or an entry that is not a number."""
    if hasattr(value, "tolist"):
        value = value.tolist()
    x, y, z = value
    if rank == 1:
        return float(x), float(y), float(z)
    rank -= 1
    return float_rows(x, rank), float_rows(y, rank), float_rows(z, rank)


def array(rows, read_only: bool = False):
    """rows as a float ndarray."""
    import numpy as np
    out = np.array(rows, dtype=float)
    if read_only:
        out.setflags(write=False)
    return out


def matmul(a: Rows, b: Rows) -> Rows:
    """The product a b of two 3x3 matrices given as rows."""
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
    (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = b
    return ((a00 * b00 + a01 * b10 + a02 * b20, a00 * b01 + a01 * b11 + a02 * b21,
             a00 * b02 + a01 * b12 + a02 * b22),
            (a10 * b00 + a11 * b10 + a12 * b20, a10 * b01 + a11 * b11 + a12 * b21,
             a10 * b02 + a11 * b12 + a12 * b22),
            (a20 * b00 + a21 * b10 + a22 * b20, a20 * b01 + a21 * b11 + a22 * b21,
             a20 * b02 + a21 * b12 + a22 * b22))


def transpose(a: Rows) -> Rows:
    return tuple(zip(*a))


class ArrayField:
    """A dataclass field held as float rows and read as a read-only ndarray.

    Assignment, including the dataclass's own __init__, converts the value
    to nested float tuples of the field's rank, kept in the instance's
    ``_<name>``, where the package reads them; a value of another shape,
    or with an entry that is not a number, raises ValueError(message).
    The first read of ``<name>`` builds the ndarray.  The field has no
    default.
    """

    def __init__(self, rank: int = 2, message: str | None = None):
        self.rank, self.message = rank, message

    def __set_name__(self, owner, name: str) -> None:
        self.rows, self.array = "_" + name, f"_{name}_array"
        if self.message is None:
            self.message = f"{owner.__name__}.{name} must be 3x3" + "x3" * (self.rank - 2)

    def __get__(self, obj, owner):
        if obj is None:
            raise AttributeError(f"{owner.__name__}.{self.rows[1:]} has no default")
        memo = obj.__dict__
        if self.array not in memo:
            memo[self.array] = array(memo[self.rows], read_only=True)
        return memo[self.array]

    def __set__(self, obj, value) -> None:
        try:
            value = float_rows(value, self.rank)
        except (TypeError, ValueError):
            raise ValueError(self.message) from None
        obj.__dict__[self.rows] = value
        obj.__dict__.pop(self.array, None)
