"""Binary field file format.

Layout (all integers little-endian unsigned 32-bit, floats little-endian
IEEE-754 doubles):

    magic  "MXFD" (4 bytes)
    version u32
    dim     u32
    ncomp   u32
    n per axis, dim times (u32 each)
    length per axis, dim times (f64 each)
    ncomp * prod(n) complex samples as interleaved (re, im) f64 pairs,
    component-major, row-major within a component

The byte length is fully determined by the header and a read/write
round-trip is the identity.
"""

import struct

import numpy as np

from .errors import FieldFormatError
from .spectral import Field, Grid

MAGIC = b"MXFD"
VERSION = 1


def write_field(path, field):
    """Write a Field to ``path`` in the MXFD format."""
    grid = field.grid
    dim = grid.dim
    ncomp = field.ncomp
    header = MAGIC + struct.pack("<3I", VERSION, dim, ncomp)
    header += struct.pack("<%dI" % dim, *([grid.n] * dim))
    header += struct.pack("<%dd" % dim, *([grid.length] * dim))
    # written straight from the array's buffer, with no copy when the
    # samples are already contiguous little-endian complex128
    samples = np.ascontiguousarray(field.data, dtype="<c16")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(samples)


def read_field(path):
    """Read an MXFD file back into a Field."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 16 or raw[:4] != MAGIC:
        raise FieldFormatError("not an MXFD file: %r" % (raw[:4],))
    version, dim, ncomp = struct.unpack_from("<3I", raw, 4)
    if version != VERSION:
        raise FieldFormatError("unsupported version %d" % version)
    if dim not in (2, 3):
        raise FieldFormatError("dimension must be 2 or 3, got %d" % dim)
    off = 16
    ns = struct.unpack_from("<%dI" % dim, raw, off)
    off += 4 * dim
    lengths = struct.unpack_from("<%dd" % dim, raw, off)
    off += 8 * dim
    if len(set(ns)) != 1 or len(set(lengths)) != 1:
        raise FieldFormatError("only cubic grids are supported")
    n, length = ns[0], lengths[0]
    count = ncomp * n ** dim
    expected = off + 16 * count
    if len(raw) != expected:
        raise FieldFormatError(
            "file length %d does not match header (expected %d)"
            % (len(raw), expected))
    data = np.frombuffer(raw, dtype="<c16", count=count, offset=off)
    # Field keeps its own read-only copy of the samples
    return Field(Grid(dim, n, length), data.reshape((ncomp,) + (n,) * dim))
