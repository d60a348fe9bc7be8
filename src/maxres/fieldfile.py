"""Binary field file format (MXFD).

A file holds a field's spectral coefficients on a per-axis support, the
form a ``spectral.Field`` holds them in.  Version 2 layout (integers
little-endian unsigned 32-bit, floats little-endian IEEE-754 doubles):

    magic   "MXFD" (4 bytes)
    version u32 (2)
    dim     u32
    ncomp   u32
    n per axis, dim times (u32 each)
    length per axis, dim times (f64 each)
    support size m_a per axis, dim times (u32 each)
    the support of each axis in turn: m_a sorted storage indices
    (u32 each, strictly increasing, each < n)
    ncomp * prod(m_a) complex coefficients as interleaved (re, im) f64
    pairs, component-major, row-major within a component, in the
    norm='forward' convention of spectral.Field (c = fftn(f) / n^d)

``write_field`` writes version 2 only, on the support of the field's
nonzero modes (``Field._tight``) and with -0.0 written as +0.0, so two
fields with equal coefficients write equal bytes, whatever support they
are held on.  ``read_field`` returns a version-2 field on the support
that was written, bit-exact in its coefficients and with no FFT.  It
still reads version 1, whose header is the same up to the lengths and
is followed by ``ncomp * prod(n)`` samples in the same component-major,
row-major order; those are transformed once (``Field(grid, samples)``).

The byte length of either version is fully determined by its header.  A
short, long or malformed file is a FieldFormatError that names the
field at fault.
"""

import math
import struct

import numpy as np

from .errors import FieldFormatError, InvalidArgument
from .spectral import Field, Grid

MAGIC = b"MXFD"
VERSION = 2


def write_field(path, field):
    """Write a Field to ``path`` in the MXFD version-2 format: its
    coefficient block on the support of its nonzero modes."""
    grid = field.grid
    dim = grid.dim
    tight = Field._tight(grid, field._kept, field._sup)
    header = MAGIC + struct.pack("<3I", VERSION, dim, field.ncomp)
    header += struct.pack("<%dI" % dim, *([grid.n] * dim))
    header += struct.pack("<%dd" % dim, *([grid.length] * dim))
    header += struct.pack("<%dI" % dim, *map(len, tight._sup))
    header += b"".join(np.asarray(s, dtype="<u4").tobytes()
                       for s in tight._sup)
    # + 0.0 turns -0.0 into +0.0, which is the only way two equal
    # coefficients can differ in their bits
    block = np.ascontiguousarray(tight._kept + 0.0, dtype="<c16")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(block)


def read_field(path):
    """Read an MXFD file (version 2, or version 1) back into a Field."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != MAGIC:
        raise FieldFormatError("not an MXFD file: %r" % (raw[:4],))
    (version, dim, ncomp), off = _take(raw, 4, "<3I",
                                       "version, dim and ncomp")
    if version not in (1, VERSION):
        raise FieldFormatError("unsupported version %d" % version)
    if dim not in (2, 3):
        raise FieldFormatError("dimension must be 2 or 3, got %d" % dim)
    if ncomp == 0:
        raise FieldFormatError("ncomp must be positive, got 0")
    ns, off = _take(raw, off, "<%dI" % dim, "grid sizes n")
    lengths, off = _take(raw, off, "<%dd" % dim, "box lengths")
    if not all(0 < v < math.inf for v in lengths):
        raise FieldFormatError("box length must be finite and positive, "
                               "got %r" % (lengths,))
    if len(set(ns)) != 1 or len(set(lengths)) != 1:
        raise FieldFormatError("only cubic grids are supported")
    try:
        grid = Grid(dim, ns[0], lengths[0])
    except InvalidArgument as exc:
        raise FieldFormatError("grid (n = %d, length = %r): %s"
                               % (ns[0], lengths[0], exc))
    if version == 1:
        samples = _payload(raw, off, (ncomp,) + (grid.n,) * dim)
        # Field keeps its own read-only copy of the samples
        return Field(grid, samples)
    sizes, off = _take(raw, off, "<%dI" % dim, "support sizes m_a")
    sup = []
    for a, m in enumerate(sizes, 1):
        if m > grid.n:
            raise FieldFormatError("support size m_%d = %d is above n = %d"
                                   % (a, m, grid.n))
        idx, off = _take(raw, off, "<%dI" % m, "support of axis %d" % a)
        idx = np.array(idx, dtype=np.intp)
        if np.any(np.diff(idx) <= 0):
            raise FieldFormatError("support of axis %d is not strictly "
                                   "increasing (unsorted or duplicate "
                                   "indices)" % a)
        if m and idx[-1] >= grid.n:
            raise FieldFormatError("support of axis %d has index %d, not "
                                   "below n = %d" % (a, idx[-1], grid.n))
        sup.append(idx)
    block = _payload(raw, off, (ncomp,) + tuple(sizes))
    # an aligned copy: the file's offsets leave the view unaligned
    return Field._on_support(grid, block.astype(complex), tuple(sup))


def _take(raw, off, fmt, what):
    """The values of ``fmt`` at byte ``off`` and the offset after them;
    a file that ends before them is refused, naming ``what``."""
    end = off + struct.calcsize(fmt)
    if len(raw) < end:
        raise FieldFormatError("file ends in the %s: %d bytes, need at "
                               "least %d" % (what, len(raw), end))
    return struct.unpack_from(fmt, raw, off), end


def _payload(raw, off, shape):
    """The complex payload of ``shape`` at byte ``off``, as a read-only
    view; it must end the file exactly."""
    count = math.prod(shape)
    expected = off + 16 * count
    if len(raw) != expected:
        raise FieldFormatError(
            "payload is %s: file length %d does not match the header "
            "(expected %d)" % ("short" if len(raw) < expected else "long",
                               len(raw), expected))
    return np.frombuffer(raw, dtype="<c16", count=count,
                         offset=off).reshape(shape)
