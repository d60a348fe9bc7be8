import struct

import numpy as np
import pytest

from maxres import fieldfile
from maxres import spectral as sp
from maxres.errors import FieldFormatError

RNG = np.random.default_rng(11)


def _sample_field(dim=2, n=8, ncomp=3):
    g = sp.Grid(dim, n)
    data = (RNG.normal(size=(ncomp,) + (n,) * dim)
            + 1j * RNG.normal(size=(ncomp,) + (n,) * dim))
    return sp.Field(g, data)


def test_round_trip_identity(tmp_path):
    for dim, ncomp in ((2, 3), (3, 6)):
        f = _sample_field(dim=dim, ncomp=ncomp)
        path = tmp_path / ('f%d.mxfd' % dim)
        fieldfile.write_field(path, f)
        back = fieldfile.read_field(path)
        assert back.grid.dim == dim and back.grid.n == f.grid.n
        assert back.grid.length == f.grid.length
        assert np.array_equal(back.data, f.data)


def test_rewrite_is_byte_identical(tmp_path):
    f = _sample_field()
    p1, p2 = tmp_path / 'a.mxfd', tmp_path / 'b.mxfd'
    fieldfile.write_field(p1, f)
    fieldfile.write_field(p2, fieldfile.read_field(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_magic(tmp_path):
    path = tmp_path / 'bad.mxfd'
    path.write_bytes(b'NOPE' + b'\0' * 32)
    with pytest.raises(FieldFormatError):
        fieldfile.read_field(path)


def test_truncated_payload(tmp_path):
    f = _sample_field()
    path = tmp_path / 'f.mxfd'
    fieldfile.write_field(path, f)
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])
    with pytest.raises(FieldFormatError):
        fieldfile.read_field(path)


def test_unsupported_version(tmp_path):
    f = _sample_field()
    path = tmp_path / 'f.mxfd'
    fieldfile.write_field(path, f)
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack('<I', 99)
    path.write_bytes(bytes(raw))
    with pytest.raises(FieldFormatError):
        fieldfile.read_field(path)


def test_noncubic_rejected(tmp_path):
    header = (fieldfile.MAGIC + struct.pack('<3I', fieldfile.VERSION, 2, 1)
              + struct.pack('<2I', 4, 8)
              + struct.pack('<2d', 2 * np.pi, 2 * np.pi))
    payload = np.zeros(32, dtype='<c16').tobytes()
    path = tmp_path / 'rect.mxfd'
    path.write_bytes(header + payload)
    with pytest.raises(FieldFormatError):
        fieldfile.read_field(path)


@pytest.mark.parametrize('dim', [1, 4])
def test_dimension_other_than_2_or_3_rejected(tmp_path, dim):
    header = (fieldfile.MAGIC
              + struct.pack('<3I', fieldfile.VERSION, dim, 1)
              + struct.pack('<%dI' % dim, *([4] * dim))
              + struct.pack('<%dd' % dim, *([2 * np.pi] * dim)))
    path = tmp_path / 'dim.mxfd'
    path.write_bytes(header + np.zeros(4 ** dim, dtype='<c16').tobytes())
    with pytest.raises(FieldFormatError, match='dimension must be 2 or 3'):
        fieldfile.read_field(path)
