import struct

import numpy as np
import pytest

from maxres import fieldfile
from maxres import spectral as sp
from maxres.errors import FieldFormatError

RNG = np.random.default_rng(11)
TAU = 2 * np.pi


def _sample_field(dim=2, n=8, ncomp=3):
    g = sp.Grid(dim, n)
    data = (RNG.normal(size=(ncomp,) + (n,) * dim)
            + 1j * RNG.normal(size=(ncomp,) + (n,) * dim))
    return sp.Field(g, data)


def _no_fft(monkeypatch):
    """Make every numpy FFT that spectral can call fail the test."""
    for name in ('fft', 'ifft', 'fftn', 'ifftn', 'fft2', 'ifft2'):
        def refuse(*args, _name=name, **kw):
            raise AssertionError('%s ran' % _name)
        monkeypatch.setattr(sp.np.fft, name, refuse)


def _v1(samples, length=TAU):
    """A version-1 file packed by hand: the header, then the samples."""
    ncomp, dim, n = samples.shape[0], samples.ndim - 1, samples.shape[1]
    return (fieldfile.MAGIC + struct.pack('<3I', 1, dim, ncomp)
            + struct.pack('<%dI' % dim, *([n] * dim))
            + struct.pack('<%dd' % dim, *([length] * dim))
            + np.ascontiguousarray(samples, dtype='<c16').tobytes())


def _v2(sups, ncomp=1, n=8, length=TAU, count=None):
    """A version-2 file packed by hand on the 2D support ``sups``, with
    ``count`` coefficients (the header's count by default)."""
    if count is None:
        count = ncomp * len(sups[0]) * len(sups[1])
    return (fieldfile.MAGIC + struct.pack('<3I', 2, 2, ncomp)
            + struct.pack('<2I', n, n) + struct.pack('<2d', length, length)
            + struct.pack('<2I', *map(len, sups))
            + b''.join(struct.pack('<%dI' % len(s), *s) for s in sups)
            + np.ones(count, dtype='<c16').tobytes())


def test_round_trip_identity(tmp_path, monkeypatch):
    # coefficients and support come back bit-exact, and a band-held
    # field comes back band-held, with no FFT
    fields = [sp.random_band_limited(sp.Grid(2, 16), 3, RNG, kmax=3),
              sp.random_band_limited(sp.Grid(3, 16), 6, RNG),
              sp.random_band_limited(sp.Grid(2, 8), 3, RNG, kmax=4),
              _sample_field(dim=3, ncomp=6)]
    for i, f in enumerate(fields):
        path = tmp_path / ('f%d.mxfd' % i)
        fieldfile.write_field(path, f)
        with monkeypatch.context() as m:
            _no_fft(m)
            back = fieldfile.read_field(path)
        assert back.grid == f.grid
        assert back._kept.tobytes() == f._kept.tobytes()
        assert back._kept.shape == f._kept.shape
        assert all(np.array_equal(s, t) for s, t in zip(back._sup, f._sup))
        assert not back._kept.flags.writeable
    assert fields[1]._kept.shape == (6, 9, 9, 9)


def test_v1_file_is_read_and_its_samples_round_trip(tmp_path):
    for dim, ncomp in ((2, 3), (3, 6)):
        samples = _sample_field(dim=dim, ncomp=ncomp).data
        path = tmp_path / ('v1_%d.mxfd' % dim)
        path.write_bytes(_v1(samples))
        back = fieldfile.read_field(path)
        assert back.grid == sp.Grid(dim, 8)
        assert back.data.tobytes() == samples.tobytes()
        assert np.array_equal(back._kept, np.fft.fftn(
            samples, axes=tuple(range(1, dim + 1)), norm='forward'))
        # and it is written back as version 2
        fieldfile.write_field(path, back)
        assert struct.unpack_from('<I', path.read_bytes(), 4) == (2,)


def test_rewrite_is_byte_identical(tmp_path):
    f = _sample_field()
    p1, p2 = tmp_path / 'a.mxfd', tmp_path / 'b.mxfd'
    fieldfile.write_field(p1, f)
    fieldfile.write_field(p2, fieldfile.read_field(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_equal_coefficients_on_other_supports_write_equal_bytes(tmp_path):
    g = sp.Grid(3, 8)
    f = sp.random_band_limited(g, 6, RNG, kmax=1)
    c = f.coeffs()
    full = sp.Field._on_support(g, c, (np.arange(8),) * 3)
    # -0.0 off the band, where f holds nothing
    c_neg = c.copy()
    c_neg[c_neg == 0] = -0.0
    signed = sp.Field._on_support(g, c_neg, (np.arange(8),) * 3)
    union = f + sp.Field._on_support(g, np.zeros((6, 1, 2, 1)),
                                     ([4], [3, 5], [6]))
    written = []
    for i, h in enumerate((f, full, signed, union)):
        path = tmp_path / ('e%d.mxfd' % i)
        fieldfile.write_field(path, h)
        written.append(path.read_bytes())
    assert len(set(written)) == 1
    # the band's 3^3 modes, not the grid's 8^3
    assert len(written[0]) == 16 + 4 * 3 + 8 * 3 + 4 * 3 + 4 * 9 \
        + 16 * 6 * 27


def test_zeros_round_trip(tmp_path, monkeypatch):
    g = sp.Grid(3, 8)
    path = tmp_path / 'zero.mxfd'
    fieldfile.write_field(path, sp.Field.zeros(g, 6))
    with monkeypatch.context() as m:
        _no_fft(m)
        back = fieldfile.read_field(path)
    assert back.grid == g and back.ncomp == 6
    assert back._kept.shape == (6, 0, 0, 0)
    assert not back.data.any()
    # a field of zero coefficients on a nonempty support writes the same
    other = tmp_path / 'zero2.mxfd'
    fieldfile.write_field(other,
                          sp.Field.from_coeffs(g, np.zeros((6, 8, 8, 8))))
    assert other.read_bytes() == path.read_bytes()


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
    with pytest.raises(FieldFormatError, match='payload is short'):
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


_SAMPLES = np.ones((1, 8, 8))
MALFORMED = {
    # each was a bare struct.error
    'magic-only': (fieldfile.MAGIC, 'version, dim and ncomp'),
    'truncated-sizes': (fieldfile.MAGIC + struct.pack('<3I', 1, 3, 6)
                        + struct.pack('<2I', 16, 16), 'grid sizes n'),
    'truncated-lengths': (_v1(_SAMPLES)[:32], 'box lengths'),
    'truncated-support-sizes': (_v2(([0], [0]))[:44], 'support sizes'),
    'truncated-support': (_v2(([0, 1], [0, 1]))[:60], 'support of axis 2'),
    # read as a field of no components
    'ncomp-0': (_v2(([0], [0]), ncomp=0), 'ncomp'),
    # "only cubic grids are supported"
    'nan-length': (_v2(([0], [0]), length=np.nan), 'box length'),
    'inf-length': (_v2(([0], [0]), length=np.inf), 'box length'),
    'zero-length': (_v2(([0], [0]), length=0.0), 'box length'),
    'negative-length': (_v1(_SAMPLES, length=-1.0), 'box length'),
    'n-not-power-of-two': (_v2(([0], [0]), n=12), 'n = 12'),
    'unsorted-support': (_v2(([0], [3, 1])), 'axis 2 is not strictly'),
    'duplicate-support': (_v2(([2, 2], [0])), 'axis 1 is not strictly'),
    'index-at-n': (_v2(([0], [1, 8])), 'index 8, not below n = 8'),
    'support-above-n': (_v2((list(range(9)), [0])), 'm_1 = 9 is above'),
    'short-payload': (_v2(([0, 1], [0]), count=1), 'payload is short'),
    'long-payload': (_v2(([0, 1], [0]), count=3), 'payload is long'),
    'v1-long-payload': (_v1(_SAMPLES) + b'\0' * 16, 'payload is long'),
}


@pytest.mark.parametrize('case', sorted(MALFORMED))
def test_malformed_file_is_a_field_format_error(tmp_path, case):
    raw, word = MALFORMED[case]
    path = tmp_path / 'bad.mxfd'
    path.write_bytes(raw)
    with pytest.raises(FieldFormatError, match=word):
        fieldfile.read_field(path)


def test_well_formed_rows_read(tmp_path):
    # the malformed rows differ from these in the named field only
    for i, raw in enumerate((_v2(([0, 1], [0])), _v2(([0], [1, 7])),
                             _v1(_SAMPLES))):
        path = tmp_path / ('%d.mxfd' % i)
        path.write_bytes(raw)
        assert fieldfile.read_field(path).ncomp == 1
