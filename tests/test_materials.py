import numpy as np
import pytest

from maxres.errors import InvalidArgument, NotPartiallyAnisotropic
from maxres.materials import Material2, Material3, material3_from_diag


def test_material2_properties():
    m = Material2(2.0, 0.3, 1.2, mu=0.8)
    assert np.allclose(m.eps @ m.eps_inv, np.eye(2), atol=1e-15)
    assert m.det_eps == pytest.approx(2.0 * 1.2 - 0.3 ** 2)
    assert np.allclose(m.qform, m.eps / (m.mu * m.det_eps))


def test_material2_rejects_indefinite():
    with pytest.raises(ValueError):
        Material2(1.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        Material2(-1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        Material2(1.0, 0.0, 1.0, mu=0.0)


def test_material3_canonical():
    m = Material3(0.5, 1.0 / 0.7)
    assert m.is_canonical
    assert m.a == pytest.approx(2.0)
    assert m.b == pytest.approx(0.7)
    assert np.allclose(m.qform, np.diag([0.7, 2.0, 2.0]))


def test_material3_noncanonical_qform_rejected():
    m = Material3(1.5, 0.9, axis=2, mu=1.1)
    assert not m.is_canonical
    with pytest.raises(ValueError):
        m.qform


def test_material3_rejects_invalid():
    with pytest.raises(ValueError):
        Material3(0.0, 1.0)
    with pytest.raises(ValueError):
        Material3(1.0, 1.0, axis=4)


@pytest.mark.parametrize('build', [
    lambda: Material2(np.inf, 0.0, 1.0),
    lambda: Material2(1.0, np.nan, 1.0),
    lambda: Material2(1.0, 0.0, np.inf),
    lambda: Material2(1.0, 1e300, 1.0),
    lambda: Material2(1e200, 0.0, 1e200),
    lambda: Material2(1.0, 0.0, 1.0, mu=np.inf),
    lambda: Material3(np.inf, 1.0),
    lambda: Material3(1.0, np.nan),
    lambda: Material3(1.0, 1.0, mu=np.inf),
], ids=['eps11-inf', 'eps12-nan', 'eps22-inf', 'eps12-huge', 'det-inf',
        'mu2-inf', 'eps-axis-inf', 'eps-perp-nan', 'mu3-inf'])
def test_materials_refuse_non_finite(build):
    with pytest.raises(InvalidArgument):
        build()


def test_from_diag_axis_detection():
    assert material3_from_diag(2.0, 1.0, 1.0).axis == 1
    assert material3_from_diag(1.0, 2.0, 1.0).axis == 2
    assert material3_from_diag(1.0, 1.0, 2.0).axis == 3
    iso = material3_from_diag(1.5, 1.5, 1.5)
    assert iso.eps_axis == iso.eps_perp == 1.5


def test_from_diag_rejects_three_distinct():
    with pytest.raises(NotPartiallyAnisotropic):
        material3_from_diag(1.0, 2.0, 3.0)
