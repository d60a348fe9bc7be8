"""The golden figures of fixed CLI jobs (regen.py) still hold: O(1)
figures to 1e-12 relative, round-off figures below their bounds."""

import pytest

import regen

GOLDEN = regen.load()


@pytest.mark.parametrize('name', sorted(regen.JOBS))
def test_golden_figures(name):
    assert sorted(GOLDEN) == sorted(regen.JOBS)
    moved = regen.differences({name: GOLDEN[name]}, {name: regen.run(name)})
    assert not moved, '\n'.join('%s: %r -> %r' % ('/'.join(path), a, b)
                                for path, a, b in moved)
