"""The golden figures of fixed CLI jobs (regen.py) still hold: O(1)
figures to 1e-12 relative, round-off figures below their bounds."""

import json
import shutil

import pytest

import regen

GOLDEN = regen.load()


@pytest.mark.parametrize('name', sorted(regen.JOBS))
def test_golden_figures(name):
    assert sorted(GOLDEN) == sorted(regen.JOBS)
    moved = regen.differences({name: GOLDEN[name]}, {name: regen.run(name)})
    assert not moved, '\n'.join('%s: %r -> %r' % ('/'.join(path), a, b)
                                for path, a, b in moved)


def test_regen_rewrites_only_the_figures_that_moved(tmp_path, monkeypatch,
                                                    capsys):
    # on an unchanged tree the file keeps its bytes, though the jobs'
    # round-off differs in the last bits from run to run; one figure that
    # moved (a stored exit code of 7) is rewritten alone
    with open(regen.FIGURES, 'rb') as fh:
        stored = fh.read()
    figures = tmp_path / 'figures.json'
    shutil.copyfile(regen.FIGURES, figures)
    monkeypatch.setattr(regen, 'FIGURES', str(figures))
    assert regen.main() == 0
    assert capsys.readouterr().out == '0 figure(s) moved\n'
    assert figures.read_bytes() == stored
    moved = json.loads(stored)
    moved['solve_2d']['exit'] = 7
    figures.write_text(json.dumps(moved, indent=1, sort_keys=True) + '\n')
    assert regen.main() == 0
    assert capsys.readouterr().out == ('solve_2d/exit: 7 -> 0\n'
                                       '1 figure(s) moved\n')
    assert figures.read_bytes() == stored
