"""Self-check of the benchmark on the tiny job mixes.

Run from the root of a checkout with ``python3 -m pytest -q bench``.  It
takes a few seconds and makes no timing assertions: it checks that every
declared metric is produced, that the traced layers account for the job
time, that a failing job is counted, and that counts repeat for a seed.
"""

import dataclasses
import json
import math
import os
import re
import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.use_checkout_source()
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / 'BENCHMARK.json').read_text(encoding='utf-8'))
COUNTS = ('spectral.fft_calls', 'multiplier.lattice_modes',
          'multiplier.offgrid_nodes', 'fieldfile.bytes')


@pytest.fixture
def workdir(request):
    path = run.ROOT / '.bench_work' / ('test-%d-%s' % (os.getpid(),
                                                       request.node.name))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _tiny(workload, seed=3):
    return workloads.build(workload, seed, tiny=True)


def test_spec_matches_the_program():
    assert [w['name'] for w in SPEC['workloads']] == list(workloads.WORKLOADS)
    for trace in (0, 1):
        units = run.declared_metrics(trace)
        assert units and all(units.values())


@pytest.mark.parametrize('workload', workloads.WORKLOADS)
def test_end_to_end_metrics(workload, workdir):
    runner, peak = run.measure(_tiny(workload), 0.0, workdir)
    values = run.end_to_end(runner.executions, peak, setup_s=1.0)
    assert set(values) == set(run.declared_metrics(0))
    assert all(math.isfinite(v) and v > 0 for v in values.values())
    assert [ex.error for ex in runner.executions] == [None] * len(
        runner.executions)
    assert values['ok_frac'] == 1.0


@pytest.mark.parametrize('workload', workloads.WORKLOADS)
def test_traced_layers_cover_the_job_time(workload, workdir):
    jobs = _tiny(workload)
    runner, tracer, metrics = run.measure_traced(jobs, 0.0, workdir)
    assert set(metrics) == set(run.declared_metrics(1))
    assert all(math.isfinite(v) for v in metrics.values())
    assert all(ex.error is None for ex in runner.executions)
    traced = runner.executions[len(jobs):]          # one plain, one traced
    wall = sum(ex.latency for ex in traced)
    covered = sum(tracing.self_times(tracer.spans).values())
    assert covered == pytest.approx(wall, rel=0.03)
    roots = [s for s in tracer.spans if s.parent is None]
    assert [s.name for s in roots] == ['main'] * len(jobs)


def test_invalid_job_counts_as_failed(workdir):
    jobs = _tiny('solve')
    # the CLI rejects Im(omega) = 0 for solve with exit code 1
    real = dataclasses.replace(
        jobs[0], name='solve_real_omega',
        ini=re.sub(r'^im = .*$', 'im = 0.0', jobs[0].ini, flags=re.M))
    assert 'im = 0.0' in real.ini
    runner, peak = run.measure(jobs + [real], 0.0, workdir)
    values = run.end_to_end(runner.executions, peak, setup_s=1.0)
    assert values['ok_frac'] == pytest.approx(len(jobs) / (len(jobs) + 1))
    assert runner.executions[-1].error.startswith('exit code 1')


def test_seed_fixes_counts_and_accuracy(workdir):
    results = []
    for i, seed in enumerate((5, 5, 6)):
        jobs = _tiny('freq_sweep', seed)
        runner, _, metrics = run.measure_traced(jobs, 0.0, workdir / str(i))
        values = run.end_to_end(runner.executions, 1.0, 1.0)
        results.append(({k: metrics[k] for k in COUNTS},
                         values['accuracy_digits'],
                         [j.ini for j in jobs],
                         [(j.name, j.command) for j in jobs]))
    assert results[0] == results[1]
    assert results[2][2] != results[0][2]
    assert results[2][3] == results[0][3]
