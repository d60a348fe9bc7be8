"""maxres benchmark: seeded CLI job mixes, checked, timed and traced.

Usage, from the root of a checkout:

    python3 bench/run.py --workload solve --seed 1 --seconds 20 --trace 0

The run imports maxres from the checkout's ``src`` directory, builds the
workload's job configs from the seed, and runs each job in-process
through ``maxres.cli.main``, one at a time (a closed loop with one
client).  It runs the mix's jobs in turn until the timed job time
reaches ``--seconds``, then checks every job's outputs (untimed) and
prints one JSON line as its last line of output:

* ``--trace 0``: the end-to-end metrics of BENCHMARK.json, from untraced
  runs of the jobs.
* ``--trace 1``: the per-layer metrics, from traced passes alternating
  with untraced ones; the untraced ones give ``trace.overhead_frac``.

Job outputs go to ``.bench_work/`` in the checkout and are removed at the
end; the spans of a traced run are written to ``.bench_trace/``.  No
machine setting is changed and BLAS/FFT thread pools keep their
defaults.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / 'src'

SETUP_SAMPLES = 3
# error figures below double precision round-off all read as 17 digits
DIGITS_FLOOR = 1e-17
USEFUL_ROUNDOFF = 1e-12


def use_checkout_source():
    """Import maxres from this checkout's src/ (never an installed copy)."""
    init = SRC / 'maxres' / '__init__.py'
    if not init.is_file():
        raise SystemExit('error: %s not found; run from a maxres checkout'
                         % init)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import maxres
    if Path(maxres.__file__).resolve() != init.resolve():
        raise SystemExit('error: imported maxres from %s, not %s'
                         % (maxres.__file__, init))


@dataclass
class Execution:
    """One run of one job."""

    job: object
    latency: float
    digest: Optional[str] = None     # of stdout and output files
    error: Optional[str] = None
    figure: Optional[float] = None   # the job's error figure


def _digest(stdout, outdir):
    h = hashlib.sha256(stdout.encode())
    for path in sorted(outdir.iterdir()) if outdir.is_dir() else ():
        h.update(path.name.encode())
        with open(path, 'rb') as fh:
            for block in iter(lambda: fh.read(1 << 20), b''):
                h.update(block)
    return h.hexdigest()


class Runner:
    """Runs jobs through the CLI and checks their outputs afterwards.

    Outputs are kept once per distinct content: a job whose stdout and
    files repeat an earlier run of the same job shares that run's check.
    """

    def __init__(self, workdir, tracer=None):
        self.workdir = Path(workdir)
        self.tracer = tracer
        self.executions = []
        self.useful = {}             # traced job id -> useful mode share
        self._kept = {}              # (name, digest) -> (dir, stdout, job)
        self.workdir.mkdir(parents=True, exist_ok=True)

    def prepare(self, jobs):
        for job in jobs:
            (self.workdir / (job.name + '.ini')).write_text(
                job.ini, encoding='utf-8')

    def execute(self, job, traced=False):
        import maxres.cli
        outdir = self.workdir / job.name
        config = self.workdir / (job.name + '.ini')
        argv = [job.command, '--config', str(config), '--out', str(outdir),
                '--seed', str(job.seed)]
        job_id = len(self.executions)
        out, err = io.StringIO(), io.StringIO()
        error = None
        if traced:
            self.tracer.job = job_id
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = maxres.cli.main(argv)
            except Exception:        # a traceback out of the CLI is a failure
                code = None
                error = traceback.format_exc(limit=-3).strip()
            latency = time.perf_counter() - start
        if traced:
            self.tracer.job = None
            source = self.tracer.sources.pop(job_id, None)
            if source is not None:
                mag = abs(source.coeffs()).max(axis=0)
                self.useful[job_id] = float(
                    (mag > USEFUL_ROUNDOFF * mag.max()).mean())
        if error is None and code != 0:
            error = 'exit code %s: %s' % (code, err.getvalue().strip()[-500:])
        ex = Execution(job, latency, error=error)
        if error is None:
            ex.digest = self._keep(job, outdir, out.getvalue())
        self.executions.append(ex)
        return ex

    def _keep(self, job, outdir, stdout):
        digest = _digest(stdout, outdir)
        key = (job.name, digest)
        if key in self._kept:
            shutil.rmtree(outdir, ignore_errors=True)
        else:
            kept = self.workdir / 'kept' / ('%s-%d'
                                            % (job.name, len(self._kept)))
            kept.parent.mkdir(exist_ok=True)
            if outdir.is_dir():
                outdir.rename(kept)
            else:
                kept.mkdir()
            self._kept[key] = (kept, stdout, job)
        return digest

    def run_pass(self, jobs, traced=False):
        """Run every job once; returns the executions."""
        return [self.execute(job, traced) for job in jobs]

    def check(self):
        """Check each distinct output once; fill in figures and errors."""
        from workloads import JobFailed
        results = {}
        for (name, digest), (kept, stdout, job) in self._kept.items():
            try:
                results[name, digest] = (job.check(str(kept), stdout), None)
            except JobFailed as exc:
                results[name, digest] = (None, 'check: %s' % exc)
            except Exception:        # a crashing check fails the job
                results[name, digest] = (
                    None, traceback.format_exc(limit=-3).strip())
        for ex in self.executions:
            if ex.error is None:
                ex.figure, ex.error = results[ex.job.name, ex.digest]


def setup(workload, seed, workdir):
    """Everything before the first timed job: import, configs, warm-up.

    The warm-up runs the workload's tiny mix (every job at a small grid)
    once, so lazy imports and first-call costs are paid here.  A failing
    warm-up job is reported on stderr; the timed runs count failures.
    """
    use_checkout_source()
    import workloads
    jobs = workloads.build(workload, seed)
    warm = workloads.build(workload, seed, tiny=True)
    runner = Runner(Path(workdir) / 'warmup')
    runner.prepare(warm)
    runner.run_pass(warm)
    for ex in runner.executions:
        if ex.error:
            print('warm-up job %s failed: %s' % (ex.job.name, ex.error),
                  file=sys.stderr)
    return jobs


def setup_seconds(workload, seed):
    """Wall time from starting a fresh interpreter to the end of set-up."""
    argv = [sys.executable, str(BENCH / 'run.py'), '--workload', workload,
            '--seed', str(seed), '--seconds', '0', '--setup-only']
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=str(ROOT)) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait()
    if code != 0 or line.strip() != b'ready':
        raise SystemExit('error: set-up probe exited with %d' % code)
    return elapsed


def _correct(executions):
    return [ex for ex in executions if ex.error is None]


def end_to_end(executions, peak_rss_mib, setup_s):
    """The end-to-end metrics of untraced runs of one job mix.

    Both timings use each job's median latency over its runs: throughput
    is the mix size over the summed medians (a typical pass), latency the
    median of the medians.  One slow stretch on a shared machine moves
    them less than a mean would, and a run that stops inside a pass
    weights no job twice.
    """
    ok = _correct(executions)
    latencies = {}
    for ex in executions:
        latencies.setdefault(ex.job.name, []).append(ex.latency)
    medians = [statistics.median(v) for v in latencies.values()]
    figures = [ex.figure for ex in ok if ex.figure is not None]
    digits = min((-math.log10(max(f, DIGITS_FLOOR)) for f in figures),
                 default=0.0)
    ok_frac = len(ok) / len(executions)
    return {
        'jobs_per_s': ok_frac * len(medians) / sum(medians),
        'job_p50_s': statistics.median(medians),
        'accuracy_digits': digits,
        'ok_frac': ok_frac,
        'peak_rss_mib': peak_rss_mib,
        'setup_s': setup_s,
    }


def measure(jobs, seconds, workdir):
    """Run the mix's jobs in turn until each has run once and the job
    time reaches ``seconds``; returns the runner and the peak RSS in MiB,
    read before the checks run."""
    runner = Runner(workdir)
    runner.prepare(jobs)
    elapsed = 0.0
    while elapsed < seconds or len(runner.executions) < len(jobs):
        job = jobs[len(runner.executions) % len(jobs)]
        elapsed += runner.execute(job).latency
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    runner.check()
    return runner, peak


def _jobs_per_s(executions):
    return len(_correct(executions)) / sum(ex.latency for ex in executions)


def measure_traced(jobs, seconds, workdir):
    """Alternating untraced and traced passes until ``seconds`` of job
    time; returns (runner, tracer, per-layer metrics)."""
    tracer = tracing.Tracer()
    runner = Runner(workdir, tracer)
    runner.prepare(jobs)
    plain, traced = [], []
    while not traced or sum(ex.latency for ex in plain + traced) < seconds:
        plain += runner.run_pass(jobs)
        tracer.install()
        try:
            traced += runner.run_pass(jobs, traced=True)
        finally:
            tracer.uninstall()
    runner.check()
    metrics = tracing.layer_metrics(tracer.spans, runner.useful,
                                    len(traced) // len(jobs))
    base = _jobs_per_s(plain)
    metrics['trace.overhead_frac'] = (
        1.0 - _jobs_per_s(traced) / base if base else 1.0)
    return runner, tracer, metrics


def environment(workload, seed, load_before):
    import numpy as np
    from importlib import metadata
    try:
        scipy_version = metadata.version('scipy')
    except metadata.PackageNotFoundError:
        scipy_version = None
    blas = np.show_config(mode='dicts')['Build Dependencies']['blas']
    return {
        'workload': workload, 'seed': seed,
        'nproc': len(os.sched_getaffinity(0)),
        'python': platform.python_version(), 'numpy': np.__version__,
        'scipy': scipy_version,
        'blas': '%s %s' % (blas.get('name'), blas.get('version')),
        'loadavg_before': list(load_before),
        'loadavg_after': list(os.getloadavg()),
        'machine_settings': 'unchanged: no cache dropping, CPU pinning '
                            'or thread-count setting',
    }


def declared_metrics(trace):
    """name -> unit of the metrics BENCHMARK.json declares for the mode."""
    with open(ROOT / 'BENCHMARK.json', encoding='utf-8') as fh:
        spec = json.load(fh)
    return {m['name']: m['unit']
            for m in spec['per_layer' if trace else 'end_to_end']}


def summary_lines(executions):
    lines = []
    names = list(dict.fromkeys(ex.job.name for ex in executions))
    for name in names:
        runs = [ex for ex in executions if ex.job.name == name]
        figs = [ex.figure for ex in runs if ex.figure is not None]
        errors = [ex.error for ex in runs if ex.error]
        lines.append('job %-18s runs %d  p50 %.4f s  error %s  failed %d%s'
                     % (name, len(runs),
                        statistics.median(ex.latency for ex in runs),
                        '%.3e' % max(figs) if figs else '-', len(errors),
                        ('  (%s)' % errors[0].splitlines()[-1])
                        if errors else ''))
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split('\n\n')[0])
    ap.add_argument('--workload', required=True,
                    choices=('solve', 'freq_sweep', 'lap_quad', 'verify'))
    ap.add_argument('--seed', type=int, required=True)
    ap.add_argument('--seconds', type=float, required=True)
    ap.add_argument('--trace', type=int, choices=(0, 1), default=0)
    ap.add_argument('--setup-only', action='store_true',
                    help='run set-up, print "ready" and exit (measures '
                         'setup_s in a fresh interpreter)')
    args = ap.parse_args(argv)
    load_before = os.getloadavg()
    workdir = ROOT / '.bench_work' / ('%s-%d-%d' % (args.workload, args.seed,
                                                   os.getpid()))
    try:
        if args.setup_only:
            setup(args.workload, args.seed, workdir)
            print('ready', flush=True)
            return 0
        use_checkout_source()
        units = declared_metrics(args.trace)
        setup_s = None
        if not args.trace:
            setup_s = statistics.median(
                setup_seconds(args.workload, args.seed)
                for _ in range(SETUP_SAMPLES))
        jobs = setup(args.workload, args.seed, workdir)
        if args.trace:
            runner, tracer, values = measure_traced(jobs, args.seconds,
                                                    workdir / 'jobs')
            trace_dir = ROOT / '.bench_trace'
            trace_dir.mkdir(exist_ok=True)
            name = '%s-seed%d.json' % (args.workload, args.seed)
            tracing.dump(tracer.spans, trace_dir / name)
        else:
            runner, peak = measure(jobs, args.seconds, workdir / 'jobs')
            values = end_to_end(runner.executions, peak, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    executions = runner.executions
    failed = len(executions) - len(_correct(executions))
    for line in summary_lines(executions):
        print(line)
    print(json.dumps({'env': environment(args.workload, args.seed,
                                         load_before)}))
    print(json.dumps({
        'correct': failed == 0,
        'attempted': len(executions),
        'failed': failed,
        'metrics': {name: {'value': values[name], 'unit': unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == '__main__':
    sys.exit(main())
