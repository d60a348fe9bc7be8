"""Span tracing of maxres's layers, from outside the package.

The layers are maxres's modules.  ``Tracer.install`` wraps every public
function of each layer module, and replaces the name wherever a maxres
module looks it up: ``maxres.verify`` imports ``resolvent_matrix`` by
name, so ``maxres.verify.resolvent_matrix`` is replaced too.  Four more
callables are wrapped because the per-layer metrics need them:
``Field.coeffs`` and ``Field.from_coeffs`` (the FFTs, recorded as
``spectral.fft``), ``TransformRecord.backward_fields`` (symbol) and
``lap._real_resolvent``, whose calls into ``multiplier`` are lattice work
rather than off-grid nodes.  ``uninstall`` restores every name.

Each call made while a job id is set records a span (layer, name, start,
end, parent span, job id, work count) in memory.  Self time is a span's
length minus the length of its child spans; calls never overlap, because
the benchmark runs one job at a time on one thread.
"""

import functools
import importlib
import inspect
import json
import os
import time

import numpy as np

LAYERS = ('cli', 'spectral', 'multiplier', 'symbol', 'lap', 'region',
          'verify', 'fieldfile')


class Span:
    __slots__ = ('layer', 'name', 'start', 'end', 'parent', 'job', 'work')

    def __init__(self, layer, name, parent, job):
        self.layer = layer
        self.name = name
        self.parent = parent
        self.job = job
        self.work = 0

    @property
    def duration(self):
        return self.end - self.start

    @property
    def is_entry(self):
        """A call into this layer from another layer (or from outside)."""
        return self.parent is None or self.parent.layer != self.layer


def _rows(args, kwargs):
    xi = kwargs['xi'] if 'xi' in kwargs else args[1]
    shape = np.shape(xi)
    return shape[0] if len(shape) > 1 else 1


def _file_bytes(args, kwargs):
    return os.path.getsize(kwargs.get('path', args[0]))


# per-span work counts, computed after the wrapped call returns
WORK = {
    ('spectral', 'fft_forward'): lambda a, k: a[0].data.size,
    ('spectral', 'fft_inverse'): lambda a, k: np.size(a[2]),
    ('multiplier', 'resolvent_matrix'): _rows,
    ('multiplier', 'regular_matrix'): _rows,
    ('multiplier', 'singular_weights'): _rows,
    ('fieldfile', 'write_field'): _file_bytes,
    ('fieldfile', 'read_field'): _file_bytes,
}


class Tracer:
    """Collects spans while ``job`` is set; wraps maxres when installed."""

    def __init__(self):
        self.spans = []
        self.job = None
        self.sources = {}       # job id -> Field made by random_band_limited
        self._stack = []
        self._undo = []

    def _wrap(self, layer, name, fn):
        work = WORK.get((layer, name))
        capture = (layer, name) == ('spectral', 'random_band_limited')
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.job is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span = Span(layer, name, stack[-1] if stack else None, tracer.job)
            tracer.spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if work is not None:
                span.work = work(args, kwargs)
            if capture and span.is_entry:
                tracer.sources[tracer.job] = result
            return result
        return traced

    def _targets(self):
        """(layer, span name, owner, attribute) of every wrapped callable."""
        mods = {name: importlib.import_module('maxres.' + name)
                for name in LAYERS}
        out = [('cli', 'main', mods['cli'], 'main')]
        for layer in LAYERS[1:]:
            mod = mods[layer]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith('_')
                        and obj.__module__ == mod.__name__):
                    out.append((layer, attr, mod, attr))
        out += [('spectral', 'fft_forward', mods['spectral'].Field, 'coeffs'),
                ('spectral', 'fft_inverse', mods['spectral'].Field,
                 'from_coeffs'),
                ('symbol', 'backward_fields', mods['symbol'].TransformRecord,
                 'backward_fields'),
                ('lap', '_real_resolvent', mods['lap'], '_real_resolvent')]
        return out

    def install(self):
        import maxres
        modules = [maxres] + [importlib.import_module('maxres.' + name)
                              for name in LAYERS]
        for layer, name, owner, attr in self._targets():
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(layer, name, raw.__func__))
                self._replace(owner, attr, raw, new)
                continue
            new = self._wrap(layer, name, raw)
            if inspect.isclass(owner):
                self._replace(owner, attr, raw, new)
                continue
            # every module that imported the function by name
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        self._replace(mod, key, raw, new)

    def _replace(self, owner, attr, old, new):
        setattr(owner, attr, new)
        self._undo.append((owner, attr, old))

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


# ---------------------------------------------------------------------------
# per-layer metrics


def self_times(spans):
    """Self time per layer, with the FFTs as their own 'spectral.fft'."""
    child = {}
    for s in spans:
        if s.parent is not None:
            child[id(s.parent)] = child.get(id(s.parent), 0.0) + s.duration
    out = {}
    for s in spans:
        key = 'spectral.fft' if s.name.startswith('fft_') else s.layer
        out[key] = out.get(key, 0.0) + s.duration - child.get(id(s), 0.0)
    return out


def layer_metrics(spans, useful_fraction, passes):
    """The per-layer metrics of ``passes`` identical traced passes,
    given per pass.

    ``useful_fraction`` maps a job id to the share of lattice modes on
    which that job's captured source is above round-off.
    """
    selfs = self_times(spans)
    busy = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    fft_s = fft_calls = fft_points = solve_calls = 0
    lattice = offgrid = bytes_ = 0
    lattice_by_job = {}
    for s in spans:
        if s.is_entry:
            busy[s.layer] += s.duration
            calls[s.layer] += 1
            if s.layer == 'fieldfile':
                bytes_ += s.work
        if s.name.startswith('fft_'):
            fft_s += s.duration
            fft_calls += 1
            fft_points += s.work
        elif s.name == 'solve' and s.layer == 'spectral' and not (
                s.parent is not None and s.parent.name == 'solve'):
            solve_calls += 1
        elif s.layer == 'multiplier' and s.is_entry:
            if s.name in ('resolvent_matrix', 'regular_matrix'):
                lattice += s.work
                lattice_by_job[s.job] = lattice_by_job.get(s.job, 0) + s.work
            # one-row calls fetch the quadratic forms, not quadrature nodes
            elif (s.name == 'singular_weights' and s.parent is not None
                  and s.parent.layer == 'lap'
                  and s.parent.name != '_real_resolvent' and s.work > 1):
                offgrid += s.work
    assembled = sum(lattice_by_job.get(j, 0) for j in useful_fraction)
    useful = sum(f * lattice_by_job.get(j, 0)
                 for j, f in useful_fraction.items())

    def per_pass(value):
        return value / passes

    return {
        'cli.self_s': per_pass(selfs.get('cli', 0.0)),
        'spectral.busy_s': per_pass(busy['spectral']),
        'spectral.self_s': per_pass(selfs.get('spectral', 0.0)),
        'spectral.solve_calls': per_pass(solve_calls),
        'spectral.fft_s': per_pass(fft_s),
        'spectral.fft_calls': per_pass(fft_calls),
        'spectral.fft_points': per_pass(fft_points),
        'multiplier.busy_s': per_pass(busy['multiplier']),
        'multiplier.calls': per_pass(calls['multiplier']),
        'multiplier.lattice_modes': per_pass(lattice),
        'multiplier.offgrid_nodes': per_pass(offgrid),
        # with no source-driven assembly every evaluated row was asked for
        'multiplier.useful_mode_frac': useful / assembled if assembled
        else 1.0,
        'symbol.busy_s': per_pass(busy['symbol']),
        'symbol.calls': per_pass(calls['symbol']),
        'lap.busy_s': per_pass(busy['lap']),
        'lap.self_s': per_pass(selfs.get('lap', 0.0)),
        'lap.calls': per_pass(calls['lap']),
        'region.busy_s': per_pass(busy['region']),
        'verify.self_s': per_pass(selfs.get('verify', 0.0)),
        'fieldfile.busy_s': per_pass(busy['fieldfile']),
        'fieldfile.bytes': per_pass(bytes_),
    }


def dump(spans, path):
    """Write spans as rows [layer, name, start, end, parent row, job, work]."""
    index = {id(s): i for i, s in enumerate(spans)}
    rows = [[s.layer, s.name, s.start, s.end,
             index[id(s.parent)] if s.parent is not None else None,
             s.job, s.work] for s in spans]
    with open(path, 'w', encoding='utf-8') as fh:
        json.dump(rows, fh)
