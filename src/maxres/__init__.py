"""Spectral solver and verification toolkit for time-harmonic Maxwell
systems in homogeneous anisotropic media.

The package is organized bottom-up:

* :mod:`maxres.materials`  material descriptions (2D SPD permittivity,
  3D partially anisotropic permittivity).
* :mod:`maxres.symbol`     the first-order symbol, its closed-form
  diagonalization p = m d m^{-1} and determinant diagnostics.
* :mod:`maxres.multiplier` the closed-form inverse symbol from that one
  eigenbasis (rank-one eigenprojectors times scalar resolvents, plus the
  charge part) as factors (m, d^{-1}, m^{-1}), and the matrices built
  from them: the resolvent matrix, and the regular background and
  singular weights at real frequency.
* :mod:`maxres.spectral`   FFT grids, fields and multiplier operators:
  solve, Riesz transforms, Leray projection, fractional Laplacians.
* :mod:`maxres.lap`        limiting absorption: both real-frequency
  limits as one pair common +- jump (lap_parts) by principal-value and
  surface-measure quadrature or by extrapolation, blow-up probes.
* :mod:`maxres.region`     Lebesgue-exponent region arithmetic and
  empirical operator-norm scaling probes.
* :mod:`maxres.verify`     randomized invariant suites with a
  fault-injection hook.
* :mod:`maxres.fieldfile`  binary field I/O.
* :mod:`maxres.cli`        the ``maxres`` command-line entry point.
"""

from .errors import (ConfigError, DegenerateDirection, EmptyRegion,
                     ExponentOrder, FieldFormatError, GridTooCoarse,
                     MaxresError, MeanNotZero, MethodsDisagree,
                     NotPartiallyAnisotropic, OnSingularSet,
                     QuadratureNotConverged, RealFrequency)
from .materials import Material2, Material3, material3_from_diag
from .symbol import (canonicalize, det_diagnostics, eigen_decomposition,
                     symbol_p)
from .multiplier import resolvent_matrix, regular_matrix, singular_weights
from .spectral import (Field, Grid, divergence_and_charges,
                       forward_operator, fractional_laplacian,
                       half_laplacian_resolvent, lebesgue_norm,
                       leray_project, random_band_limited, riesz,
                       scalar_field, solve)
from .lap import (CutoffSpec, e_delta, lap_blowup_probe, lap_parts, lap_solve,
                  pv_part, richardson_limit, surface_part, surface_terms)
from .region import (LebesguePair, RegionQuery, alpha, annulus_source,
                     eigenvalue_enclosure, gamma, kappa, knapp_source,
                     loglog_fit, membership, norm_scaling_probe,
                     off_sphere_frequency, on_sphere_frequency,
                     z_boundary, z_region)
from .fieldfile import read_field, write_field

__version__ = '0.1.0'

__all__ = [
    'ConfigError', 'DegenerateDirection', 'EmptyRegion', 'ExponentOrder',
    'FieldFormatError', 'GridTooCoarse', 'MaxresError', 'MeanNotZero',
    'MethodsDisagree', 'NotPartiallyAnisotropic',
    'OnSingularSet', 'QuadratureNotConverged', 'RealFrequency',
    'Material2', 'Material3', 'material3_from_diag',
    'canonicalize', 'det_diagnostics', 'eigen_decomposition', 'symbol_p',
    'resolvent_matrix', 'regular_matrix', 'singular_weights',
    'Field', 'Grid', 'divergence_and_charges', 'forward_operator',
    'fractional_laplacian', 'half_laplacian_resolvent', 'lebesgue_norm',
    'leray_project', 'random_band_limited', 'riesz', 'scalar_field', 'solve',
    'CutoffSpec', 'e_delta', 'lap_blowup_probe', 'lap_parts', 'lap_solve',
    'pv_part', 'richardson_limit', 'surface_part', 'surface_terms',
    'LebesguePair', 'RegionQuery', 'alpha', 'annulus_source',
    'eigenvalue_enclosure', 'gamma', 'kappa', 'knapp_source', 'loglog_fit',
    'membership', 'norm_scaling_probe', 'off_sphere_frequency',
    'on_sphere_frequency', 'z_boundary', 'z_region',
    'read_field', 'write_field',
]
