"""Least-squares line fitting by vertical, horizontal or perpendicular offsets.

The three fits share one pipeline: summarize the paired sample, then apply a
closed form in the summary statistics.  The perpendicular fit is the only one
that is invariant under rotations of the data and the only one that never
fails on degenerate input; when the statistics are isotropic it reports the
whole family of lines through the centroid instead of picking one.

Every record (points, lines, samples, reports, dataset specifications) is an
immutable named tuple whose constructor checks its fields; ``_make`` and
``_replace`` build the tuple directly and skip those checks.  A record equals
any tuple of the same values, whatever its type, and hashes as that tuple.
"""

from .diagnostics import ComparisonReport, compare
from .errors import (
    CsvParseError,
    GenerationError,
    HorizontalDataError,
    InsufficientDataError,
    InvalidLineError,
    InvalidSampleError,
    LineFitError,
    NotRepresentableError,
    SampleMismatchError,
    VerticalDataError,
)
from .fitters import (
    AllLinesThroughCentroid,
    FitReport,
    OrthogonalCase,
    UniqueLine,
    fit_d,
    fit_d_report,
    fit_x,
    fit_y,
    iso_tolerance,
    objective_d,
    objective_x,
    objective_y,
    resolve_case,
)
from .geometry import (
    InverseSlopeLine,
    NormalLine,
    Point,
    SlopeInterceptLine,
    inverse_slope_to_normal,
    normal_to_inverse_slope,
    normal_to_slope,
    slope_to_normal,
)
from .stats import PairedSample, Sample, SummaryStats, covariance, mean, summarize, variance
from .transforms import (
    InvarianceReport,
    RigidMotion,
    Rotation,
    Translation,
    apply_motion_points,
    invariance_report,
    line_discrepancy,
    transform_line,
)

__version__ = "0.1.0"

_GENERATORS = {"CircleSpec", "NoisyLineSpec", "SlantedLadder", "VerticalLadder",
               "gen_circle", "gen_noisy_line", "gen_parallel"}


def __getattr__(name):
    # PEP 562: only `linefit generate` needs the generators, so they load on first use
    if name in _GENERATORS:
        from . import generators
        return getattr(generators, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
