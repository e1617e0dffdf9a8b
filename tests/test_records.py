"""The contract every public record keeps: frozen fields, tuple equality and
hashing, the reprs, and pickles that rebuild through the checking constructor."""

import math
import pickle

import pytest

from linefit import (
    AllLinesThroughCentroid,
    FitReport,
    InvarianceReport,
    InverseSlopeLine,
    NormalLine,
    PairedSample,
    Point,
    Rotation,
    SlopeInterceptLine,
    SummaryStats,
    Translation,
    UniqueLine,
    compare,
)
from linefit.cli import RunConfig
from linefit.errors import InvalidSampleError
from linefit.fitters import OrthogonalCase

P = PairedSample.from_xy((0, 1, 2), (0, 1, 3))

# (record, its repr, fields that its constructor rejects or None if it checks none)
RECORDS = [
    (Point(1, 2), "Point(x=1.0, y=2.0)", (math.inf, 0.0)),
    (SlopeInterceptLine(0.5, -1), "SlopeInterceptLine(m=0.5, b=-1.0)", (math.nan, 0.0)),
    (InverseSlopeLine(2, 0.25), "InverseSlopeLine(mu=2.0, beta=0.25)", (math.inf, 0.0)),
    (NormalLine(0.5, 1), "NormalLine(theta=0.5, c=1.0)", (2.0, 1.0)),
    (P, "PairedSample(xs=(0.0, 1.0, 2.0), ys=(0.0, 1.0, 3.0))", ((0.0, 1.0), (0.0, 1.0, 3.0))),
    (SummaryStats(3, 1.0, 2.0, 0.5, 2.0, 0.75),
     "SummaryStats(n=3, mean_x=1.0, mean_y=2.0, var_x=0.5, var_y=2.0, cov_xy=0.75)",
     (3, 0.0, 0.0, -1.0, 1.0, 0.0)),
    (OrthogonalCase("I", 0.5), "OrthogonalCase(tag='I', e_ratio=0.5)", None),
    (UniqueLine(NormalLine(0.5, 1), OrthogonalCase("I", 0.5)),
     "UniqueLine(line=NormalLine(theta=0.5, c=1.0), case=OrthogonalCase(tag='I', e_ratio=0.5))",
     None),
    (AllLinesThroughCentroid(Point(0, 1), 0.5),
     "AllLinesThroughCentroid(centroid=Point(x=0.0, y=1.0), objective=0.5)", None),
    (FitReport(SlopeInterceptLine(0.5, -1), 0.25),
     "FitReport(line=SlopeInterceptLine(m=0.5, b=-1.0), objective_min=0.25)", None),
    (compare(P),
     "ComparisonReport(m=1.5, m_x=1.5555555555555556, tan_theta=1.538761977977345, "
     "ratio_bound=1.5275252316519468, ordering_e='holds', ordering_f='holds', "
     "cs_gap=0.03703703703703698, collinear=False, case_tag='III')",
     None),
    (Translation(1, 2), "Translation(u=1, v=2)", None),
    (Rotation(0.3, Point(0, 0)), "Rotation(phi=0.3, center=Point(x=0.0, y=0.0))", None),
    (InvarianceReport(Translation(1, 2), "ok", NormalLine(0.5, 1), NormalLine(0.5, 1), 0.0),
     "InvarianceReport(motion=Translation(u=1, v=2), status='ok', "
     "line_from_transformed_data=NormalLine(theta=0.5, c=1.0), "
     "expected_if_invariant=NormalLine(theta=0.5, c=1.0), discrepancy=0.0)", None),
    (RunConfig("-"),
     "RunConfig(input='-', methods=('Y', 'X', 'D'), output_json=None, output_svg=None)",
     ("-", (), None, None)),
]


@pytest.mark.parametrize("record, text, rejected", RECORDS,
                         ids=[type(r).__name__ for r, _, _ in RECORDS])
def test_records_are_frozen_tuples_with_checked_pickles(record, text, rejected):
    for name in record._fields + ("summary", "normal_form", "other"):
        with pytest.raises(AttributeError):
            setattr(record, name, 1.0)
    twin = type(record)(*record)
    assert twin == record and hash(twin) == hash(record) == hash(tuple(record))
    assert repr(record) == text
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is type(record) and back == record
    if rejected is not None:
        # _make skips the constructor's checks; unpickling runs them
        unchecked = pickle.dumps(type(record)._make(rejected))
        with pytest.raises(ValueError):
            pickle.loads(unchecked)
    # equality is a tuple's: the type is not compared
    assert record == tuple(record)
    assert Point(1, 2) == Translation(1, 2) == (1.0, 2.0)


# statistics that summarize never gives: a field, var_x*var_y or cov_xy**2 is not finite
@pytest.mark.parametrize("fields", [
    (4, 0, 0, 1e200, 1e200, 1e199),  # read as collinear with cs_gap 0.0 when accepted
    (4, 0, 0, 1e200, 1e200, 1e100),  # read with cs_gap inf when accepted
    (4, math.nan, 0.0, 1.0, 1.0, 0.0),
    (4, 0.0, 0.0, math.inf, 1.0, 0.0),
    (4, 0.0, 0.0, 1.0, 1.0, math.nan),
])
def test_summary_stats_rejects_what_summarize_rejects(fields):
    with pytest.raises(InvalidSampleError, match="^coordinates too large in magnitude"):
        SummaryStats(*fields)
    unchecked = pickle.dumps(SummaryStats._make(fields))
    with pytest.raises(InvalidSampleError):
        pickle.loads(unchecked)


# records that no sample has: n is not a count of at least 2 points, or a
# variance is negative, however large the other fields' products
@pytest.mark.parametrize("fields, error, message", [
    ((-3.5, 0.0, 0.0, 1.0, 1.0, 0.5), InvalidSampleError, "a sample needs at least 2 values"),
    ((0, 0.0, 0.0, 1.0, 1.0, 0.5), InvalidSampleError, "a sample needs at least 2 values"),
    ((1, 0.0, 0.0, 1.0, 1.0, 0.5), InvalidSampleError, "a sample needs at least 2 values"),
    ((3.0, 0.0, 0.0, 1.0, 1.0, 0.5), InvalidSampleError, "a sample needs at least 2 values"),
    ((4, 0, 0, -1e200, 1e200, 0), ValueError, "variances must be nonnegative"),
    ((4, 0, 0, 1.0, -math.inf, 0), ValueError, "variances must be nonnegative"),
])
def test_summary_stats_counts_points_and_checks_the_variances_sign_first(fields, error, message):
    with pytest.raises(error, match="^" + message):
        SummaryStats(*fields)
    unchecked = pickle.dumps(SummaryStats._make(fields))
    with pytest.raises(error, match="^" + message):
        pickle.loads(unchecked)


def test_summary_stats_takes_any_integral_count_and_stores_an_int():
    np = pytest.importorskip("numpy")
    s = SummaryStats(np.int64(4), 0.0, 0.0, 1.0, 1.0, 0.5)
    assert s == (4, 0.0, 0.0, 1.0, 1.0, 0.5) and type(s.n) is int
    assert pickle.loads(pickle.dumps(s)) == s
    with pytest.raises(InvalidSampleError, match="^a sample needs at least 2 values"):
        SummaryStats(np.float64(4.0), 0.0, 0.0, 1.0, 1.0, 0.5)
