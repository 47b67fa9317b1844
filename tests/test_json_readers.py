"""The three JSON readers return a value or raise a CfreeError, and nothing else.

``CircleMeasure.from_json``, ``TruncatedSeries.from_json`` and
``partition_from_json`` read files that the command line takes from the
user, so a malformed form must end in a ``CfreeError`` (exit status 2 with
a message), never in a ``KeyError``, ``TypeError`` or a traceback.
"""
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cfreeconv.errors import ArgumentError, CfreeError
from cfreeconv.measures import CircleMeasure
from cfreeconv.partitions import partition_from_json
from cfreeconv.series import ComplexRational, TruncatedSeries

MALFORMED_MEASURES = {
    "no-atoms": ({"type": "atomic"}, "'atoms'"),
    "atoms-int": ({"type": "atomic", "atoms": 5}, "'atoms'"),
    "atom-int": ({"type": "atomic", "atoms": [5]}, "turns and weight"),
    "atom-no-weight": ({"type": "atomic", "atoms": [{"turns": "0"}]}, "turns and weight"),
    "weight-1/0": ({"type": "atomic", "atoms": [{"turns": "0", "weight": "1/0"}]}, "atom weight"),
    "turns-list": ({"type": "atomic", "atoms": [{"turns": [1], "weight": "1"}]}, "atom turns"),
    "turns-bool": ({"type": "atomic", "atoms": [{"turns": True, "weight": "1"}]}, "atom turns"),
    "no-alpha": ({"type": "poisson"}, "'alpha'"),
    "alpha-short": ({"type": "poisson", "alpha": [1]}, "the kernel parameter"),
    "alpha-int": ({"type": "poisson", "alpha": 5}, "'alpha'"),
    "alpha-text": ({"type": "poisson", "alpha": ["a", "b"]}, "the kernel parameter"),
    "no-values": ({"type": "moments"}, "'values'"),
    "value-short": ({"type": "moments", "values": [[1]]}, "a moment"),
    "value-int": ({"type": "moments", "values": [5]}, "a moment"),
    "value-text": ({"type": "moments", "values": [["1/2", "x"]]}, "a moment"),
    "value-bool": ({"type": "moments", "values": [[True, 0]]}, "a moment"),
    "value-beyond-a-double": ({"type": "moments", "values": [["1e400", "0"]]}, "bounded by 1"),
    "type-int": ({"type": 5}, "'type'"),
    "weight-1e10000000": ({"type": "atomic", "atoms": [{"turns": "0", "weight": "1e10000000"}]}, "atom weight has a decimal exponent"),
    "turns-1e-10000000": ({"type": "atomic", "atoms": [{"turns": "1E-1_0000000", "weight": "1"}]}, "atom turns has a decimal exponent"),
    "value-1e10000000": ({"type": "moments", "values": [["1.5e+10000000", "0"]]}, "a moment has a decimal exponent"),
}

MALFORMED_SERIES = {
    "no-coeffs": ({"order": 0, "mode": "exact"}, "'coeffs'"),
    "no-mode": ({"order": 0, "coeffs": [["1", "0"]]}, "'mode'"),
    "coeffs-int": ({"order": 0, "mode": "exact", "coeffs": 5}, "'coeffs'"),
    "coeff-short": ({"order": 0, "mode": "exact", "coeffs": [[1]]}, "a series coefficient"),
    "approx-text": ({"order": 0, "mode": "approx", "coeffs": [["a", "b"]]}, "a series coefficient"),
    "exact-bool": ({"order": 0, "mode": "exact", "coeffs": [[True, "1"]]}, "a series coefficient"),
    "approx-beyond-a-double": ({"order": 0, "mode": "approx", "coeffs": [[10**400, 0]]}, "a series coefficient"),
    "list": ([1], "'mode'"),
    "exact-1e10000000": ({"order": 0, "mode": "exact", "coeffs": [["1", " 1e10000000 "]]}, "a series coefficient has a decimal exponent"),
}


@pytest.mark.parametrize("data, field", MALFORMED_MEASURES.values(), ids=MALFORMED_MEASURES)
def test_a_malformed_measure_is_refused_by_name(data, field):
    with pytest.raises(ArgumentError, match=field):
        CircleMeasure.from_json(data)


@pytest.mark.parametrize("data, field", MALFORMED_SERIES.values(), ids=MALFORMED_SERIES)
def test_a_malformed_series_is_refused_by_name(data, field):
    with pytest.raises(ArgumentError, match=field):
        TruncatedSeries.from_json(data)



def test_a_decimal_exponent_at_the_limit_is_read():
    series = TruncatedSeries.from_json({"order": 0, "mode": "exact", "coeffs": [["1e-4300", "-2e4_300"]]})
    assert series.coeffs[0] == ComplexRational(Fraction(1, 10**4300), Fraction(-2 * 10**4300))

# -- the fuzz --------------------------------------------------------------------

# Arbitrary JSON values in which the readers' own keys and words are common,
# so that most draws get past the first check and into the fields.
KEYS = ("type", "atoms", "turns", "weight", "alpha", "values", "order", "mode", "coeffs", "n", "blocks")
WORDS = ("atomic", "haar", "poisson", "moments", "exact", "approx", "0", "1", "1/2", "-1/3", "1/0", "x", "1e400")

json_scalars = (
    st.sampled_from(WORDS)
    | st.integers(-2, 3)
    | st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=4)
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.fixed_dictionaries({}, optional={key: inner for key in KEYS})
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=16,
)

READERS = (
    CircleMeasure.from_json,
    lambda data: CircleMeasure.from_json(data, probability=False),
    TruncatedSeries.from_json,
    *(lambda data, kind=kind: partition_from_json(data, kind=kind) for kind in ("nc", "ncl", "set")),
)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=json_values)
@example(data={"type": "atomic"})
@example(data={"order": 0, "mode": "exact", "coeffs": [[1]]})
def test_json_readers_return_or_raise_a_cfree_error(data):
    for reader in READERS:
        try:
            reader(data)
        except CfreeError:
            pass
