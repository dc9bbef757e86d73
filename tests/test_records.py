"""The contract of the package's records: how each is built, compared and
(not) changed. It names fields and defaults itself, so it holds for any
implementation of the records."""
import re
from pathlib import Path

import pytest

from dpdfg import (
    CANONICAL_MAPPING,
    AggregationKind,
    ColumnMapping,
    EventLog,
    RiskParams,
    UtilityParams,
    build_dfg,
    disclose,
    read_log,
)
from dpdfg.bench import (
    DEFAULT_DELTAS,
    DEFAULT_MAPES,
    LogSource,
    SweepSpec,
    SyntheticLogSpec,
    profile_spec,
)
from dpdfg.dfg import AnnotatedDfg, Dfg, DfgEdge
from dpdfg.noise import DEFAULT_SEED
from dpdfg.pipeline import DisclosureReport, DisclosureRequest, EdgeDisclosure, Mode, PreparedDfg, PreparedEdge
from dpdfg.risk import DEFAULT_PRECISION
from dpdfg.utility import DEFAULT_BETA

MAX = AggregationKind.MAX
EDGE = DfgEdge("A", "B", (2.0, 5.0))
DFG = Dfg(frozenset({"A", "B"}), {("A", "B"): EDGE})
PREPARED_EDGE = PreparedEdge("A", "B", 5.0, 1.0, 5.0, (0.5, 1.0))
DISCLOSED = EdgeDisclosure("A", "B", 5.0, 0.1, 10.0, 7.5, 7.5, 0.5, 0.5, 0.2)
P2 = DisclosureRequest(Mode.P2, MAX, None, UtilityParams(0.3))

# Per record: its required fields and their values, then its defaulted
# fields and the values they read back, each in field order.
RECORDS = {
    "EventLog": (EventLog, {"traces": {"c": (("A", 0), ("B", 5))}}, {}),
    "ColumnMapping": (ColumnMapping, {}, {
        "case_col": "case", "activity_col": "activity", "timestamp_col": "timestamp",
        "timestamp_format": "auto", "number_unit": "h",
    }),
    "DfgEdge": (DfgEdge, {"source": "A", "target": "B", "durations": (2.0, 5.0)}, {}),
    "Dfg": (Dfg, {"activities": frozenset({"A", "B"}), "edges": {("A", "B"): EDGE}}, {"time_unit": "ns"}),
    "AnnotatedDfg": (AnnotatedDfg, {"dfg": DFG, "kind": MAX, "weights": {("A", "B"): 7.5}}, {}),
    "RiskParams": (RiskParams, {"delta": 0.4}, {"precision": DEFAULT_PRECISION}),
    "UtilityParams": (UtilityParams, {"mape_target": 0.3}, {"beta": DEFAULT_BETA}),
    "DisclosureRequest": (
        DisclosureRequest,
        {"mode": Mode.P2, "aggregation": MAX, "risk": None, "utility": UtilityParams(0.3)},
        {"precision": DEFAULT_PRECISION, "seed": DEFAULT_SEED, "runs": 1, "include_boundary_time": False,
         "time_unit": None},
    ),
    "EdgeDisclosure": (
        EdgeDisclosure,
        {"source": "A", "target": "B", "true_value": 5.0, "epsilon": 0.1, "noise_scale": 10.0,
         "noisy_value": 7.5, "released_value": 7.5, "ape": 0.5, "released_ape": 0.5, "edge_delta": 0.2},
        {"degenerate": False, "boundary_constant": False},
    ),
    "DisclosureReport": (
        DisclosureReport,
        {"request": P2, "time_unit": "h", "edges": [DISCLOSED], "mape": 0.5, "smape": 0.2,
         "median_epsilon": 0.1, "overall_delta": 0.2, "run_mapes": [0.5], "run_smapes": [0.2]},
        {},
    ),
    "PreparedEdge": (
        PreparedEdge, {"source": "A", "target": "B", "true_value": 5.0},
        {"sensitivity": 1.0, "r": 1.0, "priors": None, "boundary_constant": False},
    ),
    "PreparedDfg": (
        PreparedDfg,
        {"aggregation": MAX, "precision": 0.5, "include_boundary_time": False, "time_unit": None, "dfg": DFG,
         "edges": (PREPARED_EDGE,)},
        {},
    ),
    "SyntheticLogSpec": (SyntheticLogSpec, {"trace_count": 5}, {
        "n_activities": 6, "n_variants": 4, "variant_distribution": "uniform", "zipf_exponent": 1.5,
        "duration_log_mean": 0.0, "duration_log_sigma": 1.0, "outlier_rate": 0.0, "outlier_multiplier": 50.0,
        "min_trace_len": 3, "max_trace_len": 8,
    }),
    "LogSource": (LogSource, {"name": "clinic"}, {"path": None, "synthetic": None, "gen_seed": None}),
    "SweepSpec": (SweepSpec, {"logs": (LogSource("clinic", path="clinic.csv"),)}, {
        "deltas": DEFAULT_DELTAS, "mapes": DEFAULT_MAPES, "aggregations": tuple(AggregationKind), "runs": 10,
        "seed": DEFAULT_SEED, "precision": DEFAULT_PRECISION, "beta": DEFAULT_BETA, "include_boundary_time": False,
    }),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_builds_from_positions_and_keywords_with_its_defaults(name):
    cls, required, defaults = RECORDS[name]
    record = cls(*required.values())
    assert cls(**required) == record
    assert cls(*required.values(), *defaults.values()) == record
    assert cls(**required, **defaults) == record
    assert not cls(**required) != record
    for field, value in {**required, **defaults}.items():
        assert getattr(record, field) == value, field


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_attributes_cannot_be_assigned(name):
    cls, required, defaults = RECORDS[name]
    record = cls(*required.values())
    field = next(iter({**required, **defaults}))
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1


def test_profile_spec_checks_its_trace_count():
    with pytest.raises(ValueError, match="^empty log: trace_count must be positive$"):
        profile_spec("skewed", 0)


# The records are named tuples: what that adds to the contract above.


def test_seeded_reports_are_equal_as_plain_tuples():
    # A report holds only what was released: two seeded reports of one
    # request compare as tuples do, in either order.
    log = read_log(Path(__file__).parent / "data" / "skewed.csv", mapping=CANONICAL_MAPPING)
    request = DisclosureRequest(Mode.P1, MAX, RiskParams(0.4), seed=7, runs=3)
    (_, a), (_, b) = disclose(build_dfg(log), request), disclose(build_dfg(log), request)
    assert tuple(a) == b and a == tuple(b) and b == tuple(a)
    assert not tuple(a) != b and not a != tuple(b)


@pytest.mark.parametrize("build, message", [
    (lambda: RiskParams(0.4)._replace(delta=1.5), "^delta must be in \\(0,1\\), got 1.5$"),
    (lambda: RiskParams._make([0.4, 2.0]), "^precision must be in \\[0,1\\], got 2.0$"),
    (lambda: UtilityParams(0.3)._replace(beta=0.0), "^beta must be in \\(0,1\\), got 0.0$"),
    (lambda: ColumnMapping()._replace(number_unit="weeks"), "^unknown time unit 'weeks'"),
    (lambda: P2._replace(runs=0), "^runs must be >= 1, got 0$"),
    (lambda: P2._replace(precision=1.5), "^precision must be in \\[0,1\\], got 1.5$"),
    (lambda: SweepSpec(**RECORDS["SweepSpec"][1], deltas=(1.5,)), "^delta must be in \\(0,1\\), got 1.5$"),
    (lambda: LogSource("x", path="x.csv")._replace(synthetic=SyntheticLogSpec(5)), "has both a path"),
    (lambda: SyntheticLogSpec(5)._replace(max_trace_len=1), "^trace length bounds"),
], ids=["risk-replace", "risk-make", "utility", "mapping", "request", "request-precision", "sweep-cell", "log-source",
        "synthetic"])
def test_replace_and_make_check_the_record(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_replace_fills_in_derived_fields_again():
    # A request's unset precision is filled in from its risk; a sweep's
    # requests are no field, but built from its fields on each call.
    request = DisclosureRequest(Mode.P1, MAX, RiskParams(0.4, 0.2))
    assert request.precision == 0.2
    assert request._replace(runs=3) == DisclosureRequest(Mode.P1, MAX, RiskParams(0.4, 0.2), runs=3)
    spec = SweepSpec(logs=(LogSource("clinic", path="clinic.csv"),), deltas=(0.4,), mapes=(), aggregations=(MAX,))
    assert [r.runs for r in spec._replace(runs=2).requests()] == [2]
    assert "requests" not in SweepSpec._fields
    with pytest.raises(TypeError, match="requests"):
        SweepSpec(**{**spec._asdict(), "requests": ()})


def test_event_log_replace_keeps_its_case_count():
    log = EventLog({"a": (("A", 0),), "b": (("B", 1),)})
    assert len(log) == 2 and len(log._replace(traces={"c": ()})) == 1


# The records that check their fields' kinds from a `_kinds` table.
KIND_CHECKED = ["DisclosureRequest", "LogSource", "RiskParams", "SweepSpec", "SyntheticLogSpec", "UtilityParams"]


@pytest.mark.parametrize("name", KIND_CHECKED)
def test_record_rejects_a_value_of_the_wrong_kind_in_each_field(name):
    cls, required, _ = RECORDS[name]
    # Every field is checked, in field order, so a bad field is the one named.
    assert list(cls._kinds) == list(cls._fields)
    record, bad = cls(**required), object()
    for field in cls._kinds:
        message = f"^{field} must be an? [A-Za-z ]+, got {re.escape(repr(bad))}$"
        values = [bad if f == field else v for f, v in zip(cls._fields, record)]
        for build in (lambda: cls(**{**required, field: bad}), lambda: cls._make(values),
                      lambda: record._replace(**{field: bad})):
            with pytest.raises(TypeError, match=message):
                build()


@pytest.mark.parametrize("build, message", [
    (lambda: DisclosureRequest("P2", MAX, utility=UtilityParams(0.3)), "mode must be a Mode, got 'P2'"),
    (lambda: DisclosureRequest(Mode.P1, "max", risk=RiskParams(0.4)),
     "aggregation must be an AggregationKind, got 'max'"),
    (lambda: DisclosureRequest(Mode.P1, MAX, risk=0.4), "risk must be a RiskParams, got 0.4"),
    (lambda: DisclosureRequest(Mode.P2, MAX, utility=0.3), "utility must be a UtilityParams, got 0.3"),
    (lambda: RiskParams("0.4"), "delta must be a number, got '0.4'"),
    (lambda: SweepSpec(**RECORDS["SweepSpec"][1], aggregations=("max",)),
     "aggregations item must be an AggregationKind, got 'max'"),
    (lambda: LogSource(name=3, path=5), "name must be a string, got 3"),
    (lambda: SweepSpec(logs=("a.csv",)), "logs item must be a LogSource, got 'a.csv'"),
    (lambda: SweepSpec(**RECORDS["SweepSpec"][1], deltas=0.1), "deltas must be a tuple, got 0.1"),
], ids=["mode", "aggregation", "risk", "utility", "risk-delta", "sweep-aggregation", "log-source-name", "sweep-log-path",
        "sweep-deltas"])
def test_fields_of_the_wrong_kind_fail_when_built(build, message):
    # Each of these once built and failed later, or raised a TypeError
    # that named no field.
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        build()


def test_a_field_whose_default_is_none_may_be_none():
    request = DisclosureRequest(Mode.P2, MAX, None, UtilityParams(0.3), None, time_unit=None)
    assert request.precision == DEFAULT_PRECISION
    with pytest.raises(TypeError, match="^seed must be an integer, got None$"):
        request._replace(seed=None)
    with pytest.raises(TypeError, match="^n_variants must be an integer or null, got 2.5$"):
        SyntheticLogSpec(5, n_variants=2.5)
    assert SyntheticLogSpec(5, n_variants=None).n_variants is None
