"""Differentially private disclosure of directly-follows graphs.

Builds frequency- and time-annotated DFGs from event logs and releases them
under epsilon-differential privacy, calibrated either from a guessing-
advantage risk target (P1) or from a percentage-error utility target (P2).
"""
from .dfg import AggregationKind, AnnotatedDfg, Dfg, DfgEdge, aggregate, build_dfg, edge_range
from .eventlog import (
    CANONICAL_MAPPING,
    ColumnMapping,
    EventLog,
    IngestError,
    START_END,
    parse_csv,
    parse_xes,
    read_log,
    to_canonical_csv,
)
from .noise import DEFAULT_SEED, NoiseStream, sample_laplace, sensitivity
from .pipeline import (
    DisclosureReport,
    DisclosureRequest,
    EdgeDisclosure,
    Mode,
    PreparedDfg,
    disclose,
    emit_csv,
    emit_dot,
    emit_json,
    prepare,
    release,
    report_to_dict,
)
from .risk import (
    RiskParams,
    UNBOUNDED,
    delta_from_epsilon_freq,
    delta_from_epsilon_time,
    dfg_delta,
    empirical_prior,
    epsilon_freq,
    epsilon_from_delta,
    worst_case_prior,
)
from .utility import UtilityParams, alpha_per_edge, ape, epsilon_from_alpha, mape, smape

__version__ = "0.9.0"
