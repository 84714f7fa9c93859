"""Interaction-complexity calculator and interaction-speed analytics.

Estimates the interaction complexity of UI concepts as polynomials over
named variables, normalized to abstract interaction steps (IS), classifies
their growth, derives keystroke-level execution-time estimates, converts IS
counts to time through measured interaction speeds, and analyzes event logs
into task- and step-level speed tables.
"""

from .bigi import (
    ActionVector,
    Assessment,
    ComplexityReport,
    NormalizedComplexity,
    SimplifiedComplexity,
    analyze,
    assess,
    instantiate,
    normalize,
    simplify,
    step_function,
    sum_steps,
)
from .concept import (
    ActionKind,
    Diagnostic,
    InteractionConcept,
    UserStep,
    parse_concept,
    serialize_concept,
    validate,
)
from .errors import IxComplexError
from .expr import (
    Expression,
    evaluate,
    format_expr,
    parse_expr,
    total_degree,
)
from .klm import (
    ActionMapping,
    DEFAULT_MAPPING,
    KlmExpression,
    KlmModel,
    KlmOperator,
    klm_from_concept,
    klm_parse,
    klm_speed,
    klm_time,
)
from .logs import (
    EventLog,
    IqrBounds,
    cross_check,
    dump_log,
    iqr_filter,
    load_log,
    log_tables,
    step_table,
    task_table,
)
from .speed import (
    BUILTIN_SPEED_MODELS,
    SpeedModel,
    TimeEstimate,
    aggregate_speed,
    estimate_time,
    get_speed_model,
    speed_stats,
)
from .synth import ActionCounts, SynthConfig, count_actions, generate_log, generate_log_text

__version__ = "0.1.0"

__all__ = [
    "ActionCounts",
    "ActionKind",
    "ActionMapping",
    "ActionVector",
    "Assessment",
    "BUILTIN_SPEED_MODELS",
    "ComplexityReport",
    "DEFAULT_MAPPING",
    "Diagnostic",
    "EventLog",
    "Expression",
    "InteractionConcept",
    "IqrBounds",
    "IxComplexError",
    "KlmExpression",
    "KlmModel",
    "KlmOperator",
    "NormalizedComplexity",
    "SimplifiedComplexity",
    "SpeedModel",
    "SynthConfig",
    "TimeEstimate",
    "UserStep",
    "aggregate_speed",
    "analyze",
    "assess",
    "count_actions",
    "cross_check",
    "dump_log",
    "estimate_time",
    "evaluate",
    "format_expr",
    "generate_log",
    "generate_log_text",
    "get_speed_model",
    "instantiate",
    "iqr_filter",
    "klm_from_concept",
    "klm_parse",
    "klm_speed",
    "klm_time",
    "load_log",
    "log_tables",
    "normalize",
    "parse_concept",
    "parse_expr",
    "serialize_concept",
    "simplify",
    "speed_stats",
    "step_function",
    "step_table",
    "sum_steps",
    "task_table",
    "total_degree",
    "validate",
]
