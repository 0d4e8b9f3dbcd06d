"""Reproducible, portable analytics pipelines over simulated clouds."""

from .config_model import (
    AbstractRequest,
    ApplicationSpec,
    Engine,
    PersonalSpec,
    ResourcesSpec,
    canonical_serialize,
    parse_abstract_request,
)
from .caam import PipelineDocument, generate_pipeline, lookup_service
from .errors import CloudRerunError
from .history import HistoryStore, execution_url, parse_url
from .metrics import (
    cost_by_usage,
    efficiency_comparison,
    measure,
    reproducibility_overhead,
    run_efficiency_suite,
    run_scaling_suite,
)
from .reproducer import OverrideSet, reproduce
from .runtime import ExecutionOutcome, ExecutionState, Orchestrator
from .simcloud.provider import SimCloud

__version__ = "0.1.0"

__all__ = [
    "AbstractRequest",
    "ApplicationSpec",
    "Engine",
    "PersonalSpec",
    "ResourcesSpec",
    "canonical_serialize",
    "parse_abstract_request",
    "PipelineDocument",
    "generate_pipeline",
    "lookup_service",
    "CloudRerunError",
    "HistoryStore",
    "execution_url",
    "parse_url",
    "cost_by_usage",
    "efficiency_comparison",
    "measure",
    "reproducibility_overhead",
    "run_efficiency_suite",
    "run_scaling_suite",
    "OverrideSet",
    "reproduce",
    "ExecutionOutcome",
    "ExecutionState",
    "Orchestrator",
    "SimCloud",
    "__version__",
]
