"""Deterministic simulated cloud: virtual clock, providers, cost ledger."""

from .clock import VirtualClock
from .ledger import CostLedger, LedgerEntry
from .provider import (
    Cluster,
    DelayProfile,
    Event,
    SimCloud,
    SimProvider,
    price_catalog,
)
from .workload import WorkloadProfile, parse_workload, workload_duration, workload_result

__all__ = [
    "VirtualClock",
    "CostLedger",
    "LedgerEntry",
    "Cluster",
    "DelayProfile",
    "Event",
    "SimCloud",
    "SimProvider",
    "price_catalog",
    "WorkloadProfile",
    "parse_workload",
    "workload_duration",
    "workload_result",
]
