"""Deterministic simulated cloud: virtual clock, providers, cost ledger."""
