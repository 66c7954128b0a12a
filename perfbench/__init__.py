"""Layered benchmark for conric: seeded workloads, numpy oracles, traced layers."""
