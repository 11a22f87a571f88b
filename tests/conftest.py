"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.graphs import (
    Topology,
    complete,
    cycle,
    grid_2d,
    path,
    random_regular,
    star,
)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(12345)


@pytest.fixture
def triangle() -> Topology:
    """The smallest cycle: 3 nodes."""
    return cycle(3)


@pytest.fixture
def small_cycle() -> Topology:
    return cycle(8)


@pytest.fixture
def small_path() -> Topology:
    return path(6)


@pytest.fixture
def small_star() -> Topology:
    return star(6)


@pytest.fixture
def small_complete() -> Topology:
    return complete(6)


@pytest.fixture
def small_grid() -> Topology:
    return grid_2d(3, 3)


@pytest.fixture
def small_expander() -> Topology:
    return random_regular(16, 4, seed=11)


@pytest.fixture
def medium_expander() -> Topology:
    return random_regular(32, 4, seed=5)


@pytest.fixture
def custom_protocol():
    """Register test-only protocols for one test; unregister them after.

    ``custom_protocol(name, factory)`` registers ``factory(topology,
    seed)`` under ``name`` and returns the name, ready for
    ``ExperimentSpec(protocol=...)``.  Factories that pool workers run
    must be module-level functions, so they pickle by reference.
    """
    from repro.protocols import PROTOCOLS, register_protocol

    names = []

    def register(name, factory):
        register_protocol(name, factory)
        names.append(name)
        return name

    yield register
    for name in names:
        PROTOCOLS.pop(name, None)
