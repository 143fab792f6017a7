"""Shared fixtures for the test suite."""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.core.config import AlgorithmParameters
from repro.radio.faults import FaultyRadioNetwork
from repro.radio.network import RadioNetwork
from repro.radio.trace import RoundTrace
from repro.topology import grid, line, star

#: How a stage pin runs its network: through a trace, behind a 10%
#: erasure layer, or bare.
PIN_MODES = ("trace", "faulty", "bare")


def _canon(value):
    """A repr-stable form of a stage result (arrays and sets made
    explicit, nested results expanded)."""
    if dataclasses.is_dataclass(value):
        return [(f.name, _canon(getattr(value, f.name)))
                for f in dataclasses.fields(value)]
    if isinstance(value, np.ndarray):
        return (str(value.dtype), value.shape, value.tolist())
    if isinstance(value, (set, frozenset)):
        return sorted(_canon(v) for v in value)
    if isinstance(value, dict):
        return sorted((repr(k), _canon(v)) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


def pin_network(base, engine, mode, fault_seed=99):
    """``(network, trace)`` for one stage pin: ``base`` switched to
    ``engine`` and run in ``mode`` (see :data:`PIN_MODES`)."""
    base.set_engine(engine)
    if mode == "trace":
        return base, RoundTrace()
    if mode == "faulty":
        return FaultyRadioNetwork(base, erasure_prob=0.1, seed=fault_seed), None
    assert mode == "bare", mode
    return base, None


def pin_digest(result, rng, network, trace):
    """sha256 over a stage's result, the RNG's end state, the trace
    summary and the fault layer's erasure count."""
    h = hashlib.sha256()
    h.update(repr(_canon(result)).encode())
    h.update(repr(rng.bit_generator.state).encode())
    if trace is not None:
        h.update(repr(sorted(trace.summary().items())).encode())
    if isinstance(network, FaultyRadioNetwork):
        h.update(repr(network.receptions_erased).encode())
    return h.hexdigest()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def path4():
    """0 - 1 - 2 - 3"""
    return line(4)


@pytest.fixture
def small_grid():
    return grid(4, 4)


@pytest.fixture
def small_star():
    return star(6)


@pytest.fixture
def triangle_plus_tail():
    """Triangle 0-1-2 with a tail 2-3-4: mixes cycles and a path."""
    return RadioNetwork([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)], name="tri+tail")


@pytest.fixture
def fast_params():
    return AlgorithmParameters.fast()
