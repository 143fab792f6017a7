"""Engine-name plumbing: every layer must honor every engine.

The engine selection travels a long way — ``AlgorithmParameters`` →
``apply_engine`` → proxy wrappers (``DynamicFaultNetwork``,
``ChurnNetwork``, ``RecordingNetwork``) → the base ``RadioNetwork`` —
and the columnar stage drivers dispatch on ``network.engine`` seen
*through* those proxies, so a wrapper that swallowed the attribute would
silently fall back to the reference path.  These tests pin the
propagation for all three engine names, and the one capability query
(:func:`runs_vector_path`) that must *not* see through those proxies.
"""

import json
import warnings

import numpy as np
import pytest

from repro.core.config import AlgorithmParameters
from repro.dynamic.churn import ChurnNetwork
from repro.primitives.bgi_broadcast import bgi_broadcast
from repro.radio.faults import FaultyRadioNetwork
from repro.radio.network import ENGINES, RadioNetwork, runs_vector_path
from repro.radio.rng import make_rng
from repro.radio.sinr import SinrRadioNetwork
from repro.radio.trace import RoundTrace
from repro.radio.transcript import RecordingNetwork
from repro.resilience.chaos.runner import CampaignConfig
from repro.resilience.network import DynamicFaultNetwork
from repro.topology import grid


@pytest.mark.parametrize("engine", ENGINES)
def test_engine_visible_through_every_wrapper(engine):
    base = grid(3, 4)
    base.set_engine(engine)
    wrappers = [
        RecordingNetwork(base),
        DynamicFaultNetwork(base),
        ChurnNetwork(base),
        FaultyRadioNetwork(base),
    ]
    # stacked, as the chaos runner builds them
    stacked = DynamicFaultNetwork(RecordingNetwork(ChurnNetwork(base)))
    for net in wrappers + [stacked]:
        assert net.engine == engine, type(net).__name__
        # a wrapper intercepts rounds, so it never runs the vector path
        assert not runs_vector_path(net), type(net).__name__

    # only a bare columnar network does, traced or not
    assert runs_vector_path(base) == (engine == "columnar")
    calls = []
    resolve_round = base.resolve_round
    base.resolve_round = lambda tx: calls.append(tx) or resolve_round(tx)
    flood = bgi_broadcast(base, [0], make_rng(1), trace=RoundTrace())
    del base.resolve_round
    assert flood.informed.all()
    assert (not calls) == (engine == "columnar")

    class Overriding(RadioNetwork):
        def resolve_round(self, transmissions):
            return super().resolve_round(transmissions)

    assert not runs_vector_path(
        Overriding(base.edge_list(), n=base.n, engine=engine)
    )
    sinr = SinrRadioNetwork(
        np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]),
        require_connected=False,
    )
    sinr.set_engine(engine)
    assert not runs_vector_path(sinr)


@pytest.mark.parametrize("engine", ENGINES)
def test_apply_engine_reaches_base_through_proxies(engine):
    base = grid(3, 4)
    base.set_engine("fast" if engine != "fast" else "reference")
    proxied = DynamicFaultNetwork(RecordingNetwork(base))
    AlgorithmParameters(engine=engine).apply_engine(proxied)
    assert base.engine == engine
    assert proxied.engine == engine


@pytest.mark.parametrize("engine", ENGINES)
def test_campaign_config_engine_round_trips(engine):
    config = CampaignConfig(engine=engine)
    restored = CampaignConfig.from_json(
        json.loads(json.dumps(config.to_json()))
    )
    assert restored.engine == engine
    assert restored == config


def test_params_engine_accepts_all_names_and_rejects_unknown():
    for engine in ENGINES:
        assert AlgorithmParameters(engine=engine).engine == engine
    assert AlgorithmParameters().engine is None
    with pytest.raises(ValueError, match="unknown engine"):
        AlgorithmParameters(engine="warp")


def test_replace_preserves_engine_without_rewarning():
    import dataclasses

    params = AlgorithmParameters(engine="fast")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bumped = dataclasses.replace(params, group_spacing=4)
    assert bumped.engine == "fast"
    assert bumped.group_spacing == 4
