"""Tests for the cyclic-GC pause around allocation-heavy engine work."""

import gc

import pytest

from repro.engine.builder import GraphBuilder, build_training_graph
from repro.engine.gcpause import gc_paused
from repro.parallelism.mapping import DeviceMesh
from repro.parallelism.strategy import OptimizationConfig, ParallelismConfig


@pytest.fixture(autouse=True)
def _collector_restored():
    """Start every test with the collector on; leave it as found."""
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


def test_pauses_inside_and_restores_after():
    with gc_paused():
        assert not gc.isenabled()
    assert gc.isenabled()


def test_restores_after_exception_in_block():
    with pytest.raises(KeyError):
        with gc_paused():
            raise KeyError("inside")
    assert gc.isenabled()


def test_leaves_a_caller_disabled_collector_disabled():
    gc.disable()
    with gc_paused():
        assert not gc.isenabled()
    assert not gc.isenabled()
    with pytest.raises(KeyError):
        with gc_paused():
            raise KeyError("inside")
    assert not gc.isenabled()


def test_nests():
    with gc_paused():
        with gc_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled()


def test_graph_build_runs_paused(tiny_model, small_cluster, monkeypatch):
    seen = []
    real_stamp = GraphBuilder._stamp

    def stamp(self, *args, **kwargs):
        seen.append(gc.isenabled())
        return real_stamp(self, *args, **kwargs)

    monkeypatch.setattr(GraphBuilder, "_stamp", stamp)
    mesh = DeviceMesh(
        cluster=small_cluster, config=ParallelismConfig(tp=2, pp=2, dp=2)
    )
    build_training_graph(
        model=tiny_model, mesh=mesh, microbatch_size=1,
        global_batch_size=8, opts=OptimizationConfig(),
    )
    assert seen and not any(seen)
    assert gc.isenabled()
