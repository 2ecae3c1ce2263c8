"""Regression tests for the batched leaf path and engine/network edges.

The contract (docs/performance.md): ``leaf_batch`` changes only the
host-side cost of computing leaf values, never the simulation.  Every
seeded obs event stream is byte-identical with batching on or off, and
the batched values match the scalar ``App.leaf`` reference bit for bit —
the scalar path stays the numeric reference, and it is the only path for
the raytracer.  The message transport has one implementation, pinned by
the golden stream hashes and ``events_processed`` counts in
``test_obs_determinism`` and by the recorded schedules of
``test_transmit_corpus``.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.apps.base import run_cashmere, run_satin
from repro.apps.kmeans import KMeansApp
from repro.apps.matmul import MatmulApp
from repro.apps.nbody import NBodyApp
from repro.apps.raytracer import RaytracerApp
from repro.cluster.das4 import ClusterConfig
from repro.core.runtime import CashmereConfig
from repro.satin.runtime import RuntimeConfig
from repro.sim.engine import Environment, Timeout
from repro.sim.network import QDR_INFINIBAND, Network
from repro.sweep.spec import ClusterSpec


# ----------------------------------------------------------------------
# determinism hashes: leaf_batch on/off for all five seeded apps
# ----------------------------------------------------------------------
def _det_cluster() -> ClusterConfig:
    return ClusterConfig(
        name="det-3",
        nodes=[("gtx480",), ("k20", "xeon_phi"), ("c2050",)])


def _stream_hash(app_name: str, leaf_batch: bool) -> str:
    if app_name == "kmeans":
        app = KMeansApp(n_points=1 << 18, iterations=2, leaf_points=1 << 15)
    elif app_name == "matmul":
        app = MatmulApp(n=2048, leaf_block=512)
    elif app_name == "nbody":
        app = NBodyApp(n_bodies=1 << 14, iterations=2, leaf_bodies=1 << 11)
    elif app_name == "raytracer":
        app = RaytracerApp(width=256, height=128, samples=4, leaf_rows=16)
    else:  # satin-raytracer
        app = RaytracerApp(width=512, height=256, samples=4, leaf_rows=16)
        cluster_config = ClusterSpec(kind="satin_cpu", num_nodes=4).build()
        _res, _rt, cluster = run_satin(
            app, cluster_config, app.root_task(),
            config=RuntimeConfig(seed=42, leaf_batch=leaf_batch),
            obs=True, return_runtime=True)
        return hashlib.sha256(
            cluster.obs.serialize().encode()).hexdigest()
    _res, _rt, cluster = run_cashmere(
        app, _det_cluster(), app.root_task(),
        config=CashmereConfig(seed=42, leaf_batch=leaf_batch),
        obs=True, return_runtime=True)
    return hashlib.sha256(cluster.obs.serialize().encode()).hexdigest()


@pytest.mark.parametrize(
    "app_name", ["kmeans", "matmul", "nbody", "raytracer", "satin-raytracer"])
def test_leaf_batch_stream_hash_invariant(app_name):
    assert _stream_hash(app_name, leaf_batch=True) == \
        _stream_hash(app_name, leaf_batch=False)


# ----------------------------------------------------------------------
# leaf_batch values match the scalar reference bit-for-bit (real data)
# ----------------------------------------------------------------------
def _small_cluster() -> ClusterConfig:
    return ClusterConfig(name="t3", nodes=[(), (), ()])


def test_leaf_batch_values_match_scalar():
    import numpy as np

    from repro.apps import kmeans, matmul, nbody

    for mod, key in ((matmul, "matmul"), (nbody, "nbody"),
                     (kmeans, "kmeans")):
        outputs = []
        for leaf_batch in (True, False):
            app = mod.small_app(seed=3)
            result = run_satin(app, _small_cluster(), app.root_task(),
                               config=RuntimeConfig(seed=7,
                                                    leaf_batch=leaf_batch))
            if key == "matmul":
                outputs.append((result.result, app.data[2].copy()))
            elif key == "nbody":
                outputs.append((result.result, app.data[0].copy(),
                                app.data[1].copy()))
            else:
                outputs.append((app.centroids.copy(),))
        for batched, scalar in zip(*outputs):
            if isinstance(batched, np.ndarray):
                assert np.array_equal(batched, scalar), key
            else:
                assert batched == scalar, key


# ----------------------------------------------------------------------
# byte counters stay exact for integral payload sizes
# ----------------------------------------------------------------------
def test_byte_counters_exact_for_integral_sizes():
    env = Environment()
    net = Network(env, QDR_INFINIBAND)
    a, b = net.attach(0), net.attach(1)

    def go():
        # float accumulation would lose the +1 at this magnitude
        # (2.0**53 + 1.0 == 2.0**53)
        yield from net.transmit(a, 1, "big", None, float(2 ** 53))
        yield from net.transmit(a, 1, "one", None, 1.0)

    env.process(go())
    env.run()
    assert a.bytes_sent == 2 ** 53 + 1
    assert b.bytes_received == 2 ** 53 + 1
    assert net.total_bytes == 2 ** 53 + 1
    assert isinstance(a.bytes_sent, int)


# ----------------------------------------------------------------------
# run(until=<number>) boundary: events exactly at stop_at are processed
# ----------------------------------------------------------------------
def test_run_until_number_boundary():
    env = Environment()
    fired = []

    def proc():
        yield Timeout(env, 1.0)
        fired.append(env.now)
        yield Timeout(env, 1.0)   # lands exactly at stop_at
        fired.append(env.now)
        yield Timeout(env, 0.5)   # beyond stop_at: must NOT run
        fired.append(env.now)

    env.process(proc())
    env.run(until=2.0)
    assert fired == [1.0, 2.0]
    assert env.now == 2.0
    # The clock lands on stop_at even when no event sits there.
    env.run(until=2.25)
    assert env.now == 2.25
    assert fired == [1.0, 2.0]
    # Resuming past the boundary delivers the deferred event.
    env.run(until=3.0)
    assert fired == [1.0, 2.0, 2.5]
    assert env.now == 3.0
    # Running into the past is refused.
    from repro.sim.engine import SimulationError
    with pytest.raises(SimulationError):
        env.run(until=1.0)
