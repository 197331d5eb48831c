"""The instrumented pipeline: span coverage and disabled-mode identity."""

import pytest

from repro import obs
from repro.net.topology import random_topology
from repro.traffic.report import run_traffic

RUN = dict(n=60, degree=6.0, k=2, flows=50, seed=11)


class TestTracedTrafficRun:
    @pytest.fixture()
    def traced(self, obs_on):
        report = run_traffic(**RUN, lifetime_epochs=2, backend="landmark")
        (root,) = obs.take_finished()
        return report, root

    def test_root_span_covers_the_documented_stages(self, traced):
        _, root = traced
        assert root.name == "traffic"
        assert root.meta["n"] == RUN["n"] and root.meta["seed"] == RUN["seed"]
        names = {sp.name for sp in root.walk()}
        # the acceptance-criteria stage set, end to end
        for stage in (
            "topology",
            "cluster",
            "cds",
            "labels",
            "router",
            "epochs",
            "epoch",
        ):
            assert stage in names, f"missing {stage} span"

    def test_self_times_cover_the_root_duration(self, traced):
        _, root = traced
        covered = sum(sp.self_time for sp in root.walk())
        assert covered == pytest.approx(root.duration, rel=1e-6)
        assert covered >= 0.90 * root.duration

    def test_lifetime_epochs_emit_epoch_spans(self, traced):
        _, root = traced
        epochs = [sp for sp in root.walk() if sp.name == "epoch"]
        # step-0 accounting epoch + 2 lifetime epochs x 2 schemes
        assert len(epochs) == 5

    def test_oracle_stats_land_in_the_registry(self, traced):
        snap = obs.registry().snapshot()
        oracle_gauges = [
            name for name in snap["gauges"] if name.startswith("oracle.")
        ]
        assert oracle_gauges, "no oracle.* gauges published"
        paths_gauges = [
            name for name in snap["gauges"] if name.startswith("paths.")
        ]
        assert paths_gauges, "no paths.* gauges published"


class TestTopologySampling:
    def test_counters_and_span(self, obs_on):
        topo = random_topology(200, 6.0, seed=4)
        counters = obs.registry().counter_values()
        assert counters["topology.attempts"] == topo.attempts
        assert 0 <= counters["topology.isolated_rejects"] < topo.attempts
        (root,) = obs.take_finished()
        assert root.name == "topology" and root.meta["n"] == 200


class TestDisabledIdentity:
    def test_disabled_run_matches_enabled_run(self, obs_off):
        base = run_traffic(**RUN)
        assert len(obs.registry()) == 0
        assert obs.take_finished() == []

        obs.set_enabled(True)
        try:
            traced = run_traffic(**RUN)
        finally:
            obs.reset()
            obs.reset_tracer()
            obs.set_enabled(False)

        assert traced.load.packet_hops == base.load.packet_hops
        assert traced.load.mean_stretch == base.load.mean_stretch
        assert traced.load.max_node_load == base.load.max_node_load
        assert traced.load.cds_share == base.load.cds_share
        assert traced.backbone.cds_size == base.backbone.cds_size
        assert traced.routing.mean_table == base.routing.mean_table
