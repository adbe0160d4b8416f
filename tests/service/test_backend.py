"""The ``service`` execution backend and Session integration."""

from __future__ import annotations

import pytest

from repro.api.session import (
    BACKENDS,
    Session,
    backend_names,
    make_backend,
)
from repro.errors import ServiceError
from repro.service import ServiceBackend
from repro.service.backend import _store_identity

from test_daemon import canon, tiny_fig2


class TestRegistration:
    def test_service_backend_is_registered(self):
        assert "service" in backend_names()
        backend = make_backend("service", 3)
        assert isinstance(backend, ServiceBackend)
        assert backend.workers == 3

    def test_factory_is_lazy(self):
        # The BACKENDS entry must not import repro.service at session
        # import time (service imports the session module back).
        factory = BACKENDS["service"]
        assert callable(factory)
        assert isinstance(factory(1), ServiceBackend)


class TestStoreIdentity:
    def test_plain_and_sharded_stores_resolve_alike(self, tmp_path):
        from repro.campaign.store import ResultStore, ShardedResultStore

        plain = ResultStore(tmp_path / "camp.jsonl")
        assert _store_identity(plain) == (str(tmp_path), "camp")
        sharded = ShardedResultStore.create(tmp_path / "camp.shards", 2)
        assert _store_identity(sharded) == (str(tmp_path), "camp")


class TestSessionRoundTrip:
    def test_session_run_routes_through_the_daemon(
        self, run_daemon, service_paths, tmp_path
    ):
        experiment = tiny_fig2(
            name="svc-via-session", store="svc-via-session",
            backend="service",
        )
        with run_daemon() as (service, _client):
            handle = Session(store_dir=service_paths["store"]).run(
                experiment
            )
            assert handle.ok
            assert handle.n_executed == 1
            assert handle.n_cached == 0

            # The daemon executed it as one campaign job.
            jobs = service.queue.jobs(kind="campaign")
            assert len(jobs) == 1
            assert jobs[0].status == "done"
            assert jobs[0].job_id.startswith("svc-")

            # Bit-identical to the same experiment run inline.
            inline = Session(store_dir=tmp_path / "inline").run(
                tiny_fig2(name="svc-via-session", store="svc-via-session")
            )
            assert canon(handle.records) == canon(inline.records)

    def test_second_session_run_resumes_from_the_store(
        self, run_daemon, service_paths
    ):
        experiment = tiny_fig2(
            name="svc-resume", store="svc-resume", backend="service",
        )
        with run_daemon() as (_service, client):
            session = Session(store_dir=service_paths["store"])
            first = session.run(experiment)
            assert first.n_executed == 1
            # The job is terminal, so the resubmission is requeued and
            # re-executed — but every point is already stored: the
            # service run resolves fully from cache.
            second = session.run(experiment)
            assert second.n_executed == 0
            assert second.n_cached == 1
            assert canon(second.records) == canon(first.records)

    def test_without_a_daemon_the_backend_says_how_to_start_one(self):
        experiment = tiny_fig2(name="svc-nodaemon", backend="service")
        with pytest.raises(ServiceError, match="repro serve"):
            Session().run(experiment)


class TestBackendErrors:
    def test_point_failures_surface_in_the_result(
        self, run_daemon, service_paths
    ):
        from repro.campaign.spec import CampaignSpec

        spec = CampaignSpec(
            name="svc-partial", kind="energy",
            axes={"emt": ("none", "bogus"), "voltage": (0.9,)},
            fixed={"workload": {
                "n_reads": 1_000, "n_writes": 1_000, "duration_s": 1e-3,
            }},
        )
        with run_daemon() as (_service, client):
            backend = ServiceBackend(root=service_paths["root"])
            result = backend.execute(spec)
            assert len(result.records) == 2
            assert result.n_failed == 1
            # The journal agrees: the job itself is marked failed.
            job = client.jobs(kind="campaign")[0]
            assert job.status == "failed"
            assert "failed" in (job.error or "")
