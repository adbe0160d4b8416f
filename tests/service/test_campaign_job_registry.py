"""A service campaign job records the same registry row as a Session run."""

from __future__ import annotations

from repro.campaign.spec import CampaignSpec
from repro.obs import RunRegistry
from repro.service import campaign_job_payload


def test_campaign_job_registry_row_carries_run_metrics(
    run_daemon, service_paths
):
    spec = CampaignSpec(
        name="svc-registry-energy",
        kind="energy",
        axes={"emt": ("none", "dream"), "voltage": (0.9,)},
        fixed={"workload": {
            "n_reads": 20_000, "n_writes": 20_000, "duration_s": 1e-3,
        }},
    )
    payload = campaign_job_payload(
        spec, spec.expand(), "svc-registry-energy",
        str(service_paths["store"]),
    )
    with run_daemon() as (_service, client):
        job, _ = client.submit_campaign(payload)
        assert client.wait(job.job_id, timeout_s=120).status == "done"
        record = RunRegistry(service_paths["trace"]).get(job.job_id)

    assert record is not None
    assert record.status == "ok"
    assert record.kind == "campaign"
    assert record.metrics == {
        "n_points": 2, "n_executed": 2, "n_cached": 0, "n_failed": 0,
    }
    assert record.wall_s is not None and record.wall_s > 0.0
    assert record.cpu_s is not None and record.cpu_s >= 0.0
