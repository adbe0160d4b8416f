"""ResultStore.append_many and the runner's per-tick batched flushes."""

from __future__ import annotations

import json

import pytest

from repro.campaign.runner import run_campaign
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import ResultStore, ShardedResultStore
from repro.errors import CampaignError


def _record(i: int, status: str = "ok") -> dict:
    return {
        "hash": f"h{i}",
        "kind": "energy",
        "params": {"i": i},
        "status": status,
        "result": {"value": i},
    }


class TestAppendMany:
    def test_writes_all_records_in_order(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        store.append_many([_record(i) for i in range(5)])
        lines = (tmp_path / "s.jsonl").read_text().splitlines()
        assert [json.loads(line)["hash"] for line in lines] == [
            f"h{i}" for i in range(5)
        ]
        assert len(store) == 5

    def test_format_matches_single_append(self, tmp_path):
        one = ResultStore(tmp_path / "one.jsonl")
        many = ResultStore(tmp_path / "many.jsonl")
        records = [_record(i) for i in range(3)]
        for record in records:
            one.append(record)
        many.append_many(records)
        assert (
            (tmp_path / "one.jsonl").read_text()
            == (tmp_path / "many.jsonl").read_text()
        )

    def test_empty_batch_is_a_noop(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        store.append_many([])
        assert not (tmp_path / "s.jsonl").exists()

    def test_validates_every_record_before_writing(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        bad = [_record(0), {"hash": "x", "status": "bogus"}]
        with pytest.raises(CampaignError):
            store.append_many(bad)
        # Validation happens up front: nothing was persisted.
        assert not (tmp_path / "s.jsonl").exists()

    def test_batch_then_compact_keeps_latest(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        store.append_many([_record(0), _record(1)])
        store.append_many([{**_record(0), "result": {"value": 99}}])
        assert store.load()["h0"]["result"] == {"value": 99}
        dropped = store.compact()
        assert dropped == 1
        assert store.load()["h0"]["result"] == {"value": 99}


class TestShardedAppendMany:
    def test_records_route_by_hash_and_load_merges(self, tmp_path):
        store = ShardedResultStore.create(tmp_path / "c.shards", 2)
        # Hex hashes route by their first 8 digits modulo the shard count.
        records = [
            {**_record(i), "hash": f"{i:08x}" + "0" * 56} for i in range(4)
        ]
        store.append_many(records)
        for index in range(2):
            lines = (
                tmp_path / "c.shards" / f"shard-{index:02d}.jsonl"
            ).read_text().splitlines()
            assert [json.loads(line)["params"]["i"] for line in lines] == [
                i for i in range(4) if i % 2 == index
            ]
        merged = ShardedResultStore(tmp_path / "c.shards").load()
        assert sorted(merged) == sorted(r["hash"] for r in records)


class TestRunnerTickBatching:
    def _spec(self) -> CampaignSpec:
        return CampaignSpec(
            name="store-batch",
            kind="energy",
            axes={"emt": ("none", "dream"), "voltage": (0.6, 0.8, 0.9)},
            fixed={
                "workload": {
                    "n_reads": 1000,
                    "n_writes": 500,
                    "duration_s": 0.5,
                }
            },
        )

    def test_pool_run_persists_every_point(self, tmp_path):
        store = ResultStore(tmp_path / "c.jsonl")
        result = run_campaign(self._spec(), store=store, n_workers=2)
        assert result.n_executed == 6 and result.n_failed == 0
        assert store.completed_hashes() == {
            rec["hash"] for rec in result.records
        }

    def test_pool_matches_serial_results_and_store(self, tmp_path):
        serial_store = ResultStore(tmp_path / "serial.jsonl")
        serial = run_campaign(self._spec(), store=serial_store)
        pool_store = ResultStore(tmp_path / "pool.jsonl")
        pooled = run_campaign(self._spec(), store=pool_store, n_workers=3)
        assert [rec["result"] for rec in serial.records] == [
            rec["result"] for rec in pooled.records
        ]
        assert serial_store.completed_hashes() == pool_store.completed_hashes()

    def test_pool_resume_from_batched_store(self, tmp_path):
        store = ResultStore(tmp_path / "c.jsonl")
        run_campaign(self._spec(), store=store, n_workers=2)
        resumed = run_campaign(self._spec(), store=store, n_workers=2)
        assert resumed.n_executed == 0
        assert resumed.n_cached == 6
