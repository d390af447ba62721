"""The stored form of a simulated week: flow columns plus a carried digest.

A :class:`~repro.trace.records.Dataset` pickles as its flows' column
arrays and, once computed, its content digest; the artifact cache keeps
that digest beside the week.  These tests hold that form to the record
form it replaces: equal record by record after a round trip, a carried
digest equal to one recomputed from the records, no stale digest after
filtering or rebinding, and -- on a warm ``study --full`` -- no record
ever built for the five full weeks, only for their focus flows.
"""

from __future__ import annotations

import dataclasses
import io
import pickle

import pytest

from repro.artifacts.store import default_store, reset_default_store
from repro.sim import driver
from repro.sim.driver import run_all, run_scenario
from repro.trace.columnar import FlowTable
from repro.trace.records import FlowRecord

pytest.importorskip("numpy")

SCALE = 0.004


@pytest.fixture(scope="module")
def week():
    return run_scenario("EU1-ADSL", scale=SCALE, seed=7)


@pytest.fixture
def materialised(monkeypatch):
    """Every table that builds its records from columns, in call order."""
    built = []
    original = FlowTable._materialise

    def counting(table):
        built.append(table)
        return original(table)

    monkeypatch.setattr(FlowTable, "_materialise", counting)
    return built


def roundtrip(obj):
    return pickle.loads(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


def recomputed(dataset):
    """The digest of the dataset's records, hashed afresh."""
    return FlowTable(list(dataset.records)).content_digest()


@pytest.fixture
def store(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE", "on")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    reset_default_store()
    driver.clear_cache()
    yield default_store()
    reset_default_store()
    driver.clear_cache()


def test_pickle_carries_columns_not_records(week):
    blob = pickle.dumps(week.dataset, protocol=pickle.HIGHEST_PROTOCOL)
    assert b"FlowRecord" not in blob
    copy = pickle.loads(blob)
    assert copy.records._records is None  # columns-first until iterated


def test_roundtrip_matches_field_for_field(week, materialised):
    original = week.dataset
    copy = roundtrip(original)
    # The vantage's resolvers hold policy objects that compare by
    # identity; its public plan is what the analysis reads.
    assert (copy.name, copy.vantage.name, copy.subnet_plan(), copy.duration_s) == (
        original.name, original.vantage.name, original.subnet_plan(), original.duration_s)
    assert len(copy) == len(original)
    assert materialised == []
    for got, want in zip(copy.records, original.records):
        for field in dataclasses.fields(FlowRecord):
            a, b = getattr(got, field.name), getattr(want, field.name)
            assert type(a) is type(b) and a == b, field.name
    assert len(materialised) == 1 and materialised[0] is copy.records


def test_carried_digest_equals_recomputed(week, materialised):
    digest = week.dataset.content_digest()
    copy = roundtrip(week.dataset)
    assert copy.content_digest() == digest
    assert materialised == []  # carried, not recomputed
    assert recomputed(copy) == digest


def test_filtered_and_replaced_datasets_recompute_their_digest(week):
    dataset = roundtrip(week.dataset)
    full = dataset.content_digest()
    keep = dataset.server_ips[:2]
    subset = dataset.filtered(keep)
    assert subset.content_digest() != full
    assert subset.content_digest() == recomputed(subset)
    head = dataclasses.replace(dataset, records=list(dataset.records[:5]))
    assert head.content_digest() == recomputed(head) != full
    same = dataclasses.replace(dataset, records=dataset.records)
    assert same.content_digest() == full
    dataset.records = list(dataset.records[:3])
    assert isinstance(dataset.records, FlowTable)
    assert dataset.content_digest() == recomputed(dataset) != full


def test_digest_is_stored_beside_the_week_once_asked_for(store):
    cold = run_scenario("EU1-FTTH", scale=SCALE, seed=7, duration_s=86400.0)
    assert cold.dataset.records.digest is None  # simulating never hashes
    assert store.stats.puts == 1
    digest = cold.dataset.content_digest()
    assert store.stats.puts == 2
    driver.clear_cache()
    warm = run_scenario("EU1-FTTH", scale=SCALE, seed=7, duration_s=86400.0)
    assert warm is not cold
    assert warm.dataset.records.digest == digest
    assert warm.dataset.records._records is None
    assert warm.dataset.content_digest() == digest
    assert store.stats.puts == 2


def test_run_many_carries_the_stored_digest(store):
    from repro.sim.engine import run_many
    from repro.sim.scenarios import PAPER_SCENARIOS, build_world

    def world():
        return build_world(PAPER_SCENARIOS["EU1-FTTH"], scale=SCALE, seed=7,
                           duration_s=86400.0, policy_kind="preferred")

    [cold] = run_many([world()])
    assert cold.dataset.records.digest is None
    digest = cold.dataset.content_digest()
    [warm] = run_many([world()])
    assert warm is not cold and warm.dataset.records.digest == digest
    # The same artifacts back simulate_week.
    assert run_scenario("EU1-FTTH", scale=SCALE, seed=7,
                        duration_s=86400.0).dataset.records.digest == digest


def test_shm_rehydration_keeps_columns_and_digest(monkeypatch, materialised):
    from repro.shard.shm import SegmentScope
    from repro.sim.scenarios import PAPER_SCENARIOS

    monkeypatch.setenv("REPRO_SHM", "file")
    key = (PAPER_SCENARIOS["EU1-FTTH"], SCALE, 7, 86400.0, "preferred")
    reference = driver.simulate_week(*key)
    with SegmentScope() as scope:
        slim = driver._scenario_task_shm((key, scope.name_for("t")))
        # What a process worker sends home: the slim result and handle.
        result = driver._rehydrate_shm(roundtrip(slim))
        assert len(result.dataset) == len(reference.dataset)
        assert result.dataset.content_digest() == reference.dataset.content_digest()
        assert result.dataset.records == reference.dataset.records
    assert recomputed(result.dataset) == reference.dataset.content_digest()


def test_warm_full_study_builds_only_focus_records(monkeypatch, store, materialised):
    from repro import cli

    monkeypatch.setenv("REPRO_KERNELS", "numpy")
    cold = run_all(scale=SCALE, seed=7)
    digests = {name: result.dataset.content_digest() for name, result in cold.items()}
    driver.clear_cache()
    materialised.clear()
    out = io.StringIO()
    assert cli.main(["study", "--scale", str(SCALE), "--full", "--digests"], out=out) == 0
    assert all(f"digest {name} {digest}" in out.getvalue() for name, digest in digests.items())
    warm = run_all(scale=SCALE, seed=7)
    full_tables = [result.dataset.records for result in warm.values()]
    assert all(table._records is None for table in full_tables)
    full_ids = {id(table) for table in full_tables}
    assert not any(id(table) in full_ids for table in materialised)
    focus_rows = sum(len(table) for table in materialised)
    assert 0 < focus_rows < sum(map(len, full_tables))
