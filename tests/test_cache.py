"""Cache correctness tests (repro.harness.cache).

The cache key must be *complete*: any change to any ``ScenarioConfig``
field — exercised via ``with_changes`` over every field — has to produce
a different digest, otherwise a sweep could silently reuse results from
the wrong cell.  Conversely an identical rerun must hit, and a corrupted
entry must fall back to recomputation rather than crash or, worse,
deserialize garbage.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.baselines import GossipConfig
from repro.core.config import FrugalConfig
from repro.core.events import EventId
from repro.energy import EnergyConfig, PowerProfile
from repro.faults import (ChurnConfig, FaultConfig, FaultEvent, FaultPlan,
                          LinkLossConfig, RegionalOutage)
from repro.harness.cache import (ResultCache, canonical, code_version_tag,
                                 config_digest)
from repro.harness.scenario import (Publication, RandomWaypointSpec,
                                    ScenarioConfig, StationarySpec,
                                    run_scenario)
from repro.net import MediumConfig, RadioConfig, SizeModel
from repro.sim.shard import ShardConfig


def base_config(**changes) -> ScenarioConfig:
    cfg = ScenarioConfig(
        n_processes=6,
        mobility=RandomWaypointSpec(width=500.0, height=500.0,
                                    speed_min=10.0, speed_max=10.0),
        duration=30.0, warmup=2.0, seed=0,
        subscriber_fraction=0.8,
        publications=(Publication(at=2.0, validity=20.0),))
    return cfg.with_changes(**changes)


#: One alternative value per ScenarioConfig field — each must flip the key.
FIELD_CHANGES = {
    "n_processes": 7,
    "mobility": StationarySpec(width=500.0, height=500.0),
    "duration": 31.0,
    "warmup": 3.0,
    "seed": 1,
    "protocol": "simple-flooding",
    "frugal": FrugalConfig(hb_upper_bound=2.0),
    "flood_period": 2.0,
    "gossip_probability": 0.5,
    "counter_threshold": 4,
    "gossip": GossipConfig(forward_probability=0.5),
    "radio": RadioConfig.paper_city_section(),
    "medium": MediumConfig(frame_loss_probability=0.1),
    "sizes": SizeModel(heartbeat_bytes=60),
    "subscriber_fraction": 0.5,
    "event_topic": ".paper.events.other-demo",
    "other_topic": ".paper.unrelated",
    "publications": (Publication(at=3.0, validity=20.0),),
    "speed_sensor": False,
    "energy": EnergyConfig(profile=PowerProfile.power_save(),
                           battery_capacity_j=25.0),
    "faults": FaultConfig(churn=ChurnConfig(mean_session_s=60.0,
                                            mean_rest_s=20.0)),
    "shards": ShardConfig(shards=2),
}

#: A fully-populated fault config plus one alternative value per
#: FaultConfig field — each must flip the cache key, otherwise a sweep
#: over churn rates / outage radii could silently reuse the wrong cell.
FAULT_BASE = FaultConfig(
    plan=FaultPlan((FaultEvent(at=5.0, kind="crash", fraction=0.5,
                               duration=5.0),)),
    churn=ChurnConfig(mean_session_s=60.0, mean_rest_s=20.0),
    outages=(RegionalOutage(at=2.0, duration=10.0, center=(100.0, 100.0),
                            radius_m=50.0),),
    loss=LinkLossConfig(link_loss_min=0.1, link_loss_max=0.2))

FAULT_FIELD_CHANGES = {
    "plan": FaultPlan((FaultEvent(at=6.0, kind="crash", fraction=0.5,
                                  duration=5.0),)),
    "churn": ChurnConfig(mean_session_s=61.0, mean_rest_s=20.0),
    "outages": (RegionalOutage(at=2.0, duration=10.0,
                               center=(100.0, 100.0), radius_m=51.0),),
    "loss": LinkLossConfig(link_loss_min=0.1, link_loss_max=0.25),
}


class TestDigest:
    def test_identical_configs_share_a_digest(self):
        assert config_digest(base_config()) == config_digest(base_config())

    def test_change_table_covers_every_field(self):
        """A new ScenarioConfig field must come with a cache-key test —
        an unkeyed field would make the cache silently wrong."""
        field_names = {f.name for f in dataclasses.fields(ScenarioConfig)}
        assert field_names == set(FIELD_CHANGES), \
            "update FIELD_CHANGES when ScenarioConfig gains/loses fields"

    @pytest.mark.parametrize("field", sorted(FIELD_CHANGES))
    def test_any_field_change_misses(self, field, tmp_path):
        original = base_config()
        changed = original.with_changes(**{field: FIELD_CHANGES[field]})
        assert changed != original, f"change table no-ops on {field!r}"
        assert config_digest(changed) != config_digest(original)

    def test_version_tag_rotates_the_key(self):
        cfg = base_config()
        assert config_digest(cfg, version="a") != \
            config_digest(cfg, version="b")

    def test_code_version_tag_is_stable_in_process(self):
        assert code_version_tag() == code_version_tag()
        assert len(code_version_tag()) == 16

    def test_canonical_distinguishes_spec_classes(self):
        """Two dataclasses with identical field values but different
        types (e.g. different mobility models) must not collide."""
        a = canonical(RandomWaypointSpec(width=1.0, height=1.0,
                                         speed_min=0.0, speed_max=0.0))
        b = canonical(StationarySpec(width=1.0, height=1.0))
        assert a != b

    def test_canonical_rejects_unhashable_surprises(self):
        with pytest.raises(TypeError):
            canonical(object())

    def test_canonical_event_id_keeps_its_dataclass_form(self):
        """A NamedTuple reduces to the dataclass form, with its type
        name: the pinned digests that carry event ids were computed with
        that form, and a bare list would move them."""
        assert canonical(EventId(1, 2)) == \
            {"__type__": "EventId", "fields": {"publisher": 1, "seq": 2}}
        assert canonical([EventId(3, 4)]) == \
            [{"__type__": "EventId", "fields": {"publisher": 3, "seq": 4}}]
        assert canonical((1, 2)) == [1, 2]

    def test_fault_change_table_covers_every_field(self):
        """A new FaultConfig field must come with a cache-key test."""
        field_names = {f.name for f in dataclasses.fields(FaultConfig)}
        assert field_names == set(FAULT_FIELD_CHANGES), \
            "update FAULT_FIELD_CHANGES when FaultConfig gains/loses " \
            "fields"

    @pytest.mark.parametrize("field", sorted(FAULT_FIELD_CHANGES))
    def test_any_fault_field_change_misses(self, field):
        original = base_config(faults=FAULT_BASE)
        changed_faults = dataclasses.replace(
            FAULT_BASE, **{field: FAULT_FIELD_CHANGES[field]})
        changed = base_config(faults=changed_faults)
        assert changed != original, f"change table no-ops on {field!r}"
        assert config_digest(changed) != config_digest(original)

    def test_fault_subfield_changes_flip_the_key(self):
        """Deep fields — a single churn rest length, one plan event's
        instant, an outage radius — must all reach the digest."""
        original = config_digest(base_config(faults=FAULT_BASE))
        deep_variants = [
            dataclasses.replace(FAULT_BASE, churn=ChurnConfig(
                mean_session_s=60.0, mean_rest_s=21.0)),
            dataclasses.replace(FAULT_BASE, plan=FaultPlan((
                FaultEvent(at=5.0, kind="silence", fraction=0.5,
                           duration=5.0),))),
            dataclasses.replace(FAULT_BASE, loss=LinkLossConfig(
                link_loss_min=0.1, link_loss_max=0.2,
                burst_rate_per_s=0.1, burst_mean_duration_s=1.0)),
        ]
        for faults in deep_variants:
            assert config_digest(base_config(faults=faults)) != original

    def test_empty_faults_differs_from_none(self):
        """faults=None and the no-op FaultConfig() produce identical
        metrics but different summaries (extra columns), so they must
        not share a cache entry."""
        assert config_digest(base_config()) != \
            config_digest(base_config(faults=FaultConfig()))

    def test_shard_config_fields_all_reach_the_digest(self):
        """Every ShardConfig knob — shard count, tile shape, latency —
        must flip the cache key: tiling is proven result-invariant, but
        ``barrier_stats`` and engine dispatch still differ, and
        ``latency_s`` changes the semantics outright."""
        variants = [
            ShardConfig(shards=2),
            ShardConfig(shards=4),
            ShardConfig(shards=4, rows=2),
            ShardConfig(shards=4, latency_s=2.0),
        ]
        digests = {config_digest(base_config(shards=v)) for v in variants}
        assert len(digests) == len(variants), \
            "ShardConfig fields must never share a cache entry"

    def test_batch_memo_keys_by_identity_never_equality(self):
        """``1``, ``1.0`` and ``True`` compare equal, as do ``0.0`` and
        ``-0.0``, yet canonicalise to different JSON: a memo shared by
        a batch must still give each its own key, and must not change
        any key at all."""
        configs = [base_config(frugal=FrugalConfig(hb_delay=v))
                   for v in (1, 1.0, True)]
        configs += [base_config(frugal=FrugalConfig(hb_jitter=v))
                    for v in (0.0, -0.0)]
        assert configs[0] == configs[1] == configs[2]
        assert configs[3] == configs[4]
        plain = [config_digest(c) for c in configs]
        memo = {}
        assert [config_digest(c, memo=memo) for c in configs] == plain
        assert len(set(plain)) == len(plain)

    def test_batch_memo_reduces_a_shared_sub_config_once(self):
        frugal = FrugalConfig(hb_upper_bound=2.0)
        configs = [base_config(frugal=frugal, seed=s) for s in range(3)]
        memo = {}
        digests = [config_digest(c, memo=memo) for c in configs]
        assert digests == [config_digest(c) for c in configs]
        assert memo[id(frugal)][0] is frugal


class TestCacheRoundTrip:
    def test_miss_then_hit_after_identical_rerun(self, tmp_path):
        cache = ResultCache(tmp_path)
        cfg = base_config()
        assert cache.get(cfg) is None
        result = run_scenario(cfg)
        cache.put(result)
        hit = cache.get(cfg)
        assert hit is not None
        assert hit.summary() == result.summary()
        assert cache.hits == 1 and cache.misses == 1

    def test_entry_is_keyed_to_exact_config(self, tmp_path):
        cache = ResultCache(tmp_path)
        cfg = base_config()
        cache.put(run_scenario(cfg))
        for field, value in FIELD_CHANGES.items():
            assert cache.get(cfg.with_changes(**{field: value})) is None, \
                f"stale hit after changing {field!r}"

    def test_corrupted_entry_recovers_by_recompute(self, tmp_path):
        cache = ResultCache(tmp_path)
        cfg = base_config()
        cache.put(run_scenario(cfg))
        path = cache.path_for(cfg)
        path.write_bytes(b"\x80\x04 this is not a pickle")
        assert cache.get(cfg) is None          # corrupt -> miss
        assert not path.exists()               # and the entry is purged
        cache.put(run_scenario(cfg))           # recompute repopulates
        assert cache.get(cfg) is not None

    def test_truncated_entry_recovers(self, tmp_path):
        cache = ResultCache(tmp_path)
        cfg = base_config()
        cache.put(run_scenario(cfg))
        path = cache.path_for(cfg)
        path.write_bytes(path.read_bytes()[:40])   # simulate a killed write
        assert cache.get(cfg) is None
        assert not path.exists()

    def test_wrong_object_in_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cfg = base_config()
        cache.path_for(cfg).parent.mkdir(parents=True, exist_ok=True)
        cache.path_for(cfg).write_bytes(
            pickle.dumps({"not": "a ScenarioResult"}))
        assert cache.get(cfg) is None
        assert not cache.path_for(cfg).exists()

    def test_clear_and_len(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert len(cache) == 0
        cache.put(run_scenario(base_config()))
        cache.put(run_scenario(base_config(seed=1)))
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_clear_sweeps_stranded_tmp_files(self, tmp_path):
        """A run killed inside put() leaves a mkstemp *.tmp behind;
        clear() must collect it or a shared cache grows forever."""
        cache = ResultCache(tmp_path)
        cache.put(run_scenario(base_config()))
        (tmp_path / "abandoned123.tmp").write_bytes(b"half a pickle")
        cache.clear()
        assert list(tmp_path.iterdir()) == []

    def test_default_dir_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-cache"))
        cache = ResultCache()
        cache.put(run_scenario(base_config()))
        assert (tmp_path / "env-cache").is_dir()
