"""Unit tests for hierarchical topics (repro.core.topics)."""

from __future__ import annotations

import copy
import gc
import multiprocessing
import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.core.topics import (_INTERNED, VERDICT_MEMO_SIZE, Topic,
                               TopicError, covers, entitled, related,
                               subscription_matches_event,
                               subscriptions_related)
from repro.net.messages import Heartbeat
from repro.rt.codec import decode, encode


class TestParsing:
    def test_simple_topic(self):
        t = Topic(".grenoble.conferences.middleware")
        assert t.parts == ("grenoble", "conferences", "middleware")
        assert str(t) == ".grenoble.conferences.middleware"
        assert t.depth == 3

    def test_root(self):
        root = Topic(".")
        assert root.is_root
        assert root.parts == ()
        assert str(root) == "."
        assert Topic.root() == root

    def test_copy_constructor(self):
        t = Topic(".a.b")
        assert Topic(t) == t

    def test_from_parts_round_trip(self):
        t = Topic.from_parts(["a", "b", "c"])
        assert t == Topic(".a.b.c")

    @pytest.mark.parametrize("bad", [
        "a.b",            # not absolute
        ".a.",            # trailing dot
        ".a..b",          # empty segment
        ".a b",           # whitespace
        "",               # empty string
    ])
    def test_malformed_rejected(self, bad):
        with pytest.raises(TopicError):
            Topic(bad)

    def test_non_string_rejected(self):
        with pytest.raises(TopicError):
            Topic(42)   # type: ignore[arg-type]


class TestStructure:
    def test_parent_chain(self):
        t = Topic(".a.b.c")
        assert t.parent == Topic(".a.b")
        assert t.parent.parent == Topic(".a")
        assert t.parent.parent.parent == Topic(".")

    def test_root_is_own_parent(self):
        assert Topic.root().parent == Topic.root()

    def test_child(self):
        assert Topic(".a").child("b") == Topic(".a.b")
        assert Topic.root().child("x") == Topic(".x")

    def test_child_rejects_compound_segment(self):
        with pytest.raises(TopicError):
            Topic(".a").child("b.c")

    def test_ancestors_nearest_first(self):
        t = Topic(".a.b.c")
        assert list(t.ancestors()) == [Topic(".a.b"), Topic(".a"),
                                       Topic(".")]

    def test_equality_and_hash(self):
        assert Topic(".a.b") == Topic(".a.b")
        assert hash(Topic(".a.b")) == hash(Topic(".a.b"))
        assert Topic(".a.b") != Topic(".a.c")
        assert len({Topic(".x"), Topic(".x"), Topic(".y")}) == 2

    def test_ordering(self):
        assert sorted([Topic(".b"), Topic(".a.z"), Topic(".a")]) == \
            [Topic(".a"), Topic(".a.z"), Topic(".b")]

    def test_sorted_order_is_the_order_of_the_segment_tuples(self):
        paths = [".b", ".a.z", ".", ".a", ".a.b.c", ".ab", ".a.b", ".b.a"]
        topics = [Topic(p) for p in paths]
        assert sorted(topics) == sorted(topics, key=lambda t: t.parts)
        assert [str(t) for t in sorted(topics)] == \
            [".", ".a", ".a.b", ".a.b.c", ".a.z", ".ab", ".b", ".b.a"]

    def test_ordering_against_a_non_topic_is_a_type_error(self):
        with pytest.raises(TypeError):
            Topic(".a") < ".b"   # noqa: B015
        with pytest.raises(TypeError):
            ".b" > Topic(".a")   # noqa: B015
        with pytest.raises(TypeError):
            sorted([Topic(".a"), ".b"])


class TestInterning:
    """One live object per path: equality and hashing are identity."""

    def test_one_object_per_path(self):
        assert Topic(".a.b") is Topic(".a.b")
        assert Topic(".a.b") is not Topic(".a.c")

    def test_constructors_return_the_interned_object(self):
        t = Topic(".i.j")
        assert Topic(t) is t
        assert Topic.root() is Topic(".")
        assert Topic.from_parts(["i", "j"]) is t
        assert Topic(".i.j.k").parent is t
        assert t.child("k") is Topic(".i.j.k")
        assert next(Topic(".i.j.k").ancestors()) is t

    def test_pickle_and_copy_round_trip_to_the_same_object(self):
        t = Topic(".i.pickled")
        assert pickle.loads(pickle.dumps(t)) is t
        assert copy.copy(t) is t
        assert copy.deepcopy(t) is t
        # Equality is identity, so an equal set holds the same objects.
        subs = frozenset({t, Topic(".i.other")})
        assert pickle.loads(pickle.dumps(subs)) == subs

    def test_a_topic_from_a_spawn_worker_is_the_local_object(self):
        t = Topic(".i.spawned")
        ctx = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=1, mp_context=ctx) as pool:
            assert pool.submit(Topic, ".i.spawned").result() is t

    def test_not_equal_to_its_string(self):
        assert Topic(".a") != ".a"
        assert ".a" != Topic(".a")
        assert Topic(".a") == Topic(".a")

    @pytest.mark.parametrize("bad", [42, None, b".a", [".a"], 1.5])
    def test_non_string_input_is_a_topic_error(self, bad):
        with pytest.raises(TopicError):
            Topic(bad)   # type: ignore[arg-type]

    def test_malformed_input_is_not_interned(self):
        size = len(_INTERNED)
        with pytest.raises(TopicError):
            Topic(".not..valid")
        assert ".not..valid" not in _INTERNED
        assert len(_INTERNED) == size

    def test_network_decoded_topics_do_not_pile_up(self):
        """The table is weak: 10 000 distinct topics decoded off the wire
        leave it once their frames are dropped."""
        gc.collect()
        baseline = len(_INTERNED)
        datagrams = [
            encode(Heartbeat(sender=i, subscriptions=frozenset(
                f".wire.t{i}.s{j}" for j in range(100))))
            for i in range(100)]
        decoded = [decode(d) for d in datagrams]
        assert len(_INTERNED) >= baseline + 10_000
        first = next(iter(decoded[0].subscriptions))
        assert Topic(str(first)) is first
        del decoded, first
        gc.collect()
        assert len(_INTERNED) <= baseline + 10


class TestRelations:
    def test_covers_descendant(self):
        assert Topic(".a").covers(Topic(".a.b.c"))
        assert Topic(".a.b").covers(Topic(".a.b"))

    def test_covers_rejects_ancestor_and_sibling(self):
        assert not Topic(".a.b").covers(Topic(".a"))
        assert not Topic(".a.b").covers(Topic(".a.c"))

    def test_segment_boundaries_respected(self):
        """`.foo` must not cover `.foobar`."""
        assert not Topic(".foo").covers(Topic(".foobar"))
        assert not related(".foo", ".foobar")

    def test_root_covers_everything(self):
        assert Topic.root().covers(Topic(".anything.at.all"))
        assert not Topic(".a").covers(Topic.root())

    def test_is_ancestor_strict(self):
        assert Topic(".a").is_ancestor_of(Topic(".a.b"))
        assert not Topic(".a").is_ancestor_of(Topic(".a"))

    def test_related_symmetric(self):
        # The Fig. 1 case: T1 super-topic of T2 relates both ways.
        assert related(".t0.t1", ".t0.t1.t2")
        assert related(".t0.t1.t2", ".t0.t1")
        assert not related(".t0.t1", ".t0.t4")

    def test_module_level_covers_accepts_strings(self):
        assert covers(".a", ".a.b")
        assert not covers(".a.b", ".a")


class TestSubscriptionMatching:
    def test_event_matches_any_subscription(self):
        subs = [Topic(".sports"), Topic(".news.tech")]
        assert subscription_matches_event(subs, Topic(".sports.football"))
        assert subscription_matches_event(subs, Topic(".news.tech"))
        assert not subscription_matches_event(subs, Topic(".news.politics"))

    def test_empty_subscriptions_match_nothing(self):
        assert not subscription_matches_event([], Topic(".a"))

    def test_entitled_is_the_same_verdict_memoised_by_value(self):
        """Decoded heartbeats and re-published events carry *equal*
        sets and topics, not identical ones: the memo must hit on those."""
        subs = frozenset({Topic(".memo.sports"), Topic(".memo.news.tech")})
        for path in (".memo.sports.football", ".memo.news.tech",
                     ".memo.news.politics", ".memo"):
            assert entitled(subs, Topic(path)) is \
                subscription_matches_event(subs, Topic(path))
        assert not entitled(frozenset(), Topic(".memo.a"))
        hits = entitled.cache_info().hits
        assert entitled(frozenset(set(subs)), Topic(".memo.news.tech"))
        assert entitled.cache_info().hits == hits + 1
        assert entitled.cache_info().maxsize == VERDICT_MEMO_SIZE

    def test_subscriptions_related_cross_pairs(self):
        mine = [Topic(".t0.t1")]
        theirs = [Topic(".t0.t1.t2")]
        assert subscriptions_related(mine, theirs)
        assert subscriptions_related(theirs, mine)

    def test_subscriptions_unrelated_branches(self):
        assert not subscriptions_related([Topic(".a.b")], [Topic(".a.c")])

    def test_paper_fig1_scenario(self):
        """p1 subscribes T1, p2 subscribes T2 (subtopic), p3 subscribes T0:
        all three pairs must match for the Fig. 1 exchange to happen."""
        t0, t1, t2 = Topic(".t0"), Topic(".t0.t1"), Topic(".t0.t1.t2")
        assert subscriptions_related([t1], [t2])
        assert subscriptions_related([t1], [t0])
        assert subscriptions_related([t2], [t0])
        # And entitlement is asymmetric: p1 (T1) is entitled to T2 events,
        # p2 (T2) is NOT entitled to T1 events.
        assert subscription_matches_event([t1], t2)
        assert not subscription_matches_event([t2], t1)
