"""Hierarchical topics and subscription matching (paper Section 2).

Topics form a tree rooted at ``.`` and are written as dot-separated paths,
e.g. ``.grenoble.conferences.middleware``.  A subscriber of a topic
receives events published on that topic *and all its subtopics*; an event
of a topic a process has not subscribed to is a *parasite* event for it.

Two relations drive the protocol:

* :func:`covers` — ``covers(sub, topic)`` is true when a subscription to
  ``sub`` entitles the subscriber to events of ``topic`` (``sub`` is an
  ancestor-or-equal of ``topic``).
* :func:`related` — true when two topics lie on one root-to-leaf path in
  either direction.  Heartbeat "subscription matching" uses this symmetric
  relation: in the paper's Fig. 1, p1 (subscribed to T1) and p2 (subscribed
  to subtopic T2) do exchange event identifiers, which only the symmetric
  reading permits (see DESIGN.md, fidelity notes).
"""

from __future__ import annotations

from functools import lru_cache
from typing import FrozenSet, Iterable, Tuple

#: Distinct topic-set pairs / (topic set, topic) pairs whose verdict is
#: kept; a world has a handful, so this only caps a pathological one.
VERDICT_MEMO_SIZE = 4096


class TopicError(ValueError):
    """Raised for malformed topic strings."""


class Topic:
    """An immutable, interned node of the topic hierarchy.

    ``Topic(".a.b")`` and ``Topic(".a.b")`` compare equal and hash equally;
    the root topic is ``Topic.root()`` (written ``.``).
    """

    __slots__ = ("_parts", "_string", "__weakref__")

    def __init__(self, path: str | "Topic"):
        if isinstance(path, Topic):
            self._parts = path._parts
            self._string = path._string
            return
        self._parts = _parse(path)
        self._string = "." + ".".join(self._parts) if self._parts else "."

    # -- constructors -----------------------------------------------------------

    @staticmethod
    def root() -> "Topic":
        return Topic(".")

    @staticmethod
    def from_parts(parts: Iterable[str]) -> "Topic":
        return Topic("." + ".".join(parts))

    # -- structure ---------------------------------------------------------------

    @property
    def parts(self) -> Tuple[str, ...]:
        return self._parts

    @property
    def depth(self) -> int:
        """Number of segments below the root (root has depth 0)."""
        return len(self._parts)

    @property
    def is_root(self) -> bool:
        return not self._parts

    @property
    def parent(self) -> "Topic":
        """Immediate super-topic; the root is its own parent."""
        if self.is_root:
            return self
        return Topic.from_parts(self._parts[:-1])

    def child(self, segment: str) -> "Topic":
        """The direct subtopic named ``segment``."""
        checked = _parse("." + segment)
        if len(checked) != 1:
            raise TopicError(f"child segment must be a single name: "
                             f"{segment!r}")
        return Topic.from_parts(self._parts + checked)

    def ancestors(self) -> Iterable["Topic"]:
        """All strict super-topics, nearest first, ending at the root."""
        t = self
        while not t.is_root:
            t = t.parent
            yield t

    # -- relations ----------------------------------------------------------------

    def is_ancestor_of(self, other: "Topic") -> bool:
        """Strict ancestor test (a topic is not its own ancestor)."""
        return (len(self._parts) < len(other._parts)
                and other._parts[:len(self._parts)] == self._parts)

    def covers(self, other: "Topic") -> bool:
        """Ancestor-or-equal: a subscription to self matches ``other``."""
        return (len(self._parts) <= len(other._parts)
                and other._parts[:len(self._parts)] == self._parts)

    def related_to(self, other: "Topic") -> bool:
        """True when either topic covers the other."""
        return self.covers(other) or other.covers(self)

    # -- dunder -------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Topic) and self._parts == other._parts

    def __hash__(self) -> int:
        return hash(self._parts)

    def __lt__(self, other: "Topic") -> bool:
        return self._parts < other._parts

    def __str__(self) -> str:
        return self._string

    def __repr__(self) -> str:
        return f"Topic({self._string!r})"


@lru_cache(maxsize=4096)
def _parse(path: str) -> Tuple[str, ...]:
    if not isinstance(path, str):
        raise TopicError(f"topic must be a string: {path!r}")
    if not path.startswith("."):
        raise TopicError(f"topics are absolute and start with '.': {path!r}")
    if path == ".":
        return ()
    body = path[1:]
    if body.endswith("."):
        raise TopicError(f"topic must not end with '.': {path!r}")
    parts = tuple(body.split("."))
    for part in parts:
        if not part:
            raise TopicError(f"empty topic segment in {path!r}")
        if any(ch.isspace() for ch in part):
            raise TopicError(f"whitespace in topic segment {part!r}")
    return parts


def covers(subscription: Topic | str, topic: Topic | str) -> bool:
    """Module-level convenience for :meth:`Topic.covers`."""
    return Topic(subscription).covers(Topic(topic))


def related(a: Topic | str, b: Topic | str) -> bool:
    """Module-level convenience for :meth:`Topic.related_to`."""
    return Topic(a).related_to(Topic(b))


def subscription_matches_event(subscriptions: Iterable[Topic],
                               event_topic: Topic) -> bool:
    """Does any subscription entitle the holder to ``event_topic``?"""
    return any(sub.covers(event_topic) for sub in subscriptions)


@lru_cache(maxsize=VERDICT_MEMO_SIZE)
def entitled(subscriptions: FrozenSet[Topic], event_topic: Topic) -> bool:
    """:func:`subscription_matches_event`, memoised per (frozen
    subscription set, topic) pair.

    A pure function of two immutable values, so there is nothing to
    invalidate; the per-frame callers ask it of the same handful of
    pairs for a whole run.
    """
    return subscription_matches_event(subscriptions, event_topic)


def subscriptions_related(mine: Iterable[Topic],
                          theirs: Iterable[Topic]) -> bool:
    """The heartbeat matching rule: any cross-pair related in either way."""
    theirs = tuple(theirs)
    return any(a.related_to(b) for a in mine for b in theirs)
