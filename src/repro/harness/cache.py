"""On-disk result cache for scenario runs.

A full figure sweep is hundreds of ``(ScenarioConfig, seed)`` cells, each
costing seconds of simulation; re-running a figure after tweaking the
sweep grid (or after a crash) should only compute the *missing* cells.
The :class:`ResultCache` stores one pickled
:class:`~repro.harness.scenario.ScenarioResult` per cell, keyed by a
stable content hash of

* the fully-specified :class:`~repro.harness.scenario.ScenarioConfig`
  (the seed is a config field, so it is part of the key), and
* a *code version tag* — by default a hash over every ``.py`` file of the
  :mod:`repro` package, so any code change invalidates the whole cache.
  Simulation results depend on arbitrarily deep implementation details
  (RNG call order, float evaluation order), so nothing short of "the code
  is byte-identical" is a safe reuse criterion.

Corrupted or unreadable entries are treated as misses: the entry is
deleted and the cell recomputed, so a truncated write (e.g. a run killed
mid-``put``) can never poison a sweep.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
import os
import pathlib
import pickle
from typing import Dict, Optional, Tuple

from repro.harness.scenario import ScenarioConfig, ScenarioResult

#: ``canonical``'s per-batch memo: ``id(obj) -> (obj, canonical form)``.
#: Holding ``obj`` keeps its id from being reused while the memo lives.
CanonicalMemo = Dict[int, Tuple[object, object]]

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Default cache location (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro-cache"


def default_cache_dir() -> pathlib.Path:
    """The cache root: ``$REPRO_CACHE_DIR`` or ``./.repro-cache``."""
    return pathlib.Path(os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR))


# --------------------------------------------------------------------------
# Stable config hashing
# --------------------------------------------------------------------------

def canonical(obj, memo: Optional[CanonicalMemo] = None) -> object:
    """Reduce ``obj`` to a JSON-serialisable structure that is stable
    across processes and Python invocations.

    Dataclasses carry their type name (two configs differing only in the
    mobility-spec *class* must hash differently); dict keys are sorted;
    tuples and lists are interchangeable.  Floats rely on ``repr`` via
    ``json.dumps``, which is exact for round-trippable IEEE doubles.

    ``memo`` caches the form of each *frozen* dataclass by identity, so
    a sub-config shared by every config of a batch (the
    ``with_changes`` copies of one base scenario) is reduced once.  It
    must never be keyed by equality: ``1``, ``1.0`` and ``True`` compare
    equal, as do ``0.0`` and ``-0.0``, yet each reduces to different
    JSON — an equality-keyed memo would give two configs one key.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        frozen = memo is not None and \
            type(obj).__dataclass_params__.frozen
        if frozen:
            hit = memo.get(id(obj))
            if hit is not None:
                return hit[1]
        form = {
            "__type__": type(obj).__qualname__,
            "fields": {f.name: canonical(getattr(obj, f.name), memo)
                       for f in dataclasses.fields(obj)},
        }
        if frozen:
            memo[id(obj)] = (obj, form)
        return form
    if isinstance(obj, enum.Enum):
        return {"__enum__": type(obj).__qualname__, "name": obj.name}
    if isinstance(obj, (list, tuple)):
        return [canonical(x, memo) for x in obj]
    if isinstance(obj, dict):
        return {str(k): canonical(v, memo) for k, v in sorted(obj.items())}
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(f"cannot canonicalise {type(obj).__qualname__!r} "
                    f"for cache hashing: {obj!r}")


@functools.lru_cache(maxsize=1)
def code_version_tag() -> str:
    """Hash of every ``.py`` file in the :mod:`repro` package.

    Computed once per process.  Any source change — even a comment —
    rotates the tag and therefore invalidates every cache entry; see the
    module docstring for why that conservatism is the only safe choice.
    """
    import repro
    root = pathlib.Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def config_digest(config: ScenarioConfig, version: Optional[str] = None,
                  memo: Optional[CanonicalMemo] = None) -> str:
    """The cache key for one fully-specified config (seed included);
    ``memo`` is :func:`canonical`'s, shared across one batch."""
    payload = {
        "version": code_version_tag() if version is None else version,
        "config": canonical(config, memo),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# --------------------------------------------------------------------------
# The cache proper
# --------------------------------------------------------------------------

class ResultCache:
    """One pickled :class:`ScenarioResult` per ``(config, code)`` key.

    Entries are written atomically (temp file + rename), so concurrent
    writers — e.g. several CLI invocations sharing a cache directory —
    can only ever race to produce identical files.
    """

    def __init__(self, root: Optional[os.PathLike] = None,
                 version: Optional[str] = None):
        self.root = pathlib.Path(root) if root is not None \
            else default_cache_dir()
        self.version = version if version is not None else code_version_tag()
        self.hits = 0
        self.misses = 0

    def path_for(self, config: ScenarioConfig,
                 memo: Optional[CanonicalMemo] = None) -> pathlib.Path:
        """On-disk entry path for ``config`` under the current code
        version (``memo`` as for :func:`config_digest`)."""
        return self.root / f"{config_digest(config, self.version, memo)}.pkl"

    def get(self, config: ScenarioConfig,
            memo: Optional[CanonicalMemo] = None
            ) -> Optional[ScenarioResult]:
        """The cached result for ``config``, or None (miss).

        A corrupt, truncated or stale-schema entry is deleted and
        reported as a miss — the caller recomputes and overwrites.
        """
        path = self.path_for(config, memo)
        try:
            with open(path, "rb") as f:
                result = pickle.load(f)
            if not isinstance(result, ScenarioResult) \
                    or result.config != config:
                raise ValueError("cache entry does not match its key")
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:
            # Unpicklable garbage, wrong type, key mismatch: recompute.
            path.unlink(missing_ok=True)
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, result: ScenarioResult,
            memo: Optional[CanonicalMemo] = None) -> None:
        """Store ``result`` under its config's key (atomic overwrite)."""
        import tempfile
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(result.config, memo)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as f:
                pickle.dump(result, f, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            pathlib.Path(tmp).unlink(missing_ok=True)
            raise

    def clear(self) -> int:
        """Delete every entry; returns the number of entries removed.

        Also sweeps ``*.tmp`` leftovers — a run killed inside
        :meth:`put` strands its mkstemp file, and nothing else ever
        collects those.
        """
        if not self.root.is_dir():
            return 0
        removed = 0
        for path in self.root.glob("*.pkl"):
            path.unlink(missing_ok=True)
            removed += 1
        for path in self.root.glob("*.tmp"):
            path.unlink(missing_ok=True)
        return removed

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.pkl"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ResultCache {self.root} entries={len(self)} "
                f"hits={self.hits} misses={self.misses}>")
