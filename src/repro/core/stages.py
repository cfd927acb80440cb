"""Declarative stage graph and per-stage artifact store for the flow.

The flow (:mod:`repro.core.flow`) used to be a 370-line monolith; it is
now a walk over a :class:`StageGraph` of :class:`Stage` objects.  Each
stage declares

* the :class:`~repro.core.config.FlowConfig` **fields it reads**
  (``config_fields``) — e.g. ``placement`` reads ``seed`` but not
  ``front_layers``/``back_layers``;
* its **upstream stages** (``upstream``) — the artifacts it consumes;
* an ``execute`` function that runs the real stage body and returns a
  picklable artifact, and a ``restore`` function that rebuilds the
  walk's state from a stored artifact (re-running guard checks and
  re-emitting result gauges).

Every stage gets a content-addressed **stage key**
(:func:`stage_key`): a SHA-256 over the stage name, its config-field
slice, its upstream stages' keys, the netlist fingerprint (for stages
that consume the netlist) and the code fingerprint.  Chaining upstream
keys makes the slice transitive — ``routing``'s key changes whenever
any field read by any stage before it changes — so two configs share a
stage's artifact exactly when every input that can reach that stage is
identical.  That is what lets a Table III layer-split enumeration
place once and route N times: ``front_layers``/``back_layers`` first
appear in ``routing``'s slice, so every split shares the
``library`` … ``legalization`` prefix.

The :class:`StageStore` persists artifacts in the
:class:`~repro.core.cache.FlowCache` pickle-blob sidecar (one
``stage-<name>`` kind per stage) and counts ``stage_cache.hits`` /
``stage_cache.misses`` (plus per-stage ``stage_cache.hit.<stage>`` /
``stage_cache.miss.<stage>``) on the active tracer; see
docs/architecture.md.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Callable

from . import faults as faults_mod
from . import locking, telemetry
from .cache import FlowCache, code_fingerprint
from .config import FlowConfig

#: Bumped on stage-key recipe or artifact layout changes; invalidates
#: every stored stage artifact without touching the result cache.
#: 2: the key covered a kernel-mode switch, since removed.
#: 3: the key no longer has a kernel field (one implementation per kernel).
STAGE_KEY_FORMAT = 3

#: The cross-process coordination events a store can record, in the
#: order ``stage_cache.singleflight.<event>`` counters are documented
#: (docs/observability.md).  Shared with the job server's ``/stats``.
SINGLEFLIGHT_EVENTS = ("wait", "steal", "compute", "timeout")


@dataclass(frozen=True)
class Stage:
    """One flow stage: its dependency declaration and its two bodies.

    ``execute(state)`` runs the real stage against the mutable walk
    state and returns the artifact dict to store (or ``None`` for
    nothing worth storing).  ``restore(state, artifact)`` rebuilds the
    state from a stored artifact — it must re-run the stage's guard
    checks and re-emit its result gauges, and must leave the state
    exactly as ``execute`` would for the same inputs.
    """

    name: str
    #: FlowConfig fields this stage itself reads.  Fields read by
    #: upstream stages are inherited transitively through key chaining
    #: and must not be repeated here.
    config_fields: frozenset[str]
    #: Names of the stages whose artifacts this stage consumes.
    upstream: tuple[str, ...]
    execute: Callable = field(compare=False)
    restore: Callable = field(compare=False)
    #: Whether the stage consumes the input netlist directly (only the
    #: ``netlist`` stage; everything downstream inherits the
    #: fingerprint through its upstream keys).
    uses_netlist: bool = False


class StageGraph:
    """A validated, topologically ordered tuple of stages."""

    def __init__(self, stages: tuple[Stage, ...]) -> None:
        self.stages = tuple(stages)
        self._by_name = {s.name: s for s in self.stages}
        if len(self._by_name) != len(self.stages):
            raise ValueError("duplicate stage names in graph")
        config_names = {f.name for f in dataclasses.fields(FlowConfig)}
        seen: set[str] = set()
        for stage in self.stages:
            unknown = stage.config_fields - config_names
            if unknown:
                raise ValueError(
                    f"stage {stage.name!r} declares unknown config "
                    f"fields {sorted(unknown)}")
            for up in stage.upstream:
                if up not in seen:
                    raise ValueError(
                        f"stage {stage.name!r} depends on {up!r} which is "
                        "not an earlier stage")
            seen.add(stage.name)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.stages)

    def __iter__(self):
        return iter(self.stages)

    def __getitem__(self, name: str) -> Stage:
        return self._by_name[name]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def upstream_closure(self, name: str) -> tuple[str, ...]:
        """Every stage reachable upstream of ``name``, in graph order."""
        wanted: set[str] = set()
        frontier = list(self[name].upstream)
        while frontier:
            up = frontier.pop()
            if up not in wanted:
                wanted.add(up)
                frontier.extend(self[up].upstream)
        return tuple(n for n in self.names if n in wanted)

    def transitive_fields(self, name: str) -> frozenset[str]:
        """Every config field that can reach ``name``'s stage key."""
        fields = set(self[name].config_fields)
        for up in self.upstream_closure(name):
            fields |= self[up].config_fields
        return frozenset(fields)


def stage_key(stage: Stage, config: FlowConfig,
              upstream_keys: list[str] | tuple[str, ...],
              netlist_fp: str | None = None,
              version: str | None = None) -> str:
    """Content hash of everything that can influence a stage's artifact.

    ``upstream_keys`` must be the keys of ``stage.upstream`` in
    declaration order; chaining them makes upstream config slices and
    the netlist fingerprint transitive.  ``version`` defaults to the
    :func:`~repro.core.cache.code_fingerprint`, so any source edit
    invalidates every stored stage artifact.
    """
    if len(upstream_keys) != len(stage.upstream):
        raise ValueError(
            f"stage {stage.name!r} expects {len(stage.upstream)} upstream "
            f"keys, got {len(upstream_keys)}")
    payload = {
        "format": STAGE_KEY_FORMAT,
        "stage": stage.name,
        "config": {name: getattr(config, name)
                   for name in sorted(stage.config_fields)},
        "upstream": list(upstream_keys),
        "netlist": netlist_fp if stage.uses_netlist else None,
        "version": version if version is not None else code_fingerprint(),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class StageLease:
    """The right to compute one stage artifact, won under single-flight.

    Returned by :meth:`StageStore.fetch_or_lease` when this process is
    the designated computer for a (stage, key).  The holder publishes
    via the ordinary :meth:`StageStore.put` and then **must** call
    :meth:`release` (in a ``finally``) so waiters stop polling —
    publish-before-release is what lets a waiter treat "lock gone" as
    "artifact available or holder failed"."""

    def __init__(self, store: "StageStore", name: str, key: str,
                 lock: locking.FileLock) -> None:
        self.store = store
        self.name = name
        self.key = key
        self._lock = lock

    def release(self) -> None:
        self._lock.release()


class StageStore:
    """Per-stage artifact store on a :class:`FlowCache`'s blob sidecar.

    One entry per (stage, stage key): a pickled artifact dict wrapped
    with the stage name so a key collision across kinds can never be
    silently mis-read.  Hits and misses are counted on the store (for
    :class:`~repro.core.runner.SweepStats`) and on the active tracer
    (``stage_cache.*`` counters, documented in docs/observability.md).

    Safe to share between processes: the store itself is stateless
    beyond counters, the underlying blob writes are atomic, and
    :meth:`fetch_or_lease` adds cross-process **single-flight** on top
    — when several processes miss the same stage key at once, exactly
    one computes while the rest wait (bounded by
    ``$REPRO_LOCK_TIMEOUT``) and then load the published artifact.
    The uncontended path emits no singleflight counters, so serial
    runs trace identically to before; contention shows up as
    ``stage_cache.singleflight.{wait,steal,compute,timeout}``.
    """

    def __init__(self, cache: FlowCache, locked: bool = True) -> None:
        self.cache = cache
        #: Whether :meth:`fetch_or_lease` coordinates via file locks;
        #: ``False`` degrades every call to plain get-or-compute.
        self.locked = locked
        self.hits = 0
        self.misses = 0
        #: Per-stage hit/miss counts, e.g. ``{"placement": [3, 1]}``.
        self.by_stage: dict[str, list[int]] = {}
        #: Cross-process coordination events (see docs/robustness.md).
        self.singleflight = {event: 0 for event in SINGLEFLIGHT_EVENTS}

    @property
    def version(self) -> str | None:
        return self.cache.version

    def _tally(self, name: str, hit: bool) -> None:
        tracer = telemetry.current_tracer()
        slot = self.by_stage.setdefault(name, [0, 0])
        if hit:
            self.hits += 1
            slot[0] += 1
            tracer.count("stage_cache.hits")
            tracer.count(f"stage_cache.hit.{name}")
        else:
            self.misses += 1
            slot[1] += 1
            tracer.count("stage_cache.misses")
            tracer.count(f"stage_cache.miss.{name}")

    def _peek(self, name: str, key: str) -> dict | None:
        """A tally-free :meth:`get` for double-checks under the lock."""
        obj = self.cache.get_blob(key, f"stage-{name}")
        if not (isinstance(obj, dict) and obj.get("stage") == name
                and isinstance(obj.get("artifact"), dict)):
            return None
        return obj["artifact"]

    def get(self, name: str, key: str) -> dict | None:
        """The stored artifact for (stage, key), or ``None`` on a miss."""
        artifact = self._peek(name, key)
        self._tally(name, hit=artifact is not None)
        return artifact

    def put(self, name: str, key: str, artifact: dict) -> bool:
        """Store one stage artifact; ``False`` if it cannot be pickled."""
        return self.cache.put_blob(key, f"stage-{name}",
                                   {"stage": name, "artifact": artifact})

    # -- cross-process single-flight -----------------------------------------
    def _lease_won(self, name: str, key: str,
                   lock: locking.FileLock) -> tuple[dict | None,
                                                    "StageLease | None"]:
        """Post-acquisition bookkeeping shared by every win path.

        Double-checks for a publisher that beat us to the store, then
        fires any ``lock.acquire`` fault clause (lock-holder death:
        the process exits hard while holding the lease, which is
        exactly the orphan the stale-lock steal recovers from).
        """
        artifact = self._peek(name, key)
        if artifact is not None:
            lock.release()
            self._tally(name, hit=True)
            return artifact, None
        clause = faults_mod.cache_clause("lock.acquire", key)
        if clause is not None:
            faults_mod.fire(clause, "lock.acquire")
        self._tally(name, hit=False)
        return None, StageLease(self, name, key, lock)

    def _count_flight(self, event: str) -> None:
        self.singleflight[event] += 1
        telemetry.current_tracer().count(
            f"stage_cache.singleflight.{event}")

    def fetch_or_lease(self, name: str,
                       key: str) -> tuple[dict | None, "StageLease | None"]:
        """Load the artifact, or win the right to compute it.

        Returns ``(artifact, None)`` on a store hit, ``(None, lease)``
        when this process should compute-and-publish (then release the
        lease in a ``finally``), and ``(None, None)`` when the store is
        unlocked or a wait timed out — compute independently, exactly
        as an unlocked store would.

        The contended path polls the holder's lock: stale locks (dead
        holder) are stolen, a released lock means the artifact is
        published (load it) or the holder failed (take over), and the
        wait is bounded by ``$REPRO_LOCK_TIMEOUT``.
        """
        artifact = self._peek(name, key)
        if artifact is not None:
            self._tally(name, hit=True)
            return artifact, None
        if not self.locked:
            self._tally(name, hit=False)
            return None, None
        lock = self.cache.locks.lock(key)
        if lock.try_acquire():
            return self._lease_won(name, key, lock)
        # Another process is computing this exact stage key right now.
        self._count_flight("wait")
        deadline = time.monotonic() + locking.lock_timeout()
        while True:
            if lock.is_stale():
                if lock.steal():
                    self._count_flight("steal")
                    self._count_flight("compute")
                    return self._lease_won(name, key, lock)
            elif not lock.exists():
                artifact = self._peek(name, key)
                if artifact is not None:
                    self._tally(name, hit=True)
                    return artifact, None
                # Released without publishing (holder failed): take over.
                if lock.try_acquire():
                    self._count_flight("compute")
                    return self._lease_won(name, key, lock)
                if not lock.exists():
                    # Lock creation itself fails (unwritable store):
                    # degrade to uncoordinated computation.
                    self._tally(name, hit=False)
                    return None, None
            if time.monotonic() >= deadline:
                self._count_flight("timeout")
                self._tally(name, hit=False)
                return None, None
            time.sleep(locking.POLL_INTERVAL_S)

    def counters(self) -> dict[str, float]:
        """This store's activity as ``stage_cache.*`` counter values."""
        out: dict[str, float] = {}
        if self.hits:
            out["stage_cache.hits"] = float(self.hits)
        if self.misses:
            out["stage_cache.misses"] = float(self.misses)
        for name, (hits, misses) in self.by_stage.items():
            if hits:
                out[f"stage_cache.hit.{name}"] = float(hits)
            if misses:
                out[f"stage_cache.miss.{name}"] = float(misses)
        for event, count in self.singleflight.items():
            if count:
                out[f"stage_cache.singleflight.{event}"] = float(count)
        return out
