"""The server's crash-safe job journal.

A :class:`~repro.core.journal.JsonlJournal` bound to one code version:
every accepted job, every settled run and every terminal state change
is an fsync'd line, so ``repro serve --resume`` after a SIGKILL
reconstructs the queue bit-for-bit — terminal jobs come back as
history, settled runs of interrupted jobs are *not* recomputed, and
only the genuinely unfinished items re-enter the scheduler.

The journal identity is the code fingerprint: flow results are
content-addressed by it, so a journal written by a different code
version must not replay — ``begin`` detects the header mismatch and
starts fresh.

Event grammar (one JSON object per line, after the header)::

    {"ev": "job",   "id": "j0001", "spec": {...}, "t": ...}
    {"ev": "run",   "job": "j0001", "index": 3, "record": {...}}
    {"ev": "state", "job": "j0001", "state": "completed"}
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from ..core.cache import code_fingerprint
from ..core.journal import JsonlJournal

#: Default journal filename (inside the cache directory).
DEFAULT_BASENAME = "service-journal.jsonl"


@dataclass
class ReplayedJob:
    """One job reconstructed from the journal, pre-scheduler."""

    id: str
    spec_doc: dict
    #: Settled run records by item index (journaled presentation dicts).
    records: dict[int, dict] = field(default_factory=dict)
    #: Terminal state from a ``state`` event, or "" if still open.
    state: str = ""
    submitted_s: float = 0.0


class JobJournal:
    """Append-only job log with :meth:`replay` for ``--resume``."""

    VERSION = 1

    def __init__(self, path: str | os.PathLike, resume: bool = True) -> None:
        self._journal = JsonlJournal(path, "serve", self.VERSION,
                                     resume=resume)
        self._resume = resume
        self._begun = False

    @property
    def path(self):
        return self._journal.path

    @staticmethod
    def identity() -> dict:
        return {"code": code_fingerprint()}

    @staticmethod
    def _accept(payload: dict) -> bool:
        ev = payload.get("ev")
        if ev == "job":
            return isinstance(payload.get("id"), str) \
                and isinstance(payload.get("spec"), dict)
        if ev == "run":
            return isinstance(payload.get("job"), str) \
                and isinstance(payload.get("index"), int) \
                and isinstance(payload.get("record"), dict)
        if ev == "state":
            return isinstance(payload.get("job"), str) \
                and isinstance(payload.get("state"), str)
        return True

    def replay(self) -> list[ReplayedJob]:
        """Open the journal; returns the jobs it held, in submit order.

        Events for unknown job ids (a torn ``job`` line lost to a
        crash while later lines survived fsync reordering cannot
        actually happen — appends are fsync'd in order — but be
        defensive) are dropped.
        """
        events = self._journal.begin(self.identity(), accept=self._accept)
        self._begun = True
        jobs: dict[str, ReplayedJob] = {}
        for payload in events:
            ev = payload.get("ev")
            if ev == "job":
                jid = payload["id"]
                jobs[jid] = ReplayedJob(
                    id=jid, spec_doc=payload["spec"],
                    submitted_s=float(payload.get("t", 0.0)))
            elif ev == "run":
                job = jobs.get(payload["job"])
                if job is not None:
                    job.records[payload["index"]] = payload["record"]
            elif ev == "state":
                job = jobs.get(payload["job"])
                if job is not None:
                    job.state = payload["state"]
        return list(jobs.values())

    # -- append API (all fsync'd; durable once they return) -----------------
    def job_submitted(self, job_id: str, spec_doc: dict,
                      submitted_s: float) -> None:
        self._append({"ev": "job", "id": job_id, "spec": spec_doc,
                      "t": submitted_s})

    def run_settled(self, job_id: str, index: int, record: dict) -> None:
        self._append({"ev": "run", "job": job_id, "index": index,
                      "record": record})

    def job_state(self, job_id: str, state: str) -> None:
        self._append({"ev": "state", "job": job_id, "state": state})

    def _append(self, event: dict) -> None:
        if not self._begun:
            self.replay()
        self._journal.append(event)

    def close(self) -> None:
        self._journal.close()
