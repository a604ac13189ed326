"""Deterministic fault injection for exploration robustness testing.

A :class:`FaultPlan` is a *seeded schedule* of failures: given the same
plan, the same faults fire at the same points of an exploration, so a
chaos run is exactly reproducible — the property the fault-tolerance
invariant tests (``tests/test_faults.py``) and the CI chaos job rely
on.  Four fault classes map onto the robustness machinery they probe:

* **worker kills** (``kill=<rate>``) — a worker process ``os._exit``\\ s
  the moment it receives a task, exercising the supervisor's
  requeue / respawn / incomplete-path path in
  :mod:`repro.core.parallel`;
* **solver give-ups** (``unknown=<rate>``) — a CDCL ``solve()``
  abandons the query exactly as an exhausted conflict budget would
  (through :attr:`repro.smt.sat.SatSolver.fault_hook`), exercising the
  sound-degradation contract: the branch is not flipped and the query
  lands in ``unknown_queries``;
* **eviction storms** (``evict=<rate>``) — the snapshot pool is purged
  before a run, exercising the eviction → full-re-execution contract
  from PR 5;
* **queue hiccups** (``hiccup=<rate>``) — a short sleep before a worker
  posts its reply, exercising the parent's reply/death race handling;
* **cache corruption** (``corrupt=<rate>``) — a freshly stored
  :class:`repro.smt.solver.QueryCache` entry (SAT model, pooled model
  or UNSAT core set) is bit-flipped *after* its integrity digest is
  taken, exercising the verify-on-hit → quarantine → re-solve path:
  the poisoned answer must be detected and re-derived, never served;
* **worker hangs** (``hang=<rate>``) — a worker parks in an infinite
  sleep loop (heartbeats stop) the moment it receives a task,
  exercising the supervisor's heartbeat watchdog: the seat must be
  declared hung, killed, and its item requeued.  Pool-only: an
  in-process run has no supervisor, so it ignores hang schedules;
* **memory hogs** (``memhog=<rate>``) — a worker leaks a large
  allocation before a run, exercising the RSS governor
  (:mod:`repro.core.governor`): the worker drops its snapshot pool, and
  the eviction → full-re-execution contract keeps the path set
  invariant;
* **torn store writes** (``torn=<rate>``) — a persistent-store file
  (:mod:`repro.core.store`) is truncated right after its atomic
  rename, simulating a barrier-less power cut; the *next* run's
  verify-on-read must quarantine the stump and re-solve;
* **store I/O failures** (``iofail=<rate>``) — an ``OSError`` is
  raised at a store read/write site (disk full, permission flap),
  exercising the fail-soft contract: the tier disables itself for the
  rest of the run (``store_disabled``), the campaign never errors.

Rates are percentages; each *potential* fault site draws an
independent, stable pseudo-random decision from
``blake2b(seed, kind, site-key)``, so schedules are identical across
processes and runs without any shared RNG state.  ``stop=<paths>``
additionally interrupts the campaign (as Ctrl-C would) after that many
recorded paths — combined with ``--checkpoint``/``--resume`` it drives
the kill-then-resume acceptance test.

Every fault is *transient by keying*: decisions include the worker
incarnation uid, so a respawned worker draws a fresh schedule and a
retried item usually succeeds — permanent failures only emerge from
repeatedly unlucky draws, which the retry budget converts into an
explicitly counted ``incomplete`` path.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

__all__ = ["FaultPlan", "KILL_EXIT_CODE", "MEMHOG_BYTES"]

#: Exit code of a fault-injected worker kill (distinguishable from real
#: crashes in logs; the supervisor treats every nonzero exit the same).
KILL_EXIT_CODE = 113

#: Size of one injected ``memhog=`` leak.  Large enough to push a
#: driver past a tests-sized ``--memory-budget``, small enough that a
#: chaos run never threatens the host.
MEMHOG_BYTES = 8 * 1024 * 1024


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic schedule of injected faults.

    All ``*_rate`` fields are percentages in ``[0, 100]``; ``0``
    disables that fault class.  ``interrupt_after`` (``stop=`` in the
    spec syntax) raises ``KeyboardInterrupt`` in the exploration driver
    once that many paths are recorded (``None`` = never).
    """

    seed: int = 0
    kill_rate: int = 0
    unknown_rate: int = 0
    evict_rate: int = 0
    hiccup_rate: int = 0
    corrupt_rate: int = 0
    hang_rate: int = 0
    memhog_rate: int = 0
    torn_rate: int = 0
    iofail_rate: int = 0
    interrupt_after: Optional[int] = None

    #: spec key -> field for :meth:`parse`.
    _FIELDS = {
        "seed": "seed",
        "kill": "kill_rate",
        "unknown": "unknown_rate",
        "evict": "evict_rate",
        "hiccup": "hiccup_rate",
        "corrupt": "corrupt_rate",
        "hang": "hang_rate",
        "memhog": "memhog_rate",
        "torn": "torn_rate",
        "iofail": "iofail_rate",
        "stop": "interrupt_after",
    }

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from ``kill=30,unknown=20,evict=50,seed=1`` syntax.

        Unknown keys and non-integer values raise ``ValueError`` with
        the offending fragment, so CLI typos fail fast.
        """
        values: dict = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            key, _, raw = part.partition("=")
            field_name = cls._FIELDS.get(key.strip())
            if field_name is None:
                options = ", ".join(sorted(cls._FIELDS))
                raise ValueError(
                    f"unknown fault key {key.strip()!r} (expected one of {options})"
                )
            try:
                values[field_name] = int(raw.strip())
            except ValueError:
                raise ValueError(
                    f"fault value for {key.strip()!r} must be an integer, "
                    f"got {raw.strip()!r}"
                ) from None
        return cls(**values)

    @property
    def active(self) -> bool:
        return bool(
            self.kill_rate
            or self.unknown_rate
            or self.evict_rate
            or self.hiccup_rate
            or self.corrupt_rate
            or self.hang_rate
            or self.memhog_rate
            or self.torn_rate
            or self.iofail_rate
            or self.interrupt_after is not None
        )

    # ------------------------------------------------------------------
    # Stable decisions
    # ------------------------------------------------------------------

    def _decide(self, kind: str, *key) -> int:
        """Stable 64-bit draw for one fault site, identical everywhere."""
        payload = "|".join((str(self.seed), kind, *(str(part) for part in key)))
        return int.from_bytes(
            hashlib.blake2b(payload.encode("utf-8"), digest_size=8).digest(),
            "little",
        )

    def _chance(self, rate: int, kind: str, *key) -> bool:
        if rate <= 0:
            return False
        return self._decide(kind, *key) % 100 < min(rate, 100)

    # ------------------------------------------------------------------
    # Fault-site predicates (scope = worker incarnation uid or "serial")
    # ------------------------------------------------------------------

    def should_kill(self, scope, ordinal: int) -> bool:
        """Die instead of processing task ``ordinal`` of worker ``scope``?"""
        return self._chance(self.kill_rate, "kill", scope, ordinal)

    def should_evict(self, scope, ordinal: int) -> bool:
        """Purge the snapshot pool before run ``ordinal``?"""
        return self._chance(self.evict_rate, "evict", scope, ordinal)

    def should_hang(self, scope, ordinal: int) -> bool:
        """Wedge (infinite sleep, heartbeats stopped) on task ``ordinal``?

        Pool workers only: an in-process run has no supervising parent
        to recover a wedged loop, so it never consults this predicate.
        Keyed by incarnation uid like ``should_kill``, so a respawned
        seat draws a fresh schedule and the retried item usually runs.
        """
        return self._chance(self.hang_rate, "hang", scope, ordinal)

    def memhog_bytes(self, scope, ordinal: int) -> int:
        """Bytes to deliberately leak before run ``ordinal`` (0 = none).

        The leak is retained for the worker's lifetime, so repeated
        fires ratchet RSS upward — the deterministic pressure source
        the :mod:`repro.core.governor` is tested against.
        """
        if not self._chance(self.memhog_rate, "memhog", scope, ordinal):
            return 0
        return MEMHOG_BYTES

    def hiccup_delay(self, scope, ordinal: int) -> float:
        """Seconds to stall before posting reply ``ordinal`` (0 = none)."""
        if not self._chance(self.hiccup_rate, "hiccup", scope, ordinal):
            return 0.0
        # 1-5 ms, drawn from the same stable stream.
        return 0.001 * (1 + self._decide("hiccup-len", scope, ordinal) % 5)

    def corruptor(self, scope):
        """Cache-poisoning predicate for
        :meth:`repro.smt.solver.QueryCache.set_corruptor`.

        Returns ``None`` when corruption is disabled, else a callable
        taking the entry kind (``"model"`` or ``"core"``) and the
        cache's store ordinal, answering whether that freshly stored
        entry should be poisoned after its digest is taken.
        """
        if self.corrupt_rate <= 0:
            return None

        def hook(kind: str, ordinal: int) -> bool:
            return self._chance(self.corrupt_rate, "corrupt", kind, scope, ordinal)

        return hook

    def store_hook(self, scope):
        """Torn-write / I/O-failure schedule for
        :meth:`repro.core.store.ArtifactStore.set_fault_hook`.

        Returns ``None`` when both fault classes are disabled, else a
        callable taking the store's I/O site (``"read"``/``"write"``)
        and its per-op ordinal, answering ``"iofail"`` (raise
        ``OSError`` there — the tier must disable itself and the run
        continue), ``"torn"`` (truncate the just-renamed file — a
        *later* run must quarantine it) or ``None``.  ``iofail`` wins
        when both fire: it is the stronger failure.
        """
        if self.torn_rate <= 0 and self.iofail_rate <= 0:
            return None

        def hook(op: str, ordinal: int):
            if self._chance(self.iofail_rate, "iofail", op, scope, ordinal):
                return "iofail"
            if op == "write" and self._chance(
                self.torn_rate, "torn", scope, ordinal
            ):
                return "torn"
            return None

        return hook

    def solver_hook(self, scope):
        """Give-up predicate for :attr:`repro.smt.sat.SatSolver.fault_hook`.

        Returns ``None`` when solver give-ups are disabled, else a
        callable taking the solver's ``solve_calls`` ordinal and
        answering whether that call should abandon the query (UNKNOWN).
        """
        if self.unknown_rate <= 0:
            return None

        def hook(ordinal: int) -> bool:
            return self._chance(self.unknown_rate, "unknown", scope, ordinal)

        return hook
