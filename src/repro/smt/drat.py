"""Independent DRAT-style proof checking by reverse unit propagation.

:class:`repro.smt.sat.SatSolver` optionally keeps a clause log — every
input clause from ``add_clause``, every learned clause (including unit
learnts and the terminal empty clause), and every clause retired by
database reduction.  This module replays that log and certifies it with
an implementation that deliberately shares *no* code with the solver's
two-watched-literal propagation loop: the checker keeps plain
occurrence lists and a scan queue, so a bug in the solver's watcher
bookkeeping cannot also hide in the check.

Checked properties:

* every logged *addition* is RUP (reverse unit propagation): asserting
  the negation of each of its literals and unit-propagating over the
  clauses alive at that point in the log yields a conflict, i.e. the
  clause is a consequence of what came before;
* every logged *deletion* names a clause that is actually alive;
* an UNSAT answer is certified by a verified empty-clause addition;
* an assumption core is certified by unit-propagating the core
  literals over the fully verified clause database and reaching a
  conflict — exactly the evidence that the core's conjuncts alone
  (under the bit-blasted input clauses) are contradictory, which is
  what :meth:`repro.smt.solver.QueryCache.store_unsat` relies on.

Proof events are ``(tag, lits)`` tuples with ``tag`` one of ``"i"``
(input clause), ``"a"`` (learned addition) or ``"d"`` (deletion);
``lits`` is a tuple of nonzero DIMACS-style integers.
"""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = ["ProofError", "ProofChecker", "check_proof", "check_unsat", "check_core"]

#: Event tags understood by the checker.
_INPUT, _ADD, _DELETE = "i", "a", "d"


class ProofError(Exception):
    """A proof event failed to check (or the log itself is malformed)."""


class _Propagator:
    """Unit propagation over an explicit clause list.

    Independent of the solver on purpose: clauses are immutable literal
    tuples, occurrence lists map a literal to every clause containing
    it, and propagation rescans affected clauses from scratch instead
    of maintaining watcher invariants.  Slower, but structurally unable
    to share a bug with :meth:`repro.smt.sat.SatSolver._propagate`.
    """

    def __init__(self) -> None:
        self._clauses: dict[int, tuple[int, ...]] = {}
        self._occurs: dict[int, set[int]] = {}
        self._by_lits: dict[tuple[int, ...], list[int]] = {}
        self._next_id = 0

    # -- clause database ------------------------------------------------

    @staticmethod
    def _canon(lits: Iterable[int]) -> tuple[int, ...]:
        return tuple(sorted(set(lits)))

    def add(self, lits: Iterable[int]) -> None:
        canon = self._canon(lits)
        clause_id = self._next_id
        self._next_id += 1
        self._clauses[clause_id] = canon
        self._by_lits.setdefault(canon, []).append(clause_id)
        for lit in canon:
            self._occurs.setdefault(lit, set()).add(clause_id)

    def delete(self, lits: Iterable[int]) -> None:
        canon = self._canon(lits)
        ids = self._by_lits.get(canon)
        if not ids:
            raise ProofError(f"deletion of a clause that is not alive: {canon}")
        clause_id = ids.pop()
        if not ids:
            del self._by_lits[canon]
        del self._clauses[clause_id]
        for lit in canon:
            self._occurs[lit].discard(clause_id)

    def __len__(self) -> int:
        return len(self._clauses)

    # -- propagation ----------------------------------------------------

    def propagates_to_conflict(self, seed_lits: Sequence[int]) -> bool:
        """Assert ``seed_lits`` and unit-propagate; ``True`` on conflict.

        The assignment is local to the call — the clause database is
        never mutated, so checks are freely repeatable.
        """
        assignment: dict[int, bool] = {}
        queue: list[int] = []

        def assert_lit(lit: int) -> bool:
            """Record ``lit`` as true; ``False`` signals a conflict."""
            var = abs(lit)
            want = lit > 0
            if var in assignment:
                return assignment[var] == want
            assignment[var] = want
            queue.append(lit)
            return True

        for lit in seed_lits:
            if not assert_lit(lit):
                return True
        # Initial full scan: database units (and units under the seed
        # assignment) must fire even though no occurrence list points at
        # them yet; an empty clause is an immediate conflict.
        for lits in self._clauses.values():
            unassigned = None
            satisfied = False
            for lit in lits:
                value = assignment.get(abs(lit))
                if value is None:
                    if unassigned is not None:
                        unassigned = 0  # two free literals: not unit
                        break
                    unassigned = lit
                elif value == (lit > 0):
                    satisfied = True
                    break
            if satisfied or unassigned == 0:
                continue
            if unassigned is None:
                return True
            if not assert_lit(unassigned):
                return True
        while queue:
            falsified = -queue.pop()
            for clause_id in list(self._occurs.get(falsified, ())):
                lits = self._clauses.get(clause_id)
                if lits is None:
                    continue
                unassigned = None
                satisfied = False
                for lit in lits:
                    var = abs(lit)
                    value = assignment.get(var)
                    if value is None:
                        if unassigned is not None:
                            unassigned = 0  # two free literals: not unit
                            break
                        unassigned = lit
                    elif value == (lit > 0):
                        satisfied = True
                        break
                if satisfied or unassigned == 0:
                    continue
                if unassigned is None:
                    return True  # every literal false: conflict
                if not assert_lit(unassigned):
                    return True
        return False


class ProofChecker:
    """Incrementally verify a solver's proof log.

    Feed events in log order with :meth:`feed`; each addition is
    RUP-checked against the clauses alive at that point, so the
    database the checker ends up with is *independently justified* —
    trusting it requires trusting only the input clauses and this
    module.  :meth:`check_core` and :meth:`check_unsat` then certify
    answers against that justified database.
    """

    def __init__(self) -> None:
        self._prop = _Propagator()
        self._events_checked = 0
        self._empty_verified = False

    @property
    def events_checked(self) -> int:
        return self._events_checked

    def feed(self, events: Sequence[tuple[str, tuple[int, ...]]]) -> None:
        """Verify ``events`` (the full log; already-checked prefix is
        skipped, so callers can re-feed the growing log cheaply)."""
        if len(events) < self._events_checked:
            raise ProofError(
                f"proof log shrank: checked {self._events_checked} events, "
                f"log now has {len(events)}"
            )
        for tag, lits in events[self._events_checked:]:
            if tag == _INPUT:
                self._prop.add(lits)
            elif tag == _ADD:
                # RUP: negating the clause and propagating must conflict.
                if not self._prop.propagates_to_conflict([-lit for lit in lits]):
                    raise ProofError(f"addition is not RUP: {tuple(lits)}")
                if not lits:
                    self._empty_verified = True
                self._prop.add(lits)
            elif tag == _DELETE:
                self._prop.delete(lits)
            else:
                raise ProofError(f"unknown proof event tag {tag!r}")
            self._events_checked += 1

    def check_unsat(self) -> None:
        """Certify an assumption-free UNSAT answer: the verified log
        must contain (or now imply) the empty clause."""
        if self._empty_verified:
            return
        if not self._prop.propagates_to_conflict(()):
            raise ProofError("UNSAT answer has no verified empty-clause derivation")

    def check_core(self, core_lits: Sequence[int]) -> None:
        """Certify an assumption core: the core literals alone must
        propagate to a conflict over the verified clause database."""
        if not self._prop.propagates_to_conflict(core_lits):
            raise ProofError(
                f"core does not propagate to a conflict: {tuple(core_lits)}"
            )


def check_proof(events: Sequence[tuple[str, tuple[int, ...]]]) -> ProofChecker:
    """Verify a complete log and return the checker (for core checks)."""
    checker = ProofChecker()
    checker.feed(events)
    return checker


def check_unsat(events: Sequence[tuple[str, tuple[int, ...]]]) -> None:
    """Verify ``events`` and certify an assumption-free UNSAT answer."""
    check_proof(events).check_unsat()


def check_core(
    events: Sequence[tuple[str, tuple[int, ...]]], core_lits: Sequence[int]
) -> None:
    """Verify ``events`` and certify the assumption core ``core_lits``."""
    check_proof(events).check_core(core_lits)
