"""CDCL SAT solver with two-watched literals, VSIDS and restarts.

This is the decision procedure underneath the QF_BV solver: bitvector
formulas are bit-blasted (:mod:`repro.smt.bitblast`) into CNF over the
variables of this solver.

Literals are signed non-zero ints in DIMACS convention: variable ``v``
appears as ``v`` (positive) or ``-v`` (negated).  The solver supports

* incremental clause addition between ``solve`` calls,
* solving under *assumptions* (the mechanism used by the SMT layer to
  implement push/pop and per-query path conditions),
* assumption-level UNSAT cores: after an UNSAT answer under
  assumptions, :meth:`unsat_core` names the subset of assumption
  literals the final conflict actually used (MiniSat's
  ``analyzeFinal``), and :meth:`minimize_core` greedily shrinks it,
* first-UIP conflict clause learning with backjumping,
* LBD ("glue") tracking per learned clause, driving a tiered
  core/mid/local clause-database reduction and a Glucose-style
  glue-aware restart trigger on top of the Luby schedule,
* shared-assumption-prefix trail reuse: consecutive ``solve`` calls
  whose assumption lists share an ordered prefix keep the trail
  segment that prefix justifies instead of cancelling to level 0,
* VSIDS variable activities with exponential decay and phase saving,
  branching only on *decision* variables: every other variable is a
  gate output defined by :meth:`SatSolver.add_gate`,
* a bit-parallel *two-flip neighbourhood* check before the first
  branching decision of a call: the saved phases with zero, one or two
  free variables flipped, evaluated through the registered gates at
  once, often already satisfy the query (see
  :meth:`SatSolver._neighbourhood_model`),
* per-query costs that do not grow with the solver: each root's gate
  cone is swept once and kept, a neighbourhood answer fills only the
  decision variables of its model and evaluates the remaining gate
  outputs on their first read, and the VSIDS order heap persists
  across calls,
* per-call conflict/propagation/wall-clock *budgets*: ``solve`` returns
  :data:`UNKNOWN` instead of running forever on an adversarial query,
  leaving the solver consistent for the next call (sound degradation —
  the caller must treat UNKNOWN as "no answer", never as SAT or UNSAT).
"""

from __future__ import annotations

import time
from collections import deque
from heapq import heapify as _heapify, heappop as _heappop, heappush as _heappush
from typing import Callable, Iterable, Optional, Sequence

__all__ = [
    "SatSolver", "SAT", "UNSAT", "UNKNOWN", "GATE_AND", "GATE_XOR", "GATE_MUX",
]

SAT = True
UNSAT = False
#: Budget-exhausted answer: ``solve`` gave up without deciding.  ``None``
#: so that ``is SAT`` / ``is UNSAT`` comparisons at every call site
#: remain correct — an unhandled UNKNOWN falls into the "not SAT" arm,
#: which is the conservative direction for branch flipping (no flip).
UNKNOWN = None

_UNASSIGNED = 0

#: LBD at or below which a learned clause is "glue" and never deleted.
_GLUE_LBD = 2
#: LBD at or below which a learned clause is mid-tier (deleted last).
_MID_LBD = 6
#: Window of recent learned-clause LBDs driving the glue restart.
_LBD_WINDOW = 50
#: Glucose's K: restart when 0.8 * recent-avg-LBD > global-avg-LBD.
_GLUE_K = 0.8

#: Gate kinds of :meth:`SatSolver.add_gate`: ``a and b``, ``a xor b``
#: and ``a ? b : c``.
GATE_AND = 0
GATE_XOR = 1
GATE_MUX = 2

#: Most candidate assignments one neighbourhood check evaluates: the
#: unflipped one, every single flip and, while they fit, every pair of
#: flips (1 + n + n(n-1)/2 <= 4096 holds up to n = 90 free variables).
_NEIGHBOURHOOD_CANDIDATES = 4096

#: Entries the cone cache may hold per variable before it is cleared.
#: Flip queries over the sorting and encoding programs peak at about
#: two; any one root's cone holds at most one entry per variable.
_CONE_ENTRIES_PER_VAR = 4

#: The order heap is rebuilt once it holds more than this many entries
#: per decision variable: backjumps push duplicates that only a rebuild
#: drops.
_HEAP_ENTRIES_PER_VAR = 2


class _Clause:
    """A clause; the first two literals are the watched ones."""

    __slots__ = ("lits", "learned", "activity", "lbd")

    def __init__(self, lits: list[int], learned: bool, lbd: int = 0):
        self.lits = lits
        self.learned = learned
        self.activity = 0.0
        self.lbd = lbd

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Clause({self.lits}{' L' if self.learned else ''})"


class SatSolver:
    """An incremental CDCL solver.

    Typical use::

        solver = SatSolver()
        a, b = solver.new_var(), solver.new_var()
        solver.add_clause([a, b])
        solver.add_clause([-a])
        assert solver.solve() is SAT
        assert solver.value(b) is True
    """

    def __init__(
        self,
        trail_reuse: bool = True,
        conflict_budget: Optional[int] = None,
        propagation_budget: Optional[int] = None,
        wall_budget: Optional[float] = None,
        proof_log: bool = False,
    ) -> None:
        self._num_vars = 0
        # Indexed by variable (1-based): +1 true, -1 false, 0 unassigned.
        self._assign: list[int] = [0]
        self._level: list[int] = [0]
        self._reason: list[Optional[_Clause]] = [None]
        self._activity: list[float] = [0.0]
        self._phase: list[bool] = [False]
        # Per variable: None for a decision variable (only those ever
        # enter the order heap), else the (kind, a, b, c) definition of
        # the gate it is the output of, c = 0 unless kind is GATE_MUX.
        self._gates: list[Optional[tuple[int, int, int, int]]] = [None]
        self._decision_vars: list[int] = []
        # Input clauses that are not gate definitions, as given to
        # add_clause; a candidate model must satisfy each of them.
        self._input_clauses: list[tuple[int, ...]] = []
        # (count, masks, full) of the last neighbourhood check.  The masks
        # depend only on the count, which rarely changes between checks,
        # and building them took 3-5 % of an exploration's time.
        self._flips: tuple[int, list[int], int] = (0, *_flip_masks(0))
        # Root variable -> its fan-in through the gates, as (gate
        # outputs, decision variables), each ascending.  A gate's
        # definition never changes, so an entry never goes stale.
        # _cone_entries counts the ints all entries hold.
        self._cones: dict[int, tuple[list[int], list[int]]] = {}
        self._cone_entries = 0
        # Watch lists keyed by literal index (2*v for v, 2*v+1 for -v).
        self._watches: list[list[_Clause]] = [[], []]
        self._clauses: list[_Clause] = []
        self._learned: list[_Clause] = []
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._propagate_head = 0
        self._var_inc = 1.0
        self._var_decay = 1.0 / 0.95
        self._cla_inc = 1.0
        self._cla_decay = 1.0 / 0.999
        self._ok = True
        # The last model, +1/-1 by variable.  After a neighbourhood
        # answer a gate output the trail left unassigned reads 0 until
        # _complete_model fills it.
        self._model: list[int] = [0]
        # (-activity, var) entries.  Every unassigned decision variable
        # has an entry whose activity is at least its current one, so
        # _pick_branch_var finds the most active (then lowest) one; the
        # heap persists across solve calls.
        self._order_heap: list[tuple[float, int]] = []
        self._max_learned = 4000
        self._trail_reuse = trail_reuse
        # Assumption list of the previous solve(); decision level i+1 of
        # a kept trail corresponds to _prev_assumptions[i].
        self._prev_assumptions: list[int] = []
        # Assumption literals of the last UNSAT answer (analyzeFinal).
        self._conflict_core: list[int] = []
        # Glue restart bookkeeping: rolling window of recent LBDs plus
        # the global LBD sum over all conflicts.
        self._lbd_recent: deque = deque(maxlen=_LBD_WINDOW)
        self._lbd_recent_sum = 0
        self._lbd_total = 0
        #: Per-``solve``-call work budgets (None = unlimited).  When a
        #: budget runs out the call answers :data:`UNKNOWN` and resets
        #: to a consistent level-0 state.
        self.conflict_budget = conflict_budget
        self.propagation_budget = propagation_budget
        #: Per-``solve``-call wall-clock budget in seconds (None =
        #: unlimited).  The monotonic-clock check piggybacks on the
        #: existing per-conflict budget checks, so even a budget-free
        #: conflict/propagation configuration stays anytime: a solve
        #: exceeding the budget answers :data:`UNKNOWN` like any other
        #: exhausted budget.
        self.wall_budget = wall_budget
        #: Test/chaos seam: called with the solve ordinal at the start
        #: of every ``solve``; returning True simulates an immediately
        #: exhausted budget (see :mod:`repro.core.faults`).
        self.fault_hook: Optional[Callable[[int], bool]] = None
        #: DRAT-style clause log (``None`` = disabled): ``("i", lits)``
        #: input clauses as given to :meth:`add_clause`, ``("a", lits)``
        #: learned additions — unit learnts and the terminal empty
        #: clause included — and ``("d", lits)`` database-reduction
        #: deletions, in derivation order.  Checked independently by
        #: :mod:`repro.smt.drat`; the log only ever grows, so a checker
        #: can consume it incrementally across ``solve`` calls.
        self.proof: Optional[list[tuple[str, tuple[int, ...]]]] = (
            [] if proof_log else None
        )
        self.statistics = {
            "conflicts": 0,
            "decisions": 0,
            "propagations": 0,
            "restarts": 0,
            "glue_restarts": 0,
            "learned_deleted": 0,
            "trail_reused_lits": 0,
            "cores_extracted": 0,
            "core_minimize_solves": 0,
            "solve_calls": 0,
            "budget_exhausted": 0,
            # Neighbourhood checks that answered SAT / fell through to
            # the search, and the gate evaluations they cost.
            "neighbourhood_hits": 0,
            "neighbourhood_misses": 0,
            "neighbourhood_gates": 0,
        }

    # ------------------------------------------------------------------
    # Variable / clause management
    # ------------------------------------------------------------------

    def new_var(self) -> int:
        """Allocate a fresh decision variable and return its (positive) literal."""
        return self._allocate(None)

    def _allocate(self, gate: Optional[tuple[int, int, int, int]]) -> int:
        self._num_vars += 1
        self._assign.append(_UNASSIGNED)
        self._level.append(0)
        self._reason.append(None)
        self._activity.append(0.0)
        self._phase.append(False)
        self._gates.append(gate)
        if gate is None:
            self._decision_vars.append(self._num_vars)
            _heappush(self._order_heap, (-0.0, self._num_vars))
        self._watches.append([])
        self._watches.append([])
        return self._num_vars

    def add_gate(self, kind: int, a: int, b: int, c: int = 0) -> int:
        """Allocate a Tseitin gate output, add its clauses, return its literal.

        ``kind`` is :data:`GATE_AND` (``a and b``), :data:`GATE_XOR`
        (``a xor b``) or :data:`GATE_MUX` (``a ? b : c``).  The output
        is not a decision variable: the search never branches on it.
        That is complete because its clauses define it from earlier
        variables, so unit propagation assigns it as soon as its inputs
        are assigned, and a conflict-free assignment of the decision
        variables assigns every variable.  The solver also keeps the
        definition, to evaluate candidate models gate by gate.
        """
        if kind not in (GATE_AND, GATE_XOR, GATE_MUX):
            raise ValueError(f"bad gate kind {kind!r}")
        if kind != GATE_MUX:
            c = 0
        self._check_literals((a, b, c) if c else (a, b))
        g = self._allocate((kind, a, b, c))
        if kind == GATE_AND:
            clauses = ([-g, a], [-g, b], [g, -a, -b])
        elif kind == GATE_XOR:
            clauses = ([-g, a, b], [-g, -a, -b], [g, -a, b], [g, a, -b])
        else:
            clauses = (
                [-a, -b, g], [-a, b, -g], [a, -c, g], [a, c, -g],
                # Redundant clauses improving unit propagation strength.
                [-b, -c, g], [b, c, -g],
            )
        for clause in clauses:
            self._add_clause(clause)
        return g

    @property
    def num_vars(self) -> int:
        return self._num_vars

    @staticmethod
    def _widx(lit: int) -> int:
        """Index into the watch table for a literal."""
        var = lit if lit > 0 else -lit
        return 2 * var + (0 if lit > 0 else 1)

    def _lit_value(self, lit: int) -> int:
        """Value of a literal: +1 true, -1 false, 0 unassigned."""
        value = self._assign[abs(lit)]
        return value if lit > 0 else -value

    def _check_literals(self, lits: Sequence[int]) -> None:
        """Raise ValueError for literal 0 or a variable never allocated."""
        num_vars = self._num_vars
        if lits and (0 in lits or min(lits) < -num_vars or max(lits) > num_vars):
            bad = next(
                lit for lit in lits if lit == 0 or not -num_vars <= lit <= num_vars
            )
            raise ValueError(f"bad literal {bad!r}: variables are 1..{num_vars}")

    def add_clause(self, lits: Iterable[int]) -> bool:
        """Add a clause; returns False if the instance became trivially UNSAT.

        May be called between ``solve`` calls even when a reused trail is
        still standing: the solver falls back to decision level 0 first
        (new clauses invalidate the kept assumption prefix).  A zero or
        out-of-range literal raises ValueError before anything changes.
        """
        lits = list(lits)
        self._check_literals(lits)
        self._input_clauses.append(tuple(lits))
        return self._add_clause(lits)

    def _add_clause(self, lits: list[int]) -> bool:
        if self._trail_lim:
            self._cancel_until(0)
        if not self._ok:
            return False
        seen: set[int] = set()
        kept: list[int] = []
        out: list[int] = []
        for lit in lits:
            if -lit in seen:
                return True  # tautology
            if lit in seen:
                continue
            seen.add(lit)
            value = self._lit_value(lit)
            if value == 1:
                return True  # already satisfied at level 0
            kept.append(lit)
            if value == -1:
                continue  # falsified at level 0: drop literal
            out.append(lit)
        # The proof logs the clause *before* level-0 simplification:
        # the dropped literals' falsifying units are themselves logged
        # inputs, so the checker's propagation re-derives the
        # simplification instead of trusting it.
        if self.proof is not None and kept:
            self.proof.append(("i", tuple(kept)))
        if not out:
            if self.proof is not None:
                self.proof.append(("a", ()) if kept else ("i", ()))
            self._ok = False
            return False
        if len(out) == 1:
            self._enqueue(out[0], None)
            conflict = self._propagate()
            if conflict is not None:
                if self.proof is not None:
                    self.proof.append(("a", ()))
                self._ok = False
                return False
            return True
        clause = _Clause(out, learned=False)
        self._clauses.append(clause)
        self._watches[self._widx(out[0])].append(clause)
        self._watches[self._widx(out[1])].append(clause)
        return True

    # ------------------------------------------------------------------
    # Assignment trail
    # ------------------------------------------------------------------

    def _enqueue(self, lit: int, reason: Optional[_Clause]) -> None:
        var = abs(lit)
        self._assign[var] = 1 if lit > 0 else -1
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._phase[var] = lit > 0
        self._trail.append(lit)

    def _decision_level(self) -> int:
        return len(self._trail_lim)

    def _cancel_until(self, level: int) -> None:
        if self._decision_level() <= level:
            return
        bound = self._trail_lim[level]
        gates = self._gates
        for lit in reversed(self._trail[bound:]):
            var = abs(lit)
            self._assign[var] = _UNASSIGNED
            self._reason[var] = None
            if gates[var] is None:
                _heappush(self._order_heap, (-self._activity[var], var))
        del self._trail[bound:]
        del self._trail_lim[level:]
        self._propagate_head = len(self._trail)

    # ------------------------------------------------------------------
    # Unit propagation
    # ------------------------------------------------------------------

    def _propagate(self) -> Optional[_Clause]:
        """Propagate all enqueued facts; return a conflicting clause or None.

        This is the solver's innermost loop (the profile's hottest
        frame), so ``self`` attribute traffic is hoisted into locals and
        ``_lit_value``/``_widx`` are inlined over the local ``assign``
        list — the containers are only ever mutated in place, so the
        local aliases stay valid across ``_enqueue`` calls.
        """
        stats_props = 0
        trail = self._trail
        watches = self._watches
        assign = self._assign
        level = self._level
        reason = self._reason
        phase = self._phase
        current_level = len(self._trail_lim)
        trail_append = trail.append
        head = self._propagate_head
        conflict: Optional[_Clause] = None
        while head < len(trail):
            lit = trail[head]
            head += 1
            stats_props += 1
            false_lit = -lit
            # Inlined _widx(false_lit).
            if false_lit > 0:
                watch_list = watches[2 * false_lit]
            else:
                watch_list = watches[-2 * false_lit + 1]
            new_list: list[_Clause] = []
            append_kept = new_list.append
            for index, clause in enumerate(watch_list):
                lits = clause.lits
                # Ensure the falsified literal is in slot 1 (a watched
                # literal is always in slot 0 or 1).
                first = lits[0]
                if first == false_lit:
                    first = lits[1]
                    lits[0] = first
                    lits[1] = false_lit
                # Inlined _lit_value(first) == 1 (literal is true).
                if (assign[first] if first > 0 else -assign[-first]) == 1:
                    append_kept(clause)
                    continue
                # Search for a new literal to watch.
                k = 2
                size = len(lits)
                while k < size:
                    other = lits[k]
                    if (assign[other] if other > 0 else -assign[-other]) != -1:
                        lits[1] = other
                        lits[k] = false_lit
                        if other > 0:
                            watches[2 * other].append(clause)
                        else:
                            watches[-2 * other + 1].append(clause)
                        break
                    k += 1
                else:
                    append_kept(clause)
                    if first > 0:
                        value = assign[first]
                        var = first
                    else:
                        value = -assign[-first]
                        var = -first
                    if value == -1:
                        # Conflict: keep remaining watches, signal conflict.
                        new_list.extend(watch_list[index + 1:])
                        conflict = clause
                        break
                    # Inlined _enqueue(first, clause) — one call per unit
                    # propagation is the densest call site in the solver.
                    assign[var] = 1 if first > 0 else -1
                    level[var] = current_level
                    reason[var] = clause
                    phase[var] = first > 0
                    trail_append(first)
            watch_list[:] = new_list
            if conflict is not None:
                break
        self._propagate_head = head
        self.statistics["propagations"] += stats_props
        return conflict

    # ------------------------------------------------------------------
    # Conflict analysis (first UIP)
    # ------------------------------------------------------------------

    def _bump_var(self, var: int) -> None:
        self._activity[var] += self._var_inc
        if self._activity[var] > 1e100:
            for v in range(1, self._num_vars + 1):
                self._activity[v] *= 1e-100
            self._var_inc *= 1e-100

    def _bump_clause(self, clause: _Clause) -> None:
        clause.activity += self._cla_inc
        if clause.activity > 1e20:
            for c in self._learned:
                c.activity *= 1e-20
            self._cla_inc *= 1e-20

    def _analyze(self, conflict: _Clause) -> tuple[list[int], int]:
        """Derive a 1-UIP learned clause and its backjump level."""
        learned: list[int] = [0]  # slot 0 reserved for the asserting literal
        seen = [False] * (self._num_vars + 1)
        counter = 0
        lit = 0
        index = len(self._trail) - 1
        clause: Optional[_Clause] = conflict
        current_level = self._decision_level()
        while True:
            assert clause is not None
            if clause.learned:
                self._bump_clause(clause)
            start = 1 if lit != 0 else 0
            for q in clause.lits[start:]:
                var = abs(q)
                if not seen[var] and self._level[var] > 0:
                    seen[var] = True
                    self._bump_var(var)
                    if self._level[var] >= current_level:
                        counter += 1
                    else:
                        learned.append(q)
            # Select next literal to expand from the trail.
            while not seen[abs(self._trail[index])]:
                index -= 1
            lit = self._trail[index]
            index -= 1
            var = abs(lit)
            seen[var] = False
            counter -= 1
            if counter == 0:
                break
            clause = self._reason[var]
            # Reorder reason clause so the propagated literal is first.
            if clause is not None and clause.lits[0] != lit:
                pos = clause.lits.index(lit)
                clause.lits[0], clause.lits[pos] = clause.lits[pos], clause.lits[0]
        learned[0] = -lit
        # Clause minimization: drop literals implied by the rest.  The
        # membership test is one O(|learned|) set build + O(1) lookups
        # (the clause contents do not change during this pass).
        learned_vars = {abs(q) for q in learned}
        minimized = [learned[0]]
        for q in learned[1:]:
            reason = self._reason[abs(q)]
            if reason is None:
                minimized.append(q)
                continue
            redundant = all(
                abs(r) in learned_vars or self._level[abs(r)] == 0
                for r in reason.lits[1:]
            )
            if not redundant:
                minimized.append(q)
        learned = minimized
        if len(learned) == 1:
            return learned, 0
        # Find the second-highest decision level for backjumping.
        max_index = 1
        max_level = self._level[abs(learned[1])]
        for i in range(2, len(learned)):
            lvl = self._level[abs(learned[i])]
            if lvl > max_level:
                max_level = lvl
                max_index = i
        learned[1], learned[max_index] = learned[max_index], learned[1]
        return learned, max_level

    def _clause_lbd(self, lits: list[int]) -> int:
        """Literal Block Distance: distinct decision levels in the clause.

        Computed at learn time, before backjumping invalidates levels.
        """
        levels = set()
        level = self._level
        for q in lits:
            lvl = level[abs(q)]
            if lvl > 0:
                levels.add(lvl)
        return len(levels) or 1

    def _analyze_final(self, failed: int) -> list[int]:
        """Assumption literals whose conjunction forced ``failed`` false.

        MiniSat's ``analyzeFinal``: walk the implication graph backwards
        from the trail literal falsifying the assumption ``failed``;
        every assumption *decision* reached is part of the core.  The
        returned list always contains ``failed`` itself and is a subset
        of the assumptions of the current ``solve`` call.
        """
        core = [failed]
        if self._decision_level() == 0:
            return core
        seen = bytearray(self._num_vars + 1)
        seen[abs(failed)] = 1
        level = self._level
        bound = self._trail_lim[0]
        for trail_lit in reversed(self._trail[bound:]):
            var = abs(trail_lit)
            if not seen[var]:
                continue
            seen[var] = 0
            reason = self._reason[var]
            if reason is None:
                # A decision below the assumption prefix IS an
                # assumption literal (search decisions only happen once
                # every assumption level is established).
                core.append(trail_lit)
            else:
                for q in reason.lits:
                    qv = abs(q)
                    if qv != var and level[qv] > 0:
                        seen[qv] = 1
        return core

    def unsat_core(self) -> list[int]:
        """Assumption literals of the last UNSAT answer.

        A subset of the assumptions passed to the failing :meth:`solve`
        whose conjunction is already unsatisfiable with the clause
        database.  Empty when the clause database itself is UNSAT (any
        assumption set fails) or when the last answer was SAT.
        """
        return list(self._conflict_core)

    def minimize_core(self, core: Sequence[int], budget: int = 8) -> list[int]:
        """Greedy deletion-based minimization of an assumption core.

        Tries dropping one literal at a time and re-solving under the
        remainder; every UNSAT answer both confirms the drop and
        clause-set-refines the candidate through the fresh
        ``analyzeFinal`` core.  ``budget`` caps the extra ``solve``
        calls, so minimization degrades gracefully on hard instances.
        The result is UNSAT standing alone and a subset of ``core``.
        """
        current = list(core)
        attempts = 0
        index = 0
        while index < len(current) and attempts < budget and len(current) > 1:
            if not self._ok:
                break
            candidate = current[:index] + current[index + 1:]
            attempts += 1
            self.statistics["core_minimize_solves"] += 1
            if self.solve(candidate) is UNSAT:
                refined = self._conflict_core
                if refined and len(refined) < len(candidate):
                    current = list(refined)
                    index = 0
                else:
                    current = candidate
                # index stays: the next literal shifted into this slot.
            else:
                index += 1
        self._conflict_core = list(current)
        return current

    # ------------------------------------------------------------------
    # Decision heuristic
    # ------------------------------------------------------------------

    def _pick_branch_var(self) -> int:
        """Most active unassigned decision variable, or 0 if none is left.

        0 means SAT: the search never branches on a non-decision
        variable, so a conflict-free trail assigning every decision
        variable has assigned the gate outputs through propagation.
        """
        heap = self._order_heap
        while heap:
            neg_act, var = _heappop(heap)
            if self._assign[var] == _UNASSIGNED and -neg_act == self._activity[var]:
                return var
            if self._assign[var] == _UNASSIGNED:
                # Stale activity entry: reinsert with the fresh score.
                _heappush(heap, (-self._activity[var], var))
        # Heap empty: linear scan fallback.
        for var in self._decision_vars:
            if self._assign[var] == _UNASSIGNED:
                return var
        return 0

    def _rebuild_heap(self) -> None:
        self._order_heap = [
            (-self._activity[v], v)
            for v in self._decision_vars
            if self._assign[v] == _UNASSIGNED
        ]
        _heapify(self._order_heap)

    # ------------------------------------------------------------------
    # Learned clause DB reduction (LBD-tiered)
    # ------------------------------------------------------------------

    def _reduce_db(self) -> None:
        """Drop the least valuable half of the deletable learned clauses.

        Three retention tiers by glue value: *core* clauses (LBD <= 2)
        and binaries are immortal, *local* clauses (LBD > 6) go first
        (highest LBD, then lowest activity), *mid* clauses (LBD 3..6)
        are only sacrificed when the local tier alone cannot relieve
        the cap.  Clauses currently locked as reasons are never touched.
        """
        if len(self._learned) <= self._max_learned:
            return
        locked = set()
        for var in range(1, self._num_vars + 1):
            reason = self._reason[var]
            if reason is not None and reason.learned:
                locked.add(id(reason))
        removable = [
            clause
            for clause in self._learned
            if clause.lbd > _GLUE_LBD
            and len(clause.lits) > 2
            and id(clause) not in locked
        ]
        if not removable:
            return
        # Worst first: local tier by descending LBD, ties (and the mid
        # tier) by ascending activity.
        removable.sort(key=lambda c: (-c.lbd, c.activity))
        removed = removable[: len(removable) // 2]
        remove_ids = {id(c) for c in removed}
        if not remove_ids:
            return
        self._learned = [c for c in self._learned if id(c) not in remove_ids]
        for watch_list in self._watches:
            watch_list[:] = [c for c in watch_list if id(c) not in remove_ids]
        if self.proof is not None:
            for clause in removed:
                self.proof.append(("d", tuple(clause.lits)))
        self.statistics["learned_deleted"] += len(removed)
        self._max_learned = int(self._max_learned * 1.5)

    # ------------------------------------------------------------------
    # Two-flip neighbourhood of the saved phases
    # ------------------------------------------------------------------

    def _neighbourhood_model(self, assumptions: list[int]) -> bool:
        """Answer SAT from a candidate next to the saved phases, or False.

        Runs once the assumptions are established and propagated without
        conflict, before the first decision.  A candidate takes the trail
        value of every assigned decision variable and the saved phase of
        every free one, with zero, one or two free variables of the
        query's cone flipped.  The cone is the fan-in, through the gates,
        of the check's roots: the variables of the assumptions and of the
        input clauses that are not gate definitions.  Each root's fan-in
        is swept once and kept (see :meth:`_root_cone`), so a check only
        merges its roots' entries.  Each cone variable becomes an int
        with one bit per candidate (see :func:`_flip_masks`), and the
        cone's gates are evaluated in creation order, so all candidates
        go through one pass.

        A candidate is a model exactly when it satisfies every input
        clause and every assumption.  Gate clauses hold by construction,
        as gate outputs are evaluated, not guessed.  Non-gate input
        clauses are checked one by one.  An assigned gate output with an
        unassigned input is checked against its trail value, which covers
        the assumptions and prunes candidates no model can match, since
        every model satisfies the trail; one whose inputs are all
        assigned already agrees with them, as propagation reached a
        fixpoint without conflict.  Learned clauses follow from the input
        clauses.  Variables outside the cone cannot falsify any of this.

        The lowest satisfying candidate (fewest flips, then variable
        order) becomes the model.  Only its decision variables are set
        here: the free cone variables from the candidate, every other
        one from the trail or its saved phase.  The gate outputs the
        trail leaves unassigned are evaluated on the first read of one
        (:meth:`_complete_model`); a cone gate's candidate bit is its
        gate function of its inputs' values, so each gets the value the
        candidate gave it.  The flips become the saved phases.  The
        trail is left standing at the assumption levels.
        """
        assign = self._assign
        level = self._level
        gates = self._gates
        # A clause that a decision variable's level-0 value satisfies
        # holds on every candidate, for good: drop it.  (A gate output
        # is evaluated on a candidate, so its trail value proves nothing.)
        clauses = [
            clause
            for clause in self._input_clauses
            if not any(
                level[abs(lit)] == 0
                and self._lit_value(lit) == 1
                and gates[abs(lit)] is None
                for lit in clause
            )
        ]
        self._input_clauses = clauses
        roots = {lit if lit > 0 else -lit for lit in assumptions}
        for clause in clauses:
            roots.update(lit if lit > 0 else -lit for lit in clause)
        cones = self._cones
        cone_set: set[int] = set()
        decision_set: set[int] = set()
        for root in roots:
            gate_outputs, decision_vars = cones.get(root) or self._root_cone(root)
            cone_set.update(gate_outputs)
            decision_set.update(decision_vars)
        cone = sorted(cone_set)
        decisions = sorted(decision_set)
        free = [var for var in decisions if not assign[var]]
        fixed = [var for var in decisions if assign[var]]
        num_vars = self._num_vars
        count = min(len(free), _NEIGHBOURHOOD_CANDIDATES - 1)
        if self._flips[0] != count:
            self._flips = (count, *_flip_masks(count))
        _, masks, full = self._flips
        # Candidate bits by variable; a negative literal reads the
        # complement (gate inputs rarely are negative literals).
        value = [0] * (num_vars + 1)
        for var in fixed:
            if assign[var] > 0:
                value[var] = full
        phase = self._phase
        for var, bits in zip(free, masks):
            value[var] = bits ^ full if phase[var] else bits
        # Free variables past the candidate bound keep their saved phase.
        for var in free[count:]:
            if phase[var]:
                value[var] = full
        ok = full
        evaluated = 0
        for var in cone:
            kind, a, b, c = gates[var]
            truth = assign[var]
            if (
                truth
                and assign[a if a > 0 else -a]
                and assign[b if b > 0 else -b]
                and (not c or assign[c if c > 0 else -c])
            ):
                # All inputs on the trail: propagation already agreed.
                bits = full if truth > 0 else 0
            else:
                evaluated += 1
                x = value[a] if a > 0 else value[-a] ^ full
                y = value[b] if b > 0 else value[-b] ^ full
                if kind == GATE_AND:
                    bits = x & y
                elif kind == GATE_XOR:
                    bits = x ^ y
                else:
                    other = value[c] if c > 0 else value[-c] ^ full
                    bits = other ^ (x & (y ^ other))
                if truth:
                    ok &= bits if truth > 0 else bits ^ full
                    if not ok:
                        break
                    bits = full if truth > 0 else 0
            value[var] = bits
        if ok:
            for clause in clauses:
                bits = 0
                for lit in clause:
                    bits |= value[lit] if lit > 0 else value[-lit] ^ full
                ok &= bits
                if not ok:
                    break
        self.statistics["neighbourhood_gates"] += evaluated
        if not ok:
            self.statistics["neighbourhood_misses"] += 1
            return False
        self.statistics["neighbourhood_hits"] += 1
        chosen = ok & -ok
        model = list(assign)
        for var in free:
            truth = value[var] & chosen != 0
            model[var] = 1 if truth else -1
            phase[var] = truth
        for var in self._decision_vars:
            if not model[var]:
                model[var] = 1 if phase[var] else -1
        self._model = model
        return True

    def _root_cone(self, root: int) -> tuple[list[int], list[int]]:
        """Sweep one root's fan-in and keep it in the cone cache.

        Returns the gate outputs and the decision variables of the
        fan-in, each ascending.  The sweep runs from the root down, as a
        gate's inputs are older variables than its output.  The cache
        holds at most :data:`_CONE_ENTRIES_PER_VAR` ints per variable
        and is cleared when the next entry would not fit.
        """
        gates = self._gates
        needed = bytearray(root + 1)
        needed[root] = 1
        gate_outputs: list[int] = []
        decision_vars: list[int] = []
        find = needed.rfind
        var = root
        while var > 0:
            gate = gates[var]
            if gate is None:
                decision_vars.append(var)
            else:
                gate_outputs.append(var)
                _, a, b, c = gate
                needed[a if a > 0 else -a] = 1
                needed[b if b > 0 else -b] = 1
                if c:
                    needed[c if c > 0 else -c] = 1
            var = find(1, 0, var)
        gate_outputs.reverse()
        decision_vars.reverse()
        size = len(gate_outputs) + len(decision_vars)
        if self._cone_entries + size > _CONE_ENTRIES_PER_VAR * self._num_vars:
            self._cones.clear()
            self._cone_entries = 0
        entry = (gate_outputs, decision_vars)
        self._cones[root] = entry
        self._cone_entries += size
        return entry

    # ------------------------------------------------------------------
    # Main search loop
    # ------------------------------------------------------------------

    def _record_lbd(self, lbd: int) -> None:
        window = self._lbd_recent
        if len(window) == _LBD_WINDOW:
            self._lbd_recent_sum -= window[0]
        window.append(lbd)
        self._lbd_recent_sum += lbd
        self._lbd_total += lbd

    def _glue_restart_due(self) -> bool:
        """Glucose trigger: recent glue much worse than the global mean."""
        if len(self._lbd_recent) < _LBD_WINDOW:
            return False
        conflicts = self.statistics["conflicts"]
        return (
            self._lbd_recent_sum * _GLUE_K * conflicts
            > self._lbd_total * _LBD_WINDOW
        )

    def _give_up(self) -> None:
        """Abandon the current search consistently (budget exhausted).

        Cancels to level 0 and forgets the previous-assumption prefix so
        the next ``solve`` re-establishes its assumptions from scratch —
        learned clauses and activities survive (they are consequences of
        the clause database, independent of the abandoned search).
        """
        self.statistics["budget_exhausted"] += 1
        self._cancel_until(0)
        self._prev_assumptions = []

    def solve(self, assumptions: Sequence[int] = ()) -> Optional[bool]:
        """Solve under the given assumption literals.

        Returns :data:`SAT` when a model exists, :data:`UNSAT` when there
        is none, or :data:`UNKNOWN` when a configured conflict/propagation
        budget ran out first.  After SAT, :meth:`value` reads the model;
        after UNSAT under assumptions, :meth:`unsat_core` names the
        guilty subset.  With trail reuse enabled the trail is left
        standing between calls: the next ``solve`` keeps the segment
        justified by the shared ordered assumption prefix instead of
        re-propagating it.  A zero or out-of-range assumption raises
        ValueError before anything changes, the standing trail included.
        """
        assumptions = list(assumptions)
        self._check_literals(assumptions)
        self._conflict_core = []
        self.statistics["solve_calls"] += 1
        if not self._ok:
            return UNSAT
        if self.fault_hook is not None and self.fault_hook(
            self.statistics["solve_calls"]
        ):
            self._give_up()
            return UNKNOWN
        keep = 0
        if self._trail_reuse:
            previous = self._prev_assumptions
            limit = min(len(assumptions), len(previous), self._decision_level())
            while keep < limit and assumptions[keep] == previous[keep]:
                keep += 1
        self._cancel_until(keep)
        if keep:
            self.statistics["trail_reused_lits"] += (
                len(self._trail) - self._trail_lim[0]
            )
        self._prev_assumptions = assumptions
        if len(self._order_heap) > _HEAP_ENTRIES_PER_VAR * len(self._decision_vars):
            self._rebuild_heap()
        restart_count = 0
        conflicts_until_restart = _luby(restart_count) * 100
        conflict_budget_used = 0
        conflict_limit = self.conflict_budget
        conflicts_this_call = 0
        propagation_limit = None
        if self.propagation_budget is not None:
            propagation_limit = (
                self.statistics["propagations"] + self.propagation_budget
            )
        # Monotonic wall-clock deadline for this call, checked at the
        # same sites as the counter budgets (once per propagate return
        # and per conflict) — cheap, and frequent enough that no solve
        # overshoots its budget by more than one propagation round.
        wall_limit = None
        if self.wall_budget is not None:
            wall_limit = time.monotonic() + self.wall_budget
        neighbourhood_tried = False
        while True:
            conflict = self._propagate()
            if (
                propagation_limit is not None
                and self.statistics["propagations"] > propagation_limit
            ):
                self._give_up()
                return UNKNOWN
            if wall_limit is not None and time.monotonic() > wall_limit:
                self._give_up()
                return UNKNOWN
            if conflict is not None:
                self.statistics["conflicts"] += 1
                conflict_budget_used += 1
                conflicts_this_call += 1
                if self._decision_level() == 0:
                    if self.proof is not None:
                        self.proof.append(("a", ()))
                    self._cancel_until(0)
                    self._ok = False
                    self._prev_assumptions = []
                    return UNSAT
                if (
                    conflict_limit is not None
                    and conflicts_this_call > conflict_limit
                ):
                    self._give_up()
                    return UNKNOWN
                learned, backjump_level = self._analyze(conflict)
                if self.proof is not None:
                    self.proof.append(("a", tuple(learned)))
                # Glue is computed before backjumping, while the levels
                # of the learned literals are still meaningful.
                lbd = self._clause_lbd(learned)
                self._record_lbd(lbd)
                # Never backjump above the assumption prefix: re-deciding
                # assumptions is handled by restarting the prefix below.
                self._cancel_until(backjump_level)
                if len(learned) == 1:
                    if self._decision_level() == 0:
                        self._enqueue(learned[0], None)
                    else:
                        self._cancel_until(0)
                        self._enqueue(learned[0], None)
                else:
                    clause = _Clause(learned, learned=True, lbd=lbd)
                    self._learned.append(clause)
                    self._watches[self._widx(learned[0])].append(clause)
                    self._watches[self._widx(learned[1])].append(clause)
                    self._bump_clause(clause)
                    self._enqueue(learned[0], clause)
                self._var_inc *= self._var_decay
                self._cla_inc *= self._cla_decay
                glue_due = self._glue_restart_due()
                if glue_due or conflict_budget_used >= conflicts_until_restart:
                    if glue_due:
                        self.statistics["glue_restarts"] += 1
                    else:
                        restart_count += 1
                        conflicts_until_restart = _luby(restart_count) * 100
                    self.statistics["restarts"] += 1
                    conflict_budget_used = 0
                    self._lbd_recent.clear()
                    self._lbd_recent_sum = 0
                    self._cancel_until(0)
                    self._reduce_db()
                continue
            # Re-establish falsified assumptions as decisions.
            if self._decision_level() < len(assumptions):
                lit = assumptions[self._decision_level()]
                value = self._lit_value(lit)
                if value == 1:
                    # Already implied: introduce an empty decision level so
                    # the prefix indexing stays aligned.
                    self._trail_lim.append(len(self._trail))
                    continue
                if value == -1:
                    # Assumption conflicts with the formula: extract the
                    # final-conflict core, keep the (still consistent)
                    # established prefix for the next call's reuse.
                    self._conflict_core = self._analyze_final(lit)
                    self.statistics["cores_extracted"] += 1
                    self._prev_assumptions = assumptions[: self._decision_level()]
                    if not self._trail_reuse:
                        self._cancel_until(0)
                    return UNSAT
                self._trail_lim.append(len(self._trail))
                self._enqueue(lit, None)
                continue
            var = self._pick_branch_var()
            if var == 0:
                # Snapshot the model; the trail stays standing so the
                # next solve can reuse the shared assumption prefix.
                self._model = list(self._assign)
                if not self._trail_reuse:
                    self._cancel_until(0)
                return SAT
            if not neighbourhood_tried:
                # Every assumption level stands and no decision has been
                # made yet: try the neighbourhood of the saved phases.
                neighbourhood_tried = True
                if self._neighbourhood_model(assumptions):
                    # var stays free: its heap entry, which the pick
                    # took, goes back.
                    _heappush(self._order_heap, (-self._activity[var], var))
                    if not self._trail_reuse:
                        self._cancel_until(0)
                    return SAT
            self.statistics["decisions"] += 1
            self._trail_lim.append(len(self._trail))
            lit = var if self._phase[var] else -var
            self._enqueue(lit, None)

    # ------------------------------------------------------------------
    # Model access
    # ------------------------------------------------------------------

    def value(self, var: int) -> bool:
        """Model value of a variable after a SAT answer (False if free)."""
        model = self._model
        if var < len(model):
            return (model[var] or self._complete_model()[var]) == 1
        return False

    def bits_value(self, lits: Sequence[int]) -> int:
        """Model value of a literal vector, least significant bit first.

        Bit ``i`` is set when ``lits[i]`` is true in the model, as
        :meth:`value` reads it: one call for a whole bit vector.
        """
        model = self._model
        size = len(model)
        result = 0
        bit = 1
        for lit in lits:
            var = lit if lit > 0 else -lit
            truth = model[var] if var < size else -1
            if not truth:
                truth = self._complete_model()[var]
            if (truth > 0) == (lit > 0):
                result |= bit
            bit <<= 1
        return result

    def _complete_model(self) -> list[int]:
        """The last model with every gate output filled in.

        A neighbourhood answer leaves the gate outputs the trail did
        not assign at 0; the first read of one fills them all, in
        creation order, with +1/-1 arithmetic (and = min, xor = -x*y).
        """
        model = self._model
        gates = self._gates
        for var in range(1, len(model)):
            if model[var]:
                continue
            kind, a, b, c = gates[var]
            x = model[a] if a > 0 else -model[-a]
            y = model[b] if b > 0 else -model[-b]
            if kind == GATE_AND:
                model[var] = x if x < y else y
            elif kind == GATE_XOR:
                model[var] = -x * y
            elif x > 0:
                model[var] = y
            else:
                model[var] = model[c] if c > 0 else -model[-c]
        return model


def _flip_masks(count: int) -> tuple[list[int], int]:
    """Which candidates flip each of ``count`` variables, and all candidates.

    Bit 0 is the candidate that flips nothing and bit ``1 + i`` flips
    variable ``i`` alone.  While ``1 + count + count*(count-1)/2`` stays
    within :data:`_NEIGHBOURHOOD_CANDIDATES`, the pairs ``(i, j)``,
    ``i < j``, follow in lexicographic order.  The lowest set bit of a
    result is therefore the candidate with the fewest flips, then the
    lowest variables.
    """
    total = 1 + count + count * (count - 1) // 2
    if total > _NEIGHBOURHOOD_CANDIDATES:
        return [2 << i for i in range(count)], (2 << count) - 1
    masks = []
    # Pair row i holds (i, i+1) .. (i, count-1) from bit ``start`` on;
    # ``column`` collects the pairs (k, i), k < i, one bit per row.
    column = 0
    start = 1 + count
    for i in range(count):
        row = count - 1 - i
        masks.append((2 << i) | column | (((1 << row) - 1) << start))
        column = (column << 1) | (1 << start)
        start += row
    return masks, (1 << total) - 1


def _luby(i: int) -> int:
    """The Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ..."""
    k = 1
    while (1 << (k + 1)) <= i + 2:
        k += 1
    while (1 << k) - 1 != i + 1:
        i = i - (1 << k) + 1
        k = 1
        while (1 << (k + 1)) <= i + 2:
            k += 1
    return 1 << (k - 1)
