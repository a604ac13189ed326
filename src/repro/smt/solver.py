"""Incremental QF_BV solver facade (the repository's Z3 replacement).

:class:`Solver` exposes the small API the symbolic execution engines
need: ``add`` (assert a boolean term), ``push``/``pop`` scopes,
``check`` under additional per-query assumptions, and ``model``
extraction after a satisfiable answer.

Scopes and assumptions are implemented with activation literals on top
of the CDCL core, so nothing is ever re-encoded: the bit-blaster's term
cache persists for the lifetime of the solver, which is what makes the
offline executor's thousands of small branch queries affordable.

The cross-path query layer of ``--store`` runs lives here too:
:class:`QueryCache` memoizes branch-flip answers keyed by the
*canonicalized* path condition (a frozenset of interned condition
terms, so permuted and duplicated prefixes collapse onto one entry),
and :class:`CachingSolver` consults it before touching the CDCL core.
Exact hits, subsumption by a cached minimal UNSAT core and the
persistent store tier answer without a solve; a miss is one plain
:meth:`Solver.check` of the whole query.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import asdict, dataclass
from typing import Iterable, Mapping, Optional

from . import drat
from .bitblast import BitBlaster
from .digest import term_digest
from .evalbv import EvalError, evaluate
from .sat import SAT, UNKNOWN, SatSolver
from .terms import Term

__all__ = [
    "Solver",
    "SolverConfig",
    "Result",
    "Model",
    "QueryCache",
    "CachingSolver",
]


@dataclass(frozen=True)
class SolverConfig:
    """Solver-layer knobs of one exploration.

    The config object crosses the process boundary to every exploration
    worker, so serial and pooled runs solve alike.  ``unsat_cores``
    (``--no-unsat-cores``) controls assumption-level UNSAT core
    extraction and minimal-core caching in :class:`CachingSolver`, and
    ``trail_reuse`` (``--no-trail-reuse``) the CDCL core's
    shared-assumption-prefix trail retention between queries.

    The *budget* knobs bound worst-case solver work per query, for
    sound degradation under adversarial branch-flip queries
    (``--conflict-budget`` / ``--propagation-budget``, None =
    unlimited): an exhausted budget makes ``check`` answer UNKNOWN,
    which the exploration layer counts explicitly instead of flipping
    the branch.  ``wall_budget`` (``--solver-wall-budget``, seconds)
    bounds *wall time* per CDCL ``solve`` the same way — the anytime
    guarantee for queries whose conflict count stays low while each
    propagation round is expensive.  ``core_budget`` (``--core-budget``)
    caps the extra solves :meth:`repro.smt.sat.SatSolver.minimize_core`
    may spend shrinking an UNSAT core.  Fork inheritance keeps serial
    and parallel budget behaviour identical.

    ``certify`` (``--certify``) controls the certification layer: the
    CDCL core keeps its DRAT-style clause log (learned additions +
    deletions), every UNSAT core is validated against it by the
    independent RUP checker in :mod:`repro.smt.drat`, and every SAT
    model is evaluated against the original conjuncts before anything
    is cached or reported.  A failed check is never trusted: the answer
    is downgraded to UNKNOWN and the failure counted.  Without
    ``certify`` no clause log is kept.
    """

    unsat_cores: bool = True
    trail_reuse: bool = True
    conflict_budget: "int | None" = None
    propagation_budget: "int | None" = None
    wall_budget: "float | None" = None
    core_budget: int = 8
    certify: bool = False


class Result(enum.Enum):
    """Outcome of a satisfiability check.

    ``UNKNOWN`` means a configured work budget ran out before the CDCL
    core decided the query (see ``SolverConfig.conflict_budget``).
    It is never cached and callers must treat it as "no answer" — for
    branch flipping that means: do not flip, count the query.
    """

    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


class Model:
    """A satisfying assignment for the variables of a formula.

    Variables that were never constrained default to zero/false, matching
    the behaviour symbolic execution engines expect from SMT solvers when
    completing partial models.
    """

    def __init__(self, values: dict[Term, int]):
        self._values = dict(values)

    def __getitem__(self, var: Term) -> int:
        return self._values.get(var, 0)

    def get(self, var: Term, default: int = 0) -> int:
        return self._values.get(var, default)

    def items(self):
        return self._values.items()

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, var: Term) -> bool:
        return var in self._values

    def eval(self, term: Term) -> int:
        """Evaluate an arbitrary term under this model (free vars -> 0)."""
        assignment = dict(self._values)
        for var in term.variables():
            assignment.setdefault(var, 0)
        return evaluate(term, assignment)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(
            f"{var.payload}={value:#x}" for var, value in sorted(
                self._values.items(), key=lambda item: str(item[0].payload)
            )
        )
        return f"Model({parts})"


class Solver:
    """Incremental bit-blasting solver for QF_BV terms.

    ``trail_reuse`` enables the CDCL core's shared-assumption-prefix
    trail retention between ``check`` calls (on by default; a pure
    perf knob).  ``unsat_cores`` additionally extracts and greedily
    minimizes an assumption-level UNSAT core after every unsatisfiable
    scope-free ``check``, publishing it as :attr:`last_core` — a
    frozenset of the guilty assumption *terms* (off by default because
    minimization re-solves; :class:`CachingSolver` switches it on to
    feed the query cache minimal UNSAT sets).
    """

    def __init__(
        self,
        trail_reuse: bool = True,
        unsat_cores: bool = False,
        conflict_budget: Optional[int] = None,
        propagation_budget: Optional[int] = None,
        wall_budget: Optional[float] = None,
        core_budget: int = 8,
        certify: bool = False,
    ) -> None:
        self._sat = SatSolver(
            trail_reuse=trail_reuse,
            conflict_budget=conflict_budget,
            propagation_budget=propagation_budget,
            wall_budget=wall_budget,
            proof_log=certify,
        )
        self._core_budget = core_budget
        self._blaster = BitBlaster(self._sat)
        self._scopes: list[int] = []
        self._last_result: Optional[Result] = None
        self._unsat_cores = unsat_cores
        self._has_assertions = False
        #: After an UNSAT ``check``: the subset of the assumption terms
        #: whose conjunction is already unsatisfiable, or None when no
        #: core could be attributed (scopes active, cores disabled, or
        #: the clause database itself is inconsistent).
        self.last_core: Optional[frozenset] = None
        self.num_checks = 0
        #: CDCL ``solve()`` invocations — the cost the query cache
        #: exists to avoid.  ``num_checks`` counts ``check`` calls that
        #: reached the core, including those answered without a solve.
        self.num_solves = 0
        #: ``check`` calls answered UNKNOWN (work budget exhausted).
        self.num_unknowns = 0
        #: Certification mode (``--certify``): the CDCL core logs its
        #: clauses, every UNSAT answer is checked against that DRAT-style
        #: proof by the independent RUP checker in :mod:`repro.smt.drat`,
        #: and every SAT model is evaluated against the query terms with
        #: the reference evaluator before it is reported.  An answer
        #: whose evidence fails to check is *downgraded to UNKNOWN* —
        #: counted, never trusted.
        self._certify = certify
        self._checker: Optional[drat.ProofChecker] = None
        self.certified_sat = 0
        self.certified_unsat = 0
        self.certify_failures = 0

    # ------------------------------------------------------------------
    # Assertions and scopes
    # ------------------------------------------------------------------

    def add(self, term: Term) -> None:
        """Assert a boolean term in the current scope."""
        if not term.is_bool:
            raise TypeError("Solver.add expects a boolean term")
        lit = self._blaster.lit(term)
        if self._scopes:
            self._sat.add_clause([-self._scopes[-1], lit])
        else:
            self._sat.add_clause([lit])
        self._has_assertions = True
        self._last_result = None

    def set_fault_hook(self, hook) -> None:
        """Install a per-solve give-up predicate (fault injection).

        ``hook(solve_ordinal) -> bool``; a ``True`` answer makes that
        CDCL ``solve()`` abandon the query exactly as an exhausted
        conflict budget would — the check answers UNKNOWN, nothing is
        cached, and the usual sound-degradation accounting applies.
        ``None`` uninstalls.
        """
        self._sat.fault_hook = hook

    def push(self) -> None:
        """Open a new assertion scope."""
        self._scopes.append(self._sat.new_var())

    def pop(self) -> None:
        """Discard the most recent assertion scope."""
        act = self._scopes.pop()
        self._sat.add_clause([-act])
        self._has_assertions = True
        self._last_result = None

    @property
    def scope_depth(self) -> int:
        return len(self._scopes)

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------

    def check(self, assumptions: Iterable[Term] = ()) -> Result:
        """Check satisfiability of the asserted formula + assumptions."""
        terms = list(assumptions)
        assumption_lits = list(self._scopes)
        lit_terms: dict[int, Term] = {}
        self.last_core = None
        blasted = self._blaster.bool_lits
        true_lit = self._blaster.gates.true_lit
        for term in terms:
            lit = blasted.get(term)
            # A term blasted before is a boolean; one blasted to a
            # constant literal may be a constant term.
            if lit is None or lit == true_lit or lit == -true_lit:
                if not term.is_bool:
                    raise TypeError("assumptions must be boolean terms")
                if term.is_const:
                    if term.payload:
                        continue
                    self._last_result = Result.UNSAT
                    self.num_checks += 1
                    if self._unsat_cores:
                        self.last_core = frozenset((term,))
                    if self._certify:
                        # The constant-false conjunct is its own evidence.
                        self.certified_unsat += 1
                    return Result.UNSAT
                lit = self._blaster.lit(term)
            lit_terms.setdefault(lit, term)
            assumption_lits.append(lit)
        self.num_checks += 1
        if not assumption_lits and not self._has_assertions:
            # Every assumption was a constant-true term pruned above and
            # nothing was ever asserted: trivially SAT.  Attributed as a
            # fast-path answer, not a core solve.
            self._last_result = Result.SAT
            return Result.SAT
        self.num_solves += 1
        outcome = self._sat.solve(assumption_lits)
        if outcome is SAT:
            self._last_result = Result.SAT
            if self._certify and not self._certify_sat_model(terms):
                # The model fails its own query under the reference
                # evaluator: never trusted — answer UNKNOWN, counted.
                self.num_unknowns += 1
                self._last_result = Result.UNKNOWN
            return self._last_result
        if outcome is UNKNOWN:
            # Budget exhausted: no model, no core, nothing cacheable.
            self.num_unknowns += 1
            self._last_result = Result.UNKNOWN
            return self._last_result
        self._last_result = Result.UNSAT
        attributed: Optional[list] = None
        if self._unsat_cores and not self._scopes:
            core = self._sat.unsat_core()
            if core and all(lit in lit_terms for lit in core):
                if len(core) > 1:
                    core = self._sat.minimize_core(core, budget=self._core_budget)
                attributed = core
        if self._certify and not self._scopes:
            raw = attributed if attributed is not None else self._sat.unsat_core()
            if not self._certify_unsat_answer(raw):
                self.num_unknowns += 1
                self._last_result = Result.UNKNOWN
                return self._last_result
        if attributed is not None:
            self.last_core = frozenset(lit_terms[lit] for lit in attributed)
        return self._last_result

    # ------------------------------------------------------------------
    # Answer certification (--certify)
    # ------------------------------------------------------------------

    def _certify_sat_model(self, query_terms) -> bool:
        """Check the fresh model against the query with ``evalbv``.

        Every query term is evaluated, also one whose literal another
        term already took: a blaster that maps two terms to one literal
        wrongly is what this check exists to catch.  Only
        assumption-style queries are checkable — terms asserted via
        :meth:`add` (or scoped) are not reconstructable here, so those
        checks pass through unverified rather than failing.
        """
        if self._has_assertions or self._scopes:
            return True
        model = self.model()
        try:
            ok = all(model.eval(term) for term in query_terms)
        except EvalError:  # pragma: no cover - defensive
            ok = False
        if ok:
            self.certified_sat += 1
        else:
            self.certify_failures += 1
        return ok

    def _certify_unsat_answer(self, core_lits) -> bool:
        """Check an UNSAT answer against the CDCL core's clause log.

        The proof is replayed through the independent RUP checker in
        :mod:`repro.smt.drat` (incrementally — only events since the
        last check are verified); the answer is then certified either
        by the verified empty clause (no surviving assumptions) or by
        propagating the core literals to a conflict over the verified
        clause database.
        """
        if self._checker is None:
            self._checker = drat.ProofChecker()
        try:
            self._checker.feed(self._sat.proof)
            if core_lits:
                self._checker.check_core(core_lits)
            else:
                self._checker.check_unsat()
        except drat.ProofError:
            self.certify_failures += 1
            return False
        self.certified_unsat += 1
        return True

    def model(self) -> Model:
        """Extract the model after a satisfiable :meth:`check`."""
        if self._last_result is not Result.SAT:
            raise RuntimeError("model() requires a preceding sat check")
        bits_value = self._sat.bits_value
        values = {
            var: bits_value(bits) for var, bits in self._blaster.var_bits.items()
        }
        for var, lit in self._blaster.bool_vars.items():
            values[var] = bits_value((lit,))
        return Model(values)

    def value_of(self, var: Term) -> Optional[int]:
        """Value of one variable after a sat check (None if never blasted).

        Cheaper than :meth:`model` when only a known subset of the
        variables matters — :class:`CachingSolver` uses this to restrict
        a fresh model to the query's own variables without walking every
        variable the blaster has ever seen.
        """
        if self._last_result is not Result.SAT:
            raise RuntimeError("value_of() requires a preceding sat check")
        if var.is_bool:
            lit = self._blaster.bool_vars.get(var)
            if lit is None:
                return None
            return self._sat.bits_value((lit,))
        bits = self._blaster.var_bits.get(var)
        if bits is None:
            return None
        return self._sat.bits_value(bits)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def statistics(self) -> Mapping[str, int]:
        stats = dict(self._sat.statistics)
        stats["sat_vars"] = self._sat.num_vars
        stats["checks"] = self.num_checks
        stats["solves"] = self.num_solves
        stats["unknowns"] = self.num_unknowns
        stats["certified_sat"] = self.certified_sat
        stats["certified_unsat"] = self.certified_unsat
        stats["certify_failures"] = self.certify_failures
        for kind, hits in self._blaster.network_hits.items():
            stats[f"blaster_{kind}_reuse"] = hits
        return stats

    @property
    def pipeline_statistics(self) -> Mapping[str, int]:
        """Flat counters the exploration drivers sum exactly across
        workers: CDCL solves, the search's decisions, propagations and
        conflicts, trail reuse, neighbourhood checks, cores, budgets,
        certification.  :class:`CachingSolver` extends the dict
        with its cache and query counters."""
        sat_stats = self._sat.statistics
        return {
            "sat_core_solves": self.num_solves,
            "sat_decisions": sat_stats["decisions"],
            "sat_propagations": sat_stats["propagations"],
            "sat_conflicts": sat_stats["conflicts"],
            "sat_trail_reused_lits": sat_stats["trail_reused_lits"],
            "sat_neighbourhood_hits": sat_stats["neighbourhood_hits"],
            "sat_neighbourhood_misses": sat_stats["neighbourhood_misses"],
            "sat_neighbourhood_gates": sat_stats["neighbourhood_gates"],
            "sat_cores_extracted": sat_stats["cores_extracted"],
            "sat_core_minimize_solves": sat_stats["core_minimize_solves"],
            "sat_budget_exhausted": sat_stats["budget_exhausted"],
            "certified_sat": self.certified_sat,
            "certified_unsat": self.certified_unsat,
            "certify_failures": self.certify_failures,
        }


class QueryCache:
    """Cross-path memo of satisfiability answers and models.

    Keys are canonicalized path conditions: the ``frozenset`` of the
    query's (interned) condition terms, so condition *order* and
    duplicated conjuncts never cause a miss.  Three lookup tiers, each
    sound on its own:

    1. **exact** — the same condition set was answered before;
    2. **UNSAT subsumption** — some cached UNSAT set (ideally a minimal
       core) is a subset of the query (a conjunction stays UNSAT under
       extra conjuncts);
    3. **store** — the persistent artifact tier, when one is attached
       (see :meth:`attach_store`).

    The cache is process-local: interned terms hash by identity, which
    makes the keys O(1) but meaningless across processes.  Each parallel
    exploration worker therefore owns one ``QueryCache``.

    Entries carry blake2b *integrity digests* taken at store time and
    re-checked on hit (every ``verify_period``-th verification
    opportunity; the default of 1 checks every hit).  A hit whose
    content no longer matches its digest is **quarantined**: the entry
    is dropped, the lookup falls through to the remaining tiers (or a
    fresh solve), and the event is counted in ``quarantines`` — a
    poisoned answer is re-derived, never served.  Digests hash interned
    term identities, which is exactly as process-local as the keys
    themselves.  :meth:`set_corruptor` is the fault-injection seam that
    poisons entries *after* digesting, so the chaos harness can prove
    the detection path works.
    """

    def __init__(
        self,
        max_unsat_sets: int = 512,
        max_entries: int = 100_000,
        verify_period: int = 1,
    ):
        self._results: dict[frozenset, Result] = {}
        self._models: dict[frozenset, Model] = {}
        # UNSAT sets live behind an inverted index: id -> set (FIFO by
        # insertion id), set -> id for dedup/refresh, and condition
        # term -> ids of the sets containing it, so subsumption lookup
        # touches only candidate sets sharing a conjunct with the query
        # instead of scanning the whole window.
        self._unsat_sets: dict[int, frozenset] = {}
        self._unsat_ids: dict[frozenset, int] = {}
        self._unsat_index: dict[Term, set[int]] = {}
        self._unsat_seq = 0
        self._max_unsat_sets = max_unsat_sets
        self._max_entries = max_entries
        #: Integrity digests: per memo key and per UNSAT-set id.
        self._digests: dict[frozenset, bytes] = {}
        self._unsat_digests: dict[int, bytes] = {}
        self._verify_period = max(0, verify_period)
        self._verify_tick = 0
        self._corruptor = None
        self._store_seq = 0
        #: Optional persistent tier (:class:`repro.core.store.ArtifactStore`);
        #: attached by the drivers under ``--store``, never constructed here.
        self.store = None
        self.hits = 0
        self.exact_hits = 0
        self.subsumption_hits = 0
        self.misses = 0
        self.evictions = 0
        self.integrity_checks = 0
        self.quarantines = 0
        self.corruptions = 0

    def __len__(self) -> int:
        return len(self._results)

    def tighten(self, factor: int = 2) -> None:
        """Shrink every capacity by ``factor`` (memory-governor rung).

        Sound by the same argument as ordinary eviction: the cache is a
        pure memo, so a dropped entry costs a re-solve, never an answer.
        Floors keep the cache functional under repeated tightening —
        the governor may call this on every pressure sample.
        """
        self._max_entries = max(64, self._max_entries // factor)
        self._max_unsat_sets = max(16, self._max_unsat_sets // factor)
        while len(self._results) > self._max_entries:
            oldest = next(iter(self._results))
            del self._results[oldest]
            self._models.pop(oldest, None)
            self._digests.pop(oldest, None)
            self.evictions += 1
        while len(self._unsat_sets) > self._max_unsat_sets:
            self._drop_unsat_set(next(iter(self._unsat_sets)))

    # -- integrity ------------------------------------------------------

    def set_corruptor(self, hook) -> None:
        """Install a deterministic poisoning predicate (fault injection).

        ``hook(kind, ordinal) -> bool`` with ``kind`` either ``"model"``
        (a stored SAT witness) or ``"core"`` (an UNSAT conjunct set); a
        True answer mutates the freshly stored entry *after* its digest
        was taken, so the poison is detectable on the next verified hit.
        ``None`` uninstalls.  See
        :meth:`repro.core.faults.FaultPlan.corruptor`.
        """
        self._corruptor = hook

    def attach_store(self, store) -> None:
        """Attach the persistent artifact tier (``--store DIR``).

        The store answers only after every in-memory tier missed; its
        verified answers are *admitted* into the in-memory structures
        (memo, models, UNSAT subsumption window) so one disk read warms
        all subsequent in-process lookups.  Freshly solved verdicts are
        written through (see :meth:`store_sat` / :meth:`store_unsat`).
        ``None`` detaches.
        """
        self.store = store

    @staticmethod
    def _values_digest(tag: str, values) -> bytes:
        """Digest of a ``(term, int)`` assignment (or an empty one).

        Content-keyed via :func:`repro.smt.digest.term_digest` — not
        ``id(term)`` — so the digest taken when an entry was stored is
        still meaningful after a restart, which is what lets the
        persistent artifact store re-verify warmed entries with the
        exact scheme the in-memory tier uses.
        """
        hasher = hashlib.blake2b(tag.encode("ascii"), digest_size=16)
        pairs = sorted((term_digest(term), value) for term, value in values)
        for digest, value in pairs:
            hasher.update(b"%d:%d;" % (digest, value))
        return hasher.digest()

    @staticmethod
    def _set_digest(conds: frozenset) -> bytes:
        """Digest of an UNSAT conjunct set (content-keyed, like above)."""
        hasher = hashlib.blake2b(b"core", digest_size=16)
        for digest in sorted(term_digest(term) for term in conds):
            hasher.update(b"%d;" % digest)
        return hasher.digest()

    def _should_verify(self) -> bool:
        """Sampling gate: verify every ``verify_period``-th opportunity."""
        if self._verify_period <= 0:
            return False
        self._verify_tick += 1
        return self._verify_tick % self._verify_period == 0

    def _corrupt(self, kind: str) -> bool:
        """Fault seam: should the entry just stored be poisoned?"""
        if self._corruptor is None:
            return False
        self._store_seq += 1
        if self._corruptor(kind, self._store_seq):
            self.corruptions += 1
            return True
        return False

    @staticmethod
    def _poison_values(values: dict) -> None:
        """Flip one bit of one binding (deterministic victim: max id)."""
        if values:
            victim = max(values, key=id)
            values[victim] ^= 1

    def _verify_entry(self, key: frozenset, cached: Result) -> bool:
        """Digest-check a memo hit; quarantine and report False on rot."""
        digest = self._digests.get(key)
        if digest is None or not self._should_verify():
            return True
        self.integrity_checks += 1
        if cached is Result.SAT:
            model = self._models.get(key)
            expect = (
                self._values_digest("sat", model.items())
                if model is not None
                else None
            )
        else:
            expect = self._values_digest("unsat", ())
        if expect == digest:
            return True
        self.quarantines += 1
        del self._results[key]
        self._models.pop(key, None)
        del self._digests[key]
        return False

    def _verify_unsat_set(self, set_id: int) -> bool:
        """Digest-check one subsumption candidate; quarantine on rot."""
        digest = self._unsat_digests.get(set_id)
        if digest is None or not self._should_verify():
            return True
        self.integrity_checks += 1
        if self._set_digest(self._unsat_sets[set_id]) == digest:
            return True
        self.quarantines += 1
        self._drop_unsat_set(set_id)
        return False

    # -- UNSAT-set index -----------------------------------------------

    def _register_unsat_set(self, conds: frozenset) -> None:
        """Admit one UNSAT conjunct set to the subsumption window."""
        if not conds:
            return  # an empty set would subsume everything; never sound here
        existing = self._unsat_ids.get(conds)
        if existing is not None:
            self._drop_unsat_set(existing)  # refresh recency
        while len(self._unsat_sets) >= self._max_unsat_sets:
            self._drop_unsat_set(next(iter(self._unsat_sets)))
        set_id = self._unsat_seq
        self._unsat_seq += 1
        self._unsat_sets[set_id] = conds
        self._unsat_ids[conds] = set_id
        index = self._unsat_index
        for term in conds:
            postings = index.get(term)
            if postings is None:
                postings = index[term] = set()
            postings.add(set_id)
        self._unsat_digests[set_id] = self._set_digest(conds)
        if len(conds) > 1 and self._corrupt("core"):
            # Poison: silently shrink the stored set (an unsound
            # strengthening — it would subsume queries it must not).
            # The digest above still describes the honest set, so the
            # next verified subsumption hit quarantines this id.
            poisoned = frozenset(sorted(conds, key=id)[:-1])
            self._unsat_sets[set_id] = poisoned
            if self._unsat_ids.get(conds) == set_id:
                del self._unsat_ids[conds]

    def _drop_unsat_set(self, set_id: int) -> None:
        """Evict one UNSAT set, scrubbing its inverted-index postings.

        Defensive against poisoned state: the stored set may have been
        mutated after indexing, so postings for vanished terms are left
        to the ``.get`` guard in :meth:`_find_subsuming_unsat`.
        """
        conds = self._unsat_sets.pop(set_id, None)
        self._unsat_digests.pop(set_id, None)
        if conds is None:
            return
        if self._unsat_ids.get(conds) == set_id:
            del self._unsat_ids[conds]
        index = self._unsat_index
        for term in conds:
            postings = index.get(term)
            if postings is not None:
                postings.discard(set_id)
                if not postings:
                    del index[term]

    def _find_subsuming_unsat(self, key: frozenset) -> Optional[int]:
        """Id of some cached UNSAT set that is a subset of ``key``.

        Walks the inverted index: a set ``S`` is a subset of ``key``
        exactly when every element of ``S`` posts an occurrence for one
        of ``key``'s terms, i.e. when its posting count reaches
        ``len(S)``.
        """
        if not self._unsat_sets:
            return None
        index = self._unsat_index
        sets = self._unsat_sets
        counts: dict[int, int] = {}
        for term in key:
            postings = index.get(term)
            if not postings:
                continue
            for set_id in postings:
                conds = sets.get(set_id)
                if conds is None:
                    continue  # stale posting from a quarantined set
                seen = counts.get(set_id, 0) + 1
                if seen == len(conds):
                    return set_id
                counts[set_id] = seen
        return None

    # -- lookup --------------------------------------------------------

    def lookup(
        self, key: frozenset, conditions: list[Term]
    ) -> tuple[Optional[Result], Optional["Model"]]:
        """Try to answer ``conditions`` (canonicalized as ``key``)."""
        cached = self._results.get(key)
        if cached is not None and self._verify_entry(key, cached):
            # Every SAT entry carries its witness (see store_sat).
            self.hits += 1
            self.exact_hits += 1
            self._touch(key)
            return cached, self._models.get(key)
        # A quarantined entry reads as absent: the remaining tiers (or
        # a fresh solve) re-derive the answer.
        while True:
            set_id = self._find_subsuming_unsat(key)
            if set_id is None:
                break
            if not self._verify_unsat_set(set_id):
                continue  # quarantined; another set may still subsume
            self.hits += 1
            self.subsumption_hits += 1
            self._evict_if_full()
            self._results[key] = Result.UNSAT
            self._digests[key] = self._values_digest("unsat", ())
            return Result.UNSAT, None
        if self.store is not None:
            warm = self.store.load_query(key, conditions)
            if warm is not None:
                # Verified on disk (digest + semantic re-check, see
                # ArtifactStore.load_query); admit into the in-memory
                # tiers and count as a cache hit so query attribution
                # is conserved between cold and warm runs.
                verdict, model, core = warm
                self.hits += 1
                self._evict_if_full()
                self._results[key] = verdict
                if verdict is Result.SAT:
                    self._models[key] = model
                    self._digests[key] = self._values_digest("sat", model.items())
                    return verdict, model
                self._digests[key] = self._values_digest("unsat", ())
                self._register_unsat_set(core if core is not None else key)
                return verdict, None
        self.misses += 1
        return None, None

    def _touch(self, key: frozenset) -> None:
        """Move ``key`` to the recently-used end of the memo (LRU)."""
        self._results[key] = self._results.pop(key)

    # -- store ---------------------------------------------------------

    def _evict_if_full(self) -> None:
        """LRU-evict the memo when it reaches the entry cap.

        ``lookup`` hits re-insert their key at the dict's tail (dicts
        iterate in insertion order), so the head is always the least
        *recently used* entry, not merely the oldest insertion, so
        entries that keep answering outlive one-off deep-path entries.
        """
        if len(self._results) < self._max_entries:
            return
        oldest = next(iter(self._results))
        del self._results[oldest]
        self._models.pop(oldest, None)
        self._digests.pop(oldest, None)
        self.evictions += 1

    def store_unsat(self, key: frozenset, core: Optional[frozenset] = None) -> None:
        """Record an UNSAT answer for ``key``.

        ``core`` — when the solver attributed the conflict to a subset
        of the conjuncts — is what enters the subsumption window: the
        smaller the set, the more future supersets it answers.  The
        exact-hit memo still records the full ``key``.
        """
        self._evict_if_full()
        self._results[key] = Result.UNSAT
        self._digests[key] = self._values_digest("unsat", ())
        if self.store is not None:
            self.store.save_query(key, Result.UNSAT, core=core)
        self._register_unsat_set(core if core is not None else key)

    def store_sat(self, key: frozenset, model: "Model") -> None:
        self._evict_if_full()
        self._results[key] = Result.SAT
        self._models[key] = model
        self._digests[key] = self._values_digest("sat", model.items())
        if self.store is not None:
            # Write-through before the fault seam below: the disk copy
            # always holds the honest, freshly solved content.
            self.store.save_query(key, Result.SAT, model=model)
        if self._corrupt("model"):
            self._poison_values(model._values)

    @property
    def statistics(self) -> Mapping[str, int]:
        return {
            "entries": len(self._results),
            "unsat_sets": len(self._unsat_sets),
            "hits": self.hits,
            "exact_hits": self.exact_hits,
            "subsumption_hits": self.subsumption_hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "integrity_checks": self.integrity_checks,
            "quarantines": self.quarantines,
            "corruptions": self.corruptions,
        }


#: Counter keys of :attr:`CachingSolver.pipeline_stats`, in report order.
PIPELINE_COUNTERS = (
    "queries",
    "fast_path_queries",
    "unsat_cores",
    "core_conjuncts_dropped",
    "unknown_queries",
)


class CachingSolver(Solver):
    """:class:`Solver` with the cross-path :class:`QueryCache` in front.

    ``check`` deduplicates the query's conjuncts, asks the cache (exact
    key, UNSAT-core subsumption, then the persistent store tier) and on
    a miss runs one plain :meth:`Solver.check` of the whole query.  A
    SAT answer is cached as the model restricted to the query's free
    variables, and :meth:`model` returns exactly that restriction, so a
    cold run and a warm run served from the store derive identical
    inputs.  An UNSAT answer enters the cache with the solver's minimal
    UNSAT core (DRAT-checked under ``--certify``), which is what lets
    it answer later supersets.

    Only assumption-style queries against an otherwise empty solver are
    cached — the explorer's exact usage pattern.  As soon as ``add`` or
    ``push`` introduces persistent state the cache is bypassed, because
    the key would no longer capture the full formula.  Cache answers do
    not bump ``num_checks`` / ``num_solves`` (no CDCL search ran):
    exploration statistics key off those counters to keep "solved",
    "cached" and "fast-path" query counts separate.
    """

    def __init__(
        self,
        cache: Optional[QueryCache] = None,
        solver_config: Optional[SolverConfig] = None,
    ):
        super().__init__(**asdict(solver_config or SolverConfig()))
        self.cache = cache if cache is not None else QueryCache()
        self._tainted = False
        #: The restricted model of the last cached or freshly cached
        #: SAT answer; None when ``model()`` must ask the SAT core.
        self._answer: Optional[Model] = None
        self.pipeline_stats: dict[str, int] = dict.fromkeys(PIPELINE_COUNTERS, 0)

    @property
    def cache_hits(self) -> int:
        return self.cache.hits

    @property
    def cache_misses(self) -> int:
        return self.cache.misses

    @property
    def pipeline_statistics(self) -> Mapping[str, int]:
        """The solver counters plus the cache and query counters."""
        stats = {f"cache_{k}": v for k, v in self.cache.statistics.items()}
        stats.update(self.pipeline_stats)
        stats.update(super().pipeline_statistics)
        if self.cache.store is not None:
            # Persistent-tier counters ride along unprefixed (they are
            # already namespaced ``store_*``) and sum across workers.
            stats.update(self.cache.store.statistics)
        return stats

    def add(self, term: Term) -> None:
        self._tainted = True
        super().add(term)

    def check(self, assumptions: Iterable[Term] = ()) -> Result:
        conditions = list(assumptions)
        self._answer = None
        if self._tainted or self._scopes:
            return super().check(conditions)
        key_terms = []
        seen: set = set()
        for term in conditions:
            if term.is_const:
                if not term.payload:
                    # Constant-false conjunct: same fast path as the
                    # base solver, not worth a cache entry.
                    return super().check(conditions)
            elif term not in seen:
                seen.add(term)
                key_terms.append(term)

        stats = self.pipeline_stats
        stats["queries"] += 1
        key = frozenset(key_terms)
        verdict, model = self.cache.lookup(key, key_terms)
        if verdict is not None:
            self._last_result = verdict
            self._answer = model
            return verdict

        solves_before = self.num_solves
        verdict = super().check(key_terms)
        if verdict is Result.UNKNOWN:
            # Budget exhausted: no model, no core — nothing is sound to
            # cache, and the caller must not flip on this answer.
            stats["unknown_queries"] += 1
        elif verdict is Result.UNSAT:
            core = self.last_core
            if core is not None and len(core) < len(key):
                stats["unsat_cores"] += 1
                stats["core_conjuncts_dropped"] += len(key) - len(core)
            self.cache.store_unsat(key, core)
        else:
            values: dict[Term, int] = {}
            for term in key_terms:
                for var in term.free_vars():
                    if var not in values:
                        value = self.value_of(var)
                        values[var] = value if value is not None else 0
            # Two Model objects: the fault seam may poison the cached one.
            self.cache.store_sat(key, Model(values))
            self._answer = Model(values)
        if self.num_solves == solves_before:
            stats["fast_path_queries"] += 1
        return verdict

    def model(self) -> Model:
        if self._answer is not None:
            return self._answer
        return super().model()


def is_satisfiable(term: Term) -> bool:
    """One-shot satisfiability check for a single boolean term."""
    solver = Solver()
    solver.add(term)
    return solver.check() is Result.SAT


def solve_for_model(term: Term) -> Optional[Model]:
    """One-shot solve: return a model of ``term`` or None if unsat."""
    solver = Solver()
    solver.add(term)
    if solver.check() is Result.SAT:
        return solver.model()
    return None
