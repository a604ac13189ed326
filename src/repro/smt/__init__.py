"""SMT substrate: QF_BV terms, bit-blasting, CDCL SAT, solver facade.

This package replaces Z3 (which the original BinSym uses) with a
self-contained pure-Python decision procedure for the quantifier-free
bitvector theory:

* :mod:`repro.smt.terms` — hash-consed term DAG with simplifying
  constructors,
* :mod:`repro.smt.sat` — CDCL SAT solver,
* :mod:`repro.smt.bitblast` — Tseitin bit-blasting of terms to CNF,
* :mod:`repro.smt.drat` — independent RUP checker for the CDCL core's
  clause log (``--certify``),
* :mod:`repro.smt.solver` — incremental ``add``/``push``/``pop``/
  ``check``/``model`` facade used by every SE engine in the repo, plus
  the cross-path query cache that ``--store`` runs put in front of it,
* :mod:`repro.smt.smtlib` — SMT-LIB v2 printing (Fig. 2 reproduction),
* :mod:`repro.smt.evalbv` — reference evaluator used for model checking
  and property-based testing.
"""

from . import bvops, terms
from .evalbv import evaluate
from .solver import (
    CachingSolver,
    Model,
    QueryCache,
    Result,
    Solver,
    SolverConfig,
    is_satisfiable,
    solve_for_model,
)
from .smtlib import script, term_to_smtlib
from .terms import Term

__all__ = [
    "bvops",
    "terms",
    "Term",
    "Solver",
    "CachingSolver",
    "QueryCache",
    "SolverConfig",
    "Result",
    "Model",
    "evaluate",
    "is_satisfiable",
    "solve_for_model",
    "script",
    "term_to_smtlib",
]
