"""Crash-safe persistent cross-run artifact store (``--store DIR``).

The on-disk tier behind :class:`repro.smt.solver.QueryCache` and
:mod:`repro.core.certificates`: query verdicts (SAT models, minimal
UNSAT cores) and per-path certificates survive the process, so a second
campaign over the same SUT — or a concurrent campaign sharing the
directory — pays only for what changed.  The design premise is that a
disk cache able to serve a stale, torn or poisoned entry is worse than
no cache, so the contract is verification-first:

* **content-addressed, restart-stable keys** —
  :func:`repro.smt.digest.store_key` over the conjunct set's structural
  term digests, so a key computed in run N+1 finds run N's entry;
* **crash-safe writes** — ``O_EXCL`` tmp + flush + fsync +
  ``os.replace`` (the :mod:`repro.core.checkpoint` pattern), one writer
  per process with pid-unique tmp names, so concurrent campaigns never
  torn-read each other and a kill mid-write leaves either the old file
  or the new one, never a hybrid;
* **verify-on-read** — every file carries a format-version header and
  a blake2b digest over its canonical JSON; SAT models are additionally
  re-evaluated against the querying conditions and UNSAT cores must
  re-intern to a subset of the query (optionally re-derived through the
  proof-logging solver + DRAT checker under ``--certify``).  Any
  failure **quarantines** the file (renamed ``*.quarantined``, counted
  in ``store_quarantines``) and falls through to a fresh solve;
* **fail-soft I/O** — ``OSError``/``ENOSPC`` on any store operation
  disables the tier for the rest of the run (``store_disabled``,
  logged once to stderr), never failing the campaign; a version-skewed
  file is rejected explicitly (``store_skews``) and left in place for
  the build that understands it.

Fault injection (``torn=`` truncates a file after the atomic rename,
``iofail=`` raises ``OSError`` at an I/O site, ``corrupt=`` bit-flips
the serialized state after its digest is taken) goes through the same
seams the chaos gate (``tools/chaos_check.py --store``) uses to prove
all of the above; ``tools/store_fsck.py`` scans, repairs and GCs a
store offline with the same validators.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Optional

from ..smt import terms as T
from ..smt.digest import store_key, term_digest
from ..smt.evalbv import EvalError, evaluate
from ..smt.solver import Model, Result, Solver

__all__ = [
    "ArtifactStore",
    "FORMAT_VERSION",
    "validate_query_state",
    "validate_certificate_state",
    "read_wrapper",
    "state_digest",
]

#: Rejecting version skew explicitly beats misparsing a future layout.
FORMAT_VERSION = 1

_KEY_HEX = 32  # blake2b digest_size=16 as hex


def state_digest(state: dict) -> str:
    """Digest of a file's state block (checkpoint.py's canonical form)."""
    encoded = json.dumps(state, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(encoded.encode("utf-8"), digest_size=16).hexdigest()


def read_wrapper(path: str) -> dict:
    """Parse and digest-check one store file; ``ValueError`` on any rot."""
    with open(path, "r", encoding="utf-8") as handle:
        raw = handle.read()
    try:
        wrapper = json.loads(raw)
    except ValueError:
        raise ValueError("not valid JSON (torn or corrupt write)") from None
    if not isinstance(wrapper, dict):
        raise ValueError("wrapper is not an object")
    state = wrapper.get("state")
    digest = wrapper.get("digest")
    if not isinstance(state, dict) or not isinstance(digest, str):
        raise ValueError("wrapper missing state/digest")
    if state_digest(state) != digest:
        raise ValueError("state digest mismatch (bit rot or tampering)")
    return state


def _check_version(state: dict) -> None:
    """Raise the dedicated skew signal for a wrong format version."""
    version = state.get("version")
    if version != FORMAT_VERSION:
        raise _VersionSkew(f"format version {version!r} != {FORMAT_VERSION}")


class _VersionSkew(Exception):
    """A structurally sound file written by a different format version."""


def validate_query_state(state: dict, name: Optional[str] = None) -> dict:
    """Structural validation of a query entry's state block.

    Everything checkable without the querying conditions: version,
    kind, key shape (and match against the file name when given),
    verdict enum, model binding shapes, core table round trip and core
    digest agreement.  Returns the parsed payload pieces for the
    caller (``{"verdict", "model", "core"}``); raises ``ValueError``
    on malformed content and :class:`_VersionSkew` on version skew.
    """
    _check_version(state)
    if state.get("kind") != "query":
        raise ValueError(f"unexpected kind {state.get('kind')!r}")
    key = state.get("key")
    if not (isinstance(key, str) and len(key) == _KEY_HEX):
        raise ValueError("malformed key field")
    if name is not None and key != name:
        raise ValueError(f"key field {key} does not match file name {name}")
    verdict = state.get("verdict")
    if verdict not in ("sat", "unsat"):
        raise ValueError(f"unknown verdict {verdict!r}")
    model = state.get("model")
    core = None
    if verdict == "sat":
        if not isinstance(model, list):
            raise ValueError("sat entry without model bindings")
        for binding in model:
            if not (
                isinstance(binding, list)
                and len(binding) == 3
                and isinstance(binding[0], str)
                and isinstance(binding[1], int)
                and binding[1] >= 0
                and isinstance(binding[2], int)
            ):
                raise ValueError(f"malformed model binding {binding!r}")
    else:
        terms = T.deserialize_terms(state.get("core"))  # ValueError on rot
        if not terms:
            raise ValueError("empty UNSAT core (would subsume everything)")
        core = frozenset(terms)
        digests = state.get("core_digests")
        if not isinstance(digests, list) or sorted(digests) != sorted(
            term_digest(term) for term in core
        ):
            raise ValueError("core digests disagree with core terms")
    return {"verdict": verdict, "model": model, "core": core}


def validate_certificate_state(state: dict) -> dict:
    """Structural validation of a certificate entry; returns the cert."""
    _check_version(state)
    if state.get("kind") != "cert":
        raise ValueError(f"unexpected kind {state.get('kind')!r}")
    from .certificates import certificate_from_state

    cert_state = state.get("cert")
    if not isinstance(cert_state, dict):
        raise ValueError("missing cert payload")
    certificate_from_state(cert_state)  # ValueError on malformed fields
    return cert_state


class ArtifactStore:
    """One process's handle on a shared persistent artifact directory.

    Layout::

        DIR/
          queries/<key>.json          one verdict per content-addressed key
          certs/<digest>.json         per-path certificates (certify runs)
          *.quarantined               failed verification, renamed aside
          *.tmp.<pid>.<seq>           in-flight writes (GC'd by store_fsck)

    Reads open per-call handles (fork-safe: a worker inherits only the
    directory path); writes are single-writer-per-process by pid-unique
    ``O_EXCL`` tmp names.  Every public method is total: failures turn
    into counted misses / quarantines / tier disablement, never into
    exceptions reaching the exploration driver.
    """

    def __init__(self, root: str, certify: bool = False):
        self.root = root
        self.certify = certify
        self.hits = 0
        self.stores = 0
        self.quarantines = 0
        self.skews = 0
        self.disabled = False
        self._skew_logged = False
        self._fault_hook = None  # hook(op, ordinal) -> "torn"|"iofail"|None
        self._corruptor = None  # hook(kind, ordinal) -> bool
        self._ordinals = {"read": 0, "write": 0, "corrupt": 0}
        self._seq = 0
        try:
            os.makedirs(self._queries_dir, exist_ok=True)
            os.makedirs(self._certs_dir, exist_ok=True)
        except OSError as exc:
            self._disable(exc)

    # -- wiring --------------------------------------------------------

    @property
    def _queries_dir(self) -> str:
        return os.path.join(self.root, "queries")

    @property
    def _certs_dir(self) -> str:
        return os.path.join(self.root, "certs")

    def set_fault_hook(self, hook) -> None:
        """Install the ``torn=``/``iofail=`` schedule (chaos testing).

        ``hook(op, ordinal) -> "torn" | "iofail" | None`` with ``op``
        one of ``"read"``/``"write"``; ``"iofail"`` raises ``OSError``
        at that I/O site (tier disables, run continues), ``"torn"``
        truncates the just-renamed file (the *next* run must detect and
        quarantine it).  ``None`` uninstalls.
        """
        self._fault_hook = hook

    def set_corruptor(self, hook) -> None:
        """Install the ``corrupt=`` poisoning predicate.

        Same shape as :meth:`repro.smt.solver.QueryCache.set_corruptor`:
        ``hook(kind, ordinal) -> bool`` with kind ``"store"``; a True
        answer bit-flips the serialized state *after* its digest is
        taken, so the poison is detectable on the next verified read.
        """
        self._corruptor = hook

    @property
    def statistics(self) -> dict:
        """Flat counters, exactly summable across workers."""
        return {
            "store_hits": self.hits,
            "store_stores": self.stores,
            "store_quarantines": self.quarantines,
            "store_skews": self.skews,
            "store_disabled": int(self.disabled),
        }

    # -- failure policy ------------------------------------------------

    def _disable(self, exc: BaseException) -> None:
        """Fail-soft: drop the tier for the rest of the run, log once."""
        if not self.disabled:
            self.disabled = True
            print(
                f"store: disabled for this run after I/O failure: {exc}",
                file=sys.stderr,
            )

    def _fault(self, op: str) -> Optional[str]:
        if self._fault_hook is None:
            return None
        ordinal = self._ordinals[op]
        self._ordinals[op] = ordinal + 1
        verdict = self._fault_hook(op, ordinal)
        if verdict == "iofail":
            raise OSError(f"injected store I/O failure ({op} #{ordinal})")
        return verdict

    def _quarantine(self, path: str) -> None:
        """Rename a failed-verification file aside; never serve it again."""
        self.quarantines += 1
        try:
            os.replace(path, path + ".quarantined")
        except OSError as exc:
            self._disable(exc)

    def _skew(self, path: str) -> None:
        """Explicit version-skew rejection: counted, file left in place."""
        self.skews += 1
        if not self._skew_logged:
            self._skew_logged = True
            print(
                f"store: ignoring entries with foreign format version "
                f"(first: {path})",
                file=sys.stderr,
            )

    # -- crash-safe writes ---------------------------------------------

    def _write_file(self, path: str) -> bool:
        """Should a write to ``path`` proceed? (dedup: first writer wins)"""
        return not os.path.exists(path)

    def _atomic_write(self, path: str, state: dict) -> bool:
        """tmp + fsync + rename; True when the entry landed on disk."""
        digest = state_digest(state)
        encoded = json.dumps(state, sort_keys=True, separators=(",", ":"))
        if self._corruptor is not None:
            ordinal = self._ordinals["corrupt"]
            self._ordinals["corrupt"] = ordinal + 1
            if self._corruptor("store", ordinal):
                # Poison *after* the digest: flip the last digit-ish
                # byte of the state so verify-on-read must trip.
                encoded = encoded[:-2] + ("0" if encoded[-2] != "0" else "1") + encoded[-1]
        body = '{"digest": %s, "state": %s}' % (json.dumps(digest), encoded)
        tmp = f"{path}.tmp.{os.getpid()}.{self._seq}"
        self._seq += 1
        torn = None
        try:
            torn = self._fault("write")
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(body)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except OSError as exc:
            self._disable(exc)
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return False
        if torn == "torn":
            # Simulated barrier-less power cut: the rename landed but
            # half the payload did not.  Verify-on-read must catch it.
            try:
                os.truncate(path, max(1, len(body) // 2))
            except OSError as exc:
                self._disable(exc)
        return True

    # -- query verdicts ------------------------------------------------

    def save_query(
        self,
        key: frozenset,
        verdict: Result,
        model: Optional[Model] = None,
        core: Optional[frozenset] = None,
    ) -> None:
        """Write-through one freshly solved verdict (fire and forget)."""
        if self.disabled or verdict not in (Result.SAT, Result.UNSAT):
            return
        name = store_key(key)
        path = os.path.join(self._queries_dir, name + ".json")
        try:
            if not self._write_file(path):
                return
        except OSError as exc:
            self._disable(exc)
            return
        state: dict = {
            "version": FORMAT_VERSION,
            "kind": "query",
            "key": name,
            "verdict": verdict.value,
            "model": None,
            "core": None,
            "core_digests": None,
            "certified": bool(self.certify),
        }
        if verdict is Result.SAT:
            if model is None:
                return
            state["model"] = sorted(
                [var.payload, var.width, value] for var, value in model.items()
            )
        else:
            core_terms = sorted(core if core is not None else key, key=term_digest)
            if not core_terms:
                return
            state["core"] = T.serialize_terms(core_terms)
            state["core_digests"] = [term_digest(term) for term in core_terms]
        if self._atomic_write(path, state):
            self.stores += 1

    def load_query(self, key: frozenset, conditions):
        """Verified warm lookup: ``(Result, model, core)`` or ``None``.

        Every returned answer passed the full trust chain for its kind;
        any failure quarantined the file (or rejected the skew) and
        reads as a miss, so the caller falls through to a fresh solve.
        """
        if self.disabled:
            return None
        name = store_key(key)
        path = os.path.join(self._queries_dir, name + ".json")
        try:
            self._fault("read")
            state = read_wrapper(path)
        except FileNotFoundError:
            return None
        except OSError as exc:
            self._disable(exc)
            return None
        except ValueError:
            self._quarantine(path)
            return None
        try:
            parsed = validate_query_state(state, name)
        except _VersionSkew:
            self._skew(path)
            return None
        except ValueError:
            self._quarantine(path)
            return None
        if parsed["verdict"] == "sat":
            witness = self._verify_sat(parsed["model"], key, conditions)
            if witness is None:
                self._quarantine(path)
                return None
            self.hits += 1
            return Result.SAT, witness, None
        core = parsed["core"]
        if not self._verify_unsat(core, key):
            self._quarantine(path)
            return None
        self.hits += 1
        return Result.UNSAT, None, core

    @staticmethod
    def _verify_sat(bindings, key: frozenset, conditions) -> Optional[Model]:
        """Semantic check: the stored model must satisfy the query.

        The witness is completed with zeros and restricted to the
        query's own variables (exactly the model a fresh solve caches),
        so stale foreign bindings can never leak into a derived input.
        """
        values = {}
        for name, width, value in bindings:
            var = T.bv_var(name, width) if width else T.bool_var(name)
            values[var] = value
        variables: set = set()
        for term in key:
            variables |= term.free_vars()
        completed = {var: values.get(var, 0) for var in variables}
        try:
            if all(evaluate(term, completed) for term in conditions):
                return Model(completed)
        except EvalError:
            pass
        return None

    def _verify_unsat(self, core: frozenset, key: frozenset) -> bool:
        """The stored core must be a subset of the query it answers.

        Subset holds by *interned identity* — the deserialized terms
        re-interned onto this process's live terms — so a core that
        passes is made of exactly the query's own conjuncts; its UNSAT
        claim is then re-derived through the proof-logging solver and
        the DRAT checker when ``--certify`` asked for evidence.
        """
        if not core <= key:
            return False
        if self.certify:
            checker = Solver(certify=True)
            if checker.check(sorted(core, key=term_digest)) is not Result.UNSAT:
                return False
        return True

    # -- certificates --------------------------------------------------

    def save_certificate(self, cert_state: dict) -> None:
        """Persist one path certificate (content-addressed, idempotent)."""
        if self.disabled:
            return
        state = {"version": FORMAT_VERSION, "kind": "cert", "cert": cert_state}
        name = state_digest({"cert": cert_state})
        path = os.path.join(self._certs_dir, name + ".json")
        try:
            if not self._write_file(path):
                return
        except OSError as exc:
            self._disable(exc)
            return
        if self._atomic_write(path, state):
            self.stores += 1

    def load_certificates(self) -> list:
        """All verified certificate payloads (fsck/service consumers)."""
        out = []
        if self.disabled:
            return out
        try:
            names = sorted(os.listdir(self._certs_dir))
        except OSError as exc:
            self._disable(exc)
            return out
        for name in names:
            if not name.endswith(".json"):
                continue
            path = os.path.join(self._certs_dir, name)
            try:
                self._fault("read")
                state = read_wrapper(path)
                out.append(validate_certificate_state(state))
            except _VersionSkew:
                self._skew(path)
            except ValueError:
                self._quarantine(path)
            except OSError as exc:
                self._disable(exc)
                return out
        return out
