"""Restart-stable structural digests of interned terms.

Interned terms hash by *identity*: O(1) within one process, but
meaningless across processes and across restarts.  Everything that
needs to recognize "the same term" on the other side of a fork, a
checkpoint reload or a ``--store`` warm start goes through the digests
here instead — one content-hash scheme for the whole stack:

* flip-query dedup in :mod:`repro.core.scheduler` (``query_digest``
  values persisted by :mod:`repro.core.checkpoint` and replayed into a
  fresh process on ``--resume``),
* the :class:`repro.smt.solver.QueryCache` integrity digests
  (``_values_digest`` / ``_set_digest``), so a cache entry's digest
  survives a restart and the persistent artifact store can re-verify
  it,
* the content-addressed keys of :class:`repro.core.store.ArtifactStore`
  (``store_key``), so a key computed in run N+1 finds run N's entry.

The scheme is deliberately independent of the interpreter's randomized
string hash seed: blake2b for strings, a fixed splitmix64 mixer for
structure.  ``term_digest`` is memoized per process in a bounded
true-LRU dict (reinsertion order = recency), keyed by the term object
itself (identity hash) rather than ``id()`` so a term can never alias
a stale entry after an interner reset.
"""

from __future__ import annotations

import hashlib

__all__ = [
    "term_digest",
    "query_digest",
    "extend_query_digest",
    "store_key",
    "DIGEST_MEMO_CAPACITY",
]

_DIGEST_MEMO: dict = {}

_MASK64 = (1 << 64) - 1

#: Per-process memo of string digests (variable names, opcodes recur).
_STRING_DIGESTS: dict[str, int] = {}


def _mix64(value: int) -> int:
    """splitmix64 finalizer: a fixed, seed-free 64-bit bijection."""
    value &= _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def _string_digest(text: str) -> int:
    cached = _STRING_DIGESTS.get(text)
    if cached is None:
        cached = int.from_bytes(
            hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest(), "little"
        )
        _STRING_DIGESTS[text] = cached
    return cached


def _payload_digest(payload) -> int:
    """Restart-stable digest of a term's payload (name/const/indices)."""
    if payload is None:
        return 0x9E3779B97F4A7C15
    if isinstance(payload, str):
        return _string_digest(payload)
    if isinstance(payload, int):  # bools included
        return _mix64(payload ^ 0x632BE59BD9B4E019)
    if isinstance(payload, tuple):
        digest = 0x1F83D9ABFB41BD6B
        for part in payload:
            digest = _mix64(digest ^ _payload_digest(part))
        return digest
    return _string_digest(repr(payload))  # pragma: no cover - defensive


#: Backstop for the digest memo, matching the decoder/plan caches.
DIGEST_MEMO_CAPACITY = 1 << 17


def term_digest(term) -> int:
    """Restart-stable structural hash of a term DAG.

    Depends only on (op, width, payload, children) and never on the
    interpreter's randomized hash seed, so it agrees across forked
    workers *and* across separate invocations — the property checkpoint
    resume and the persistent store rely on to recognize work a
    previous process already did.
    """
    memo = _DIGEST_MEMO
    cached = memo.get(term)
    if cached is not None:
        # Move-to-end keeps insertion order = recency order, so the
        # eviction below always removes the least recently used digest.
        del memo[term]
        memo[term] = cached
        return cached
    stack = [(term, False)]
    while stack:
        node, ready = stack.pop()
        if node in memo:
            continue
        if not ready:
            stack.append((node, True))
            for arg in node.args:
                if arg not in memo:
                    stack.append((arg, False))
            continue
        digest = _string_digest(node.op)
        digest = _mix64(digest ^ _payload_digest(node.width))
        digest = _mix64(digest ^ _payload_digest(node.payload))
        for arg in node.args:
            digest = _mix64(digest ^ memo[arg])
        memo[node] = digest
    digest = memo[term]
    # Trim after the traversal, not during it: evicting mid-walk could
    # drop a subterm digest a pending parent still needs.  Oldest-first
    # eviction never touches the entries this call just inserted until
    # everything older is gone.
    while len(memo) > DIGEST_MEMO_CAPACITY:
        del memo[next(iter(memo))]
    return digest


def query_digest(conditions) -> int:
    """Order-sensitive digest of a full flip query (prefix + negation)."""
    digest = 0x2545F4914F6CDD1D
    for term in conditions:
        digest = extend_query_digest(digest, term)
    return digest


def extend_query_digest(digest: int, term) -> int:
    """One step of :func:`query_digest`'s left fold.

    ``extend_query_digest(query_digest(q), t) == query_digest(q + [t])``,
    so the flip queries along one run, which share their prefixes, are
    digested in one pass over the run.
    """
    digest = _mix64(digest ^ term_digest(term))
    return _mix64(digest + 0xD1B54A32D192ED03)


def store_key(conditions) -> str:
    """Order-*independent* content key of a condition set, as hex text.

    This is the persistent store's file name for a query-cache entry:
    the sorted term digests of the conjuncts folded through blake2b, so
    permuted and duplicated conjuncts key identically (matching the
    ``frozenset`` canonicalization of in-memory cache keys) and the key
    a warm run computes matches the one the cold run filed under.
    """
    hasher = hashlib.blake2b(b"store-key:", digest_size=16)
    for digest in sorted({term_digest(term) for term in conditions}):
        hasher.update(digest.to_bytes(8, "little"))
    return hasher.hexdigest()
