#!/usr/bin/env python3
"""Offline scan / repair / GC for a ``--store`` artifact directory.

The persistent store (:mod:`repro.core.store`) verifies every file it
reads at lookup time, but a long-lived shared store accumulates debris
the hot path never touches: entries poisoned after they were last read,
stumps of torn writes to keys no current campaign queries, stale tmp
files from killed writers, and the ``*.quarantined`` files past runs
renamed aside.  This tool walks the whole tree with the *same*
validators the hot path uses:

* **scan** (default) — classify every file: ``ok``, ``corrupt`` (bad
  JSON / digest mismatch / malformed payload / key-filename mismatch),
  ``skew`` (foreign format version, left alone), plus the counts of
  quarantined and stale tmp files.  Exit 1 when anything corrupt was
  found, so the scan doubles as a health gate.
* ``--repair`` — additionally rename corrupt files to
  ``*.quarantined`` (exactly what the hot path would do on first
  touch), after which a scan reports clean.
* ``--gc`` — delete ``*.quarantined`` and stale ``*.tmp.*`` files.
* ``--self-test`` — build a real store by exploring a tiny workload,
  then tamper one field at a time (version, key, verdict, model value,
  core node, wrapper digest, truncation; every field of a path
  certificate) and assert every tamper is detected by the scan *and*
  never served as a warm hit — proving the verification chain has no
  blind field.

Usage::

    python tools/store_fsck.py DIR [--repair] [--gc] [-v]
    python tools/store_fsck.py --self-test
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.store import (  # noqa: E402
    FORMAT_VERSION,
    read_wrapper,
    state_digest,
    validate_certificate_state,
    validate_query_state,
)


def classify(path: Path) -> tuple[str, str]:
    """(status, detail) for one store file, hot-path validators only.

    Status is ``ok``, ``corrupt`` or ``skew``; detail is the failure
    message for anything not ``ok``.
    """
    try:
        state = read_wrapper(str(path))
    except OSError as exc:
        return "corrupt", f"unreadable: {exc}"
    except ValueError as exc:
        return "corrupt", str(exc)
    version = state.get("version")
    if version != FORMAT_VERSION:
        return "skew", f"format version {version!r} != {FORMAT_VERSION}"
    kind = state.get("kind")
    try:
        if kind == "query":
            validate_query_state(state, path.stem)
        elif kind == "cert":
            validate_certificate_state(state)
        else:
            return "corrupt", f"unknown kind {kind!r}"
    except Exception as exc:  # _VersionSkew handled above; rest is rot
        return "corrupt", str(exc)
    return "ok", ""


def fsck(root: Path, repair: bool = False, gc: bool = False, verbose=print):
    """Walk one store tree; returns the classification counts."""
    counts = {"ok": 0, "corrupt": 0, "skew": 0, "quarantined": 0, "tmp": 0}
    for sub in ("queries", "certs"):
        directory = root / sub
        if not directory.is_dir():
            continue
        for path in sorted(directory.iterdir()):
            name = path.name
            if name.endswith(".quarantined"):
                counts["quarantined"] += 1
                if gc:
                    path.unlink(missing_ok=True)
                    verbose(f"gc: removed {path}")
                continue
            if ".tmp." in name:
                counts["tmp"] += 1
                if gc:
                    path.unlink(missing_ok=True)
                    verbose(f"gc: removed stale tmp {path}")
                continue
            if not name.endswith(".json"):
                continue
            status, detail = classify(path)
            counts[status] += 1
            if status == "corrupt":
                verbose(f"CORRUPT {path}: {detail}")
                if repair:
                    os.replace(path, str(path) + ".quarantined")
                    verbose(f"repair: quarantined {path.name}")
            elif status == "skew":
                verbose(f"skew    {path}: {detail} (left in place)")
    return counts


# ----------------------------------------------------------------------
# --self-test: field-by-field tamper detection
# ----------------------------------------------------------------------


def _build_real_store(root: Path) -> None:
    """Populate ``root`` by exploring a tiny workload with --store on."""
    from repro.core import Explorer
    from repro.eval.engines import make_engine
    from repro.eval.workloads import WORKLOADS
    from repro.smt.solver import SolverConfig
    from repro.spec import rv32im

    spec = WORKLOADS["base64-encode"]
    engine = make_engine("binsym", rv32im(), spec.image(1))
    result = Explorer(
        engine,
        use_cache=True,
        solver_config=SolverConfig(unsat_cores=True, certify=True),
        store_dir=str(root),
    ).explore()
    assert result.num_paths > 0, "self-test workload found no paths"
    assert result.certificate_failures == 0, "self-test replay failed"


def _rewrap(state: dict, fix_digest: bool) -> str:
    """Re-serialize a tampered state, optionally refreshing the digest.

    ``fix_digest=True`` simulates a *semantic* forgery (the attacker or
    the bit rot recomputed the wrapper digest), so only the deeper
    field validation can catch it; ``False`` leaves the stale digest in
    place for the digest check to trip on.
    """
    digest = state_digest(state) if fix_digest else "0" * 32
    return json.dumps({"digest": digest, "state": state})


def _tampers(state: dict):
    """Yield (label, fix_digest, mutate) cases for one query state."""
    yield "version bump", True, lambda s: s.__setitem__("version", 99)
    yield "kind swap", True, lambda s: s.__setitem__("kind", "mystery")
    yield "key mismatch", True, lambda s: s.__setitem__("key", "f" * 32)
    yield "stale wrapper digest", False, lambda s: s.__setitem__(
        "verdict", "unsat" if s["verdict"] == "sat" else "sat"
    )
    yield "verdict enum", True, lambda s: s.__setitem__("verdict", "maybe")
    if state["verdict"] == "sat":
        # A digest-refreshed model *value* flip is structurally valid —
        # only the hot path's semantic re-evaluation against the query
        # conditions can catch it; see the direct probes below.
        yield "model shape", True, lambda s: s.__setitem__("model", [[1, 2]])
    else:
        yield "core node op", True, lambda s: s["core"]["nodes"][-1].__setitem__(
            0, "mystery-op"
        )
        yield "core digest drop", True, lambda s: s["core_digests"].pop()
        yield "empty core", True, lambda s: (
            s["core"].__setitem__("roots", []),
            s.__setitem__("core_digests", []),
        )


def _cert_tampers():
    """Yield (label, mutate) digest-refreshed forgeries of one
    certificate state: each leaves the wrapper valid, so only the field
    validation can catch it."""
    yield "cert trace_length", lambda s: s["cert"].__setitem__("trace_length", "bad")
    yield "cert exit_code", lambda s: s["cert"].__setitem__("exit_code", "x")
    yield "cert halt_reason", lambda s: s["cert"].__setitem__("halt_reason", 5)
    yield "cert condition_digest", lambda s: s["cert"].__setitem__(
        "condition_digest", "zz"
    )
    yield "cert index bool", lambda s: s["cert"].__setitem__("index", True)
    yield "cert instret bool", lambda s: s["cert"].__setitem__("instret", False)
    yield "cert parent", lambda s: s["cert"].__setitem__("parent", -1)
    yield "cert divergence", lambda s: s["cert"].__setitem__("divergence", "3")
    yield "cert input width", lambda s: s["cert"]["inputs"][0].__setitem__(1, True)


def _cert_case_failures(root: Path) -> list:
    """The certificate half of the tamper matrix."""
    failures = []
    path = sorted((root / "certs").glob("*.json"))[0]
    pristine = path.read_text()
    base = read_wrapper(str(path))
    # A file written before certificates carried tree links.
    legacy = json.loads(json.dumps(base))
    legacy["cert"].pop("parent", None)
    legacy["cert"].pop("divergence", None)
    path.write_text(_rewrap(legacy, fix_digest=True))
    status, detail = classify(path)
    if status != "ok":
        failures.append(f"certificate without links: scan said {status!r} ({detail})")
    for label, mutate in _cert_tampers():
        tampered = json.loads(json.dumps(base))
        mutate(tampered)
        path.write_text(_rewrap(tampered, fix_digest=True))
        status, detail = classify(path)
        if status != "corrupt":
            failures.append(
                f"{label}: scan said {status!r} ({detail!r}), expected 'corrupt'"
            )
    # The hot path's loader quarantines what the scan flags.
    tampered = json.loads(json.dumps(base))
    tampered["cert"]["exit_code"] = "x"
    path.write_text(_rewrap(tampered, fix_digest=True))
    from repro.core.store import ArtifactStore

    store = ArtifactStore(str(root))
    before = len(list((root / "certs").glob("*.json")))
    loaded = store.load_certificates()
    if len(loaded) != before - 1 or store.quarantines != 1:
        failures.append("a forged certificate was served by load_certificates")
    quarantined = Path(str(path) + ".quarantined")
    if quarantined.exists():
        quarantined.unlink()
    path.write_text(pristine)
    return failures


def _hot_path_probes() -> list:
    """Semantic forgeries only load_query's re-checks can catch."""
    import shutil
    import tempfile

    from repro.core.store import ArtifactStore
    from repro.smt import terms as T
    from repro.smt.digest import store_key, term_digest
    from repro.smt.solver import Model, Result

    failures = []
    root = Path(tempfile.mkdtemp(prefix="store-fsck-probe-"))
    try:
        # SAT forgery: stored witness no longer satisfies the query.
        x = T.bv_var("fsck_x", 8)
        sat_conds = [T.eq(x, T.bv(3, 8))]
        sat_key = frozenset(sat_conds)
        store = ArtifactStore(str(root))
        store.save_query(sat_key, Result.SAT, model=Model({x: 3}))
        sat_file = root / "queries" / (store_key(sat_key) + ".json")
        state = read_wrapper(str(sat_file))
        state["model"][0][2] = 4  # x = 4 cannot satisfy x == 3
        sat_file.write_text(_rewrap(state, fix_digest=True))
        if classify(sat_file)[0] != "ok":
            failures.append("SAT forgery should pass the offline scan")
        probe = ArtifactStore(str(root))
        if probe.load_query(sat_key, sat_conds) is not None:
            failures.append("forged SAT model was served as a warm hit")
        if probe.quarantines != 1:
            failures.append("forged SAT model was not quarantined")
        # UNSAT forgery: core swapped for terms outside the query (the
        # wrapper digest and the per-term core digests both refreshed).
        unsat_conds = [T.eq(x, T.bv(1, 8)), T.eq(x, T.bv(2, 8))]
        unsat_key = frozenset(unsat_conds)
        store.save_query(unsat_key, Result.UNSAT, core=unsat_key)
        unsat_file = root / "queries" / (store_key(unsat_key) + ".json")
        state = read_wrapper(str(unsat_file))
        foreign = [T.eq(x, T.bv(7, 8)), T.eq(x, T.bv(9, 8))]
        state["core"] = T.serialize_terms(foreign)
        state["core_digests"] = [term_digest(t) for t in foreign]
        unsat_file.write_text(_rewrap(state, fix_digest=True))
        if classify(unsat_file)[0] != "ok":
            failures.append("UNSAT forgery should pass the offline scan")
        probe = ArtifactStore(str(root))
        if probe.load_query(unsat_key, unsat_conds) is not None:
            failures.append("forged UNSAT core was served as a warm hit")
        if probe.quarantines != 1:
            failures.append("forged UNSAT core was not quarantined")
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return failures


def self_test() -> int:
    import shutil
    import tempfile

    root = Path(tempfile.mkdtemp(prefix="store-fsck-selftest-"))
    try:
        _build_real_store(root)
        clean = fsck(root, verbose=lambda *_: None)
        assert clean["corrupt"] == 0 and clean["ok"] > 0, clean
        queries = sorted((root / "queries").glob("*.json"))
        sat_path = unsat_path = None
        for path in queries:
            verdict = read_wrapper(str(path))["verdict"]
            if verdict == "sat" and sat_path is None:
                sat_path = path
            if verdict == "unsat" and unsat_path is None:
                unsat_path = path
        assert sat_path is not None and unsat_path is not None, (
            "self-test store must hold both verdicts"
        )
        failures = []
        for path in (sat_path, unsat_path):
            pristine = path.read_text()
            base = read_wrapper(str(path))
            for label, fix_digest, mutate in _tampers(base):
                tampered = json.loads(json.dumps(base))
                mutate(tampered)
                path.write_text(_rewrap(tampered, fix_digest))
                status, detail = classify(path)
                expected = "skew" if label == "version bump" else "corrupt"
                if status != expected:
                    failures.append(
                        f"{label}: scan said {status!r} ({detail!r}), "
                        f"expected {expected!r}"
                    )
                path.write_text(pristine)
        failures.extend(_cert_case_failures(root))
        # Truncation (a torn write the fault hook would produce).
        pristine = sat_path.read_text()
        sat_path.write_text(pristine[: len(pristine) // 2])
        status, _ = classify(sat_path)
        if status != "corrupt":
            failures.append(f"truncation: scan said {status!r}")
        sat_path.write_text(pristine)
        # The hot path must catch the semantic forgeries the offline
        # scan cannot: entries whose wrapper digest and structure are
        # valid but whose *content* lies.  Probe load_query directly
        # with synthetic queries where the violation is guaranteed.
        failures.extend(_hot_path_probes())
        # --repair turns a corrupt scan clean; --gc removes the debris.
        victim = sorted((root / "queries").glob("*.json"))[0]
        text = victim.read_text()
        victim.write_text(text[:-3] + "xx}")
        assert fsck(root, verbose=lambda *_: None)["corrupt"] >= 1
        fsck(root, repair=True, verbose=lambda *_: None)
        after_repair = fsck(root, verbose=lambda *_: None)
        if after_repair["corrupt"] != 0:
            failures.append(f"repair left corruption: {after_repair}")
        fsck(root, gc=True, verbose=lambda *_: None)
        after_gc = fsck(root, verbose=lambda *_: None)
        if after_gc["quarantined"] != 0 or after_gc["tmp"] != 0:
            failures.append(f"gc left debris: {after_gc}")
        if failures:
            for message in failures:
                print(f"SELF-TEST FAILURE: {message}")
            return 1
        print("store_fsck self-test passed: every tampered field detected,")
        print("hot path quarantined the forgery, repair+gc leave a clean tree")
        return 0
    finally:
        shutil.rmtree(root, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("root", nargs="?", help="store directory (--store DIR)")
    parser.add_argument("--repair", action="store_true",
                        help="quarantine corrupt files (rename aside)")
    parser.add_argument("--gc", action="store_true",
                        help="delete quarantined and stale tmp files")
    parser.add_argument("-q", "--quiet", action="store_true")
    parser.add_argument("--self-test", action="store_true",
                        help="tamper a real store field-by-field and assert "
                             "every forgery is detected")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if not args.root:
        parser.error("a store directory is required (or --self-test)")
    root = Path(args.root)
    if not root.is_dir():
        print(f"not a directory: {root}")
        return 1
    verbose = (lambda *_: None) if args.quiet else print
    counts = fsck(root, repair=args.repair, gc=args.gc, verbose=verbose)
    print(
        f"{counts['ok']} ok, {counts['corrupt']} corrupt, "
        f"{counts['skew']} skewed, {counts['quarantined']} quarantined, "
        f"{counts['tmp']} stale tmp"
    )
    if counts["corrupt"] and not args.repair:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
