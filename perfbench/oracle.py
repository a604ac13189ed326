"""Output oracle for the benchmark workloads, sharing no code with the engine.

Each check takes the input bytes of every path an exploration reported
and returns a list of problems (empty when the paths are right).  The
expectations come from what the programs in ``perfbench/programs``
compute, re-derived here in plain Python:

* a sort explores one path per stable ordering of its input, so the
  stable argsorts of the path inputs are exactly the n! permutations,
  each once;
* the base64 encoder classifies every 6-bit group with the chain
  ``c < 26 / c < 52 / c < 62 / c == 62 / else``, so the class patterns
  of the path inputs are exactly the reachable patterns, each once.
"""

from __future__ import annotations

import itertools
import math


def stable_argsort(values: bytes) -> tuple[int, ...]:
    """Positions of ``values`` in sorted order, ties kept in input order."""
    return tuple(sorted(range(len(values)), key=lambda i: (values[i], i)))


def check_sort(inputs: list[bytes], n: int) -> list[str]:
    """Paths of an n-element sort: one per permutation, none missing."""
    problems = []
    if len(inputs) != math.factorial(n):
        problems.append(f"{len(inputs)} paths, expected {n}! = {math.factorial(n)}")
    orders = [stable_argsort(values) for values in inputs]
    distinct = set(orders)
    if len(distinct) != len(orders):
        problems.append(f"{len(orders) - len(distinct)} paths repeat an ordering")
    missing = set(itertools.permutations(range(n))) - distinct
    if missing:
        problems.append(f"{len(missing)} orderings have no path")
    return problems


def base64_class(group: int) -> int:
    """Outcome of the alphabet chain on one 6-bit group (0 to 4)."""
    if group < 26:
        return 0
    if group < 52:
        return 1
    if group < 62:
        return 2
    return 3 if group == 62 else 4


def base64_groups(data: bytes) -> list[int]:
    """The 6-bit groups the encoder classifies (padding is not a group)."""
    groups = []
    for start in range(0, len(data), 3):
        chunk = data[start:start + 3]
        bits = int.from_bytes(chunk.ljust(3, b"\0"), "big")
        emitted = len(chunk) + 1
        groups.extend((bits >> (18 - 6 * i)) & 63 for i in range(emitted))
    return groups


def base64_pattern(data: bytes) -> tuple[int, ...]:
    return tuple(base64_class(group) for group in base64_groups(data))


def base64_reachable(k: int) -> int:
    """Number of distinct class patterns over all k-byte inputs.

    The four groups of a full 3-byte chunk read disjoint bit fields, so
    each takes all 64 values independently.  A partial tail chunk is
    enumerated byte by byte.
    """
    full, rest = divmod(k, 3)
    count = len({base64_class(group) for group in range(64)}) ** (4 * full)
    if rest:
        tails = {
            base64_pattern(bytes(tail))
            for tail in itertools.product(range(256), repeat=rest)
        }
        count *= len(tails)
    return count


def check_base64(inputs: list[bytes], k: int) -> list[str]:
    """Paths of the k-byte encoder: one per reachable class pattern."""
    problems = []
    if any(len(values) != k for values in inputs):
        problems.append(f"a path input is not {k} bytes long")
        return problems
    expected = base64_reachable(k)
    patterns = {base64_pattern(values) for values in inputs}
    if len(inputs) != expected:
        problems.append(f"{len(inputs)} paths, expected {expected}")
    if len(patterns) != len(inputs):
        problems.append(f"{len(inputs) - len(patterns)} paths repeat a pattern")
    if len(patterns) != expected:
        problems.append(f"{len(patterns)} distinct patterns, expected {expected}")
    return problems


def sort_orders(inputs: list[bytes]) -> set:
    """The set of stable argsorts (to compare two runs' path sets)."""
    return {stable_argsort(values) for values in inputs}


def rejects_broken_copies(check, inputs: list[bytes]) -> list[str]:
    """Self-test: ``check`` must reject a dropped and a duplicated path.

    Returns a problem for every deliberately wrong input the check
    accepts, so an oracle that passes everything cannot go unnoticed.
    """
    if len(inputs) < 2:
        return ["too few paths to self-test the oracle"]
    broken = {
        "a dropped path": inputs[:-1],
        "a duplicated path": inputs[:-1] + [inputs[0]],
    }
    return [
        f"the oracle accepted {name}"
        for name, copy in broken.items()
        if not check(copy)
    ]
