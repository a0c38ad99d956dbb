"""Helpers shared by the benchmark's processes.

Nothing here imports robustflow at module level: the set-up process times
that import itself, and the reference process must not depend on the
package for anything but building the model LPs.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("static-solve", "timed-solve", "verify")


def use_checkout_package() -> None:
    """Import robustflow from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "robustflow" / "__init__.py").is_file():
        raise SystemExit(f"robustflow sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def check_loaded_from_checkout(module) -> None:
    origin = Path(module.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"robustflow was imported from {origin}, not from {SRC}")


def read_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def write_json(path, data) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, sort_keys=True)
        handle.write("\n")


def frac(value) -> Fraction:
    """Parse the package's on-disk rational format (int or "p/q")."""
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    return Fraction(value) if isinstance(value, int) else Fraction(str(value))


def git_commit():
    """The checkout's commit, read from ``.git`` without running git; None when absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(rf, workload: str, seed: int) -> dict:
    """The stamp written into every record."""
    return {
        "BACKEND": rf.BACKEND,
        "KERNEL": rf.KERNEL,
        "ROBUSTFLOW_PURE_PYTHON": os.environ.get("ROBUSTFLOW_PURE_PYTHON"),
        "python": platform.python_version(),
        "optimize": sys.flags.optimize,
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "version": rf.__version__,
        "workload": workload,
        "seed": seed,
    }


# -- independent graph code for instance selection and references -------------
#
# These work on the instance JSON documents (dicts), not on package objects,
# and use different algorithms from the package: iterative DFS for paths,
# node-subset enumeration for cuts.


def arc_table(doc):
    return [(a["id"], a["tail"], a["head"], frac(a["capacity"])) for a in doc["arcs"]]


def st_paths(doc):
    """All simple source-sink paths as arc-id tuples (iterative DFS)."""
    out_arcs = {}
    for arc_id, tail, head, _ in arc_table(doc):
        out_arcs.setdefault(tail, []).append((arc_id, head))
    found = []
    stack = [(doc["source"], frozenset([doc["source"]]), ())]
    while stack:
        node, seen, arcs = stack.pop()
        if node == doc["sink"]:
            found.append(arcs)
            continue
        for arc_id, head in out_arcs.get(node, ()):
            if head not in seen:
                stack.append((head, seen | {head}, arcs + (arc_id,)))
    return found


def subpath_count(doc) -> int:
    segments = set()
    for path in st_paths(doc):
        for i in range(len(path)):
            for j in range(i + 1, len(path) + 1):
                segments.add(path[i:j])
    return len(segments)


def min_cut(doc) -> Fraction:
    """Minimum source-sink cut by enumerating node bipartitions."""
    source, sink = doc["source"], doc["sink"]
    others = [v for v in doc["nodes"] if v not in (source, sink)]
    if len(others) > 16:
        raise ValueError("brute-force cut is limited to 16 interior nodes")
    arcs = arc_table(doc)
    best = None
    for r in range(len(others) + 1):
        for chosen in combinations(others, r):
            side = {source, *chosen}
            value = sum((c for _, t, h, c in arcs if t in side and h not in side), Fraction(0))
            if best is None or value < best:
                best = value
    return best


def has_balanced_split(values) -> bool:
    """Subset-sum by bitset: can ``values`` be split into two equal halves?"""
    total = sum(values)
    if total % 2:
        return False
    reach = 1
    for v in values:
        reach |= reach << v
    return bool(reach >> (total // 2) & 1)
