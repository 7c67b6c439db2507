"""The four benchmark workloads: their inputs, their sweeps and the answers
each sweep must reproduce.

A workload is built from a seed and hands out one list of items per sweep.
An item runs one verified computation through clustercat's public API and is
timed on its own; its ``summarize`` turns the raw result into an answer dict
after the clock has stopped. The keys of ``expected`` must match exactly;
other keys are observations that the traced run turns into ratios.

Why each workload exists, and which layer metric should move which
end-to-end metric on it, is written down in README.md next to this file.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Callable

from clustercat import category, cli, laurent, tilting
from clustercat.quivers import Quiver, builtin_quiver, exchange_matrix

# Fomin-Zelevinsky, Cluster algebras II (2003): clusters and cluster variables.
D6 = Quiver(6, ((1, 2), (2, 3), (3, 4), (4, 5), (4, 6)))
E6 = Quiver(6, ((1, 2), (2, 3), (3, 4), (4, 5), (3, 6)))
E7 = Quiver(7, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (3, 7)))
E8 = Quiver(8, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (3, 8)))
A5 = Quiver(5, ((1, 2), (2, 3), (3, 4), (4, 5)))


@dataclass
class Item:
    name: str
    run: Callable[[], object]
    summarize: Callable[[object], dict]
    expected: dict
    kind: str = ""

    def __post_init__(self):
        self.kind = self.kind or self.name

    def check(self, answer: dict) -> bool:
        return all(answer.get(k) == v for k, v in self.expected.items())


# A workload maps a sweep index to that sweep's items; the same seed and
# index give the same items.
Workload = Callable[[int], list[Item]]


# ---------------------------------------------------------------------------
# finite-explore


def _explore_item(label: str, quiver: Quiver, clusters: int, variables: int) -> Item:
    b = exchange_matrix(quiver)

    def run():
        res = laurent.explore_exchange_graph(b)
        return res, laurent.den_injectivity_check(res.variables)

    def summarize(raw):
        res, chk = raw
        return {
            "clusters": res.cluster_count,
            "variables": res.variable_count,
            "truncated": res.truncated,
            "injective": chk.ok,
            "new_clusters": res.cluster_count - 1,
            "max_terms": max(len(p.terms()) for p in res.variables),
        }

    expected = {"clusters": clusters, "variables": variables, "truncated": False, "injective": True}
    return Item(f"explore {label}", run, summarize, expected)


def finite_explore(seed: int) -> Workload:
    items = [_explore_item("D6", D6, 672, 36), _explore_item("E6", E6, 833, 42)]
    return lambda sweep: items


# ---------------------------------------------------------------------------
# tilting-sweep


def _theorem1_item(label: str, quiver: Quiver, count: int) -> Item:
    def summarize(rep):
        return {
            "tilting_count": rep["tilting_count"],
            "injective_everywhere": rep["injective_everywhere"],
            "new_tiltings": rep["tilting_count"] - 1,
        }

    return Item(
        f"theorem1 {label}",
        lambda: category.theorem1_injectivity(quiver),
        summarize,
        {"tilting_count": count, "injective_everywhere": True},
    )


def _gammac_item(label: str, quiver: Quiver, objects: int) -> Item:
    return Item(
        f"GammaC {label}",
        lambda: category.GammaC(quiver),
        lambda g: {"objects": len(g.vertices)},
        {"objects": objects},
    )


def tilting_sweep(seed: int) -> Workload:
    items = [
        _theorem1_item("D6", D6, 672),
        _theorem1_item("E6", E6, 833),
        # positive roots plus one shifted projective per vertex
        _gammac_item("E7", E7, 63 + 7),
        _gammac_item("E8", E8, 120 + 8),
    ]
    return lambda sweep: items


# ---------------------------------------------------------------------------
# module-descent


def _cli_json(argv: list[str]) -> dict:
    """Run the CLI in this process and parse its JSON report. The report's
    elapsed_seconds differs from run to run and is never compared."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    report = json.loads(buf.getvalue())
    report["exit_code"] = code
    return report


def _descent_item(label: str, quiver: Quiver, modules: int, steps: int) -> Item:
    def run():
        tilts = tilting.enumerate_tilting_modules(quiver)
        return [tilting.prop8_descent(quiver, t) for t in tilts]

    def summarize(chains):
        return {
            "tilting_modules": len(chains),
            "steps": sum(c["step_count"] for c in chains),
            "terminal_injectives": all(c["terminal_injectives"] for c in chains),
        }

    expected = {"tilting_modules": modules, "steps": steps, "terminal_injectives": True}
    return Item(f"prop8 {label}", run, summarize, expected)


def _cli_prop8_item(qtype: str, modules: int, steps: int) -> Item:
    def summarize(rep):
        details = rep["details"]
        return {
            "exit_code": rep["exit_code"],
            "pass": rep["pass"],
            "tilting_modules": details["tilting_modules"],
            "steps": sum(c["step_count"] for c in details["chains"]),
        }

    return Item(
        f"cli verify prop8 {qtype}",
        lambda: _cli_json(["verify", "prop8", "--type", qtype]),
        summarize,
        {"exit_code": 0, "pass": True, "tilting_modules": modules, "steps": steps},
    )


def _cli_counterexample_item() -> Item:
    keys = (
        "dims_M", "dims_N", "same_dimension_vector", "ext1_M_M", "ext1_N_N",
        "hom_M_N", "hom_N_M", "isomorphic", "lift_self_extension", "algebra_dimension",
    )

    def summarize(rep):
        out = {k: rep["details"].get(k) for k in keys}
        out.update(exit_code=rep["exit_code"], passed=rep["pass"])
        return out

    expected = {
        "exit_code": 0,
        "passed": True,
        "dims_M": [1, 1, 1],
        "dims_N": [1, 1, 1],
        "same_dimension_vector": True,
        "ext1_M_M": 0,
        "ext1_N_N": 0,
        "hom_M_N": 1,
        "hom_N_M": 1,
        "isomorphic": False,
        "lift_self_extension": 2,
        "algebra_dimension": 10,
    }
    return Item(
        "cli verify counterexample",
        lambda: _cli_json(["verify", "counterexample"]),
        summarize,
        expected,
    )


def module_descent(seed: int) -> Workload:
    items = [
        _descent_item("A5", A5, 42, 176),
        _cli_prop8_item("D4", 20, 75),
        _cli_counterexample_item(),
    ]
    return lambda sweep: items


# ---------------------------------------------------------------------------
# affine-walk

WALK_DEPTH = 14
WALKS_PER_SWEEP = 62
# How many of the 3 * 2**13 = 24,576 non-backtracking walks of depth 14 on
# Atilde21 have each reach: the largest total degree of a denominator vector
# met on the walk. Counted over every walk (test_bench.py recounts them). A
# walk's run time grows steeply with its reach, and a reach of 26 first
# brings polynomials of 127 terms.
REACH_COUNTS = {
    2: 276, 4: 1492, 5: 2490, 7: 2940, 8: 2846, 10: 2574, 11: 2336, 13: 1986,
    14: 1670, 16: 1394, 17: 1194, 19: 1018, 20: 782, 22: 544, 23: 396, 25: 244,
    26: 168, 28: 108, 29: 58, 31: 34, 32: 10, 34: 8, 35: 4, 37: 2, 38: 2,
}
# The value of every variable a walk makes is checked at this point.
WALK_POINT = (2, 3, 5)


def walk_stratum(reach: int) -> int:
    """Each reach up to 25 is a stratum of its own; 26 stands for reaches
    26-28 and 29 for the rest. Pooled, 26-28 is 0.70 of a walk per sweep and
    rounds to one walk with polynomials of 127 terms or more; 29 and up is
    0.30 of a walk and rounds to none."""
    return reach if reach <= 25 else 26 if reach <= 28 else 29


def walk_quotas() -> dict[int, int]:
    """Walks per stratum in one sweep: the stratum's share of all walks
    times WALKS_PER_SWEEP, rounded by largest remainder."""
    total = sum(REACH_COUNTS.values())
    share: dict[int, float] = {}
    for reach, count in REACH_COUNTS.items():
        stratum = walk_stratum(reach)
        share[stratum] = share.get(stratum, 0) + WALKS_PER_SWEEP * count / total
    quota = {s: int(x) for s, x in share.items()}
    left = WALKS_PER_SWEEP - sum(quota.values())
    for s in sorted(share, key=lambda s: quota[s] - share[s])[:left]:
        quota[s] += 1
    return quota


def _mutate_b(b, k):
    """Matrix mutation at k (0-based), written out here so that generating
    and checking the walks never calls clustercat."""
    n = len(b)
    return tuple(
        tuple(
            -b[i][j]
            if k in (i, j)
            else b[i][j] + (abs(b[i][k]) * b[k][j] + b[i][k] * abs(b[k][j])) // 2
            for j in range(n)
        )
        for i in range(n)
    )


def _columns(b0, seq):
    """(k, column k of B) at each step of a walk, k 0-based."""
    b = b0
    for k in seq:
        yield k - 1, [row[k - 1] for row in b]
        b = _mutate_b(b, k - 1)


def walk_denominators(b0, seq) -> list[tuple[int, ...]]:
    """Denominator vector of the variable made at each step, from the
    max-plus recurrence on plain integers."""
    n = len(b0)
    d = [tuple(-int(i == j) for j in range(n)) for i in range(n)]
    out = []
    for k, col in _columns(b0, seq):
        d[k] = tuple(
            -d[k][j]
            + max(
                sum(c * d[i][j] for i, c in enumerate(col) if c > 0),
                sum(-c * d[i][j] for i, c in enumerate(col) if c < 0),
            )
            for j in range(n)
        )
        out.append(d[k])
    return out


def walk_values(b0, seq, point=WALK_POINT) -> list[Fraction]:
    """Value at ``point`` of the variable made at each step, from the
    exchange relation on rationals."""
    x = [Fraction(v) for v in point]
    out = []
    for k, col in _columns(b0, seq):
        plus = prod(x[i] ** c for i, c in enumerate(col) if c > 0)
        minus = prod(x[i] ** -c for i, c in enumerate(col) if c < 0)
        x[k] = (plus + minus) / x[k]
        out.append(x[k])
    return out


def walk_reach(b0, seq) -> int:
    return max(sum(d) for d in walk_denominators(b0, seq))


def walk_sequences(b0, rng: random.Random):
    """Uniform random non-backtracking mutation sequences, kept while their
    stratum still wants walks, until every quota is met; in the order drawn."""
    n = len(b0)
    want = walk_quotas()
    out = []
    while any(want.values()):
        seq = []
        for _ in range(WALK_DEPTH):
            seq.append(rng.choice([k for k in range(1, n + 1) if not seq or k != seq[-1]]))
        stratum = walk_stratum(walk_reach(b0, seq))
        if want[stratum]:
            want[stratum] -= 1
            out.append(tuple(seq))
    return out


def _value_at(p, point) -> Fraction:
    return sum(
        c * prod(Fraction(x) ** e for x, e in zip(point, exps)) for exps, c in p.terms().items()
    )


def _walk_item(b, seq) -> Item:
    def run():
        start = laurent.initial_seed(b)
        cur = start
        visited = []
        for k in seq:
            cur = laurent.seed_mutate(cur, k)
            visited.append(cur.cluster)
        for k in reversed(seq):
            cur = laurent.seed_mutate(cur, k)
        return start, cur, visited

    def summarize(raw):
        start, end, visited = raw
        made = [cluster[k - 1] for cluster, k in zip(visited, seq)]
        return {
            "returned": end.cluster == start.cluster and end.b == start.b,
            "denominators": [p.denominator_vector() for p in made],
            "values": [_value_at(p, WALK_POINT) for p in made],
            "new_clusters": len({frozenset(c) for c in visited} - {frozenset(start.cluster)}),
            "max_terms": max(len(p.terms()) for c in visited for p in c),
        }

    expected = {
        "returned": True,
        "denominators": walk_denominators(b, seq),
        "values": walk_values(b, seq),
    }
    return Item(f"walk {'.'.join(map(str, seq))}", run, summarize, expected, "walk")


def affine_walk(seed: int) -> Workload:
    b = exchange_matrix(builtin_quiver("Atilde21"))
    rng = random.Random(seed)
    sets: list[list[Item]] = []

    def make_items(sweep: int) -> list[Item]:
        # every sweep gets fresh walks from the one seeded stream; drawing
        # them is the benchmark's own work and stays out of set-up and timing
        while len(sets) <= sweep:
            sets.append([_walk_item(b, s) for s in walk_sequences(b, rng)])
        return sets[sweep]

    return make_items


WORKLOADS = {
    "finite-explore": finite_explore,
    "tilting-sweep": tilting_sweep,
    "module-descent": module_descent,
    "affine-walk": affine_walk,
}


def clear_caches() -> int:
    """Empty every functools cache in clustercat, so each sweep starts cold
    as a fresh ``clustercat verify`` process does. Returns how many caches
    were found."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not name.startswith("clustercat"):
            continue
        for obj in list(vars(mod).values()):
            members = list(vars(obj).values()) if isinstance(obj, type) else [obj]
            for m in members:
                if callable(getattr(m, "cache_clear", None)):
                    found[id(m)] = m
    for m in found.values():
        m.cache_clear()
    return len(found)

