"""Command-line verification sweeps and seed utilities.

Subcommands: ``mutate`` (apply a mutation sequence and print the seed),
``explore`` (count clusters and variables), ``denominators`` (list variables
with their denominator vectors), ``verify`` (run one named check).

Exit codes: 0 all checks pass, 1 a mathematical check failed (the report
carries a witness), 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from json.encoder import encode_basestring_ascii as _quote

from .bound import counterexample_report
from .category import (
    GammaC,
    _theorem1_report,
    den_vs_hom_crosscheck,
    exchange_data,
    is_compatible,
    lemma6_check,
    theorem1_injectivity,
    walk_tilting,
)
from .laurent import (
    den_injectivity_check,
    explore_exchange_graph,
    initial_seed,
    seed_mutate,
)
from .quivers import (
    BUILTIN_QUIVER_NAMES,
    builtin_quiver,
    exchange_matrix,
    load_quiver_json,
)
from .tilting import enumerate_tilting_modules, prop8_descent

# the only target that reads --depth; it needs at least one mutation step
DEPTH_TARGETS = ("corollary5",)
DYNKIN_TYPES = ("A2", "A3", "A4", "D4")

# cross-checked against the categorical tilting-object count in verify theorem1
KNOWN_CLUSTER_COUNTS = {"A2": 5, "A3": 14, "A4": 42, "D4": 50}

BUILTIN_DOC = (
    "built-in quivers: A2/A3/A4 linear 1 -> 2 -> ... -> n; "
    "D4 star 1 -> 2, 2 -> 3, 2 -> 4; Atilde21 triangle 1 -> 2, 2 -> 3, 1 -> 3"
)


# ---------------------------------------------------------------------------
# rendering


def render_report(report: dict, fmt: str) -> str:
    """The report as ``json.dumps(report, sort_keys=True, indent=2)`` writes
    it, or as TSV rows of dotted key paths and compact JSON leaves.  The JSON
    is written by ``_write_json``, since an ``indent`` sends ``json.dumps``
    to its pure-Python encoder."""
    if fmt == "json":
        out: list[str] = []
        _write_json(report, "\n", out)
        return "".join(out)
    rows: list[tuple[str, str]] = []
    _flatten("", report, rows)
    return "\n".join(f"{key}\t{value}" for key, value in rows)


def _write_json(value, newline: str, out: list[str]) -> None:
    """Append ``json.dumps(value, sort_keys=True, indent=2)`` to ``out``,
    with ``newline`` (a line break and the current indent) at each line
    break.  Dicts with str keys and lists or tuples are written here, a list
    of scalars (strs, exact ints, None and bools) in one join, and strings
    by the C escaper of ``json``; any other value, such as a float or a dict
    with a non-str key, goes to ``json.dumps`` and is re-indented."""
    kind = type(value)
    if kind in _SCALARS:
        out.append(_scalar(value))
    elif (kind is list or kind is tuple) and value:
        inner = newline + "  "
        kinds = set(map(type, value))
        if kinds <= _SCALARS:
            text = map(int.__repr__ if kinds == {int} else _scalar, value)
            out.append("[" + inner + ("," + inner).join(text))
        else:
            sep = "[" + inner
            for item in value:
                out.append(sep)
                _write_json(item, inner, out)
                sep = "," + inner
        out.append(newline + "]")
    elif kind is dict and value and set(map(type, value)) == {str}:
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            out.append(sep + _quote(key) + ": ")
            _write_json(value[key], inner, out)
            sep = "," + inner
        out.append(newline + "}")
    else:
        out.append(json.dumps(value, sort_keys=True, indent=2).replace("\n", newline))


_SCALARS = {str, int, bool, type(None)}
_CONSTANTS = {None: "null", True: "true", False: "false"}


def _scalar(value) -> str:
    kind = type(value)
    return _quote(value) if kind is str else int.__repr__(value) if kind is int else _CONSTANTS[value]


def _flatten(prefix: str, value, rows: list[tuple[str, str]]) -> None:
    if isinstance(value, dict):
        for key in sorted(value, key=str):
            sub = f"{prefix}.{key}" if prefix else str(key)
            _flatten(sub, value[key], rows)
    else:
        rows.append((prefix, json.dumps(value, sort_keys=True)))


def _emit(report: dict, fmt: str) -> None:
    print(render_report(report, fmt))


# ---------------------------------------------------------------------------
# quiver sources


def _resolve_matrix(args, parser: argparse.ArgumentParser):
    """Exchange matrix for the seed commands, from --quiver FILE or --type NAME."""
    if getattr(args, "quiver_file", None):
        try:
            q, relations = load_quiver_json(args.quiver_file)
        except (OSError, ValueError) as exc:
            parser.error(f"cannot read quiver file: {exc}")
        if relations:
            parser.error(f"quiver file has relations {list(map(list, relations))}; seeds take none")
        source = args.quiver_file
    else:
        source = args.type or "A2"
        q = builtin_quiver(source)
    try:
        return exchange_matrix(q), source
    except ValueError as exc:
        parser.error(str(exc))


# ---------------------------------------------------------------------------
# seed commands


def cmd_mutate(args, parser) -> int:
    b, source = _resolve_matrix(args, parser)
    seed = initial_seed(b)
    for k in args.sequence:
        try:
            seed = seed_mutate(seed, k)
        except (IndexError, OverflowError) as exc:
            parser.error(str(exc))
    report = {
        "command": "mutate",
        "parameters": {"source": str(source), "sequence": list(args.sequence)},
        "b": [list(row) for row in seed.b],
        "cluster": [p.render() for p in seed.cluster],
    }
    _emit(report, args.format)
    return 0


def _explored(args, parser):
    b, source = _resolve_matrix(args, parser)
    try:
        res = explore_exchange_graph(b, max_depth=args.depth)
    except (ValueError, OverflowError) as exc:
        # the library's max_depth is this command's --depth
        parser.error(str(exc).replace("max_depth", "--depth"))
    return res, source


def cmd_explore(args, parser) -> int:
    res, source = _explored(args, parser)
    report = {
        "command": "explore",
        "parameters": {"source": str(source), "depth": args.depth},
        "clusters": res.cluster_count,
        "variables": res.variable_count,
        "truncated": res.truncated,
        "depth_reached": res.depth_reached,
    }
    _emit(report, args.format)
    return 0


def cmd_denominators(args, parser) -> int:
    res, source = _explored(args, parser)
    rows = [
        {"variable": p.render(), "denominator": list(p.denominator_vector())}
        for p in sorted(res.variables, key=lambda p: p.render())
    ]
    report = {
        "command": "denominators",
        "parameters": {"source": str(source), "depth": args.depth},
        "count": len(rows),
        "truncated": res.truncated,
        "variables": rows,
    }
    _emit(report, args.format)
    return 0


# ---------------------------------------------------------------------------
# verify targets; each returns (ok, details, witness)


def _verify_theorem1(qtype: str, depth):
    q = builtin_quiver(qtype)
    rep = theorem1_injectivity(q)
    res = explore_exchange_graph(exchange_matrix(q))
    expected = KNOWN_CLUSTER_COUNTS[qtype]
    counts = {
        "tilting_objects": rep["tilting_count"],
        "clusters": res.cluster_count,
        "expected": expected,
    }
    ok = (
        rep["tilting_count"] == res.cluster_count == expected
        and rep["injective_everywhere"]
    )
    details = {
        **counts,
        "category_vertices": rep["vertices"],
        "propagation_cases": rep["propagation_cases"],
    }
    witness = None if ok else {"failures": rep["failures"], "counts": counts}
    return ok, details, witness


def _verify_corollary4(qtype: str, depth):
    q = builtin_quiver(qtype)
    base = explore_exchange_graph(exchange_matrix(q))
    matrices = sorted({s.b for s in base.seeds})
    for bmat in matrices:
        # mutation may reorient the diagram into a cycle, so the shape test
        # cannot prove finiteness here; the base cluster count bounds the
        # walk instead and exhaustion is asserted through the truncation flag
        res = explore_exchange_graph(bmat, max_depth=base.cluster_count)
        if res.truncated or res.cluster_count != base.cluster_count:
            witness = {
                "matrix": [list(row) for row in bmat],
                "error": "exploration from this cluster did not close",
            }
            return False, {"clusters": base.cluster_count}, witness
        chk = den_injectivity_check(res.variables)
        if not chk.ok:
            witness = dict(chk.witness)
            witness["matrix"] = [list(row) for row in bmat]
            return False, {"clusters": base.cluster_count}, witness
    details = {
        "clusters": base.cluster_count,
        "variables": base.variable_count,
        "matrices_checked": len(matrices),
    }
    return True, details, None


def _verify_corollary5(qtype: str, depth):
    depth = 6 if depth is None else depth
    q = builtin_quiver("Atilde21")
    res = explore_exchange_graph(exchange_matrix(q), max_depth=depth)
    chk = den_injectivity_check(res.variables)
    details = {
        "depth": depth,
        "clusters": res.cluster_count,
        "variables": res.variable_count,
        "truncated": res.truncated,
    }
    return chk.ok, details, chk.witness


def _verify_counterexample(qtype, depth):
    # the report asserts every claim; a failed one reaches cmd_verify as an
    # AssertionError
    return True, counterexample_report(), None


def _verify_prop8(qtype: str, depth):
    q = builtin_quiver(qtype)
    tilts = enumerate_tilting_modules(q)
    chains = [prop8_descent(q, t) for t in tilts]
    ok = all(c["terminal_injectives"] for c in chains)
    details = {
        "tilting_modules": len(tilts),
        "max_chain_length": max(c["step_count"] for c in chains),
        "chains": chains,
    }
    return ok, details, None


def _verify_lemma67(qtype: str, depth):
    q = builtin_quiver(qtype)
    g = GammaC(q)
    # one walk serves both lemmas and the Theorem 1 propagation report
    objects = list(walk_tilting(g))
    compat_cases = 0
    failures: list[dict] = []
    for cur, partners in objects:
        for k, tk_star in enumerate(partners, 1):
            xd = exchange_data(cur, k, tk_star)
            for x, agree in enumerate(lemma6_check(g, xd)):
                compat_cases += 1
                for check, holds in (("compatibility", is_compatible(g, x, xd)), ("shifted agreement", agree)):
                    if not holds:
                        tilting = [g.vertices[t].render() for t in cur.summands]
                        obj = g.vertices[x].render()
                        failures.append({"tilting": tilting, "k": k, "object": obj, "check": check})
    prop = _theorem1_report(g, objects)
    ok = not failures and prop["injective_everywhere"]
    details = {
        "tilting_objects": len(objects),
        "compatibility_cases": compat_cases,
        "propagation_cases": prop["propagation_cases"],
    }
    witness = None if ok else {"failures": failures + prop["failures"]}
    return ok, details, witness


def _verify_denomhom(qtype: str, depth):
    rep = den_vs_hom_crosscheck(builtin_quiver(qtype))
    details = {key: rep[key] for key in ("diagram", "tilting_objects", "edges", "paired")}
    return rep["ok"], details, rep["mismatches"][:5] or None


_VERIFY_DISPATCH = {
    "theorem1": _verify_theorem1,
    "corollary4": _verify_corollary4,
    "corollary5": _verify_corollary5,
    "counterexample": _verify_counterexample,
    "prop8": _verify_prop8,
    "lemma67": _verify_lemma67,
    "denomhom": _verify_denomhom,
}


def _checked_type(target: str, qtype, parser) -> str | None:
    if target == "counterexample":
        if qtype is not None:
            parser.error("counterexample takes no --type")
        return None
    if target == "corollary5":
        if qtype not in (None, "Atilde21"):
            parser.error("corollary5 runs on Atilde21 only")
        return "Atilde21"
    if qtype is None:
        return "A3"
    if qtype not in DYNKIN_TYPES:
        parser.error(f"target {target} needs --type from {', '.join(DYNKIN_TYPES)}")
    return qtype


def cmd_verify(args, parser) -> int:
    qtype = _checked_type(args.target, args.type, parser)
    if args.depth is not None:
        if args.target not in DEPTH_TARGETS:
            parser.error(f"{args.target} takes no --depth")
        if args.depth == 0:
            parser.error(f"{args.target} needs --depth of at least 1")
    try:
        ok, details, witness = _VERIFY_DISPATCH[args.target](qtype, args.depth)
    except (AssertionError, ArithmeticError, RuntimeError) as exc:
        ok = False
        details = {}
        witness = {"error": f"{type(exc).__name__}: {exc}"}
    report = {
        "command": "verify",
        "target": args.target,
        "parameters": {"type": qtype, "depth": args.depth},
        "pass": ok,
        "details": details,
        "witness": witness,
    }
    _emit(report, args.format)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clustercat",
        description="exact cluster-algebra and cluster-category verification",
        epilog=BUILTIN_DOC,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, with_depth: bool) -> None:
        sp.add_argument(
            "--quiver",
            dest="quiver_file",
            metavar="FILE",
            help="quiver JSON file {vertices, arrows, relations?}; overrides --type",
        )
        sp.add_argument("--type", choices=BUILTIN_QUIVER_NAMES, help=BUILTIN_DOC)
        if with_depth:
            sp.add_argument(
                "--depth",
                type=non_negative_int,
                help="mutation depth cutoff (required for non-Dynkin shapes)",
            )
        sp.add_argument("--format", choices=("json", "tsv"), default="json")

    p_mut = sub.add_parser("mutate", help="apply a mutation sequence to the initial seed")
    p_mut.add_argument("sequence", nargs="*", type=int, metavar="K", help="1-based mutation indices")
    common(p_mut, with_depth=False)

    p_exp = sub.add_parser("explore", help="count reachable clusters and variables")
    common(p_exp, with_depth=True)

    p_den = sub.add_parser("denominators", help="list variables with denominator vectors")
    common(p_den, with_depth=True)

    p_ver = sub.add_parser(
        "verify",
        help="run one named verification sweep",
        epilog=BUILTIN_DOC,
    )
    p_ver.add_argument("target", choices=_VERIFY_DISPATCH)
    p_ver.add_argument("--type", choices=BUILTIN_QUIVER_NAMES)
    p_ver.add_argument(
        "--depth",
        type=non_negative_int,
        help=f"mutation depth cutoff, at least 1 (only for {', '.join(DEPTH_TARGETS)})",
    )
    p_ver.add_argument("--format", choices=("json", "tsv"), default="json")

    p_mut.set_defaults(func=cmd_mutate)
    p_exp.set_defaults(func=cmd_explore)
    p_den.set_defaults(func=cmd_denominators)
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args, parser)


if __name__ == "__main__":
    sys.exit(main())
