"""``query``: RQL over a schema and peer bases loaded from N-Triples
files, deployed as one hybrid SON."""

from __future__ import annotations

import argparse
import sys

from ..config import PeerConfig
from ..rdf import load_graph, load_schema
from ..systems import HybridSystem


def register(commands) -> None:
    query = commands.add_parser("query", help="query N-Triples peer bases")
    query.add_argument("--schema", required=True, help="schema N-Triples file")
    query.add_argument("--namespace", required=True, help="schema namespace URI")
    query.add_argument(
        "--peer",
        action="append",
        default=[],
        metavar="NAME=FILE",
        help="peer base as NAME=path.nt (repeatable)",
    )
    query.add_argument("--via", required=True, help="coordinating peer name")
    query.add_argument("--limit", type=int, default=None, help="Top-N bound")
    query.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the routing/plan caches and request coalescing "
        "(cold per-query routing, as in the paper)",
    )
    query.add_argument(
        "--batch-size",
        type=int,
        default=256,
        metavar="N",
        help="bindings per shipped data packet (default 256)",
    )
    query.add_argument(
        "--cost-based",
        action="store_true",
        help="statistics-driven planning: peers advertise per-predicate "
        "statistics, joins are ordered by estimated cardinality and the "
        "cost model places operators (off: the rule-based path)",
    )
    query.add_argument("text", help="RQL query text")
    query.set_defaults(run=_cmd_query)


def _cmd_query(args: argparse.Namespace) -> int:
    if args.batch_size < 1:
        print("error: --batch-size must be >= 1", file=sys.stderr)
        return 2
    system = HybridSystem(
        load_schema(args.schema, args.namespace),
        config=PeerConfig(
            cache_enabled=not args.no_cache,
            batch_size=args.batch_size,
            cost_based=args.cost_based,
        ),
    )
    system.add_super_peer("SP")
    names = []
    for spec in args.peer:
        name, _, path = spec.partition("=")
        if not path:
            print(f"error: --peer expects NAME=FILE, got {spec!r}", file=sys.stderr)
            return 2
        system.add_peer(name, load_graph(path), "SP")
        names.append(name)
    if args.via not in names:
        print(f"error: --via {args.via!r} is not among the peers", file=sys.stderr)
        return 2
    try:
        table = system.query(args.via, args.text, limit=args.limit)
    except Exception as exc:  # surfaced to the shell, not a traceback
        print(f"query failed: {exc}", file=sys.stderr)
        return 1
    print("\t".join(table.columns))
    for row in table.rows:
        print("\t".join(term.n3() for term in row))
    print(f"# {len(table)} rows", file=sys.stderr)
    return 0
