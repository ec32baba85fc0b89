"""Command-line interface: ``python -m repro <command> [--help]``.

The command line is a view over the values the system already has — a
:class:`~repro.config.PeerConfig`, a
:class:`~repro.deploy.workload.ClusterSpec`, a
:class:`~repro.workload_engine.WorkloadSpec` — and not a configuration
mechanism of its own.  Each command is declared by the module that runs
it: a ``register(commands)`` adds the sub-parser, its flags and its
``run`` function, and :func:`main` is parse-then-``args.run(args)``.
The commands (``python -m repro --help``)::

"""

from __future__ import annotations

import argparse
import textwrap
from typing import List, Optional

from ..deploy import launcher, node
from . import observe, paper, query, serve


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SQPeer: semantic query routing and processing for P2P RDF/S bases",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for module in (paper, query, observe, serve, node, launcher):
        module.register(commands)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    return args.run(args)


if __doc__ is not None:  # ``python -OO`` strips it
    __doc__ += textwrap.indent(_build_parser().format_help(), "    ")
