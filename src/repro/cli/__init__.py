"""Command-line interface: ``python -m repro <command> [--help]``.

The command line is a view over the values the system already has — a
:class:`~repro.config.PeerConfig`, a
:class:`~repro.deploy.workload.ClusterSpec`, a
:class:`~repro.scenario.Scenario` — and not a configuration mechanism of
its own: ``run`` turns its flags into one ``ClusterSpec`` and one
``Scenario`` and plays it in the simulator, or with ``--live`` on OS
processes.  Each command is declared by the module that runs
it: a ``register(commands)`` adds the sub-parser, its flags and its
``run`` function, and :func:`main` is parse-then-``args.run(args)``.
The commands (``python -m repro --help``)::

"""

from __future__ import annotations

import argparse
import os
import sys
import textwrap
from typing import List, Optional

from ..deploy import node
from . import observe, paper, query, run


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SQPeer: semantic query routing and processing for P2P RDF/S bases",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for module in (paper, query, observe, run, node):
        module.register(commands)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.  A reader that
    closes stdout early (``run ... | head``) ends the command quietly,
    with exit code 1."""
    args = _build_parser().parse_args(argv)
    try:
        code = args.run(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # whatever is still buffered has nowhere to go: point stdout at
        # /dev/null so the interpreter's last flush does not raise too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __doc__ is not None:  # ``python -OO`` strips it
    __doc__ += textwrap.indent(_build_parser().format_help(), "    ")
