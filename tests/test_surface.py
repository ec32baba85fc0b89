"""A ratchet on the configuration surface of ``src/``.

ROADMAP aim 2 calls these numbers "to push *down*": each ceiling is what
the tree measured when it was last lowered.  A change that raises a
count fails here; one that lowers it should lower the ceiling with it.
Everything is counted on the syntax tree, never by ``grep``.
"""

import argparse
import ast
import re
import shlex
from pathlib import Path

from repro.cli import _build_parser

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
#: the documents that spell ``python -m repro ...`` command lines
DOCUMENTS = [
    ROOT / "README.md",
    *sorted((ROOT / "docs").glob("*.md")),
    ROOT / ".github" / "workflows" / "ci.yml",
    ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
]

#: fields of ``PeerConfig`` — every independently settable peer value
#: (a nested policy object, ``ResilienceConfig`` / ``AdmissionControl`` /
#: ``ReplanBudget``, is handed over whole and counts once)
MAX_PEER_CONFIG_FIELDS = 18
#: ``**kwargs``-style parameters under ``systems/`` and ``peers/``:
#: options reach a peer as one ``config=`` value, never threaded
MAX_VAR_KEYWORD_PARAMETERS = 0
#: ``getattr(x, "name", default)`` probes of attributes that may not exist
MAX_THREE_ARGUMENT_GETATTRS = 6
#: command-line flags and positionals (101 before every flag nothing
#: passed was deleted): ``cli/`` 44 over nine commands, ``deploy/node.py``
#: 8 (``peer``), ``deploy/launcher.py`` 20 (``launch``)
MAX_ADD_ARGUMENT_CALLS = 72
#: functions under ``src/`` outside ``deploy/workload.py`` that call
#: ``ClusterSpec(`` with field keywords — ``run_launch`` turning its own
#: six flags into a spec.  A spec reaches every other place as one value
#: (``to_json``/``from_json``), so a new field is a one-file change.
MAX_CLUSTER_SPEC_BUILD_SITES = 1
#: places that build a ``PlanExecutor`` (``Peer.plan_executor``, which
#: is also where an attempt's ``ExecutionStrategy`` is chosen)
MAX_PLAN_EXECUTOR_CONSTRUCTION_SITES = 1
#: functions of ``execution/engine.py`` named ``_execute*`` / ``_ship*``:
#: one plan walk, one shipper — not one per execution mode
MAX_ENGINE_WALKERS_AND_SHIPPERS = 1
#: methods of ``SimplePeer`` (per-query coordination lives in
#: ``peers/coordinator.py::QueryCoordinator``, what it knows of its SONs
#: in ``peers/son.py::SONRegistry``; 33 before the latter)
MAX_SIMPLE_PEER_METHODS = 30
#: methods of ``MetricSet`` (40 when every scalar counter had its own
#: ``record_*``): a new counter is a row of ``metrics/instruments.py``
#: written through ``count(name)``, never a new method
MAX_METRIC_SET_METHODS = 17
#: ``.from_table(`` / ``.to_table(`` call sites (15 when every kernel
#: pivoted its operands in and its result out): an id table is a
#: column-major ``BindingBatch`` from scan to answer, and the row-major
#: term ``BindingTable`` is met only at ``EncodedTable.of_terms`` /
#: ``to_terms``
MAX_TABLE_PIVOT_SITES = 2
#: modules importing ``BindingTable`` (17 before): the package and
#: ``rql`` exports, the centralized evaluator, result bounds, the
#: standing-query diff, ``peers/simple`` + ``peers/protocol`` (a
#: client's answer) and the two modules that own the pivots
MAX_BINDING_TABLE_IMPORTERS = 9
#: places that build a ``PeerQuarantine`` (3 before) or, outside
#: ``cache/``, a ``RoutingCache`` (2 before): a node's one ``SONRegistry``
#: and the ``RoutingIndex`` it keeps per SON — no role builds its own
MAX_QUARANTINE_CONSTRUCTION_SITES = 1
MAX_ROUTING_CACHE_CONSTRUCTION_SITES = 1
#: ``route_query(`` calls under ``peers/``, ``systems/``, ``deploy/`` and
#: ``membership/`` (1 before): the Query-Routing Algorithm is reached
#: through ``SONRegistry.route`` alone, never over a role's own list
MAX_ROLE_LEVEL_ROUTE_QUERY_CALLS = 0


def _trees(*packages):
    roots = [SRC / package for package in packages] if packages else [SRC]
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            yield path, ast.parse(path.read_text())


def _calls(tree):
    return (node for node in ast.walk(tree) if isinstance(node, ast.Call))


def test_peer_config_fields():
    tree = ast.parse((SRC / "config.py").read_text())
    (config,) = [
        node for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "PeerConfig"
    ]
    fields = [
        statement.target.id for statement in config.body
        if isinstance(statement, ast.AnnAssign)
    ]
    assert len(fields) <= MAX_PEER_CONFIG_FIELDS, fields


def test_no_keyword_threading_through_systems_and_peers():
    found = [
        f"{path.relative_to(SRC)}:{node.lineno} {node.name}(**{node.args.kwarg.arg})"
        for path, tree in _trees("systems", "peers")
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.args.kwarg is not None
    ]
    assert len(found) <= MAX_VAR_KEYWORD_PARAMETERS, found


def test_three_argument_getattr_sites():
    found = [
        f"{path.relative_to(SRC)}:{call.lineno}"
        for path, tree in _trees()
        for call in _calls(tree)
        if isinstance(call.func, ast.Name)
        and call.func.id == "getattr"
        and len(call.args) == 3
    ]
    assert len(found) <= MAX_THREE_ARGUMENT_GETATTRS, found


def test_command_line_flags():
    found = [
        f"{path.relative_to(SRC)}:{call.lineno}"
        for path, tree in _trees()
        for call in _calls(tree)
        if isinstance(call.func, ast.Attribute) and call.func.attr == "add_argument"
    ]
    assert len(found) <= MAX_ADD_ARGUMENT_CALLS, len(found)


def _functions(tree):
    return [
        node for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


def test_cluster_spec_build_sites():
    found = sorted({
        f"{path.relative_to(SRC)}:{function.name}"
        for path, tree in _trees()
        if path != SRC / "deploy" / "workload.py"
        for function in _functions(tree)
        for call in _calls(function)
        if isinstance(call.func, ast.Name) and call.func.id == "ClusterSpec"
        and call.keywords
    })
    assert len(found) <= MAX_CLUSTER_SPEC_BUILD_SITES, found


def _call_sites(name, trees):
    return [
        f"{path.relative_to(SRC)}:{call.lineno}"
        for path, tree in trees
        for call in _calls(tree)
        if isinstance(call.func, ast.Name) and call.func.id == name
    ]


def test_one_plan_executor_construction_site():
    found = _call_sites("PlanExecutor", _trees())
    assert len(found) <= MAX_PLAN_EXECUTOR_CONSTRUCTION_SITES, found


def test_one_advertisement_store_per_node():
    found = _call_sites("PeerQuarantine", _trees())
    assert len(found) <= MAX_QUARANTINE_CONSTRUCTION_SITES, found
    found = _call_sites(
        "RoutingCache",
        [(path, tree) for path, tree in _trees() if SRC / "cache" not in path.parents],
    )
    assert len(found) <= MAX_ROUTING_CACHE_CONSTRUCTION_SITES, found
    roles = list(_trees("peers", "systems", "deploy", "membership"))
    found = _call_sites("route_query", roles)
    assert len(found) <= MAX_ROLE_LEVEL_ROUTE_QUERY_CALLS, found
    # the three stores the registry replaced are not assigned again
    found = [
        f"{path.relative_to(SRC)}:{node.lineno} .{node.attr}"
        for path, tree in roles
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        and node.attr in ("known_advertisements", "registry", "indices")
    ]
    assert not found, found


def test_one_plan_walk_one_shipper():
    tree = ast.parse((SRC / "execution" / "engine.py").read_text())
    found = [
        function.name for function in _functions(tree)
        if function.name.startswith(("_execute", "_ship"))
    ]
    assert len(found) <= MAX_ENGINE_WALKERS_AND_SHIPPERS, found


def _methods(module, class_name):
    tree = ast.parse((SRC / module).read_text())
    (found,) = [
        node for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == class_name
    ]
    return [function.name for function in _functions(found)]


def test_simple_peer_methods():
    found = _methods("peers/simple.py", "SimplePeer")
    assert len(found) <= MAX_SIMPLE_PEER_METHODS, found


def test_metric_set_methods():
    found = _methods("metrics/collectors.py", "MetricSet")
    assert len(found) <= MAX_METRIC_SET_METHODS, found


def test_table_pivot_sites():
    found = [
        f"{path.relative_to(SRC)}:{call.lineno} .{call.func.attr}()"
        for path, tree in _trees()
        for call in _calls(tree)
        if isinstance(call.func, ast.Attribute)
        and call.func.attr in ("from_table", "to_table")
    ]
    assert len(found) <= MAX_TABLE_PIVOT_SITES, found


def test_binding_table_importers():
    found = [
        str(path.relative_to(SRC))
        for path, tree in _trees()
        if any(
            alias.name == "BindingTable"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        )
    ]
    assert len(found) <= MAX_BINDING_TABLE_IMPORTERS, found


# ----------------------------------------------------------------------
# the command line against what documents, CI and tests spell
# ----------------------------------------------------------------------
def _subparsers():
    (commands,) = [
        action for action in _build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return commands.choices


def _prose_and_blocks(path: Path):
    """``(prose, blocks)`` of a document, ``\\``-continued lines joined:
    the text outside Markdown code fences, with inline code spans that
    wrap over a line break put on one line, and the text inside them."""
    pieces = re.split(r"(?m)^```.*$", path.read_text().replace("\\\n", " "))
    prose = re.sub(
        r"`[^`]+`", lambda span: span.group(0).replace("\n", " "),
        "\n".join(pieces[0::2]),
    )
    return prose, "\n".join(pieces[1::2])


def _documented_command_lines():
    """The argv of every ``python -m repro ...`` a document spells: up
    to a closing backtick, a pipe, a redirection, ``&`` or a ``#``
    comment."""
    for path in DOCUMENTS:
        text = "\n".join(_prose_and_blocks(path))
        for match in re.finditer(r"python -m repro[ \t]+([^`|\n]*)", text):
            argv = []
            for token in shlex.split(match.group(1), comments=True):
                if token == "&" or token.startswith(">"):
                    break
                argv.append(token)
            yield argv


def test_documented_command_lines_parse():
    """Deleting (or renaming) a flag a document still names fails here."""
    parser, commands = _build_parser(), _subparsers()
    lines = list(_documented_command_lines())
    assert len(lines) >= 40, "the extraction lost the documents' command lines"
    for argv in lines:
        if len(argv) == 1 and argv[0] in commands:
            # prose naming a command (`python -m repro query`), not a
            # command line: its required flags are rightly absent
            continue
        try:
            parser.parse_args(argv)
        except SystemExit as exit:
            assert exit.code == 0 and "--help" in argv, argv


def _string_lists(path: Path):
    """Every list literal of a Python file as its string constants."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.List):
            yield [
                element.value for element in node.elts
                if isinstance(element, ast.Constant)
                and isinstance(element.value, str)
            ]


def test_no_orphan_flags():
    """Every option of every command is passed by something: a test or
    benchmark argv, a documented command line, a document's prose, or
    the launcher (the in-tree caller of ``peer``).  A reference counts
    for the command it names; one that names none (a bare `--flag` in
    prose, an argv fragment built apart from its command) counts for
    every command declaring the flag."""
    commands = _subparsers()
    tied, untied = set(), set()
    for argv in _documented_command_lines():
        tied.update((argv[0], token) for token in argv if token.startswith("--"))
    for path in DOCUMENTS:
        for span in re.findall(r"`([^`]+)`", _prose_and_blocks(path)[0]):
            words = span.replace("/", " ").split()
            named = [word for word in words if word in commands]
            flags = [word for word in words if word.startswith("--")]
            if len(named) == 1:
                tied.update((named[0], flag) for flag in flags)
            elif not named:
                untied.update(flags)
    for directory in ("tests", "benchmarks"):
        for path in sorted((ROOT / directory).rglob("*.py")):
            for strings in _string_lists(path):
                flags = [string for string in strings if string.startswith("--")]
                if strings and strings[0] in commands:
                    tied.update((strings[0], flag) for flag in flags)
                else:
                    untied.update(flags)
    for strings in _string_lists(SRC / "deploy" / "launcher.py"):
        tied.update(("peer", s) for s in strings if s.startswith("--"))
    orphans = [
        f"{name} {option}"
        for name, command in commands.items()
        for action in command._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
        and (name, option) not in tied and option not in untied
    ]
    assert not orphans, orphans
