"""A ratchet on the configuration surface of ``src/``.

ROADMAP aim 2 calls these numbers "to push *down*": each ceiling is what
the tree measured when it was last lowered.  A change that raises a
count fails here; one that lowers it should lower the ceiling with it.
Everything is counted on the syntax tree, never by ``grep``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: fields of ``PeerConfig`` — every independently settable peer value
#: (a nested policy object, ``ResilienceConfig`` / ``AdmissionControl`` /
#: ``ReplanBudget``, is handed over whole and counts once)
MAX_PEER_CONFIG_FIELDS = 18
#: ``**kwargs``-style parameters under ``systems/`` and ``peers/``:
#: options reach a peer as one ``config=`` value, never threaded
MAX_VAR_KEYWORD_PARAMETERS = 0
#: ``getattr(x, "name", default)`` probes of attributes that may not exist
MAX_THREE_ARGUMENT_GETATTRS = 6
#: command-line flags (``cli.py`` 91 + ``deploy/node.py`` 10)
MAX_ADD_ARGUMENT_CALLS = 101
#: places that build a ``PlanExecutor`` (``Peer.plan_executor``, which
#: is also where an attempt's ``ExecutionStrategy`` is chosen)
MAX_PLAN_EXECUTOR_CONSTRUCTION_SITES = 1
#: functions of ``execution/engine.py`` named ``_execute*`` / ``_ship*``:
#: one plan walk, one shipper — not one per execution mode
MAX_ENGINE_WALKERS_AND_SHIPPERS = 1
#: methods of ``SimplePeer`` (per-query coordination lives in
#: ``peers/coordinator.py::QueryCoordinator``)
MAX_SIMPLE_PEER_METHODS = 33
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


def test_one_plan_executor_construction_site():
    found = [
        f"{path.relative_to(SRC)}:{call.lineno}"
        for path, tree in _trees()
        for call in _calls(tree)
        if isinstance(call.func, ast.Name) and call.func.id == "PlanExecutor"
    ]
    assert len(found) <= MAX_PLAN_EXECUTOR_CONSTRUCTION_SITES, found


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
