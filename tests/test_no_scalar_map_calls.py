"""Every consumer of a map steps arrays through forward_batch, backward_batch
or step_batch; the scalar methods forward, step, backward and dt are for
the maps themselves, and the one-point free_flight is for the classical
map alone.  The one consumer still on the scalar map is the forced report
of `lorentzgas forced`, whose energy-drift figure reads the scalar
flight's transcript.  Batch results stay arrays: outside the maps a
PhasePoint is built only by StableCurve.point and that forced report."""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "lorentzgas")
MAPS = {"classical_map.py", "forced_dynamics.py"}
SCALAR = {"forward", "step", "backward", "dt"}
ALLOWED = {("cli.py", "cmd_forced")}


def _scalar_calls(tree, path):
    """(file, enclosing function, line, method) of each scalar map call."""
    out = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in SCALAR):
            out.append((path, func, node.lineno, node.func.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return out


def test_no_scalar_map_calls_outside_the_maps():
    calls = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py") and name not in MAPS:
            with open(os.path.join(SRC, name)) as fh:
                calls += _scalar_calls(ast.parse(fh.read()), name)
    stray = [c for c in calls if (c[0], c[1]) not in ALLOWED]
    assert not stray, stray
    # the allowance names a place that still needs it
    assert {(c[0], c[1]) for c in calls} == ALLOWED


def _free_flight_calls(tree, path):
    """(file, line) of each call of a function named free_flight."""
    return [(path, node.lineno) for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None))
            == "free_flight"]


def test_no_free_flight_calls_outside_the_classical_map():
    calls = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py") and name != "classical_map.py":
            with open(os.path.join(SRC, name)) as fh:
                calls += _free_flight_calls(ast.parse(fh.read()), name)
    assert not calls, calls
    # the recogniser sees both spellings of the call
    probe = ast.parse("free_flight(c, x)\nclassical_map.free_flight(c, x)")
    assert len(_free_flight_calls(probe, "probe")) == 2


PHASE_POINT_ALLOWED = {("curve_machinery.py", "point"), ("cli.py", "cmd_forced")}


def _phase_point_calls(tree, path):
    """(file, enclosing function, line) of each PhasePoint(...) call."""
    out = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (isinstance(node, ast.Call)
                and getattr(node.func, "id", getattr(node.func, "attr", None))
                == "PhasePoint"):
            out.append((path, func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return out


def test_no_phase_points_built_outside_the_maps():
    calls = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py") and name not in MAPS:
            with open(os.path.join(SRC, name)) as fh:
                calls += _phase_point_calls(ast.parse(fh.read()), name)
    stray = [c for c in calls if (c[0], c[1]) not in PHASE_POINT_ALLOWED]
    assert not stray, stray
    # each allowance names a place that still needs it
    assert {(c[0], c[1]) for c in calls} == PHASE_POINT_ALLOWED
