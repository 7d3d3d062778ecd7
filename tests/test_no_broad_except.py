"""The toolkit catches only typed errors: no `except Exception`, `except
BaseException` or bare `except:` in the package, so a real bug cannot hide
as a dropped sample."""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "lorentzgas")
BROAD = {"Exception", "BaseException"}


def _broad_handlers(tree, path):
    """(file, line) of each handler that catches everything."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        caught = (node.type.elts if isinstance(node.type, ast.Tuple)
                  else [node.type])
        if any(t is None or (isinstance(t, ast.Name) and t.id in BROAD)
               or (isinstance(t, ast.Attribute) and t.attr in BROAD)
               for t in caught):
            out.append((path, node.lineno))
    return out


def test_handlers_recognised():
    src = ("try:\n    f()\nexcept ValueError:\n    pass\n"
           "try:\n    f()\nexcept:\n    pass\n"
           "try:\n    f()\nexcept (KeyError, Exception):\n    pass\n"
           "try:\n    f()\nexcept builtins.BaseException as e:\n    pass\n")
    assert [ln for _, ln in _broad_handlers(ast.parse(src), "x")] == [7, 11, 15]


def test_no_broad_except_in_the_package():
    found = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                found += _broad_handlers(ast.parse(fh.read()), name)
    assert not found, found
