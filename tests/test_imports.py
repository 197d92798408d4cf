"""Every name a qcvz module imports is read somewhere in that module, every
module-level private name is read somewhere in the package, every error
message has one source, and importing qcvz loads no scipy."""
import ast
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "qcvz"


def _unused_imports(tree: ast.Module) -> set[str]:
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return imported - read


# __init__.py re-exports what it imports.
@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert _unused_imports(ast.parse(path.read_text())) == set()


def test_unused_import_is_found():
    assert _unused_imports(ast.parse("import os\nfrom math import pi, tau\nprint(tau)")) == {
        "os", "pi"}


def _unread_private_names(trees: list[ast.Module]) -> set[str]:
    """Module-level private functions, classes and constants of ``trees`` that
    no tree reads, as a name or as an attribute."""
    defined, read = set(), set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return {name for name in defined if name.startswith("_") and not name.startswith("__")} - read


def test_every_private_name_is_read():
    # A private helper that only the tests use is dead code in the package.
    trees = [ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))]
    assert _unread_private_names(trees) == set()


def test_unread_private_name_is_found():
    a = ast.parse("def _used(): pass\ndef _unused(): pass\nclass _Lone: pass\n"
                  "_K, _J = 1, 2\n_T: int = 3\n__version__ = '1'\n")
    b = ast.parse("import a\nfrom a import _unused\n_used()\nprint(a._J, _T)\n")
    assert _unread_private_names([a, b]) == {"_unused", "_Lone", "_K"}


# A number, inf or nan in a message's text, or a {field} of a format string.
_NUMBER_OR_FIELD = re.compile(r"-?\d[\d.e+-]*|\binf\b|\bnan\b|\{[^}]*\}")


def _message(node: ast.expr) -> str | None:
    """A string or f-string with each number and field as #, else None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return _NUMBER_OR_FIELD.sub("#", node.value)
    if isinstance(node, ast.JoinedStr):
        return "".join(_NUMBER_OR_FIELD.sub("#", part.value) if isinstance(part, ast.Constant)
                       else "#" for part in node.values)
    return None


def _is_error(node: ast.expr) -> bool:
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")
    return name.endswith("Error")


def _duplicate_messages(trees: list[ast.Module]) -> dict[str, int]:
    """Error messages made at more than one site, and how many: the message
    of a call to a name ending in Error, or the one right after such a name
    in a tuple or among a call's arguments (a check that raises it later)."""
    sites = Counter()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                items = [node.func, *node.args]
            elif isinstance(node, ast.Tuple):
                items = node.elts
            else:
                continue
            for error, text in zip(items, items[1:]):
                message = _message(text) if _is_error(error) else None
                if message is not None:
                    sites[message] += 1
    return {message: n for message, n in sites.items() if n > 1}


def test_every_error_message_has_one_source():
    trees = [ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))]
    assert _duplicate_messages(trees) == {}


def test_duplicate_message_is_found():
    tree = ast.parse('raise ValueError(f"bad {x}, got 1.5e-3")\nraise KeyError("bad 2, got nan")\n'
                     'CHECKS = ((TypeError, "bad {y}, got inf", ok),)\nraise ValueError("bad")\n'
                     'print("bad 1, got 2")\nraise errors.MixerError("bad")\n'
                     'check(MixerError, "bad", ok)\n')
    assert _duplicate_messages([tree]) == {"bad #, got #": 3, "bad": 3}


def _scipy_modules_after(code: str) -> list[str]:
    """scipy modules loaded by ``code`` in a fresh interpreter."""
    path = os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    probe = (code + "\nimport json, sys\n"
             "print(json.dumps([m for m in sys.modules if m.startswith('scipy')]))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         timeout=120, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_import_loads_no_scipy():
    assert _scipy_modules_after("import qcvz, qcvz.cli") == []


def test_compile_loads_no_scipy(tmp_path):
    program = tmp_path / "program.json"
    program.write_text(json.dumps({"qubits": [["x90", "z45", "h"], ["x180"]]}))
    argv = ["compile", "--program", str(program), "--out", str(tmp_path)]
    run = f"from qcvz.cli import main\nassert main({argv!r}) == 0"
    assert _scipy_modules_after(run) == []
    assert (tmp_path / "schedule.json").exists()


def test_scipy_is_named_only_inside_fit_curve():
    # The curve fits import scipy.optimize on first use; nothing else in src/ needs scipy.
    tree = ast.parse((SRC / "qubit.py").read_text())
    fit = next(node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "fit_curve")
    for path in sorted(SRC.glob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if "scipy" in line:
                assert path.name == "qubit.py" and fit.lineno <= lineno <= fit.end_lineno, (
                    f"{path.name}:{lineno}: {line.strip()}")
