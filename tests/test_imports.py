"""Every name a qcvz module imports is read somewhere in that module, and
importing qcvz loads no scipy."""
import ast
import json
import os
import subprocess
import sys
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
