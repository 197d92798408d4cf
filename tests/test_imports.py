"""Every name a qcvz module imports is read somewhere in that module, every
layer imports as a module, every module imports only modules below it, every
module-level private name is read somewhere in the package, every public one
is read by another definition, named by the benchmark or a reference model,
every error message has one source, the README's library example runs,
neither importing qcvz nor running a command loads scipy, importing the CLI
builds no command parser and loads none of the layers that only one command
runs (compiler, resources, svgplot and its csv), and a bring-up command loads
no compiler while compile does."""
import ast
import json
import os
import re
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import numpy as np
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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert _unused_imports(ast.parse(path.read_text())) == set()


def test_unused_import_is_found():
    assert _unused_imports(ast.parse("import os\nfrom math import pi, tau\nprint(tau)")) == {
        "os", "pi"}


# The package's layers, lowest first. __init__.py imports none of them.
LAYERS = ("signals", "compiler", "svgplot", "mixer", "demux", "resources", "qubit", "calibration",
          "experiments", "cli")


@pytest.mark.parametrize("name", LAYERS)
def test_every_layer_is_a_module(name):
    # `import qcvz.<name> as m` binds the package's attribute <name>, which a
    # name re-exported by __init__.py would shadow.
    scope = {}
    exec(f"import qcvz.{name} as m", scope)
    assert isinstance(scope["m"], types.ModuleType)
    assert scope["m"].__name__ == f"qcvz.{name}"


def test_readme_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", (SRC.parents[1] / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    scope = {}
    exec(blocks[0], scope)
    assert np.array_equal(scope["traj"].times_s, np.arange(41) * 1e-6)
    assert ((scope["traj"].p1 >= 0) & (scope["traj"].p1 <= 1)).all()


def _upward_imports(trees: dict[str, ast.Module]) -> set[tuple[str, str]]:
    """(module, imported) for each ``from .x import`` or ``from . import x``
    of a module that is not below the importer in LAYERS."""
    found = set()
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                targets = [node.module] if node.module else [a.name for a in node.names]
                found |= {(name, t) for t in targets if LAYERS.index(t) >= LAYERS.index(name)}
    return found


def test_modules_import_only_lower_layers():
    paths = {p.stem: p for p in SRC.glob("*.py") if p.name != "__init__.py"}
    assert sorted(paths) == sorted(LAYERS)
    assert _upward_imports({n: ast.parse(p.read_text()) for n, p in paths.items()}) == set()
    for path in sorted(SRC.glob("*.py")):
        assert "TYPE_CHECKING" not in path.read_text(), path.name


def test_upward_import_is_found():
    trees = {"mixer": ast.parse("from .demux import Resonator\nfrom .signals import Tone\n"),
             "qubit": ast.parse("from . import experiments, mixer\nfrom .qubit import x\n")}
    assert _upward_imports(trees) == {("mixer", "demux"), ("qubit", "experiments"),
                                      ("qubit", "qubit")}


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


def _unread_public_names(trees: list[ast.Module], bench: str) -> set[str]:
    """Module-level public functions, classes and constants of ``trees`` that
    no other module-level statement of ``trees`` reads, as a name or as an
    attribute, and that ``bench`` (the benchmark's source) does not name."""
    defined: dict[str, set[int]] = {}
    reads = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = {node.name}
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            else:
                names = set()
            for name in names:
                if not name.startswith("_"):
                    defined.setdefault(name, set()).add(id(node))
            reads.append((id(node), {
                n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}))
    return {name for name, where in defined.items()
            if not any(name in read for node, read in reads if node not in where)
            and not re.search(rf"\b{name}\b", bench)}


# Public names that nothing in src/ or bench/ reads: the reference model that
# the tests check the fast paths against, one reason each.
REFERENCE_MODEL = (
    "propagate",  # exact Lindblad propagation of any sampled drive, on density matrices
    "residual_ratio",  # criterion 6's off/on Rabi-rate ratio, which README documents
)


def test_every_public_name_is_read_or_a_reference_model():
    # A public name that only the tests read is an oracle: tests/oracles.py.
    trees = [ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))]
    bench = "\n".join(p.read_text() for p in sorted((SRC.parents[1] / "bench").glob("*.py")))
    assert _unread_public_names(trees, bench) == set(REFERENCE_MODEL)


def test_unread_public_name_is_found():
    a = ast.parse('def used(): pass\ndef alone(): return alone()\nclass Lone: pass\n'
                  'K, J = 1, 2\nT: int = 3\nB = 4\ndef _private(): pass\n"""used K"""\n')
    b = ast.parse("import a\nused()\nprint(a.J, T)\n")
    assert _unread_public_names([a, b], "x = a.B") == {"alone", "Lone", "K"}


# A number, inf or nan in a message's text, or a {field} of a format string.
_NUMBER_OR_FIELD = re.compile(r"-?\d[\d.e+-]*|\binf\b|\bnan\b|\{[^}]*\}")


def _messages(node: ast.expr) -> list[str]:
    """The strings or f-strings ``node`` can be, each number and field as #:
    one for a string, one per arm of a conditional expression, else none."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [_NUMBER_OR_FIELD.sub("#", node.value)]
    if isinstance(node, ast.JoinedStr):
        return ["".join(_NUMBER_OR_FIELD.sub("#", part.value) if isinstance(part, ast.Constant)
                        else "#" for part in node.values)]
    if isinstance(node, ast.IfExp):
        return _messages(node.body) + _messages(node.orelse)
    return []


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
                if _is_error(error):
                    sites.update(_messages(text))
    return {message: n for message, n in sites.items() if n > 1}


def test_every_error_message_has_one_source():
    trees = [ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))]
    assert _duplicate_messages(trees) == {}


def test_duplicate_message_is_found():
    tree = ast.parse('raise ValueError(f"bad {x}, got 1.5e-3")\nraise KeyError("bad 2, got nan")\n'
                     'CHECKS = ((TypeError, "bad {y}, got inf", ok),)\nraise ValueError("bad")\n'
                     'print("bad 1, got 2")\nraise errors.MixerError("bad")\n'
                     'check(MixerError, "bad", ok)\n'
                     'raise QubitError("neg" if x < 0 else "bad")\nraise KeyError("neg")\n')
    assert _duplicate_messages([tree]) == {"bad #, got #": 3, "bad": 4, "neg": 2}


def _last_line(probe: str) -> str:
    """The last line that ``probe`` prints in a fresh interpreter."""
    path = os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         timeout=120, check=True)
    return out.stdout.splitlines()[-1]


def _modules_after(code: str, *prefixes: str) -> list[str]:
    """Modules named with one of ``prefixes`` that ``code`` has loaded in a
    fresh interpreter."""
    return json.loads(_last_line(
        code + "\nimport json, sys\n"
        f"print(json.dumps([m for m in sys.modules if m.startswith({prefixes!r})]))"))


def test_import_loads_no_scipy():
    assert _modules_after("import qcvz, qcvz.cli", "scipy") == []


# Layers that only one command runs (compile, resources, plot or --plot),
# which that command imports when it runs.
ONE_COMMAND_LAYERS = ("qcvz.compiler", "qcvz.resources", "qcvz.svgplot", "csv")


def test_import_loads_no_one_command_layer():
    assert _modules_after("import qcvz, qcvz.cli", *ONE_COMMAND_LAYERS) == []


def test_bringup_commands_load_no_one_command_layer(tmp_path):
    run = ("from qcvz.cli import main\n"
           f"assert main(['calibrate', '--out', {str(tmp_path)!r}]) == 0\n"
           f"assert main(['t1', '--points', '13', '--out', {str(tmp_path)!r}]) == 0")
    assert _modules_after(run, *ONE_COMMAND_LAYERS) == []
    assert (tmp_path / "pulses.json").exists() and (tmp_path / "t1_fit.json").exists()


def test_import_builds_no_parser():
    assert _last_line("import qcvz.cli as c; print(c._build_parser.cache_info().currsize)") == "0"


def test_compile_loads_no_scipy(tmp_path):
    program = tmp_path / "program.json"
    program.write_text(json.dumps({"qubits": [["x90", "z45", "h"], ["x180"]]}))
    argv = ["compile", "--program", str(program), "--out", str(tmp_path)]
    run = f"from qcvz.cli import main\nassert main({argv!r}) == 0"
    assert _modules_after(run, "scipy", "qcvz.compiler") == ["qcvz.compiler"]
    assert (tmp_path / "schedule.json").exists()


def test_commands_that_fit_or_sweep_load_no_scipy(tmp_path):
    commands = [["t1", "--points", "13"], ["ramsey", "--points", "21"], ["echo", "--points", "13"],
                ["rabi"], ["chevron", "--step-hz", "2e6", "--tau-points", "4"]]
    run = ("from qcvz.cli import main\n"
           f"for argv in {commands!r}:\n"
           f"    assert main([*argv, '--out', {str(tmp_path)!r}]) == 0, argv")
    assert _modules_after(run, "scipy") == []
    for name in ("t1_fit.json", "ramsey_fit.json", "echo_fit.json", "rabi.csv", "chevron.csv"):
        assert (tmp_path / name).exists()


def test_scipy_is_named_nowhere_in_src():
    for path in sorted(SRC.glob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            assert "scipy" not in line, f"{path.name}:{lineno}: {line.strip()}"
