"""Every tolerance default lives in qhm.tolerances, and none has an
absolute floor."""

import ast
import importlib
from pathlib import Path

import qhm
from qhm import tolerances

SRC = Path(qhm.__file__).parent
FLOORS = ["max(1.0,", "(1.0 + diam"]
# Float literals below this are tolerances (the ascent's start offset is 1e-3).
SMALLEST_CONSTANT = 1e-3


def _modules():
    return [p for p in sorted(SRC.glob("*.py")) if p.name != "tolerances.py"]


def _is_tolerance_name(name: str) -> bool:
    return any(k in name.upper() for k in ("TOL", "FLOOR", "_REL"))


def _default_problems(path: Path) -> list[str]:
    """Tolerance defaults defined in `path` instead of qhm.tolerances."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for t in targets:
            if isinstance(t, ast.Name) and _is_tolerance_name(t.id):
                found.append(f"{path.name}:{node.lineno} assigns {t.id}")
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args.posonlyargs + node.args.args
            pairs = list(zip(args[len(args) - len(node.args.defaults):],
                             node.args.defaults))
            pairs += [(a, d) for a, d in zip(node.args.kwonlyargs,
                                             node.args.kw_defaults) if d]
            for arg, default in pairs:
                if "tol" not in arg.arg.lower():
                    continue
                named = (isinstance(default, ast.Name)
                         and hasattr(tolerances, default.id))
                none = isinstance(default, ast.Constant) and default.value is None
                if not (named or none):
                    found.append(f"{path.name}:{node.lineno} {node.name}"
                                 f"({arg.arg}=...) has its own default")
        if (isinstance(node, ast.Constant) and isinstance(node.value, float)
                and 0.0 < abs(node.value) < SMALLEST_CONSTANT):
            found.append(f"{path.name}:{node.lineno} literal {node.value!r}")
    return found


def test_no_absolute_floor():
    hits = [f"{p.name}:{i}" for p in sorted(SRC.glob("*.py"))
            for i, line in enumerate(p.read_text(encoding="utf-8").splitlines(), 1)
            if any(f in line for f in FLOORS)]
    assert hits == []


def test_every_tolerance_default_in_one_module():
    assert [p for path in _modules() for p in _default_problems(path)] == []


def test_checker_sees_a_default(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("X_TOL = 0.5\n"
                   "def f(a, tol=0.5, *, rtol: float = 0.5):\n"
                   "    return a <= 1e-9 * tol\n", encoding="utf-8")
    assert _default_problems(bad) == [
        "bad.py:1 assigns X_TOL", "bad.py:2 f(tol=...) has its own default",
        "bad.py:2 f(rtol=...) has its own default", "bad.py:3 literal 1e-09"]
    good = tmp_path / "good.py"
    good.write_text("from qhm.tolerances import DEFAULT_TOL\n"
                    "def f(a, tol=DEFAULT_TOL, grad_tol=None):\n"
                    "    return a <= 1e-3 * tol\n", encoding="utf-8")
    assert _default_problems(good) == []


def test_public_names_resolve_to_the_module():
    # the old homes of the defaults still export them, as the same objects
    homes = {"qhm": ["DEFAULT_TOL"],
             "qhm.classify": ["DEFAULT_TOL"],
             "qhm.energy": ["SOLVE_REL"],
             "qhm.msolver": ["DEFAULT_TOL", "SOLVE_REL"],
             "qhm.spaces": ["TRIANGLE_TOL_REL"],
             "qhm._kernels": ["PERRON_RTOL"],
             "qhm.experiments": ["GLUE_DIVERGE_PREDICTION_RTOL"]}
    for module, names in homes.items():
        for name in names:
            assert (getattr(importlib.import_module(module), name)
                    is getattr(tolerances, name))


def _tolerances_read(path: Path) -> set[str]:
    """Names that `path` imports from qhm.tolerances and then reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and node.module == "tolerances" and node.level == 1
                for alias in node.names}
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return imported & loaded


def test_every_constant_is_read():
    # a constant no module reads is a tolerance that governs nothing
    constants = {name for name in vars(tolerances) if name.isupper()}
    read = set().union(*map(_tolerances_read, _modules()))
    assert sorted(constants - read) == []


def test_reader_needs_an_import_and_a_read(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("from .tolerances import A_TOL, B_TOL\n"
                   "from other import C_TOL\n"
                   "def f(x, tol=A_TOL):\n"
                   "    return x * C_TOL\n", encoding="utf-8")
    assert _tolerances_read(mod) == {"A_TOL"}
