"""No module under src/nlchb or tests imports a name it never uses, and no
module-level function, class or constant in src/nlchb, and no method of such
a class, is left without a reader.

No linter runs on this code, so these AST scans are the check. The package
`__init__.py` is left out: its imports are the public re-exports. The last
tests import `nlchb.cli`, and run its commands, in a child process and check
which scipy and numpy subpackages they load: nlchb loads scipy's compiled
pocketfft by file, never the `scipy.fft` package, and calls it as scipy's
wrappers do; its Gauss table and polynomial derivatives are plain arrays, so
no command loads `numpy.polynomial` or `numpy.fft`. The random preset draws
numpy's PCG64 stream itself, so `run` and `sweep-eps` load no `numpy.random`.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = sorted(p for p in (ROOT / "src" / "nlchb").glob("*.py") if p.name != "__init__.py")
FILES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read, as 'name (line n)'."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_scanner_finds_unused_and_keeps_used():
    source = "import os\nimport numpy as np\nimport nlchb.solver\nfrom .kernel import a, b\n"
    source += "np.zeros(1)\nnlchb.solver.advance\nprint(b)\n"
    assert unused_imports(source) == ["os (line 1)", "a (line 4)"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def used_names(tree: ast.AST, skip: tuple[int, int] = (0, -1), strings: bool = False) -> set[str]:
    """Identifiers, attribute names and imported names read in `tree` outside
    the lines `skip`; with `strings`, also the dotted parts of string constants
    (the `module.Class.method` targets that perfbench wraps by name)."""
    names = set()
    for node in ast.walk(tree):
        if skip[0] <= getattr(node, "lineno", 0) <= skip[1]:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(node.value.split("."))
    return names


def definitions(tree: ast.Module):
    """(qualified name, node) of each module-level function, class and
    constant (a name assigned to) of `tree` and of each method of those
    classes, the dunder ones left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("__"):
                    yield target.id, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item


def unreferenced_definitions(
    package: dict[str, str], outside: list[str], exported: set[str]
) -> list[str]:
    """Module-level functions, classes and constants of `package` (module name
    -> source), and methods of those classes, referenced by name nowhere but in their own
    definition: not elsewhere in their module, not in another package module,
    not in an `outside` source, and not among the `exported` names."""
    trees = {name: ast.parse(source) for name, source in package.items()}
    outside_names = set(exported).union(*(used_names(ast.parse(s), strings=True) for s in outside))
    dead = []
    for name, tree in trees.items():
        elsewhere = outside_names.union(*(used_names(t) for n, t in trees.items() if n != name))
        for qualified, node in definitions(tree):
            short = qualified.rpartition(".")[2]
            if short not in elsewhere:
                if short not in used_names(tree, (node.lineno, node.end_lineno)):
                    dead.append(f"{name}.{qualified}")
    return dead


def test_definition_scanner_finds_dead_and_keeps_used():
    package = {
        "a": "def helper():\n    return helper\n\ndef used():\n    pass\n\nused()\n",
        "b": "from .a import used\n\nclass Wrapped:\n    pass\n\ndef public():\n    pass\n",
    }
    outside = ['TARGETS = [("b", "Wrapped.method")]\n']
    assert unreferenced_definitions(package, outside, {"public"}) == ["a.helper"]
    assert unreferenced_definitions(package, [], set()) == ["a.helper", "b.Wrapped", "b.public"]


def test_definition_scanner_finds_dead_methods():
    source = (
        "class Box:\n"
        "    def __init__(self):\n        self.size = 1\n\n"
        "    def used(self):\n        return self.size\n\n"
        "    def loop(self):\n        return self.loop()\n\n"
        "Box().used()\n"
    )
    assert unreferenced_definitions({"a": source}, [], set()) == ["a.Box.loop"]
    assert unreferenced_definitions({"a": source}, ['("a", "Box.loop")'], set()) == []


def test_definition_scanner_finds_dead_constants():
    package = {
        "a": '__all__ = ["LIMIT"]\nLIMIT = 3\nSPARE: int = LIMIT\n_TABLE = {}\n',
        "b": "from .a import LIMIT\n\nSIZE = 2 * LIMIT\n",
    }
    assert unreferenced_definitions(package, [], set()) == ["a.SPARE", "a._TABLE", "b.SIZE"]
    assert unreferenced_definitions(package, ["print(SIZE)\n"], {"SPARE"}) == ["a._TABLE"]


def test_no_unreferenced_definitions():
    init = ast.parse((ROOT / "src" / "nlchb" / "__init__.py").read_text(encoding="utf-8"))
    exported = {
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    package = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE}
    perfbench = [path.read_text(encoding="utf-8") for path in sorted((ROOT / "perfbench").glob("*.py"))]
    assert unreferenced_definitions(package, perfbench, exported) == []


def test_cli_import_loads_no_scipy_integrate():
    # scipy.integrate (and the optimize, sparse and linalg it pulls in) would
    # add about 0.3 s and 25 MB to every command; nlchb needs only scipy's
    # compiled pocketfft, which it loads by file
    heavy = ["scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.linalg"]
    code = f"import sys, nlchb.cli; print([m for m in {heavy!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_cli_import_loads_no_scipy_fft_package():
    # the scipy.fft package, and the scipy.special, numpy.f2py and numpy.testing
    # it pulls in, would add about 0.25 s and 20 MB to every command
    heavy = ["scipy.fft", "scipy.special", "numpy.f2py", "numpy.testing"]
    code = f"import sys, nlchb.cli; print([m for m in {heavy!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_cli_import_loads_no_numpy_polynomial():
    # leggauss and polyder came from numpy.polynomial, about 0.6 MiB, and
    # leggauss started LAPACK, about 0.9 MiB more
    code = "import sys, nlchb.cli; print('numpy.polynomial' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_validate_and_run_load_no_numpy_polynomial_or_fft(tmp_path):
    # kernel_norms shifts the kernel lattice with np.roll, not numpy.fft's fftshift
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "[grid]\nnx = 16\nny = 16\n[kernel]\nepsilon = 0.3\n[solver]\ndt = 1e-4\n"
        f"t_end = 1e-3\ncadence = 5\n[output]\ndirectory = {tmp_path / 'out'}\n"
    )
    heavy = ["numpy.polynomial", "numpy.fft"]
    code = (
        "import sys, contextlib, io; from nlchb.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(['validate', {str(cfg)!r}]), main(['run', {str(cfg)!r}])]\n"
        f"print(codes, [m for m in {heavy!r} if m in sys.modules])"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[0, 0] []"


def test_run_and_sweep_eps_load_no_numpy_random(tmp_path):
    # the random preset draws numpy's PCG64 stream itself; numpy.random would
    # add about 6 MiB of peak memory and 10 ms to each command
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "[grid]\nnx = 16\nny = 16\n[kernel]\nepsilon = 0.3\n[solver]\ndt = 1e-4\n"
        "t_end = 1e-3\ncadence = 5\n[initial]\nphi_preset = random\n"
        f"[output]\ndirectory = {tmp_path / 'out'}\n"
    )
    code = (
        "import sys, contextlib, io; from nlchb.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(['run', {str(cfg)!r}]),"
        f" main(['sweep-eps', {str(cfg)!r}, '--eps', '0.4,0.3'])]\n"
        "print(codes, 'numpy.random' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[0, 0] False"
