"""Guards on the public API: the solvers carry their stopping rules as
constants, so no public function or method takes a tolerance, scan-size or
step-budget parameter; and every public function or class is used by the
package's code (not its comments or docstrings) or documented in the
README, so none is kept for tests alone."""

import ast
import importlib
import inspect
import pathlib
import pkgutil
import re

import cot_lab

KNOBS = {"tol", "grid", "max_iter", "abs_tol", "rel_tol", "xtol", "rtol"}


def public_callables():
    for info in pkgutil.iter_modules(cot_lab.__path__):
        mod = importlib.import_module(f"cot_lab.{info.name}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__",
                                               None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{mod.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if inspect.isfunction(member) and (
                            attr == "__init__" or not attr.startswith("_")):
                        yield f"{mod.__name__}.{name}.{attr}", member


def test_no_public_callable_takes_a_solver_knob():
    seen = dict(public_callables())
    assert "cot_lab.numkit.find_root" in seen
    assert "cot_lab.infokit.DiscreteChannel.__init__" in seen
    offenders = sorted(
        f"{qual}({param})" for qual, fn in seen.items()
        for param in inspect.signature(fn).parameters if param in KNOBS)
    assert offenders == []


def code_text(source):
    """The module's code without its comments and docstrings, so a name
    mentioned only in prose does not count as used."""
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and \
                ast.get_docstring(node, clean=False) is not None:
            node.body = node.body[1:] or [ast.Pass()]
    return ast.unparse(tree)


def test_every_public_name_is_used_or_documented():
    root = pathlib.Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    texts = [code_text(path.read_text())
             for path in (root / "src/cot_lab").glob("*.py")]
    names = {qual.split(".")[2] for qual, _ in public_callables()}
    unused = sorted(
        name for name in names
        if not re.search(rf"\b{name}\b", readme) and not any(
            re.search(rf"\b{name}\b", re.sub(
                rf"^(def|class) {name}\b.*$", "", text, flags=re.M))
            for text in texts))
    assert unused == []
