"""Every module-level function of the package is used by the package itself.

A function counts as used when code elsewhere in `src/vsolitons` names it: a
call, an entry in a table such as `suites._SUITES`, or an import in
`vsolitons/__init__.py`, which makes it public.  Comments and docstrings do
not count.  A helper that only the tests call belongs in the tests.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "vsolitons"


def _named(node) -> Counter:
    """How often each name is read under node: names and attribute names."""
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    )


def unused_functions(sources: dict) -> list:
    """'module.function' for each module-level function of sources (file name
    -> text) that no code outside its own body names."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    named = sum((_named(tree) for tree in trees.values()), Counter())
    exported = {alias.asname or alias.name
                for node in ast.walk(trees.get("__init__.py", ast.Module(body=[])))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    unused = []
    for name, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) or node.name in exported:
                continue
            if named[node.name] - _named(node)[node.name] <= 0:
                unused.append(f"{name[:-3]}.{node.name}")
    return unused


def test_every_function_is_used_by_the_package():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert unused_functions(sources) == []


def test_a_function_named_only_in_prose_or_by_itself_is_unused():
    sources = {
        "__init__.py": "from .a import public\n",
        "a.py": (
            "def public():\n    return helper()\n\n"
            "def helper():\n    return 1\n\n"
            "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n"
            "def documented():\n    '''not `stale` either'''\n\n"
            "# stale() is mentioned here only\n"
            "def stale():\n    return documented\n"
        ),
        "b.py": "TABLE = {'x': __import__('a').documented}\n",
    }
    assert unused_functions(sources) == ["a.recursive", "a.stale"]


#: The last word of a function name that names a norm, unit-vector,
#: inner-product or projective-distance helper (or a rescaling for one).
_NUMERIC_NOUNS = {"norm", "norms", "unit", "units", "dot", "dots", "inner", "distance",
                  "distances", "rescale", "unscaled", "normalize", "normalise"}

#: The field kernel's own squared norm and rescaling, kept out of soldata.
_KERNEL_HELPERS = ["dressing._squared_norms", "dressing._rescale"]


def numeric_helpers(sources: dict) -> list:
    """'module.function' for each module-level function outside soldata.py
    whose name ends in one of _NUMERIC_NOUNS."""
    return [f"{name[:-3]}.{node.name}"
            for name, text in sources.items() if name != "soldata.py"
            for node in ast.parse(text).body
            if isinstance(node, ast.FunctionDef)
            and node.name.strip("_").split("_")[-1] in _NUMERIC_NOUNS]


def test_soldata_holds_the_one_numeric_layer():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert numeric_helpers(sources) == _KERNEL_HELPERS


def test_numeric_helpers_are_named_by_their_last_word():
    sources = {
        "soldata.py": "def _norms(v):\n    pass\n",
        "a.py": ("def _unit(v):\n    pass\n\ndef _unit_phase(a):\n    pass\n\n"
                 "def projective_distances(a, b):\n    pass\n\ndef unit_vectors(d):\n    pass\n"),
        "b.py": "def _dot(a, b):\n    pass\n\ndef solve_mirror_norming(d):\n    pass\n",
    }
    assert numeric_helpers(sources) == ["a._unit", "a.projective_distances", "b._dot"]


def foreign_raises(sources: dict, allowed: set) -> list:
    """'file:line' of each raise in sources (file name -> text) whose
    exception is not a call or name of a class in allowed; a bare re-raise
    passes."""
    out = []
    for name, text in sources.items():
        raises = [node for node in ast.walk(ast.parse(text)) if isinstance(node, ast.Raise)]
        for node in sorted(raises, key=lambda node: node.lineno):
            if node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if (exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None)) not in allowed:
                out.append(f"{name}:{node.lineno}")
    return out


def test_every_raise_is_a_package_error():
    # errors.py: every error this package raises is a VsolitonsError
    errors = ast.parse((SRC / "errors.py").read_text(encoding="utf-8"))
    allowed = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert foreign_raises(sources, allowed) == []


def test_a_builtin_or_a_raised_variable_is_foreign():
    sources = {"a.py": ("def f(x):\n    try:\n        g()\n    except KeyError:\n        raise\n"
                        "    if x:\n        raise errors.PoleError('x')\n"
                        "    if x > 1:\n        raise ValueError('x')\n"
                        "    raise exc from None\n")}
    assert foreign_raises(sources, {"PoleError"}) == ["a.py:9", "a.py:10"]
