"""Every import in the package and its tests is used (no linter is assumed to be
installed)."""

import ast
import builtins
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "forcelimits"


def findings(find, skip=None):
    """{module: hits} of `find` over the package's parsed modules (less `skip`),
    for each module where it finds something."""
    found = {p.name: find(ast.parse(p.read_text(encoding="utf-8")))
             for p in sorted(PACKAGE.glob("*.py")) if p.name != skip}
    return {name: hits for name, hits in found.items() if hits}


def imported_names(tree):
    """(bound name, line) of each import outside `from __future__`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs
            every += [a for a in (args.vararg, args.kwarg) if a is not None]
            yield from (a.annotation for a in every if a.annotation is not None)
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree):
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a quoted annotation ("SchemeConfig", list["Row"]) names what it quotes
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                names |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return names


def unused_imports(source):
    tree = ast.parse(source)
    used = used_names(tree)
    return [(name, line) for name, line in imported_names(tree) if name not in used]


@pytest.mark.parametrize(
    "path",
    sorted(PACKAGE.glob("*.py")) + sorted(Path(__file__).resolve().parent.glob("*.py")),
    ids=lambda p: p.name,
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detector():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from dataclasses import dataclass, field\n"
        "from typing import Mapping\n"
        "import numpy as np\n"
        "def f(x: 'Mapping[str, int]') -> None:\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(source) == [("dataclass", 3), ("field", 3), ("np", 5)]


def private_definitions(tree):
    """Single-underscore names a module binds at its top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from (n for n in names if n.startswith("_") and not n.startswith("__"))


def referenced_names(tree):
    """Names a module reads, reaches as an attribute or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def orphans(sources):
    """(module, name) of each private top-level name no module refers to."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    used = {n for tree in trees.values() for n in referenced_names(tree)}
    return [(module, name) for module, tree in trees.items()
            for name in private_definitions(tree) if name not in used]


def test_no_orphan_private_names():
    # a helper folded into its caller must not stay behind
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert orphans(sources) == []


def test_orphan_detector():
    sources = {
        "a.py": "_LIMIT = 1\n_seen = 2\ndef _helper():\n    return _LIMIT\n"
                "class _Old:\n    pass\n__all__ = []\n",
        "b.py": "from a import _helper\nx = _helper()\n",
    }
    assert orphans(sources) == [("a.py", "_seen"), ("a.py", "_Old")]


def variant_comparisons(tree):
    """Lines that compare a `.variant` attribute (==, !=, in, ...)."""
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and any(isinstance(n, ast.Attribute) and n.attr == "variant"
                for n in (node.left, *node.comparators))
    ]


def test_variant_facts_stay_in_schemes():
    # schemes.VARIANTS states each variant's facts once; elsewhere a scheme is
    # read through those facts, never by testing its name
    assert findings(variant_comparisons, skip="schemes.py") == {}


def test_variant_comparison_detector():
    source = (
        "if config.variant == 'cqnc':\n    pass\n"
        "toy = 'toy' != cfg.variant\n"
        "known = config.variant in VARIANTS\n"
        "name = config.variant\n"
        "same = variant == 'toy'\n"
    )
    assert variant_comparisons(ast.parse(source)) == [1, 3, 4]


CHANNEL_IDS = {"MECHANICAL": "mechanical", "READOUT": "readout", "ANCILLA": "ancilla"}


def channel_id_uses(tree):
    """Lines that name a channel id, by its constant or by its string."""
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id in CHANNEL_IDS
        or isinstance(node, ast.Attribute) and node.attr in CHANNEL_IDS
        or isinstance(node, ast.alias) and node.name in CHANNEL_IDS
        or isinstance(node, ast.Constant) and node.value in CHANNEL_IDS.values()
    )


def test_channel_ids_stay_in_schemes():
    # schemes.build decides which inputs are channels; the rest of the package
    # reads the model's channels and never picks one out by its id
    assert findings(channel_id_uses, skip="schemes.py") == {}


def test_channel_id_detector():
    source = (
        "from .schemes import MECHANICAL, SchemeConfig\n"
        "budget = {c: s for c, s in spectra.items() if c != MECHANICAL}\n"
        "row = schemes.READOUT\n"
        "if ch.id == 'ancilla':\n    pass\n"
        "note = 'the readout channel'\n"
        "readout = model.readout\n"
    )
    assert channel_id_uses(ast.parse(source)) == [1, 2, 3, 4]


def hand_located_raises(tree):
    """Lines of raise statements whose text spells out an `omega =` location."""
    return [
        node.lineno for node in ast.walk(tree) if isinstance(node, ast.Raise)
        and any(isinstance(n, ast.Constant) and isinstance(n.value, str)
                and "omega =" in n.value for n in ast.walk(node))
    ]


def test_frequency_failures_use_the_locator():
    # errors.FailureAtFrequency states how a failure names its frequency, and
    # its at_first picks the first one in grid order; no message is hand-written
    assert findings(hand_located_raises, skip="errors.py") == {}


def test_hand_located_raise_detector():
    source = (
        "raise ValueError(f'bad at omega = {w!r}')\n"
        "raise Failure('chi vanished (omega = 1.0)')\n"
        "message = 'omega = 2'\n"
        "raise Failure.at_first(w, bad)\n"
        "if x:\n    raise Failure(w, 'singular')\n"
    )
    assert hand_located_raises(ast.parse(source)) == [1, 2]


BUILTIN_EXCEPTIONS = {name for name, value in vars(builtins).items()
                      if isinstance(value, type) and issubclass(value, BaseException)}


def builtin_raises(tree):
    """Lines of raise statements whose exception is a builtin class (ValueError, ...)."""
    return [
        node.lineno for node in ast.walk(tree) if isinstance(node, ast.Raise)
        and isinstance(exc := getattr(node.exc, "func", node.exc), ast.Name)
        and exc.id in BUILTIN_EXCEPTIONS
    ]


def test_failures_are_package_types():
    # rejected input is InvalidConfig where it is checked, a breakdown a
    # NumericalFailure: a builtin exception would escape main's exit codes
    assert findings(builtin_raises) == {}


def test_builtin_raise_detector():
    source = (
        "raise ValueError('grid must be positive')\n"
        "raise KeyError\n"
        "raise InvalidConfig('unknown suite')\n"
        "raise argparse.ArgumentTypeError('bad seed')\n"
        "try:\n    pass\nexcept OverflowError as exc:\n    raise\n"
        "if x:\n    raise OverflowError('range') from exc\n"
        "raise exc\n"
    )
    assert builtin_raises(ast.parse(source)) == [1, 2, 10]



#: the failure types: the base, one per CLI exit code (2, 3, 4) and the
#: frequency-locating failure
ERROR_TYPES = ("ForceLimitsError", "InvalidConfig", "UnstableModel", "NumericalFailure",
               "FailureAtFrequency")


def error_subclasses(tree):
    """(class, line) of each class with one of ERROR_TYPES among its bases."""
    return [
        (node.name, node.lineno) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
        and any(isinstance(b, ast.Name) and b.id in ERROR_TYPES
                or isinstance(b, ast.Attribute) and b.attr in ERROR_TYPES for b in node.bases)
    ]


def test_one_failure_type_per_exit_code():
    # main picks the exit code by these types alone; what went wrong is the
    # message, stated where the failure is raised, not a subclass
    errors = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    assert tuple(n.name for n in ast.walk(errors) if isinstance(n, ast.ClassDef)) == ERROR_TYPES
    assert findings(error_subclasses, skip="errors.py") == {}


def test_error_subclass_detector():
    source = (
        "class Singular(FailureAtFrequency):\n    pass\n"
        "class Blind(errors.NumericalFailure):\n    pass\n"
        "class Mixed(Base, InvalidConfig):\n    pass\n"
        "class Plain(ValueError):\n    pass\n"
        "raise NumericalFailure('output carries no force signal')\n"
    )
    assert error_subclasses(ast.parse(source)) == [("Singular", 1), ("Blind", 3), ("Mixed", 5)]


def name_uses(tree, names=("clongdouble",)):
    """(enclosing definition, line) of each reference to one of `names`."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}" if where != "<module>" else node.name
        if (isinstance(node, ast.Attribute) and node.attr in names
                or isinstance(node, ast.Name) and node.id in names
                or isinstance(node, ast.alias) and node.name in names
                or isinstance(node, ast.Constant) and node.value in names):
            found.append((where, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return found


def test_extended_precision_stays_in_the_refinement():
    # the residual's precision is decided on one line of linsys.refined_solve,
    # the line a platform fallback replaces; no type or module caches it
    stray = [(p.name, where, line) for p in sorted(PACKAGE.glob("*.py"))
             for where, line in name_uses(ast.parse(p.read_text(encoding="utf-8")))
             if (p.name, where) != ("linsys.py", "refined_solve")]
    assert stray == []


def test_extended_precision_detector():
    source = (
        "import numpy as np\n"
        "from numpy import clongdouble\n"
        "HI = np.clongdouble\n"
        "class D:\n"
        "    def __post_init__(self):\n"
        "        self.t = self.e.astype(np.clongdouble)\n"
        "def refined_solve(y):\n"
        "    return y.astype(np.clongdouble), y.astype('clongdouble')\n"
        "def other(y):\n"
        "    return y.astype(np.complex128)\n"
    )
    assert name_uses(ast.parse(source)) == [
        ("<module>", 2), ("<module>", 3), ("D.__post_init__", 6),
        ("refined_solve", 8), ("refined_solve", 8),
    ]


def test_noise_assembles_s_f_in_one_place():
    # the visibility floor and the coefficient rule live in _coefficients, the
    # sum over channel spectra in power_density; _sensitivity and added_noise
    # call them and state neither again
    tree = ast.parse((PACKAGE / "noise.py").read_text(encoding="utf-8"))
    assert [where for where, _ in name_uses(tree, ("form",))] == ["power_density"]
    assert [where for where, _ in name_uses(tree, ("_visible",))] == ["_coefficients"]


def test_units_are_chosen_in_one_place():
    # frexp and ldexp pick a power-of-four unit; any other use of them is a
    # second unit rule next to bounds._unit
    stray = [(p.name, where, line) for p in sorted(PACKAGE.glob("*.py"))
             for where, line in name_uses(ast.parse(p.read_text(encoding="utf-8")),
                                          ("frexp", "ldexp"))
             if (p.name, where) != ("bounds.py", "_unit")]
    assert stray == []


def test_unit_detector():
    source = (
        "import math\n"
        "from numpy import frexp\n"
        "def _unit(*rates):\n"
        "    return math.ldexp(1.0, math.frexp(max(rates))[1])\n"
        "def generalized_uql(mag):\n"
        "    m, e = np.frexp(mag)\n"
        "    return np.ldexp(1.0, -2 * e) / (m * m), getattr(np, 'ldexp')\n"
        "def other(x):\n"
        "    return x.frexp_like, math.sqrt(x)\n"
    )
    assert name_uses(ast.parse(source), ("frexp", "ldexp")) == [
        ("<module>", 2), ("_unit", 4), ("_unit", 4), ("generalized_uql", 6),
        ("generalized_uql", 7), ("generalized_uql", 7),
    ]
