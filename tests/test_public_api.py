"""The names ``from multirel import *`` gives.  A name leaves or joins the
public API only on purpose: update this list in the same change, and say
so in CHANGES.md."""

import ast
import importlib
import inspect
from pathlib import Path

import multirel

# ``__all__`` is every public name of the package but its submodules.
PUBLIC = [
    "CapExceeded", "Carrier", "ENUM_CAP", "EnumerationTooLarge", "GenSpec",
    "IdentityShapeMismatch", "Law", "LawReport", "MASK_CAP", "MRel", "MaskTooWide",
    "MultirelError", "POW_CAP", "PowersetTooLarge", "PropertyFlags", "Rel",
    "RelFlags", "ShapeMismatch", "Slot", "TermSyntaxError",
    "UnboundVariable", "UnknownLaw", "alpha", "bits", "ccomp", "check",
    "classify_mrel", "classify_rel", "closure", "cofission", "cofusion",
    "d_subrelations", "domain", "eta", "evaluate", "fission", "full_mask", "fusion",
    "image_functor", "inner_bool", "inner_dual", "instances", "is_submrel",
    "is_subrel", "kleisli_compose", "kleisli_lift", "law_by_id", "member_rel",
    "mix64", "mrel_bool", "mrel_const", "mrel_to_rel", "mu", "odot", "omega",
    "parse", "peleg_compose", "peleg_lift", "pow_carrier", "power_transpose",
    "preorder", "print_term", "registry", "rel_bool", "rel_compose", "rel_const",
    "rel_converse", "rel_to_mrel", "residual", "space_size", "split_terminal",
    "symmetric_quotient",
]

SRC = Path(multirel.__file__).resolve().parent
DEMOS = Path(__file__).resolve().parents[1] / "demos"


def test_public_names_are_pinned():
    assert sorted(multirel.__all__) == PUBLIC


def _used(path: Path, package: str) -> set[int]:
    """The ids of the package's objects that ``path`` reads: a name it
    imports from the package, or an attribute of a package module it
    imports that way.  ``package`` resolves relative imports."""
    tree = ast.parse(path.read_text(), str(path))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = f"{package}.{base}" if base else package
            if base.split(".")[0] != "multirel":
                continue
            mod = importlib.import_module(base)
            for alias in node.names:
                bound[alias.asname or alias.name] = getattr(mod, alias.name)
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in bound:
            used.add(id(bound[node.id]))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and inspect.ismodule(bound.get(node.value.id))):
            used.add(id(getattr(bound[node.value.id], node.attr, None)))
    return used


def test_every_public_function_is_used():
    """Each public function is used by a package module other than its own
    and ``__init__``, or by a demo.  Code that only tests reach belongs in
    ``tests/``."""
    files = [(p, "multirel") for p in SRC.glob("*.py") if p.name != "__init__.py"]
    files += [(p, "") for p in DEMOS.glob("*.py")]
    used = {p: _used(p, package) for p, package in files}
    unused = []
    for name in sorted(multirel.__all__):
        fn = getattr(multirel, name)
        if not inspect.isfunction(fn):
            continue
        home = Path(inspect.getsourcefile(fn)).resolve()
        if not any(id(fn) in ids for p, ids in used.items() if p != home):
            unused.append(name)
    assert unused == []
