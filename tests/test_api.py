import ast
from pathlib import Path

import udspell

ROOT = Path(__file__).resolve().parent.parent

# The public API, pinned so that any name added to or dropped from it shows
# up as a reviewed change to this list.
PUBLIC_NAMES = [
    "ChannelModel",
    "CharConfusion",
    "CorpusDiagnostics",
    "CorrectionPath",
    "CorruptionRecord",
    "DecodeConfig",
    "EcmConfig",
    "EvalRecord",
    "Lattice",
    "NgramModel",
    "PruneConfig",
    "UdspellError",
    "UserDictionary",
    "build_ideal_dictionary",
    "build_ngram_confusion",
    "dataset_stats",
    "decode",
    "decode_corpus",
    "generate_corpus",
    "load_char_confusion",
    "load_dictionary",
    "make_lattice",
    "parse_lattice",
    "prune",
    "score_sentence",
    "sentence_metrics",
    "train",
]


def test_public_names_pinned():
    assert sorted(udspell.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in udspell.__all__:
        assert getattr(udspell, name) is not None, name


def public_definitions(path):
    """The public module-level functions and classes of a module, and the
    public methods of those classes."""
    names = []
    for node in ast.parse(path.read_text("utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            names.append(node.name)
            if isinstance(node, ast.ClassDef):
                names += [
                    m.name
                    for m in node.body
                    if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")
                ]
    return names


def test_every_public_name_has_a_caller_outside_the_tests():
    """No library code that only tests call: each public name, and each public
    function, class and method of the library's modules, is used by the
    library's own modules or by a demo."""
    modules = [p for p in (ROOT / "src" / "udspell").glob("*.py") if p.name != "__init__.py"]
    sources = modules + list((ROOT / "demos").glob("*.py"))
    used = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    names = set(udspell.__all__).union(*map(public_definitions, modules))
    assert sorted(names - used) == []


def test_no_unused_imports():
    """Every name a top-level import binds is used in its module, apart from
    ``from __future__`` imports and names that ``__all__`` exports."""
    paths = sorted((ROOT / "src" / "udspell").glob("*.py"))
    paths += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    unused = []
    for path in paths:
        tree = ast.parse(path.read_text("utf-8"))
        bound, used = set(), {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used.update(ast.literal_eval(node.value))
        unused += [f"{path.relative_to(ROOT)}: {name}" for name in sorted(bound - used)]
    assert unused == []


def test_no_module_imports_another_modules_private_name():
    """No library module takes an underscore name from another, whether by
    ``from .x import _name`` or as an attribute of a module it imported."""
    found = []
    for path in sorted((ROOT / "src" / "udspell").glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"))
        own = [
            n for n in ast.walk(tree)
            if isinstance(n, ast.ImportFrom) and (n.level or n.module.startswith("udspell"))
        ]
        names = [a.name for n in own for a in n.names]
        modules = {a.asname or a.name for n in own if n.module in (None, "udspell") for a in n.names}
        for n in ast.walk(tree):
            if isinstance(n, ast.Attribute) and getattr(n.value, "id", None) in modules:
                names.append(n.attr)
        found += [f"{path.name}: {name}" for name in names if name.startswith("_")]
    assert found == []
