"""Documentation consistency: the deliverable docs must exist and refer
to real artifacts."""

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).parent.parent.parent


@pytest.fixture(scope="module")
def docs():
    return {name: (ROOT / name).read_text()
            for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md")}


def test_all_docs_exist(docs):
    for name, text in docs.items():
        assert len(text) > 1000, name


def _module_map(design: str) -> set[str]:
    """The paths under ``src/repro/`` that DESIGN.md's inventory names.
    An entry is a directory (``name/``) or a module (``name.py``) at
    the start of a row; its indentation places it under the directory
    above it, and a directory row may list its modules on the same row
    (``bench/workloads/``).  Description columns are not entries."""
    block = design.split("## 3.", 1)[1].split("```")[1]
    paths: set[str] = set()
    dirs: list[tuple[int, str]] = []
    for line in block.splitlines():
        m = re.match(r"^( {2,8})(\w+/|\w+\.py)(.*)", line)
        if m is None:
            continue
        indent, name, rest = len(m.group(1)), m.group(2), m.group(3)
        dirs = [(i, d) for i, d in dirs if i < indent]
        prefix = "".join(d for _, d in dirs)
        if name.endswith("/"):
            dirs.append((indent, name))
            paths.update(prefix + name + f
                         for f in re.findall(r"\b(\w+\.py)\b", rest))
        else:
            paths.add(prefix + name)
    return paths


def test_design_module_map_matches_tree(docs):
    """DESIGN.md's inventory names every module under ``src/repro/``
    (``__init__.py`` files aside), and every module it names exists."""
    in_map = _module_map(docs["DESIGN.md"])
    assert in_map, "module map missing"
    src = ROOT / "src" / "repro"
    on_disk = {p.relative_to(src).as_posix() for p in src.rglob("*.py")
               if p.name != "__init__.py"}
    assert sorted(in_map - on_disk - {"__init__.py"}) == []
    assert sorted(on_disk - in_map) == []


def test_readme_examples_exist(docs):
    referenced = re.findall(r"examples/(\w+\.py)", docs["README.md"])
    assert referenced
    for name in set(referenced):
        assert (ROOT / "examples" / name).exists(), name


def test_experiments_commands_reference_real_modules(docs):
    modules = re.findall(r"python -m (repro\.[.\w]+)",
                         docs["EXPERIMENTS.md"])
    assert modules
    import importlib
    for mod in set(modules):
        importlib.import_module(mod)


def test_paper_identity_confirmed_in_design(docs):
    assert "PLDI 2008" in docs["DESIGN.md"]
    assert "10.1145/1375581.1375600" in docs["DESIGN.md"]


def test_design_lists_every_table_and_figure_experiment(docs):
    for marker in ("Table 1", "Fig. 1/2", "soundness", "8n−1"):
        assert marker in docs["DESIGN.md"], marker
