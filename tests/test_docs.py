"""Docs honesty tests: code shown in the documentation actually works."""

import pathlib
import re

import pytest

from repro import CompileOptions, IRBuilder, Interpreter, compile_analysis

DOCS = pathlib.Path(__file__).resolve().parent.parent / "docs"


def _extract_alda_block(path: pathlib.Path) -> str:
    text = path.read_text()
    match = re.search(r"```alda\n(.*?)```", text, re.DOTALL)
    assert match, f"no alda code block in {path.name}"
    return match.group(1)


class TestTutorial:
    @pytest.fixture(scope="class")
    def boundssan(self):
        source = _extract_alda_block(DOCS / "TUTORIAL.md")
        return compile_analysis(source, CompileOptions(analysis_name="boundssan"))

    def test_tutorial_analysis_compiles(self, boundssan):
        assert "bsOnAccess" in boundssan.info.funcs

    def test_tutorial_bug_detected(self, boundssan):
        b = IRBuilder()
        b.function("main")
        buf = b.call("malloc", [16])
        b.store(1, buf)
        b.load(b.add(buf, 12))  # 8-byte load past byte 16
        b.ret(0)
        vm = Interpreter(b.module, track_shadow=boundssan.needs_shadow)
        boundssan.attach(vm)
        vm.run()
        assert len(vm.reporter.by_analysis("boundssan")) == 1

    def test_tutorial_clean_program_clean(self, boundssan):
        b = IRBuilder()
        b.function("main")
        buf = b.call("malloc", [16])
        b.store(1, buf)
        b.load(b.add(buf, 8))  # last in-bounds word
        b.ret(0)
        vm = Interpreter(b.module)
        boundssan.attach(vm)
        vm.run()
        assert len(vm.reporter) == 0

    def test_tutorial_layout_claim(self, boundssan):
        """The tutorial says word granularity yields shadow memory and
        byte granularity flips to a page table."""
        plan = boundssan.layout.groups[boundssan.layout.group_for("addr2End")]
        assert plan.structure == "shadow"
        source = _extract_alda_block(DOCS / "TUTORIAL.md")
        byte_level = compile_analysis(source, CompileOptions(granularity=1))
        plan1 = byte_level.layout.groups[byte_level.layout.group_for("addr2End")]
        assert plan1.structure == "pagetable"


class TestLanguageReferenceExample:
    def test_language_md_example_compiles_and_detects(self):
        source = _extract_alda_block(DOCS / "LANGUAGE.md")
        analysis = compile_analysis(source, CompileOptions(analysis_name="uafdoc"))
        b = IRBuilder()
        b.function("main")
        block = b.call("malloc", [16])
        b.call("free", [block], void=True)
        b.load(block)
        b.ret(0)
        vm = Interpreter(b.module)
        analysis.attach(vm)
        vm.run()
        assert len(vm.reporter.by_analysis("uafdoc")) == 1


def test_docs_exist():
    for name in (
        "ARCHITECTURE.md",
        "LANGUAGE.md",
        "COSTMODEL.md",
        "SUBSTRATE.md",
        "STATICPASS.md",
        "TUTORIAL.md",
        "TRACING.md",
        "SERVING.md",
        "PARTITION.md",
        "FUZZ.md",
    ):
        assert (DOCS / name).exists()


def test_readme_design_experiments_exist():
    root = DOCS.parent
    for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
        assert (root / name).exists()
        assert len((root / name).read_text()) > 1000


def test_readme_links_architecture_and_indexes_docs():
    readme = (DOCS.parent / "README.md").read_text()
    assert "docs/ARCHITECTURE.md" in readme
    for doc in sorted(DOCS.glob("*.md")):
        assert f"docs/{doc.name}" in readme, f"README docs index misses {doc.name}"


def _python_blocks(path: pathlib.Path):
    return re.findall(r"```python\n(.*?)```", path.read_text(), re.DOTALL)


@pytest.mark.parametrize("name", ["ARCHITECTURE.md", "SUBSTRATE.md",
                                  "STATICPASS.md", "FUZZ.md"])
def test_doc_python_blocks_execute(name):
    """Every fenced Python block in the architecture docs actually runs."""
    blocks = _python_blocks(DOCS / name)
    assert blocks, f"{name} has no ```python blocks"
    for index, block in enumerate(blocks):
        exec(compile(block, f"<{name}:block{index}>", "exec"), {})


# ``repro.alda.parser`` etc. in prose; trailing attribute (``.run``) or
# call (``Interpreter(...)``) suffixes are resolved with getattr.
_MODPATH = re.compile(r"\brepro(?:\.[A-Za-z_][A-Za-z0-9_]*)+")


def _resolve(dotted: str) -> bool:
    import importlib

    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        try:
            for attr in parts[split:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return False
        return True
    return False


@pytest.mark.parametrize(
    "name", sorted(p.name for p in DOCS.glob("*.md"))
)
def test_doc_module_references_resolve(name):
    """Every ``repro.*`` dotted path named in docs/*.md imports/resolves."""
    text = (DOCS / name).read_text()
    bad = sorted(
        {match for match in _MODPATH.findall(text) if not _resolve(match)}
    )
    assert not bad, f"{name} references unresolvable paths: {bad}"


_STATS_NS = re.compile(r"\bsubsystems\.[a-z][\w.]*\w")


def test_doc_stats_namespaces_appear_in_serve_snapshot():
    """Every ``subsystems.<tier>`` named in the docs exists in a real
    server snapshot (an unstarted server still reports every tier)."""
    from repro.serve.server import AnalysisServer

    snapshot = AnalysisServer().snapshot()
    tiers = set(snapshot["subsystems"])
    assert tiers, "snapshot reports no subsystem tiers"
    mentioned = {
        match[len("subsystems."):]
        for path in DOCS.glob("*.md")
        for match in _STATS_NS.findall(path.read_text())
    }
    assert mentioned, "docs no longer mention any subsystems.* tier"
    unknown = sorted(
        name for name in mentioned
        if name not in tiers
        and not any(name.startswith(tier + ".") for tier in tiers)
    )
    assert not unknown, (
        f"docs mention stats tiers missing from the serve snapshot: "
        f"{unknown}; snapshot has {sorted(tiers)}"
    )


_CLI_LINE = re.compile(r"python -m (repro[\w.]*)((?:[ \t]+\S+)*)")
_FLAG = re.compile(r"^--[a-z][a-z-]*$")


@pytest.mark.parametrize(
    "name",
    sorted(p.name for p in DOCS.glob("*.md")) + ["README.md"],
)
def test_doc_cli_flags_exist(name):
    """Every ``python -m repro...`` module exists and every ``--flag``
    shown with it appears literally in that package's source (argparse
    declarations are plain string literals here)."""
    import importlib.util

    path = (DOCS / name) if (DOCS / name).exists() else (DOCS.parent / name)
    src_root = DOCS.parent / "src"
    for module_name, tail in _CLI_LINE.findall(path.read_text()):
        spec = importlib.util.find_spec(module_name)
        assert spec is not None, f"{name}: python -m {module_name} does not exist"
        package_dir = src_root / pathlib.Path(*module_name.split("."))
        sources = (
            "\n".join(p.read_text() for p in package_dir.rglob("*.py"))
            if package_dir.is_dir()
            else pathlib.Path(str(package_dir) + ".py").read_text()
        )
        for token in tail.split():
            flag = token.split("=")[0]
            if _FLAG.match(flag):
                assert f'"{flag}"' in sources or f"'{flag}'" in sources, (
                    f"{name}: {flag} not found in {module_name} source"
                )
