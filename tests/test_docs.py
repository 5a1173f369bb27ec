"""The documentation set stays healthy: links resolve, referenced paths
and ``repro`` names exist, the environment-variable table matches the
code, fenced doctest examples execute (same checks as the CI docs job,
via tools/check_docs.py)."""

import importlib.util
import os

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs", os.path.join(_REPO_ROOT, "tools", "check_docs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_docs = _load_check_docs()


def test_doc_set_is_nonempty():
    files = check_docs.doc_files(_REPO_ROOT)
    names = {os.path.relpath(f, _REPO_ROOT) for f in files}
    assert {"README.md", "DESIGN.md", "docs/architecture.md",
            "docs/paper-mapping.md", "docs/validation.md"} <= names


def test_links_and_paths_resolve():
    assert check_docs.check_links(_REPO_ROOT) == []


def test_fenced_doctests_pass():
    assert check_docs.run_doctests(_REPO_ROOT) == []


def test_checker_catches_breakage(tmp_path):
    """The checker itself works: a broken link and a failing doctest in a
    synthetic doc tree are both reported."""
    (tmp_path / "docs").mkdir()
    (tmp_path / "README.md").write_text(
        "[gone](docs/missing.md) and `src/nope.py`\n\n"
        "```python\n>>> 1 + 1\n3\n```\n")
    (tmp_path / "DESIGN.md").write_text("fine\n")
    link_problems = check_docs.check_links(str(tmp_path))
    assert any("missing.md" in p for p in link_problems)
    assert any("src/nope.py" in p for p in link_problems)
    doc_problems = check_docs.run_doctests(str(tmp_path))
    assert len(doc_problems) == 1 and "doctest failure" in doc_problems[0]


def test_repro_names_resolve():
    assert check_docs.check_names(_REPO_ROOT) == []


def test_checker_catches_stale_names(tmp_path):
    """Modules, attributes and called names resolve; a name the code no
    longer has is reported, and fenced blocks are not checked."""
    (tmp_path / "README.md").write_text(
        "`repro.pipeline.store` keeps `repro.pipeline.store.ArtifactStore`"
        " and `repro.eval.runner.get_cache()`; `repro.fuzz.gone_name(seed)`"
        " was deleted.\n\n```\n`repro.fuzz.fenced_name`\n```\n")
    problems = check_docs.check_names(str(tmp_path))
    assert problems == ["README.md: name does not resolve -> "
                        "repro.fuzz.gone_name"]


def test_class_attributes_resolve(tmp_path):
    """``Class.attr`` spans of exported classes resolve through class
    attributes, dataclass fields and attributes assigned on ``self``;
    a class no package exports is not checked."""
    (tmp_path / "README.md").write_text(
        "`ArtifactStore.load`, `ArtifactStore.quarantine_dir`,"
        " `ArtifactStore.save_json(key, head)`,"
        " `PipelineOrchestrator.last_resilience`, `FaultSpec.layer`,"
        " `RunArtifact.trace`, `NotExported.anything` and"
        " `os.replace`.\n")
    assert check_docs.check_names(str(tmp_path)) == []


def test_checker_catches_stale_class_attributes(tmp_path):
    """A deleted method of an exported class is reported, also with its
    call's arguments; fenced blocks are not checked."""
    (tmp_path / "README.md").write_text(
        "`ArtifactStore.gc(max_bytes)` and `ArtifactStore.load.nothing`"
        " are gone.\n\n```\n`ArtifactStore.load_json`\n```\n")
    assert check_docs.check_names(str(tmp_path)) == [
        "README.md: name does not resolve -> ArtifactStore.gc",
        "README.md: name does not resolve -> ArtifactStore.load.nothing"]


def test_env_table_matches_code():
    assert check_docs.check_env_table(_REPO_ROOT) == []


def test_env_table_checked_both_ways(tmp_path):
    """An unread row and an undocumented read are both reported; a name
    inside a longer string literal (a C include guard) is not a read."""
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "robustness.md").write_text(
        "| variable | default | effect |\n|---|---|---|\n"
        "| `REVNIC_KEPT` | on | read |\n"
        "| `REVNIC_STALE` | off | no longer read |\n")
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "knobs.py").write_text(
        'import os\n'
        'KEPT = os.environ.get("REVNIC_KEPT")\n'
        'NEW = os.environ.get("REVNIC_NEW")\n'
        'GUARD = "#ifndef REVNIC_GUARD_H"\n')
    problems = check_docs.check_env_table(str(tmp_path))
    assert len(problems) == 2
    assert any("REVNIC_NEW" in p and "no row" in p for p in problems)
    assert any("REVNIC_STALE" in p and "no module reads" in p
               for p in problems)
