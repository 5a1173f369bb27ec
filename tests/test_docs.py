"""The documentation set stays healthy: links resolve, referenced paths
exist, the environment-variable table matches the code, fenced doctest
examples execute (same checks as the CI docs job, via
tools/check_docs.py)."""

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
