#!/usr/bin/env python
"""Documentation checker: links resolve, referenced paths exist, the
environment-variable table matches the code, fenced doctest examples run.

Checked files: ``README.md``, ``DESIGN.md`` and ``docs/*.md``.  Four
passes:

* **markdown links** -- every relative ``[text](target)`` must point at
  an existing file or directory (external ``http(s)``/``mailto`` targets
  and pure ``#anchors`` are skipped; fragments are stripped first);
* **inline-code paths** -- every single-backtick span that looks like a
  repo path (contains ``/``, starts with a known top-level directory, no
  globs or placeholders) must exist, so prose like ``src/repro/foo.py``
  cannot go stale silently;
* **environment table** -- the ``REVNIC_*`` table in
  ``docs/robustness.md`` matches the code both ways: every string
  literal under ``src/repro`` that is exactly a ``REVNIC_*`` name has a
  row, and every row names a variable some module reads;
* **doctests** -- every fenced ``python`` block containing ``>>>`` runs
  under :mod:`doctest` (the CI job provides ``PYTHONPATH=src``).

Exit status 0 when clean; 1 with one line per problem otherwise.
Run locally:  PYTHONPATH=src python tools/check_docs.py
"""

import ast
import doctest
import glob
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Top-level directories whose inline-code mentions are treated as paths.
_PATH_ROOTS = ("src", "docs", "tests", "benchmarks", "examples", "tools",
               ".github")

_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_INLINE_CODE_RE = re.compile(r"(?<!`)`([^`\n]+)`(?!`)")
_FENCE_RE = re.compile(r"^```")
_PYTHON_FENCE_RE = re.compile(r"^```python\s*$")
_ENV_NAME_RE = re.compile(r"REVNIC_[A-Z0-9_]+")
_ENV_ROW_RE = re.compile(r"^\|\s*`(REVNIC_[A-Z0-9_]+)`\s*\|", re.MULTILINE)

#: The document holding the environment-variable table.
ENV_TABLE_DOC = os.path.join("docs", "robustness.md")


def doc_files(root=REPO_ROOT):
    """The documentation set under check."""
    files = [os.path.join(root, "README.md"), os.path.join(root, "DESIGN.md")]
    files.extend(sorted(glob.glob(os.path.join(root, "docs", "*.md"))))
    return [path for path in files if os.path.exists(path)]


def _strip_fenced_blocks(text):
    """Drop fenced code blocks (path checking applies to prose only)."""
    out, in_fence = [], False
    for line in text.splitlines():
        if _FENCE_RE.match(line.strip()):
            in_fence = not in_fence
            continue
        if not in_fence:
            out.append(line)
    return "\n".join(out)


def _looks_like_repo_path(token):
    if not re.fullmatch(r"[A-Za-z0-9_.\-/]+", token):
        return False
    if "/" not in token or "*" in token or ".." in token:
        return False
    return token.split("/", 1)[0] in _PATH_ROOTS


def check_links(root=REPO_ROOT):
    """Problems with markdown links and inline-code path references."""
    problems = []
    for path in doc_files(root):
        relname = os.path.relpath(path, root)
        with open(path) as handle:
            text = handle.read()
        base = os.path.dirname(path)
        # Both passes check prose only: link syntax or path-like tokens
        # inside fenced example blocks are illustration, not references.
        prose = _strip_fenced_blocks(text)
        for target in _LINK_RE.findall(prose):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            resolved = os.path.normpath(
                os.path.join(base, target.split("#", 1)[0]))
            if not os.path.exists(resolved):
                problems.append("%s: broken link -> %s" % (relname, target))
        for token in _INLINE_CODE_RE.findall(prose):
            token = token.strip()
            if not _looks_like_repo_path(token):
                continue
            resolved = os.path.join(root, token.rstrip("/"))
            if not os.path.exists(resolved):
                problems.append("%s: referenced path missing -> %s"
                                % (relname, token))
    return problems


def env_literals(root=REPO_ROOT):
    """``{name: first module}`` for every string literal under
    ``src/repro`` that is exactly a ``REVNIC_*`` name (a name embedded
    in a longer string, such as a C include guard, is not a read)."""
    found = {}
    pattern = os.path.join(root, "src", "repro", "**", "*.py")
    for path in sorted(glob.glob(pattern, recursive=True)):
        with open(path) as handle:
            tree = ast.parse(handle.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) \
                    and isinstance(node.value, str) \
                    and _ENV_NAME_RE.fullmatch(node.value):
                found.setdefault(node.value, os.path.relpath(path, root))
    return found


def check_env_table(root=REPO_ROOT):
    """Problems between the ``REVNIC_*`` table and the code, both ways."""
    doc = os.path.join(root, ENV_TABLE_DOC)
    rows = set()
    if os.path.exists(doc):
        with open(doc) as handle:
            rows = set(_ENV_ROW_RE.findall(handle.read()))
    literals = env_literals(root)
    problems = ["%s: %s (read in %s) has no row"
                % (ENV_TABLE_DOC, name, literals[name])
                for name in sorted(set(literals) - rows)]
    problems += ["%s: row %s names a variable no module reads"
                 % (ENV_TABLE_DOC, name)
                 for name in sorted(rows - set(literals))]
    return problems


def _fenced_python_blocks(text):
    """Yield (first_line_number, block_text) for ```python fences."""
    lines = text.splitlines()
    block, start, in_block = [], 0, False
    for number, line in enumerate(lines, 1):
        if in_block:
            if _FENCE_RE.match(line.strip()):
                yield start, "\n".join(block)
                block, in_block = [], False
            else:
                block.append(line)
        elif _PYTHON_FENCE_RE.match(line.strip()):
            in_block, start = True, number + 1
    # An unterminated fence is itself a doc bug; surface the content.
    if in_block and block:
        yield start, "\n".join(block)


def run_doctests(root=REPO_ROOT):
    """Problems from executing fenced ``python`` doctest examples."""
    problems = []
    parser = doctest.DocTestParser()
    for path in doc_files(root):
        relname = os.path.relpath(path, root)
        with open(path) as handle:
            text = handle.read()
        for line_number, block in _fenced_python_blocks(text):
            if ">>>" not in block:
                continue
            name = "%s:%d" % (relname, line_number)
            test = parser.get_doctest(block, {}, name, relname, line_number)
            runner = doctest.DocTestRunner(
                verbose=False, optionflags=doctest.ELLIPSIS)
            output = []
            runner.run(test, out=output.append)
            if runner.failures:
                problems.append("%s: %d doctest failure(s)\n%s"
                                % (name, runner.failures, "".join(output)))
    return problems


def main():
    problems = check_links() + check_env_table() + run_doctests()
    for problem in problems:
        print(problem)
    files = len(doc_files())
    if problems:
        print("FAIL: %d problem(s) across %d documentation files"
              % (len(problems), files))
        return 1
    print("OK: %d documentation files, links resolve, environment table "
          "matches the code, doctests pass" % files)
    return 0


if __name__ == "__main__":
    sys.exit(main())
