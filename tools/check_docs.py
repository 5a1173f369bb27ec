#!/usr/bin/env python
"""Documentation checker: links resolve, referenced paths and ``repro``
names exist, the environment-variable table matches the code, fenced
doctest examples run.

Checked files: ``README.md``, ``DESIGN.md`` and ``docs/*.md``.  Five
passes:

* **markdown links** -- every relative ``[text](target)`` must point at
  an existing file or directory (external ``http(s)``/``mailto`` targets
  and pure ``#anchors`` are skipped; fragments are stripped first);
* **inline-code paths** -- every single-backtick span that looks like a
  repo path (contains ``/``, starts with a known top-level directory, no
  globs or placeholders) must exist, so prose like ``src/repro/foo.py``
  cannot go stale silently;
* **``repro`` names** -- every single-backtick span that is a dotted
  ``repro.…`` name, optionally followed by a call's ``(...)``, must
  resolve: the longest importable module prefix, then ``getattr`` for
  the rest (so ``repro.pipeline.store.ArtifactStore.load`` and
  ``repro.eval.runner.get_cache()`` are checked against the code).  A
  ``Class.attr`` span whose class some ``repro`` package exports (lists
  in its ``__all__``) must name an attribute of that class: a class
  attribute, a dataclass field, or one its methods assign on ``self``
  (so ``ArtifactStore.load`` and ``PipelineOrchestrator.last_resilience``
  resolve, and a deleted ``ArtifactStore.gc(max_bytes)`` does not);
* **environment table** -- the ``REVNIC_*`` table in
  ``docs/robustness.md`` matches the code both ways: every string
  literal under ``src/repro`` that is exactly a ``REVNIC_*`` name has a
  row, and every row names a variable some module reads;
* **doctests** -- every fenced ``python`` block containing ``>>>`` runs
  under :mod:`doctest`.

The name and doctest passes import ``repro``; the CI job provides
``PYTHONPATH=src``.

Exit status 0 when clean; 1 with one line per problem otherwise.
Run locally:  PYTHONPATH=src python tools/check_docs.py
"""

import ast
import dataclasses
import doctest
import glob
import importlib
import inspect
import os
import pkgutil
import re
import sys
import textwrap

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Top-level directories whose inline-code mentions are treated as paths.
_PATH_ROOTS = ("src", "docs", "tests", "benchmarks", "examples", "tools",
               ".github")

_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_INLINE_CODE_RE = re.compile(r"(?<!`)`([^`\n]+)`(?!`)")
_FENCE_RE = re.compile(r"^```")
_PYTHON_FENCE_RE = re.compile(r"^```python\s*$")
_REPRO_NAME_RE = re.compile(r"(repro(?:\.[A-Za-z_]\w*)+)(?:\(.*\))?")
_CLASS_ATTR_RE = re.compile(r"(([A-Z]\w*)(?:\.[A-Za-z_]\w*)+)(?:\(.*\))?")
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


def resolves(name):
    """True when dotted ``name`` names a module or an attribute path
    below its longest importable module prefix."""
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attr in parts[split:]:
            if not hasattr(target, attr):
                return False
            target = getattr(target, attr)
        return True
    return False


def exported_classes():
    """``{name: [class, ...]}`` for every class a ``repro`` package lists
    in its ``__all__``."""
    import repro

    classes = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.ispkg:
            continue
        package = importlib.import_module(info.name)
        for name in getattr(package, "__all__", ()):
            value = getattr(package, name, None)
            if inspect.isclass(value) \
                    and value not in classes.get(name, ()):
                classes.setdefault(name, []).append(value)
    return classes


def _instance_attributes(cls):
    """The dataclass fields of ``cls`` and the names its methods (or its
    bases') assign on ``self``."""
    names = {field.name for field in dataclasses.fields(cls)} \
        if dataclasses.is_dataclass(cls) else set()
    for klass in cls.__mro__:
        try:
            source = textwrap.dedent(inspect.getsource(klass))
        except (OSError, TypeError):
            continue
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Store) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id == "self":
                names.add(node.attr)
    return names


def class_attr_resolves(cls, attrs):
    """True when the dotted ``attrs`` name an attribute path of ``cls``;
    the first may be an instance attribute."""
    if not hasattr(cls, attrs[0]):
        # An instance attribute: nothing below it can be checked.
        return attrs[0] in _instance_attributes(cls)
    target = cls
    for attr in attrs:
        if not hasattr(target, attr):
            return False
        target = getattr(target, attr)
    return True


def check_names(root=REPO_ROOT):
    """Problems with inline-code ``repro.…`` names, and ``Class.attr``
    names of exported classes, that do not resolve."""
    problems = []
    classes = None
    for path in doc_files(root):
        relname = os.path.relpath(path, root)
        with open(path) as handle:
            prose = _strip_fenced_blocks(handle.read())
        for token in _INLINE_CODE_RE.findall(prose):
            token = token.strip()
            match = _REPRO_NAME_RE.fullmatch(token)
            if match:
                if not resolves(match.group(1)):
                    problems.append("%s: name does not resolve -> %s"
                                    % (relname, match.group(1)))
                continue
            match = _CLASS_ATTR_RE.fullmatch(token)
            if not match:
                continue
            if classes is None:
                classes = exported_classes()
            name, class_name = match.groups()
            candidates = classes.get(class_name, ())
            attrs = name.split(".")[1:]
            if candidates and not any(class_attr_resolves(cls, attrs)
                                      for cls in candidates):
                problems.append("%s: name does not resolve -> %s"
                                % (relname, name))
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
    problems = (check_links() + check_names() + check_env_table()
                + run_doctests())
    for problem in problems:
        print(problem)
    files = len(doc_files())
    if problems:
        print("FAIL: %d problem(s) across %d documentation files"
              % (len(problems), files))
        return 1
    print("OK: %d documentation files, links and names resolve, "
          "environment table matches the code, doctests pass" % files)
    return 0


if __name__ == "__main__":
    sys.exit(main())
