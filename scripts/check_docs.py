#!/usr/bin/env python
"""Documentation lint, run as part of the tier-1 test suite.

Checks three things:

* every package under ``src/repro/`` (every directory with an
  ``__init__.py``) is mentioned by its dotted name in
  ``docs/ARCHITECTURE.md`` — adding a package without documenting it
  fails the build;
* every fenced ``python`` code block in ``README.md`` and ``docs/*.md``
  is syntactically valid (``compile()`` succeeds), so documented
  examples cannot rot into syntax errors silently;
* every ``python -m repro ...`` command line in ``README.md``,
  ``docs/*.md`` and ``.claude/skills/verify/SKILL.md`` — in a shell code
  block or an inline code span — and in the usage block of the module
  docstring of ``src/repro/__main__.py`` parses with the CLI's real
  argparse parser (``repro.__main__.build_parser``), so a removed flag or
  mode cannot linger in the docs. This check imports ``repro`` from
  ``src/``; the other two need only the standard library.

Exit status 0 when clean; prints each problem and exits 1 otherwise.
"""

from __future__ import annotations

import ast
import contextlib
import io
import pathlib
import re
import shlex
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
ARCHITECTURE = REPO / "docs" / "ARCHITECTURE.md"
#: The CLI module, whose docstring carries its usage block.
MAIN = SRC / "__main__.py"

FENCE = re.compile(r"```python\n(.*?)```", re.DOTALL)
#: Any fenced block: ``(info string, body)``.
ANY_FENCE = re.compile(r"```([^\n`]*)\n(.*?)```", re.DOTALL)
INLINE_CODE = re.compile(r"`([^`]+)`")
#: A command line: optional ``VAR=value`` prefixes, then the module call.
COMMAND = re.compile(r"^(?:\w+=\S*\s+)*python3? -m repro(?=\s|$)(.*)$",
                     re.DOTALL)
#: Shell tokens that end the ``python -m repro`` part of a line.
SHELL_STOPS = {"|", "||", "&&", ";", "&", ">", ">>", "2>", "<"}


def repro_packages() -> list[str]:
    """Dotted names of every package under src/repro, sorted."""
    names = []
    for init in sorted(SRC.rglob("__init__.py")):
        relative = init.parent.relative_to(SRC.parent)
        names.append(".".join(relative.parts))
    return names


def check_architecture_mentions() -> list[str]:
    problems = []
    if not ARCHITECTURE.exists():
        return [f"{ARCHITECTURE.relative_to(REPO)} does not exist"]
    text = ARCHITECTURE.read_text()
    for package in repro_packages():
        if package not in text:
            problems.append(
                f"docs/ARCHITECTURE.md never mentions package `{package}`")
    return problems


def check_code_blocks() -> list[str]:
    problems = []
    documents = [REPO / "README.md"] + sorted((REPO / "docs").glob("*.md"))
    for document in documents:
        if not document.exists():
            continue
        text = document.read_text()
        for i, match in enumerate(FENCE.finditer(text), start=1):
            snippet = match.group(1)
            line = text[:match.start()].count("\n") + 2
            try:
                compile(snippet, f"{document.name}:block{i}", "exec")
            except SyntaxError as exc:
                problems.append(
                    f"{document.relative_to(REPO)} python block {i} "
                    f"(line {line}) does not parse: {exc}")
    return problems


def cli_documents() -> list[pathlib.Path]:
    documents = ([REPO / "README.md"] + sorted((REPO / "docs").glob("*.md"))
                 + [REPO / ".claude" / "skills" / "verify" / "SKILL.md"])
    return [document for document in documents if document.exists()]


def cli_command_lines(text: str) -> list[tuple[int, str]]:
    """``(line number, argv text after 'python -m repro')`` for every
    command line in a markdown document: each line of a non-python
    fenced block (backslash continuations joined) and each inline code
    span that starts with the command."""
    found = []
    for match in ANY_FENCE.finditer(text):
        if match.group(1).strip() == "python":
            continue
        first = text[:match.start(2)].count("\n") + 1
        pending, start = "", first
        for offset, line in enumerate(match.group(2).splitlines()):
            if not pending:
                start = first + offset
            if line.endswith("\\"):
                pending += line[:-1] + " "
                continue
            command = COMMAND.match((pending + line).strip())
            pending = ""
            if command:
                found.append((start, command.group(1)))
    outside = ANY_FENCE.sub(lambda m: "\n" * m.group(0).count("\n"), text)
    for match in INLINE_CODE.finditer(outside):
        command = COMMAND.match(" ".join(match.group(1).split()))
        if command:
            line = outside[:match.start()].count("\n") + 1
            found.append((line, command.group(1)))
    return found


def usage_command_lines(text: str) -> list[tuple[int, str]]:
    """``(line number, argv text after 'python -m repro')`` for every
    command line in a Python module's docstring, with the ``[...]``
    brackets around optional groups stripped."""
    module = ast.parse(text)
    if ast.get_docstring(module) is None:
        return []
    docstring = module.body[0]
    lines = text.splitlines()
    found = []
    for number in range(docstring.lineno, docstring.end_lineno + 1):
        line = lines[number - 1].replace("[", "").replace("]", "")
        command = COMMAND.match(line.strip())
        if command:
            found.append((number, command.group(1)))
    return found


def cli_argv(rest: str) -> list[str]:
    """Shell-split the arguments, dropping comments and anything after a
    pipe, redirect or command separator."""
    argv = []
    for token in shlex.split(rest, comments=True):
        if token in SHELL_STOPS or token.startswith((">", "2>")):
            break
        argv.append(token)
    return argv


def check_cli_command_lines() -> list[str]:
    if str(REPO / "src") not in sys.path:
        sys.path.insert(0, str(REPO / "src"))
    from repro.__main__ import build_parser
    parser = build_parser()
    sources = [(document, cli_command_lines(document.read_text()))
               for document in cli_documents()]
    if MAIN.exists():
        sources.append((MAIN, usage_command_lines(MAIN.read_text())))
    problems = []
    for document, commands in sources:
        for line, rest in commands:
            stderr = io.StringIO()
            try:
                argv = cli_argv(rest)          # ValueError: unclosed quote
                if argv:                       # else a bare mention
                    with contextlib.redirect_stderr(stderr):
                        parser.parse_args(argv)
            except (SystemExit, ValueError) as exc:
                reason = stderr.getvalue().strip().splitlines()
                problems.append(
                    f"{document.relative_to(REPO)} line {line}: "
                    f"`python -m repro{rest.rstrip()}` does not parse: "
                    f"{reason[-1] if reason else exc}")
    return problems


def main() -> int:
    problems = (check_architecture_mentions() + check_code_blocks()
                + check_cli_command_lines())
    for problem in problems:
        print(f"check_docs: {problem}", file=sys.stderr)
    if problems:
        return 1
    packages = repro_packages()
    print(f"check_docs: OK ({len(packages)} packages documented, "
          f"code blocks and CLI command lines parse)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
