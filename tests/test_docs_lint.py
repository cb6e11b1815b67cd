"""Documentation stays in sync with the code: scripts/check_docs.py."""

import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = REPO / "scripts" / "check_docs.py"


def test_check_docs_passes():
    proc = subprocess.run([sys.executable, str(SCRIPT)], cwd=REPO,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "OK" in proc.stdout


def test_check_docs_catches_undocumented_package(tmp_path):
    """The lint actually fails when a package is missing from the map."""
    import importlib.util
    spec = importlib.util.spec_from_file_location("check_docs", SCRIPT)
    check_docs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check_docs)

    packages = check_docs.repro_packages()
    assert "repro" in packages and "repro.obs" in packages

    text = check_docs.ARCHITECTURE.read_text().replace("repro.obs", "")
    stripped = tmp_path / "ARCHITECTURE.md"
    stripped.write_text(text)
    original = check_docs.ARCHITECTURE
    try:
        check_docs.ARCHITECTURE = stripped
        problems = check_docs.check_architecture_mentions()
    finally:
        check_docs.ARCHITECTURE = original
    assert any("repro.obs" in problem for problem in problems)


def test_check_docs_catches_broken_snippet(tmp_path):
    import importlib.util
    spec = importlib.util.spec_from_file_location("check_docs", SCRIPT)
    check_docs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check_docs)

    (tmp_path / "docs").mkdir()
    (tmp_path / "README.md").write_text(
        "# x\n```python\ndef broken(:\n```\n")
    original = check_docs.REPO
    try:
        check_docs.REPO = tmp_path
        problems = check_docs.check_code_blocks()
    finally:
        check_docs.REPO = original
    assert len(problems) == 1
    assert "does not parse" in problems[0]


def test_check_docs_parses_documented_cli_command_lines(tmp_path):
    """A flag or mode the CLI no longer has cannot linger in the docs,
    in a shell block or an inline code span; comments, pipes and bare
    mentions of the CLI are fine."""
    import importlib.util
    spec = importlib.util.spec_from_file_location("check_docs", SCRIPT)
    check_docs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check_docs)

    (tmp_path / "docs").mkdir()
    (tmp_path / "README.md").write_text(
        "# x\n```sh\n"
        "PYTHONPATH=src python -m repro mtsweep --workers 2 \\\n"
        "    --load 0.8   # a comment\n"
        "python -m repro list | head\n"
        "python -m repro fig7 --no-such-flag\n"
        "```\n"
        "Driven by `python -m repro`; see `python -m repro\n"
        "no-such-mode --workers 2`.\n")
    original = check_docs.REPO
    try:
        check_docs.REPO = tmp_path
        problems = check_docs.check_cli_command_lines()
    finally:
        check_docs.REPO = original
    assert len(problems) == 2, problems
    assert "line 6" in problems[0] and "--no-such-flag" in problems[0]
    assert "line 8" in problems[1] and "no-such-mode" in problems[1]


def test_check_docs_parses_cli_usage_docstring(tmp_path):
    """The usage block in the CLI module's docstring is linted too, with
    its ``[...]`` optional-group brackets stripped."""
    import importlib.util
    spec = importlib.util.spec_from_file_location("check_docs", SCRIPT)
    check_docs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check_docs)

    (tmp_path / "docs").mkdir()
    main = tmp_path / "__main__.py"
    main.write_text(
        '"""Command-line entry point.\n'
        "\n"
        "Usage::\n"
        "\n"
        "    python -m repro fig5 [--scale 0.25] [--seed 11]\n"
        "    python -m repro fig7 [--no-such-flag 3]\n"
        '"""\n'
        "\n"
        "# python -m repro fig7 --not-in-the-docstring\n")
    original = check_docs.REPO, check_docs.MAIN
    try:
        check_docs.REPO, check_docs.MAIN = tmp_path, main
        problems = check_docs.check_cli_command_lines()
    finally:
        check_docs.REPO, check_docs.MAIN = original
    assert len(problems) == 1, problems
    assert problems[0].startswith("__main__.py line 6:")
    assert "--no-such-flag" in problems[0]
