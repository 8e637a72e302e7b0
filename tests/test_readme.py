"""README's Python example and CLI lines run, and its plain-literal comments hold.

Each statement of the README's ```python block runs in order. An
expression statement whose trailing comment parses as a Python literal
(such as `# 16` or `# 'SymmetricCantorval'`) must evaluate to that
literal; a comment of the form `# literal: explanation` is read up to the
colon. Other comments (`# ((3/4, 1/2), 1/4)`, whose values are Fractions)
are not checked, but their statements still run, so a removed name or
keyword fails here.

Every `subsums ...` line of the README's ```sh blocks runs through
cli.main in a temporary working directory and must exit 0, so a renamed
subcommand or flag fails here too.
"""
import ast
import io
import re
import shlex
import tokenize
from pathlib import Path

import pytest

import subsums.cli as cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_block() -> str:
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    return block


def _cli_lines() -> list:
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    return [
        line.strip()
        for block in blocks
        for line in block.splitlines()
        if line.startswith("subsums ")
    ]


def _expected(comment: str):
    """The literal a comment states, or None when it states none."""
    text = comment.lstrip("#").strip()
    for candidate in (text, text.split(": ", 1)[0]):
        try:
            return (ast.literal_eval(candidate),)
        except (ValueError, SyntaxError):
            continue
    return None


def test_readme_python_block_runs_and_matches_its_comments():
    source = _python_block()
    comments = {
        tok.start[0]: tok.string
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT
    }
    namespace = {}
    checked = 0
    for stmt in ast.parse(source).body:
        code = ast.get_source_segment(source, stmt)
        expected = _expected(comments.get(stmt.end_lineno, ""))
        if isinstance(stmt, ast.Expr) and expected is not None:
            assert eval(code, namespace) == expected[0], code
            checked += 1
        else:
            exec(code, namespace)
    assert checked >= 5


def test_readme_shows_cli_lines():
    assert _cli_lines()


@pytest.mark.parametrize("line", _cli_lines())
def test_readme_cli_line_exits_zero(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(shlex.split(line)[1:]) == 0, capsys.readouterr().err
