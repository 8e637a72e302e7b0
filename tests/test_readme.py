"""README's Python example runs, and its plain-literal comments hold.

Each statement of the README's ```python block runs in order. An
expression statement whose trailing comment parses as a Python literal
(such as `# 16` or `# 'SymmetricCantorval'`) must evaluate to that
literal; a comment of the form `# literal: explanation` is read up to the
colon. Other comments (`# ((3/4, 1/2), 1/4)`, whose values are Fractions)
are not checked, but their statements still run, so a removed name or
keyword fails here.
"""
import ast
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_block() -> str:
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    return block


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
