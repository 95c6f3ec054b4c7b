"""Print the package's source size, per module and in total.

For each module of ``src/pentachrome``: its code lines (lines that hold a
token other than a comment or a line break, less module, class and function
docstrings) and its AST nodes, which compiling costs per node.  The counts
are only reported, never gated.

Run from the repository root: ``python tools/source_size.py``.
"""

import ast
import io
import pathlib
import tokenize

skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENDMARKER}
total = total_nodes = 0
for path in sorted(pathlib.Path("src/pentachrome").glob("*.py")):
    text = path.read_text()
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in skip:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    nodes = 0
    for node in ast.walk(ast.parse(text)):
        nodes += 1
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            lines -= set(range(body[0].lineno, body[0].end_lineno + 1))
    total += len(lines)
    total_nodes += nodes
    print(f"{len(lines):6} {nodes:7} {path}")
print(f"{total:6} {total_nodes:7} code lines, AST nodes")
