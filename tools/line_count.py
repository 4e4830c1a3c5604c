"""Line counts of Python files, split into code, docstring, comment and blank lines.

    python tools/line_count.py src/fibtree/*.py

A docstring line lies in the string that opens a module, class or function
(found with `ast`); a comment line holds a comment and no code, and a code
line holds any other token (found with `tokenize`).  Prints one row per file
and a total; with no paths, or a path that is not a file, prints a one-line
usage error and exits 2.  Stdlib only.
"""

import ast
import os
import sys
import tokenize

KINDS = ("code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER, tokenize.COMMENT}


def split(path: str) -> dict[str, int]:
    with tokenize.open(path) as f:
        text = f.read()
    docs = set()
    for node in ast.walk(ast.parse(text, filename=path)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                docs.update(range(first.lineno, first.end_lineno + 1))
    code, comments = set(), set()
    with tokenize.open(path) as f:
        for tok in tokenize.generate_tokens(f.readline):
            if tok.type == tokenize.COMMENT:
                comments.add(tok.start[0])
            elif tok.type not in _LAYOUT:
                code.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for n, line in enumerate(text.splitlines(), 1):
        kind = "docstring" if n in docs else "code" if n in code else "comment" if n in comments else "blank"
        counts[kind] += 1
    return counts


def main(paths: list[str]) -> None:
    bad = next((path for path in paths if not os.path.isfile(path)), None)
    if not paths or bad is not None:
        why = "no files given" if bad is None else f"not a file: {bad}"
        print(f"usage: python tools/line_count.py FILE.py ... ({why})", file=sys.stderr)
        sys.exit(2)
    total = dict.fromkeys(KINDS, 0)
    print(f"{'file':40} {'lines':>6} " + " ".join(f"{k:>9}" for k in KINDS))
    for path in paths:
        counts = split(path)
        for k in KINDS:
            total[k] += counts[k]
        print(f"{path:40} {sum(counts.values()):6} " + " ".join(f"{counts[k]:9}" for k in KINDS))
    print(f"{'total':40} {sum(total.values()):6} " + " ".join(f"{total[k]:9}" for k in KINDS))


if __name__ == "__main__":
    main(sys.argv[1:])
