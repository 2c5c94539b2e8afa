"""Print the code lines of each src/bsscale module and their total.

    python tools/code_lines.py

Run it from the root of a checkout.  A code line holds a token other than
a comment or a docstring (a string that is a whole statement); blank lines
and lines inside docstrings do not count.
"""

import pathlib
import tokenize

layout = {tokenize.ENCODING, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENDMARKER}
total = 0
for path in sorted(pathlib.Path("src/bsscale").glob("*.py")):
    with path.open("rb") as fh:
        toks = [t for t in tokenize.tokenize(fh.readline)
                if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    for prev, tok, nxt in zip(toks, toks[1:], toks[2:]):
        if tok.type in layout:
            continue
        if tok.type == tokenize.STRING and prev.type in layout and nxt.type == tokenize.NEWLINE:
            continue  # a docstring
        lines.update(range(tok.start[0], tok.end[0] + 1))
    print(f"{len(lines):6d} {path.name}")
    total += len(lines)
print(f"{total:6d} total")
