"""graph6 encoding (short form, n <= 62).

Upper-triangle bits in column order x(0,1), x(0,2), x(1,2), ..., packed
big-endian into 6-bit groups and offset by 63 into printable ascii.
"""

from __future__ import annotations

from .errors import Graph6ParseError
from .graph import MAX_VERTICES, Graph, build_graph

HEADER = ">>graph6<<"


def write_graph6(G: Graph) -> str:
    n = G.n
    chunks = [chr(63 + n)]
    acc = 0
    nbits = 0
    for j in range(1, n):
        col = G.adj[j]
        for i in range(j):
            acc = acc << 1 | (col >> i & 1)
            nbits += 1
            if nbits == 6:
                chunks.append(chr(63 + acc))
                acc = 0
                nbits = 0
    if nbits:
        chunks.append(chr(63 + (acc << (6 - nbits))))
    return "".join(chunks)


def parse_graph6(text: str) -> Graph:
    base = 0
    if text.startswith(HEADER):
        base = len(HEADER)
        text = text[base:]
    text = text.rstrip("\n")
    if not text:
        raise Graph6ParseError("empty graph6 input", base)
    first = ord(text[0])
    if first == 126:
        raise Graph6ParseError("long-form graph6 (n > 62) is not supported", base)
    n = first - 63
    if not 1 <= n <= MAX_VERTICES:
        raise Graph6ParseError(f"bad order byte {text[0]!r}", base)
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(text) - 1 < need:
        raise Graph6ParseError(
            f"truncated: need {need} data bytes for n={n}, got {len(text) - 1}",
            base + len(text),
        )
    if len(text) - 1 > need:
        raise Graph6ParseError("trailing bytes after graph6 word", base + 1 + need)
    edges = []
    bit = 0
    i, j = 0, 1
    for k, ch in enumerate(text[1:]):
        val = ord(ch) - 63
        if not 0 <= val < 64:
            raise Graph6ParseError(f"byte {ch!r} outside graph6 alphabet", base + 1 + k)
        for shift in range(5, -1, -1):
            if bit >= nbits:
                if val >> shift & 1:
                    raise Graph6ParseError("nonzero padding bits", base + 1 + k)
                continue
            if val >> shift & 1:
                edges.append((i, j))
            bit += 1
            i += 1
            if i == j:
                i, j = 0, j + 1
    return build_graph(n, edges)


def read_graph6_lines(lines) -> list[Graph]:
    """Parse newline-separated graph6 words, skipping blank lines; an
    error names its 1-based line and the byte offset within that line."""
    out = []
    for number, line in enumerate(lines, 1):
        word = line.strip()
        if word:
            try:
                out.append(parse_graph6(word))
            except Graph6ParseError as exc:
                lead = len(line) - len(line.lstrip())
                raise Graph6ParseError(exc.message, lead + exc.offset, number) from None
    return out
