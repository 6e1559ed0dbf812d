"""Print the extraction digest of every labelled N-vertex graph.

    python tools/digest.py N

The digest is the sha256 over one line per extraction: every graph code
in order, then k = 1, 2, 3, then every ordered pair u != v. Each line
holds, tab-separated, the code, k, u, v, the outcome as JSON, the trace
joined by spaces, the validator's code ("n/a" for a stall) and
``k_free`` (True or False). Two checkouts whose engines agree on every
extraction print the same digest, so a refactor that must not change
any output can be checked by running this at the parent and at the
change. It imports ``hamcert`` from wherever Python finds it: set
PYTHONPATH=src to check a source tree, or run it against an installed
package.
"""

import hashlib
import sys

from hamcert import Stalled, extract, graph_from_code, outcome_to_json, validate_outcome


def digest(n: int) -> str:
    h = hashlib.sha256()
    for code in range(1 << n * (n - 1) // 2):
        G = graph_from_code(n, code)
        for k in (1, 2, 3):
            for u in range(n):
                for v in range(n):
                    if u == v:
                        continue
                    res = extract(G, k, u, v)
                    out = res.outcome
                    check = "n/a" if isinstance(out, Stalled) else validate_outcome(G, k, u, v, out).code
                    h.update(
                        f"{code}\t{k}\t{u}\t{v}\t{outcome_to_json(out, k, u, v)}"
                        f"\t{' '.join(res.trace)}\t{check}\t{res.k_free}\n".encode()
                    )
    return h.hexdigest()


if __name__ == "__main__":
    if len(sys.argv) != 2 or not sys.argv[1].isdigit() or not 3 <= int(sys.argv[1]) <= 6:
        sys.exit("usage: python tools/digest.py N, with 3 <= N <= 6")
    print(digest(int(sys.argv[1])))
