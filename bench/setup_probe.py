"""One set-up in a fresh process; prints its gauged seconds as the last stdout line.

    python3 bench/setup_probe.py SRC_DIR CORPUS_DIR

Set-up is what a user pays before the first op: importing the package,
parsing the workload's instance files, and building the sympy field of each
coefficient field used (the first factorisation otherwise pays for it).
"""

import sys
import time
from pathlib import Path

import gauge


def set_up(src, corpus_dir):
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from wildcat import algebra, cli  # noqa: F401
    from wildcat.instances import parse_instance

    fields = {parse_instance(str(path)).conductor
              for path in sorted(Path(corpus_dir).glob("*.json"))}
    warm = getattr(algebra, "_sympy_field", None)
    if warm is None:
        import sympy  # noqa: F401  the bulk of the cost when the helper is gone
    for m in sorted(fields):
        if warm is not None:
            warm(m)


if __name__ == "__main__":
    before = gauge.loop_seconds()
    start = time.perf_counter()
    set_up(sys.argv[1], sys.argv[2])
    took = time.perf_counter() - start
    print(took * gauge.scale(before, gauge.loop_seconds()))
