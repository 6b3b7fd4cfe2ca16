"""Entry point by path: ``python3 benchmarks/e2e/run.py --workload NAME ...``.

Puts the checkout root and ``src/`` on ``sys.path`` (the benchmark builds
nothing: the program is pure Python run from source), then hands over to
:mod:`benchmarks.e2e.cli`.  ``_STARTED`` is read before the heavy imports
so ``setup_s`` includes them.
"""

import os
import sys
import time

_STARTED = time.perf_counter()
_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != here]
    for path in (os.path.join(_ROOT, "src"), _ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    from benchmarks.e2e.cli import main as cli_main

    return cli_main(started=_STARTED)


if __name__ == "__main__":
    sys.exit(main())
