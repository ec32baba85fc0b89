"""Entry point named by ``BENCHMARK.json``: ``python3 benchmarks/perf/run.py``.

Puts the checkout's root and ``src/`` on ``sys.path`` (the command may
not carry ``PYTHONPATH``) and hands over to :mod:`benchmarks.perf.cli`.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def main() -> int:
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        # the benchmark measures the program under src/; without it
        # there is nothing to run and no result may be printed
        print(f"benchmark needs the program under {source}", file=sys.stderr)
        return 2
    for entry in (str(source), str(ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    from benchmarks.perf.cli import main as cli_main

    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
