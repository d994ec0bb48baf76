"""Set-up probe: import satmeter and finish one solve in this fresh interpreter.

Usage: probe.py SRC_DIR DIMACS_FILE -- prints the seconds taken.
"""

import time

START = time.perf_counter()  # before any other import: set-up includes them


def main() -> int:
    import contextlib
    import io
    import sys

    sys.path.insert(0, sys.argv[1])
    from satmeter.cli import main as cli_main

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(["solve", "--alg", "ls", sys.argv[2]])
    elapsed = time.perf_counter() - START
    if code != 0:
        print(f"warm-up solve exited {code}", file=sys.stderr)
        return 1
    print(elapsed)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
