"""Trust-but-verify for the reverse-mode engine.

Every analytic gradient in the package can be checked against central
differences. This script runs the same three suites as `linpaint gradcheck`:
each primitive operation, one full transformer block, and the whole
encoder-decoder model. It exits 0 when every suite passes and 3, the
gradient-suite failure code, when any fails.

Run: python demos/gradient_verification.py
"""

import sys

from linpaint.cli import EXIT_OK, EXIT_TESTFAIL, run_gradcheck


def main() -> int:
    ok, lines = run_gradcheck("all", seed=0)
    for line in lines:
        print(line)
    print()
    print("all suites passed" if ok else "FAILURES above")
    return EXIT_OK if ok else EXIT_TESTFAIL


if __name__ == "__main__":
    sys.exit(main())
