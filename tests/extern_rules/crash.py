"""External rule fixture that reports an error on stderr and exits 1."""

import sys

if __name__ == "__main__":
    sys.stdin.read()
    print("crash fixture: cannot aggregate", file=sys.stderr)
    sys.exit(1)
