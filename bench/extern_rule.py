"""External rule script for the ``extern:`` ops of the benchmark.

``extern_rule.py union`` reads a profile document on stdin and prints the
smallest lower and largest upper bound, the same interval as the built-in
maximal rule.  ``extern_rule.py garbage`` reads stdin and prints a reply
that is not JSON, which the adapter must report as an evaluation error.
"""

import json
import sys


def main(mode: str) -> int:
    if mode == "garbage":
        sys.stdin.read()
        print("this is not an interval")
        return 0
    agents = json.load(sys.stdin)["agents"]
    json.dump(
        {"lo": min(agent["lo"] for agent in agents), "hi": max(agent["hi"] for agent in agents)},
        sys.stdout,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else "union"))
