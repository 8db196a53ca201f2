"""External rule fixture: the first agent's lower endpoint and the next float.

Its output is one unit in the last place wide, narrower than the float
spacing at most shifted scales, so a translation check must compare the
shifted output as plain floats.
"""

import json
import math
import sys


def main() -> int:
    lo = json.load(sys.stdin)["agents"][0]["lo"]
    json.dump({"lo": lo, "hi": math.nextafter(lo, math.inf)}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
