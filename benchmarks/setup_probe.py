"""One set-up sample, in a fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR SCENARIO_YAML

Prints the seconds taken by ``import freqshare`` (with its numpy and
PyYAML imports) plus ``load_scenario`` of the given file, which is what
a user pays before the first job of a fresh process.
"""

import sys
from time import perf_counter

if __name__ == "__main__":
    src, scenario = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    start = perf_counter()
    import freqshare

    freqshare.load_scenario(scenario)
    print(repr(perf_counter() - start))
