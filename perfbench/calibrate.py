"""Machine-speed probe for run.py's Clock.

Runs in its own process, so that its heap and garbage collector never see
the workload's objects: each input line asks for one run of a fixed piece of
interpreter-bound work, and the reply is the seconds it took.  End of input
ends the process.

    python3 perfbench/calibrate.py
"""

import sys
import time


def calibration_work() -> int:
    """Fixed work that shares no code with stacky: small tuples, strings, a
    sort, a dict and big-integer powers."""
    items = [(i, i * 2654435761 % 1000003, str(i)) for i in range(5000)]
    items.sort(key=lambda t: t[1])
    table = {t[2]: t for t in items}
    acc = 0
    for key in list(table)[::3]:
        a, b, _ = table[key]
        acc += pow(a + 3, b | 1, 4611686018427387847) % 7
    return acc


def main() -> None:
    for _ in sys.stdin:
        t0 = time.perf_counter()
        calibration_work()
        print(time.perf_counter() - t0, flush=True)


if __name__ == "__main__":
    main()
