"""A fixed pure-Python computation that measures the host's current speed.

It imports nothing from cwilf, so no change to the program moves it.  Its
mix of work, dictionary updates keyed by tuples and integer additions that
outgrow a machine word, is the mix of the engines' inner loops, so when the
host slows down it slows down with the workloads.  run.py runs it as a
fresh process in every round and divides the workloads' times by its time.
Any edit here re-bases every recorded ratio, so it stays fixed.

    python3 perfbench/calibrate.py      # prints the checksum, CHECKSUM
"""

LEVELS = 50
WIDTH = 60
CHECKSUM = 3531385057811890176000


def kernel() -> int:
    table = {(i, j): i * j + 1 for i in range(WIDTH) for j in range(WIDTH)}
    for level in range(LEVELS):
        nxt: dict[tuple[int, int], int] = {}
        get = nxt.get
        for (i, j), w in table.items():
            for key in ((j, (i + j) % WIDTH), (j, (i * 7 + level) % WIDTH)):
                nxt[key] = get(key, 0) + w
        table = nxt
    return sum(table.values())


if __name__ == "__main__":
    print(kernel())
