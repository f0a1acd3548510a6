"""Compare the Q-table and checkpoint digests of two directories of benchmark
records, e.g. a parent commit's and a change's perfbench/results/.

    python3 perfbench/compare.py PARENT_RESULTS CHANGE_RESULTS

Prints every digest that differs for the same workload, seed and sub-seed
(or set-up digest).  Exits 1 if any digest differs, 0 otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def load(directory: str) -> dict:
    records = {}
    for path in sorted(Path(directory).glob("*.json")):
        r = json.loads(path.read_text())
        records[(r["workload"], r["seed"], r["trace"])] = r
    return records


def digest_diffs(a: dict, b: dict) -> int:
    diffs = 0
    for key in sorted(set(a) & set(b)):
        da, db = a[key]["digests"], b[key]["digests"]
        da = {**da, **{f"setup {k}": v for k, v in a[key]["setup_digests"].items()}}
        db = {**db, **{f"setup {k}": v for k, v in b[key]["setup_digests"].items()}}
        for sub in sorted(set(da) & set(db)):
            if da[sub] != db[sub]:
                diffs += 1
                w, seed, trace = key
                print(f"DIFF {w} seed={seed} trace={trace} {sub}: "
                      f"{da[sub][:16]} -> {db[sub][:16]}")
    return diffs


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = load(argv[0]), load(argv[1])
    if not a or not b:
        print("error: no records found", file=sys.stderr)
        return 2
    diffs = digest_diffs(a, b)
    print(f"{diffs} digest(s) differ" if diffs else "all common digests are identical")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
