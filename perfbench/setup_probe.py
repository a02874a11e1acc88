"""Time one fresh-process set-up: import burghelea and load a workload input.

    PYTHONPATH=src python3 perfbench/setup_probe.py group tests/fixtures/d4.json
    PYTHONPATH=src python3 perfbench/setup_probe.py complex tests/fixtures/octahedron.json

Loading a group is ``parse_group`` plus ``WordMetric(model)``; loading a
complex is ``SimplicialComplex.from_obj``.  Both validate the descriptor
(closure of a permutation group, dd = 0 of a complex).  Prints the seconds
taken, measured inside the process, so interpreter start-up is excluded.
"""
import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import burghelea  # noqa: E402


def main(kind: str, path: str) -> None:
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    if kind == "group":
        burghelea.WordMetric(burghelea.parse_group(obj))
    elif kind == "complex":
        burghelea.SimplicialComplex.from_obj(obj)
    else:
        raise SystemExit(f"unknown input kind {kind!r}")
    print(repr(time.perf_counter() - START))


if __name__ == "__main__":
    main(*sys.argv[1:])
