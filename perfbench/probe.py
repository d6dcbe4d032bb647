"""Cold set-up probe, run in a fresh interpreter by ``run.py``.

Times what every CLI process pays before its first row: ``import corrqec``
plus the first, uncached ``scheme_recovery`` for each (scheme, flavor)
pair given as arguments, e.g. ``concat6:bit dfs2:phase``.  Prints one JSON
object.  ``corrqec`` must be importable (``run.py`` sets ``PYTHONPATH``).
"""

from __future__ import annotations

import json
import sys
from time import perf_counter


def _timed(fn, totals: dict, key: str):
    def wrapper(*args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            totals[key] += perf_counter() - start

    return wrapper


def main(pairs: list[str]) -> dict:
    start = perf_counter()
    import corrqec
    from corrqec import schemes

    import_s = perf_counter() - start
    totals = {"correctable_set": 0.0, "build_recovery": 0.0}
    schemes.correctable_set = _timed(schemes.correctable_set, totals, "correctable_set")
    schemes.build_recovery = _timed(schemes.build_recovery, totals, "build_recovery")
    recovery_ops = 0
    start = perf_counter()
    for pair in pairs:
        base, flavor = pair.split(":")
        _, rs = schemes.scheme_recovery(base, flavor)
        recovery_ops += len(rs.ops) + len(rs.complement)
    recovery_s = perf_counter() - start
    return {
        "module": corrqec.__file__,
        "import_s": import_s,
        "scheme_recovery_s": recovery_s,
        "correctable_set_s": totals["correctable_set"],
        "build_recovery_s": totals["build_recovery"],
        "recovery_ops": recovery_ops,
    }


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
