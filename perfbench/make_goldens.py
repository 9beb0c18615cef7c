"""Regenerate ``goldens.json``: the expected output of every spec.

Usage (from the repository root)::

    python3 perfbench/make_goldens.py [--out perfbench/goldens.json]

Every candidate cell of every universe in ``specs.py`` is run in each
of its variants through ``repro.api.submit(..., cache=False)`` — the
serial, uncached path. A cell whose variants do not all run is left out
of the universe. The file records, per cell list, the cells that
remain, and per spec the output digest plus the kernel-record count of
the simulated run. Run it on the commit whose outputs are the
reference; results do not depend on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import specs  # noqa: E402

UNIVERSES = {
    "cold": (specs.cold_cell_candidates, specs.cold_variants),
    "sweep": (specs.sweep_cell_candidates, specs.sweep_variants),
    "optimize": (specs.optimize_cells, specs.optimize_variants),
    "serving": (specs.serving_cells, specs.serving_variants),
}


def _evaluate(spec: dict) -> dict:
    from repro.api import submit
    from repro.core.results import RunResult
    from repro.core.sweep import clear_cache

    result = submit(specs.to_request(spec), cache=False)
    entry = {"digest": check.digest(result)}
    if isinstance(result, RunResult):
        entry["events"] = len(result.outcome.records)
    # Searches memoise their probes; start every spec from empty.
    clear_cache()
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(check.GOLDENS))
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="goldens-",
                                     dir=HERE.parent) as scratch:
        os.environ["REPRO_CACHE_DIR"] = scratch
        cells: dict[str, list] = {}
        entries: dict[str, dict] = {}
        for name, (candidates, variants) in UNIVERSES.items():
            kept = []
            for cell in candidates():
                found = {}
                try:
                    for spec in variants(cell):
                        found[specs.key(spec)] = _evaluate(spec)
                except (ValueError, KeyError) as error:
                    print(f"skip {name} {specs.key(cell)}: {error}",
                          file=sys.stderr)
                    continue
                kept.append(cell)
                entries.update(found)
            cells[name] = kept
            print(f"{name}: {len(kept)} cells", file=sys.stderr)
    # Sweep cells are validated at every setpoint, but a kept cell only
    # ever asks its own triple; keep just those entries.
    unused = {
        specs.key(spec) for cell in cells["sweep"]
        for spec in specs.sweep_variants(cell)
    } - {
        specs.key(spec) for index, cell in enumerate(cells["sweep"])
        for spec in specs.sweep_grid(index, cell)
    }
    entries = {k: v for k, v in entries.items() if k not in unused}
    with open(args.out, "w") as handle:
        json.dump({"cells": cells, "entries": entries}, handle,
                  indent=0, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
