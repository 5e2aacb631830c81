"""Fresh-interpreter measurements, started by run.py one at a time.

    python3 bench/child.py setup CONFIG     import + load/build timings,
                                            then the calibration kernel time
    python3 bench/child.py run ARG...       one cli.main(ARG...) and peak RSS

Prints one JSON object on its last stdout line.  Expects ``src`` on
PYTHONPATH.
"""

from __future__ import annotations

import json
import resource
import sys
from time import perf_counter

from calibration import calibration_kernel


def setup(config: str) -> dict:
    start = perf_counter()
    import ermakov.cli  # noqa: F401  (the entry point's import cost)
    from ermakov import model
    imported = perf_counter()
    model.build_scenario(model.load_config(config))
    built = perf_counter()
    calibration_kernel()  # first call pays one-off numpy costs
    return {"import_s": imported - start, "build_s": built - imported,
            "cal_s": calibration_kernel()}


def run(argv: list[str]) -> dict:
    from ermakov import cli
    code = cli.main(argv)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"exit": code, "peak_rss_mb": peak_kb / 1024.0}


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    result = setup(rest[0]) if mode == "setup" else run(rest)
    print(json.dumps(result))
