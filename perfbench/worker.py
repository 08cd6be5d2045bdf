"""One benchmark process: set-up, then at most one pass over the items.

    python3 perfbench/worker.py --root DIR --workload NAME --seed N \
        --mode setup|pass|traced

Prints one JSON object as its last line.  `setup` times a fresh import of
the package and the load of the programs the workload needs.  `pass` also
runs every item once, untraced, and checks each output after the pass
against the reference.  `traced` does the same with every layer wrapped
by the tracer, and adds the per-layer metrics.
"""

from __future__ import annotations

import os
import sys
import time

import speed

clock = time.perf_counter


def setup(root: str, workload: str):
    """Import basislam from the checkout and load the workload's programs,
    with a speed sample on either side.  This runs first in the process, so
    the time includes every import the package makes."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    before = speed.sample()
    t0 = clock()
    import basislam

    if workload == "corpus":
        programs = basislam.corpus.load_corpus()
    else:
        lb = os.path.join(src, "basislam", "corpus", "gates.lb")
        programs = {"gates": basislam.load_program(lb)}
    setup_s = clock() - t0
    samples = [before, speed.sample()]
    if not os.path.abspath(basislam.__file__).startswith(os.path.abspath(src)):
        raise SystemExit(f"basislam imported from {basislam.__file__}, not {src}")
    return programs, setup_s, samples


def main(argv: list[str]) -> int:
    # Arguments are parsed by hand: set-up is timed before any import the
    # package would otherwise find already loaded.
    args = dict(zip(argv[0::2], argv[1::2]))
    root, workload, mode = args["--root"], args["--workload"], args["--mode"]
    if mode not in ("setup", "pass", "traced"):
        raise SystemExit(f"bad mode: {mode}")
    programs, setup_s, samples = setup(root, workload)
    import json
    import resource

    import passes

    result = {"setup_s": setup_s, "setup_speed_samples_s": samples}
    if mode != "setup":
        result.update(
            passes.run_pass(root, workload, int(args["--seed"]), programs,
                            mode == "traced")
        )
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
