"""Set-up time in a fresh process: importing reluverify plus one load_task call
per instance of a suite, the loading that a `reluverify bench` pass includes.

Usage: python3 setup_probe.py SRC_DIR SUITE_DIR   (prints {"setup_s": ...})
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import sys
import time


def main(src_dir: str, suite_dir: str) -> None:
    t0 = time.perf_counter()
    sys.path.insert(0, src_dir)
    from reluverify import cli, model

    for _, model_path, spec_path in cli.discover_suite(suite_dir):
        model.load_task(model_path, spec_path)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
