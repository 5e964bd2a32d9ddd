"""Pipeline benchmark for transducer_distill.

    python3 perfbench/run.py --workload weak_teacher --seed 0 --seconds 30 --trace 0

Measures one workload (see README.md) in fresh processes with BLAS pinned to
one thread, under a temporary run root that is deleted afterwards.  The last
line of standard output is the result: ``correct``, ``attempted``, ``failed``
and the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  The line before it records the machine and the seed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
MEASURE = BENCH / "measure.py"

# set-ups per run; their median is setup_s
SETUP_REPEATS = 9
# every run, set-ups included, ends within this many seconds
CHILD_TIMEOUT_S = 170

PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def _child(args, env, timeout):
    """Run measure.py in a fresh interpreter and wait for it to end; returns
    (exit code, standard output, wall seconds).  A watchdog kills the child
    if it outlives ``timeout``; waiting without a timeout keeps the wall time
    free of polling steps."""
    timed_out = threading.Event()
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, str(MEASURE), *map(str, args)],
                          env=env, stdout=subprocess.PIPE, text=True) as proc:

        def stop():
            timed_out.set()
            proc.kill()

        watchdog = threading.Timer(max(timeout, 0.0), stop)
        watchdog.start()
        try:
            out, _ = proc.communicate()
        finally:
            watchdog.cancel()
    if timed_out.is_set():
        raise TimeoutError
    return proc.returncode, out, time.perf_counter() - t0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "transducer_distill" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2

    env = dict(os.environ, **PINNED,
               PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]))
    (BENCH / "out").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-seed{args.seed}-", dir=BENCH / "out"))
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    try:
        setups = []
        for i in range(0 if args.trace else SETUP_REPEATS):
            code, _, wall = _child(["setup", args.workload, args.seed, tmp / f"setup{i}"],
                                   env, deadline - time.monotonic())
            if code != 0:
                return code
            setups.append(wall)
        code, out, _ = _child(["run", args.workload, args.seed, args.seconds, args.trace,
                               tmp / "run"], env, deadline - time.monotonic())
        if code != 0:
            return code
    except TimeoutError:
        print(f"error: run exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    record_line, result_line = out.strip().splitlines()[-2:]
    record, result = json.loads(record_line)["record"], json.loads(result_line)
    if not args.trace:
        result["metrics"] = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            **result["metrics"],
        }
        record["setup_runs_s"] = setups
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
