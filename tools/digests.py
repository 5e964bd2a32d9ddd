"""The sha256 of every file that one benchmark pipeline pass writes.

    python3 tools/digests.py [--src DIR] --workload W --seed N

Runs ``perfbench/workloads.run_pass`` once for workload ``W`` (weak_teacher
or causal_shift) and input seed ``N`` into a temporary directory, at the
step scales ``SCALES`` (fractions of the acceptance-suite step counts, so a
pass takes seconds), and prints as sorted JSON the sha256 of each file the
pass wrote.  Each key is the file's path under that directory with the
inputs hash dropped from every run-directory name:
``pseudo-label-<config>-<inputs>/...`` becomes ``pseudo-label-<config>/...``.
So two trees compare file by file even where a changed checkpoint renames
every run directory downstream of it.  Two files that map to one key exit 1.
``--src`` names the directory that holds the ``transducer_distill`` package
(default: this repository's ``src``), so a change that must keep every
output byte can be checked by running the same script on both trees and
comparing the two outputs.  BLAS is pinned to one thread.
"""

import argparse
import hashlib
import json
import os
import re
import sys
import tempfile
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

REPO = Path(__file__).resolve().parents[1]
SCALES = (0.05, 0.02)  # (teacher, student)
# the inputs hash that ends a run-directory name, after its config hash
INPUTS_HASH = re.compile(r"(-[0-9a-f]{12})-[0-9a-f]{12}$")


def digests(root) -> dict:
    """sha256 of every file under ``root``, by its path relative to ``root``
    with each run directory's inputs hash dropped."""
    root, out = Path(root), {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            path = p.relative_to(root)
            key = "/".join(INPUTS_HASH.sub(r"\1", part) for part in path.parts)
            if key in out:
                sys.exit(f"error: {path} and another file both map to {key}")
            out[key] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(REPO / "src"),
                        help="directory holding the transducer_distill package")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True, help="input seed")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(Path(args.src).resolve()), str(REPO / "perfbench")]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; valid: {sorted(workloads.WORKLOADS)}")
    with tempfile.TemporaryDirectory() as root:
        workloads.run_pass(args.workload, args.seed, root, scales=SCALES)
        print(json.dumps(digests(root), indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
