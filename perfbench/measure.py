"""The measuring process: pipeline passes of one workload, their output
checks, and the end-to-end (or, traced, the per-layer) metrics.

``run.py`` starts this in a fresh process with BLAS pinned to one thread;
tests call ``measure`` in-process.
"""

import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import spans
import speed
import workloads

REFERENCE = Path(__file__).resolve().parent / "reference.json"
OUT = Path(__file__).resolve().parent / "out"

STAGES = ("teacher", "pseudo_label", "distill")

# input i of a run with --seed n is made from seed n * SEED_STRIDE + i
SEED_STRIDE = 1000

# end-to-end metric name -> unit; setup_s is measured by run.py
END_TO_END = {
    "teacher_s": "s",
    "pseudo_label_s": "s",
    "distill_s": "s",
    "pipeline_s": "s",
    "train_utts_per_s": "1/s",
    "decode_utts_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def machine_record():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpu": cpu,
    }


def _one_pass(workload, seed, root, checks, reference, tolerance, scales, span=None):
    result = workloads.run_pass(workload, seed, root, scales=scales, span=span)
    counts = workloads.check_pass(result, checks, reference, tolerance)
    digest = workloads.output_digest(root)
    shutil.rmtree(root)
    return {
        "times": result["times"],
        "train": result["train"],
        "probes": result["probes"],
        "pipeline_s": sum(result["times"][s] for s in STAGES),
        "counts": counts,
        "outputs": {"wer": result["wers"], "loss": counts["losses"]},
        "digest": digest,
    }


def host_speed(passes):
    """Per pass and stage, how much slower than at its best the host ran the
    stage (see ``speed``), against the fastest probe of the run."""
    best = min(min(p["probes"][s]) for p in passes for s in STAGES)
    return [{s: speed.slowdown(p["probes"][s], best) for s in STAGES} for p in passes]


def input_seeds(workload, seed, seconds):
    """Seeds of the inputs of one untraced run: as many passes as fit in
    ``seconds`` at the workload's nominal pass time, each on its own inputs,
    so that a run averages over several corpora and teachers."""
    passes = max(1, int(seconds // workloads.WORKLOADS[workload].pass_s))
    return [seed * SEED_STRIDE + i for i in range(passes)]


def measure(workload, seed, seconds, trace, root, scales=None):
    """Run the passes of one run and return (result dict for the last output
    line, record dict).

    Untraced, the run is ``input_seeds`` passes, each on its own inputs.
    Traced, it is one untraced and one traced pass on the same inputs.
    """
    if workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    with open(REFERENCE, encoding="utf-8") as f:
        reference = json.load(f)
    # references hold the outputs of the committed step counts only
    known = reference["runs"].get(workload, {}) if scales is None else {}
    checks = workloads.Checks()
    root = Path(root)
    start = time.perf_counter()

    def one_pass(input_seed, name, span=None):
        return _one_pass(workload, input_seed, root / name, checks,
                         known.get(str(input_seed)), reference["tolerance"], scales, span)

    if trace:
        seeds = [seed * SEED_STRIDE]
        passes = [one_pass(seeds[0], "untraced")]
        tracer = spans.Tracer()
        tracer.install()
        try:
            passes.append(one_pass(seeds[0], "traced", span=tracer.span))
        finally:
            tracer.uninstall()
        checks.op(passes[0]["digest"] == passes[1]["digest"]
                  and passes[0]["outputs"] == passes[1]["outputs"],
                  "the traced pass wrote different checkpoints, pseudo labels or WERs")
        values, stages = spans.analyse(tracer)
        values["trace.overhead_frac"] = passes[1]["pipeline_s"] / passes[0]["pipeline_s"] - 1.0
        units = spans.PER_LAYER
        OUT.mkdir(exist_ok=True)
        stem = OUT / f"trace-{workload}-seed{seed}"
        tracer.save(stem.with_suffix(".npz"))
        with open(stem.with_suffix(".json"), "w", encoding="utf-8") as f:
            json.dump({"stages": stages, "metrics": values}, f, indent=2, sort_keys=True)
            f.write("\n")
    else:
        seeds = input_seeds(workload, seed, seconds)
        passes = [one_pass(s, f"pass{i}") for i, s in enumerate(seeds)]
        slowdown = host_speed(passes)

        # seconds at the host's undisturbed speed, per pass
        def adjusted(key, stages):
            return [math.fsum(p[key][s] / f[s] for s in stages)
                    for p, f in zip(passes, slowdown)]

        # the median pass: some inputs cost far more than others
        median = statistics.median
        values = {f"{s}_s": median(adjusted("times", [s])) for s in STAGES}
        values.update({
            "pipeline_s": median(adjusted("times", STAGES)),
            "train_utts_per_s": median(p["counts"]["train_utts"] / t for p, t in
                                       zip(passes, adjusted("train", STAGES))),
            "decode_utts_per_s": median(p["counts"]["unsup_utts"] / t for p, t in
                                        zip(passes, adjusted("times", ["pseudo_label"]))),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        })
        units = END_TO_END
        stages = None

    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    record = dict(
        machine_record(),
        workload=workload,
        seed=seed,
        trace=bool(trace),
        input_seeds=seeds,
        measured_s=time.perf_counter() - start,
        pass_times=[p["times"] for p in passes],
        slowdown=None if trace else slowdown,
        outputs={s: p["outputs"] for s, p in zip(seeds, passes)},
        fail_frac=checks.failed / checks.attempted,
        problems=checks.problems[:20],
        digests=[p["digest"] for p in passes] if trace else None,
        stages=stages,
    )
    return result, record


def setup(workload, seed, root):
    """One set-up: (imports, done by starting this process) and the corpora."""
    cfg, _ = workloads.WORKLOADS[workload].plan(seed * SEED_STRIDE)
    workloads.cli.cmd_gen_data(cfg, root=root)


def main(argv):
    if argv[0] == "setup":
        _, workload, seed, root = argv
        setup(workload, int(seed), root)
        return
    _, workload, seed, seconds, trace, root = argv
    result, record = measure(workload, int(seed), float(seconds), int(trace), root)
    wer = {s: out["wer"] for s, out in record["outputs"].items()}
    print(json.dumps({"wer": wer, "problems": record["problems"]}, sort_keys=True),
          file=sys.stderr)
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main(sys.argv[1:])
