"""softalign benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload direct-affine --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports softalign from
``src/``; nothing is installed.  Inputs come from ``--seed``.  After an
untimed warm-up the workload repeats whole rounds until ``--seconds``
have passed (``--trace 0``), or makes a fixed number of rounds with
every softalign layer wrapped by :mod:`layertrace` (``--trace 1``).  The
outputs are then checked against :mod:`oracle`.

The last line of standard output is the result: ``correct``,
``attempted`` and ``failed`` pairs, and the end-to-end metrics
(``--trace 0``) or per-layer metrics (``--trace 1``).  A readable
summary goes to standard error, and the full record, with per-pair
failures and the machine fingerprint, to
``bench/results/<workload>-s<seed>-t<trace>.json``.  See bench/README.md.
"""

import time

T_START = time.perf_counter()  # wall time of the set-up counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

#: numpy's BLAS is pinned to one thread here and in every child process
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")


def fingerprint() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_PIN,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "system": platform.system(),
    }


def setup_cpu_s() -> float:
    """CPU seconds spent so far by this process, from its start, and by
    its finished child processes.

    ``setup_s`` is CPU time rather than wall time: on a shared machine
    the wall time of a one-second set-up swings by half between runs.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def parse_args(argv):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(SRC, "softalign", "__init__.py")):
        print(f"bench: no softalign sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    args = parse_args(argv)

    from layertrace import LayerTracer, layer_metrics, merge
    from workloads import WORKLOADS

    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    workdir = os.path.join(BENCH_DIR, "work", f"{tag}-p{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    wl = WORKLOADS[args.workload](args.seed, workdir, trace=bool(args.trace))

    tracer = LayerTracer().install() if args.trace else None
    try:
        wl.setup()
        setup_wall_s = time.perf_counter() - T_START
        setup_s = setup_cpu_s()
        before_warmup = tracer.snapshot() if tracer else None
        wl.warmup()
        after_warmup = tracer.snapshot() if tracer else None
        rounds, work, round_s = 0, 0.0, []
        cpu0 = os.times()
        t0 = time.perf_counter()
        while True:
            r0 = time.perf_counter()
            work += wl.run_round(rounds)
            round_s.append(time.perf_counter() - r0)
            rounds += 1
            elapsed = time.perf_counter() - t0
            done = rounds >= wl.trace_rounds if args.trace else elapsed >= args.seconds
            if done:
                break
        cpu1 = os.times()
    finally:
        if tracer:
            tracer.remove()

    problems = wl.check()
    quality = wl.quality()
    attempted = sum(r.get("pairs", 1) for r in wl.records)
    failed = sum(r.get("pairs", 1) for r in wl.records if not r["ok"])
    if work <= 0:
        problems.append("no work completed")

    if args.trace:
        snaps = [tracer.snapshot()]
        for path in wl.traces:
            with open(path, encoding="utf-8") as fh:
                snaps.append(json.load(fh))
        metrics = layer_metrics(merge(snaps, minus=(after_warmup, before_warmup)))
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "pairs_per_s": {"value": work / elapsed, "unit": "pairs/s"},
            "c_vs_truth": {"value": quality.get("c_vs_truth", 0.0), "unit": "ratio"},
            "peak_rss_mb": {"value": wl.peak_rss_mb(), "unit": "MB"},
        }

    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "fingerprint": fingerprint(), "result": result,
        "setup_wall_s": setup_wall_s, "rounds": rounds, "round_seconds": round_s, "measured_seconds": elapsed,
        "work": work, "quality": quality, "problems": problems,
        # CPU time of the measured rounds, this process plus finished children
        "cpu_user_s": cpu1.user - cpu0.user + cpu1.children_user - cpu0.children_user,
        "cpu_system_s": cpu1.system - cpu0.system + cpu1.children_system - cpu0.children_system,
        "failures": [{"id": r["id"], "reason": r["reason"]} for r in wl.records if not r["ok"]],
    }
    os.makedirs(os.path.join(BENCH_DIR, "results"), exist_ok=True)
    with open(os.path.join(BENCH_DIR, "results", tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True, default=str)
    shutil.rmtree(workdir, ignore_errors=True)

    print(f"{tag}: {rounds} rounds in {elapsed:.2f} s, {attempted} pairs attempted, "
          f"{failed} failed", file=sys.stderr)
    for name, m in sorted(metrics.items()):
        if not args.trace or m["value"]:
            print(f"  {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    for key in ("pck", "pck_identity", "mean_c"):
        if key in quality:
            print(f"  ({key} = {quality[key]:.4f})", file=sys.stderr)
    for p in problems:
        print(f"  CHECK FAILED: {p}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
