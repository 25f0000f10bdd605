"""Benchmark of the dysonprop library, driven through its public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --smoke

One closed-loop client in one process: the next op starts when the previous
one has returned and been checked.  A run sets its workload up from the
seed, then repeats the workload's pass (a fixed list of ops) for about
``--seconds`` seconds: it starts a pass only while the median pass still
fits.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics.  The second to
last line of standard output is the full report (machine block, residuals,
counts, shares), the last line the result object.  ``--workload all`` runs
every workload in its own process and prints each metric by name and unit;
``--smoke`` does that at the smallest size and checks the output.
See perfbench/README.md.
"""

import time

T0 = time.perf_counter()

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
DEV_SEED = 1
# Never used while the benchmark or a change is tuned; gain claims are
# confirmed on it.
HELD_OUT_SEED = 7919
THREAD_VARS = ("DYSONPROP_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "cols_per_s": "1/s",
             "peak_rss_mb": "MB"}
COUNT_UNITS = ("count", "GFLOP", "GB")
SETUP_PROBES = 2  # extra cold set-ups in child processes; setup_s is the median
CHILD_TIMEOUT_S = 170


def pin_threads() -> int:
    """One BLAS thread: one client on one core.

    With a second BLAS thread on a two-core VM, small-op latency depends on
    waking the other core (fleet-dense op p50 46-62 ms over five seeds,
    against 43-49 ms on one thread).
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def machine_block(nproc: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = got.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "dysonprop").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": nproc,
        "cpu": cpu,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "configuration": blas.get("openblas configuration")},
        "threads": {k: os.environ[k] for k in sorted(os.environ)
                    if k.endswith("_NUM_THREADS") or k == "DYSONPROP_THREADS"},
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


@dataclass
class PassResult:
    wall_s: float = 0.0
    latencies: list = field(default_factory=list)  # seconds, ops that returned
    attempted: int = 0
    failed: int = 0
    residuals: dict = field(default_factory=dict)  # worst residual per check
    errors: list = field(default_factory=list)
    layers: dict | None = None


def keep_worst(worst: dict, name: str, residual: float) -> None:
    """Record the larger residual per check name; NaN counts as worst."""
    if name not in worst or not residual <= worst[name]:
        worst[name] = residual


def run_pass(ops, rec=None) -> PassResult:
    """Run every op of the pass once, back to back, then check each result.

    Checks run after the last op, as in the acceptance suite, which also
    compares propagators only once it has them all.
    """
    res = PassResult()
    span = rec.span if rec is not None else lambda name: nullcontext()

    def fail(op, exc):  # a failing op fails all its checks; the run goes on
        res.attempted += op.checks
        res.failed += op.checks
        res.errors.append(f"{op.label}: {type(exc).__name__}: {exc}")

    if rec is not None:
        rec.new_pass()
        rec.install()
    try:
        began = time.perf_counter()
        outs = []
        for i, op in enumerate(ops):
            if rec is not None:
                rec.current_op = i
            try:
                t0 = time.perf_counter()
                with span("bench.op"):
                    outs.append((i, op, op.run()))
                res.latencies.append(time.perf_counter() - t0)
            except Exception as exc:
                fail(op, exc)
        while outs:
            i, op, out = outs.pop(0)
            if rec is not None:
                rec.current_op = i
            try:
                with span("bench.check"):
                    checks = op.check(out)
            except Exception as exc:
                fail(op, exc)
                continue
            finally:
                del out
            for name, residual, tol in checks:
                res.attempted += 1
                res.failed += not residual <= tol
                keep_worst(res.residuals, name, residual)
        res.wall_s = time.perf_counter() - began
    finally:
        if rec is not None:
            rec.uninstall()
    if rec is not None:
        res.layers = rec.layer_metrics()
    return res


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(ops, seconds: float, rec):
    """Repeat the pass while the median pass still fits in ``seconds``.

    Untraced only, or (with a recorder) one untraced and two traced passes
    first, then alternating.  Returns the passes and the peak resident
    memory after the first one: the heap keeps growing a little with every
    repeat, so a later reading would depend on how many passes fit.
    """
    plain, traced = [], []
    rss_mb = None
    if rec is None:
        kinds = itertools.repeat(False)
    else:
        kinds = itertools.chain([False, True, True], itertools.cycle([False, True]))
    began = time.perf_counter()
    for is_traced in kinds:
        (traced if is_traced else plain).append(run_pass(ops, rec if is_traced else None))
        rss_mb = rss_mb or peak_rss_mb()
        if not plain or (rec is not None and len(traced) < 2):
            continue
        est = max(statistics.median(p.wall_s for p in group) for group in (plain, traced)
                  if group)
        if time.perf_counter() - began + est > seconds:
            break
    return plain, traced, rss_mb


def run_self(*argv) -> subprocess.CompletedProcess:
    """This script in a child process, waited for and captured."""
    cmd = [sys.executable, str(Path(__file__).resolve()), *map(str, argv)]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          cwd=ROOT)


def setup_probe_samples(args) -> list[float]:
    samples = []
    for _ in range(SETUP_PROBES):
        got = run_self("--workload", args.workload, "--seed", args.seed,
                       "--size", args.size, "--setup-probe")
        if got.returncode != 0:
            raise RuntimeError(f"setup probe failed: {got.stderr.strip()[-500:]}")
        samples.append(json.loads(got.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_workload(args, nproc: int) -> int:
    import workloads

    ops = workloads.WORKLOADS[args.workload](args.seed, args.size)
    setup_s = time.perf_counter() - T0
    import dysonprop

    if Path(dysonprop.__file__).resolve().parent != (SRC / "dysonprop").resolve():
        print(f"error: imported dysonprop from {dysonprop.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    setup_samples = [setup_s] + setup_probe_samples(args)

    import spans

    rec = spans.Recorder() if args.trace else None
    plain, traced, rss_mb = measure(ops, args.seconds, rec)
    passes = plain + traced
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    latencies = [x for p in plain for x in p.latencies]
    wall_s = statistics.median(p.wall_s for p in plain)
    columns = sum(op.columns for op in ops)
    end_to_end = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": wall_s,
        "op_p50_ms": 1e3 * statistics.median(latencies) if latencies else None,
        "cols_per_s": columns / wall_s,
        "peak_rss_mb": rss_mb,
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "machine": machine_block(nproc),
        "ops_per_pass": len(ops),
        "columns_per_pass": columns,
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "pass_wall_s": {"untraced": [p.wall_s for p in plain],
                        "traced": [p.wall_s for p in traced]},
        "setup_samples_s": setup_samples,
        "op_samples": len(latencies),
        # p90 only where at least ten samples lie beyond it
        "op_p90_ms": (1e3 * statistics.quantiles(latencies, n=10)[-1]
                      if len(latencies) >= 100 else None),
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "errors": [e for p in passes for e in p.errors][:20],
        "residuals": {},
        "end_to_end": {k: metric(v, E2E_UNITS[k]) for k, v in end_to_end.items()},
    }
    for p in passes:
        for name, value in p.residuals.items():
            keep_worst(report["residuals"], name, value)
    OUT.mkdir(parents=True, exist_ok=True)
    counts_ok = True
    if rec is not None:
        # Counts repeat exactly on identical passes; a drift is a defect.
        units = {name: unit for name, unit, _ in spans.LAYER_METRICS}
        counts = [{k: v for k, v in p.layers.items() if units[k] in COUNT_UNITS}
                  for p in traced]
        counts_ok = all(c == counts[0] for c in counts)
        if not counts_ok:
            print(f"error: counts differ between identical passes: {counts}",
                  file=sys.stderr)
        traced_wall = statistics.median(p.wall_s for p in traced)
        layers = {name: metric(counts[0][name] if name in counts[0] else
                               statistics.median(p.layers[name] for p in traced), unit)
                  for name, unit in units.items()}
        layers["trace.overhead_s"] = metric(traced_wall - wall_s, "s")
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
        rec.save(spans_file)
        report.update(
            per_layer=layers,
            counts_per_pass=counts,
            counts_identical=counts_ok,
            traced_pass_wall_s=traced_wall,
            self_share={name: m["value"] / traced_wall for name, m in layers.items()
                        if name.endswith(".self_s")},
            spans_file=str(spans_file.relative_to(ROOT)),
        )
        metrics = layers
    else:
        metrics = report["end_to_end"]
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0 and counts_ok, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_child(workload, seed, seconds, trace, size):
    """One workload in its own process; returns (report, result) or raises."""
    got = run_self("--workload", workload, "--seed", seed, "--seconds", seconds,
                   "--trace", trace, "--size", size)
    lines = got.stdout.strip().splitlines()
    if got.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload}: exit {got.returncode}: {got.stderr.strip()[-800:]}")
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def split_verdicts(reports: dict) -> list[tuple[str, bool, str]]:
    """The intended split of self time, as (claim, holds, shares found)."""
    share = {w: r["self_share"] for w, r in reports.items()}
    apriori = {w: s["dyson.apriori.self_s"] for w, s in share.items()}
    found = ", ".join(f"{w} {v:.1%}" for w, v in apriori.items())
    certify = share["qed-lattice2"]["graded.certify.self_s"]
    series = share["qed-pairing"]["dyson.series.self_s"]
    return [
        ("dyson.apriori.self_s takes its largest share on fleet-dense",
         max(apriori, key=apriori.get) == "fleet-dense", found),
        ("dyson.apriori.self_s is negligible (< 1 %) on qed-trajectory",
         apriori["qed-trajectory"] < 0.01, found),
        ("graded.certify.self_s dominates (> 50 %) qed-lattice2", certify > 0.5,
         f"{certify:.1%}"),
        ("dyson.series.self_s dominates (> 50 %) qed-pairing", series > 0.5,
         f"{series:.1%}"),
    ]


def run_all(args, names) -> int:
    status = 0
    reports = {}
    for name in names:
        try:
            report, result = run_child(name, args.seed, args.seconds, args.trace, args.size)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"{name}: FAILED {exc}")
            status = 1
            continue
        reports[name] = report
        status |= report["failed"] > 0
        print(f"{name}  ({report['op_samples']} op samples, "
              f"{report['passes']['untraced']}+{report['passes']['traced']} passes)")
        extra = {"fail_frac": metric(report["fail_frac"], "-")}
        if report["op_p90_ms"] is not None:
            extra["op_p90_ms"] = metric(report["op_p90_ms"], "ms")
        for key, m in {**result["metrics"], **extra}.items():
            print(f"  {key:<42} {m['value']:>14.6g} {m['unit']}")
    if args.trace and len(reports) == len(names):
        print("intended split of self time (share of a traced pass):")
        for claim, holds, found in split_verdicts(reports):
            print(f"  {'holds' if holds else 'DOES NOT HOLD'}: {claim} [{found}]")
    return status


def smoke(names) -> int:
    """Every workload at its smallest size; every metric named, no failures,
    and the series counts equal across two traced runs of one seed."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    status = 0
    for name in names:
        problems = []
        try:
            runs = [run_child(name, DEV_SEED, 1, trace, "small") for trace in (0, 1, 1)]
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"FAIL {name}: {exc}")
            status = 1
            continue
        for (report, result), trace in zip(runs, (0, 1, 1)):
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != want[trace]:
                problems.append(f"trace {trace} metrics {sorted(set(got) ^ set(want[trace]))}")
            if report["fail_frac"] != 0 or not result["correct"]:
                problems.append(f"fail_frac {report['fail_frac']} errors {report['errors']}")
            if (report["op_p90_ms"] is None) != (report["op_samples"] < 100):
                problems.append("op_p90_ms must be reported exactly when op_samples >= 100")
        if runs[1][0]["counts_per_pass"][0] != runs[2][0]["counts_per_pass"][0]:
            problems.append("counts differ between two runs of one seed")
        print(f"{'FAIL' if problems else 'ok  '} {name} {'; '.join(problems)}")
        status |= bool(problems)
    return status


def main(argv=None) -> int:
    if not (SRC / "dysonprop" / "__init__.py").is_file():
        print(f"error: no dysonprop sources under {SRC}", file=sys.stderr)
        return 2
    nproc = pin_threads()
    sys.path.insert(0, str(SRC))
    import workloads

    names = list(workloads.WORKLOADS)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=DEV_SEED,
                    help=f"workload seed (development {DEV_SEED}, held out {HELD_OUT_SEED})")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "small"), default="full",
                    help=argparse.SUPPRESS)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload at its smallest size and check the output")
    args = ap.parse_args(argv)
    if args.smoke:
        return smoke(names)
    if args.workload == "all":
        return run_all(args, names)
    return run_workload(args, nproc)


if __name__ == "__main__":
    sys.exit(main())
