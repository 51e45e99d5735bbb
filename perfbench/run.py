"""spnum benchmark runner.

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one table

Drives ``spnum.cli.main(argv)`` in-process as a closed loop with one client:
one thread, each request sent only after the previous one returned, stdout,
stderr and the exit code captured.  The program is imported from ``src/``
next to this directory; nothing is installed.  Each workload runs in its
own process (``--workload all`` starts one per workload).

A run repeats passes over the seeded request stream while the next pass is
expected to end within ``--seconds`` (at least one pass), then checks every
response outside the timed region.  With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
passes and reports the per-layer metrics, writing the spans under ``out/``.
The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md here.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import checker
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

END_TO_END = {
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}
SETUP_SAMPLES = 7
SETUP_REQUEST = ["classify", "75"]
SETUP_ANSWER = "75 = 3 · 5²\n"
SETUP_TIMEOUT_S = 60
# Child process for setup_s: what one shell `spnum` invocation pays in
# spnum itself (interpreter start excluded): import the CLI, answer once.
_SETUP_CODE = """
import contextlib, io, json, sys, time
t = time.perf_counter()
sys.path.insert(0, {src!r})
import spnum.cli
with contextlib.redirect_stdout(io.StringIO()) as out:
    rc = spnum.cli.main({argv!r})
print(json.dumps([time.perf_counter() - t, rc, out.getvalue()]))
"""


class ProgramMissing(Exception):
    """The checkout holds no spnum sources to benchmark."""


def require_program() -> None:
    if not (SRC / "spnum" / "cli.py").is_file():
        raise ProgramMissing(f"no spnum sources under {SRC}")


def load_cli():
    """Import spnum.cli from this checkout's src/, never from elsewhere."""
    require_program()
    sys.path.insert(0, str(SRC))
    import spnum.cli

    if SRC not in Path(spnum.cli.__file__).resolve().parents:
        raise ProgramMissing(f"imported spnum from {spnum.cli.__file__}, not {SRC}")
    return spnum.cli


def issue(main, argv: list[str]) -> tuple[float, int | None, str, str]:
    """One request: (seconds, exit code, stdout, stderr).  An exception
    escaping main is recorded with exit code None."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crash is a failed request, not a crashed benchmark
        rc = None
        err.write(f"{type(exc).__name__}: {exc}")
    return time.perf_counter() - start, rc, out.getvalue(), err.getvalue()


class Responses:
    """Every response of a run.  The first pass is kept whole for checking;
    a later pass is reduced, between passes, to its latencies and the
    requests whose exit code or stdout differ from the first pass, so memory
    does not grow with the number of passes."""

    def __init__(self):
        self.first: list[tuple] = []
        self.differ: list[list[int]] = []
        self.latencies: list[float] = []
        self.walls: list[float] = []

    def add(self, wall: float, results: list[tuple]) -> None:
        self.walls.append(wall)
        self.latencies += [r[0] for r in results]
        if not self.first:
            self.first = results
        else:
            self.differ.append([i for i, (a, b) in enumerate(zip(self.first, results))
                                if a[1:3] != b[1:3]])

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def run_pass(cli, requests: list[dict], tracer: spans.Tracer | None = None):
    """(wall seconds, [(latency, rc, out, err)]) for one pass in order."""
    results = []
    start = time.perf_counter()
    for rid, req in enumerate(requests):
        if tracer is not None:
            tracer.rid = rid
        results.append(issue(cli.main, req["argv"]))
    return time.perf_counter() - start, results


def measure_setup() -> float:
    """Median over fresh processes of import spnum.cli + one trivial request."""
    code = _SETUP_CODE.format(src=str(SRC), argv=SETUP_REQUEST)
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                              text=True, timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"setup child failed: {proc.stderr.strip()[-500:]}")
        seconds, rc, out = json.loads(proc.stdout.strip().splitlines()[-1])
        if rc != 0 or out != SETUP_ANSWER:
            raise RuntimeError(f"setup request answered {out!r} with exit {rc}")
        samples.append(seconds)
    return statistics.median(samples)


def judge(requests: list[dict], responses: Responses) -> list[str]:
    """One reason per wrong response.  The first pass is checked against
    the expected answers; later passes must repeat it byte for byte (the
    CLI's determinism contract), and a repeat of a wrong answer is wrong."""
    reasons = []
    for i, req in enumerate(requests):
        _, rc, out, err = responses.first[i]
        reason = checker.check(req, rc, out, err)
        if reason is not None:
            reasons.append(reason)
        for k, differ in enumerate(responses.differ, start=1):
            if i in differ:
                reasons.append(f"pass {k} differs from pass 0: {' '.join(req['argv'])[:80]}")
            elif reason is not None:
                reasons.append(reason)
    return reasons


def keep_going(start: float, walls: list[float], seconds: float) -> bool:
    """Whether another pass is expected to end within the time budget."""
    return not walls or time.perf_counter() - start + statistics.median(walls) <= seconds


def percentile(values: list[float], q: int) -> float:
    """q-th percentile, linear interpolation between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(cli, requests: list[dict], seconds: float) -> tuple[dict, Responses]:
    """End-to-end metrics, measured untraced."""
    setup_s = measure_setup()
    issue(cli.main, SETUP_REQUEST)  # warm the in-process path once, untimed
    responses = Responses()
    start = time.perf_counter()
    while keep_going(start, responses.walls, seconds):
        responses.add(*run_pass(cli, requests))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    metrics = {
        "wall_s": statistics.median(responses.walls),
        "latency_p50_ms": percentile(responses.latencies, 50) * 1e3,
        "latency_p90_ms": percentile(responses.latencies, 90) * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
    }
    return metrics, responses


def measure_traced(cli, requests: list[dict], seconds: float,
                   spans_path: Path) -> tuple[dict, Responses]:
    """Per-layer metrics: alternate untraced and traced passes.  The spans
    of each traced pass are written after it ends, outside the timed region."""
    spans_path.unlink(missing_ok=True)
    issue(cli.main, SETUP_REQUEST)
    plain, traced, per_pass, responses = [], [], [], Responses()
    start = time.perf_counter()
    while keep_going(start, [p + t for p, t in zip(plain, traced)], seconds):
        wall, results = run_pass(cli, requests)
        plain.append(wall)
        responses.add(wall, results)
        with spans.Tracer() as tracer:
            wall, results = run_pass(cli, requests, tracer)
        traced.append(wall)
        responses.add(wall, results)
        per_pass.append(spans.layer_metrics(tracer.spans))
        spans.write_spans(spans_path, tracer.spans, len(traced) - 1)
        del tracer  # drop this pass's spans before the next one
    metrics = {name: statistics.fmean(m[name] for m in per_pass) for name in per_pass[0]}
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
    return metrics, responses


def machine_facts() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "ram_gib": round(ram / 2**30, 2),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_one(args) -> dict:
    cli = load_cli()
    requests = workloads.generate(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        values, responses = measure_traced(cli, requests, args.seconds,
                                           OUT / f"{stem}.spans.jsonl.gz")
        units = {name: spec[0] for name, spec in spans.PER_LAYER.items()}
    else:
        values, responses = measure(cli, requests, args.seconds)
        units = END_TO_END
    reasons = judge(requests, responses)
    attempted = responses.attempted
    result = {
        "correct": not reasons,
        "attempted": attempted,
        "failed": len(reasons),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "passes": len(responses.walls), "requests_per_pass": len(requests),
        "latency_samples": attempted, "error_rate": len(reasons) / attempted,
        "failures": reasons[:50], "commit": git_commit(), "machine": machine_facts(),
        "result": result,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(responses.walls)} requests/pass={len(requests)} samples={attempted}")
    print(f"# commit={record['commit']} machine={json.dumps(record['machine'])}")
    for name, metric in result["metrics"].items():
        print(f"{name:34s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"{'error_rate':34s} {record['error_rate']:>16.6g} ratio ({len(reasons)}/{attempted})")
    for reason in reasons[:10]:
        print(f"FAILED {reason}", file=sys.stderr)
    return result


def run_all(args) -> dict:
    """Every workload in its own fresh process; one table of results."""
    require_program()
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise RuntimeError(f"workload {workload} exited {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    return merged


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = run_all(args) if args.workload == "all" else run_one(args)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
