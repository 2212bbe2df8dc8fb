"""The invq benchmark: end-to-end and per-layer figures for three workloads.

    python3 perfbench/run.py --workload joint13 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40
    python3 perfbench/run.py --self-test

Run it from a checkout of the repository; it imports invq from ``src/``.
It drives invq only from outside, through ``python -m invq.cli`` and the
public library functions, one child process at a time: a closed loop with
one client.  Each op runs in a fresh interpreter (see ``ops.py``), and a
pass runs every op of the workload once, in an order drawn from ``--seed``;
every op gets the same inputs whatever the seed.

Before timing, one untimed ``import invq.cli`` in a child writes the
bytecode cache and pulls the sources into the page cache.  The run then
runs passes for ``--seconds`` seconds, each untraced pass followed by a few
timed fresh imports for ``setup_s``, checks every op's output
(``checks.py``), prints each metric with its unit, median,
quartiles and sample count, writes a results file under
``.perfbench/results/`` and prints, as its last line, one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The host this was built on slows each of its vCPUs by up to half for tens
of seconds at a time, so a run's raw wall time mostly told which spells it
caught.  The harness therefore pins itself and its children to one CPU, and
a thread of its own (``SpeedProbe``) times a small fixed job on that CPU ten
times a second; the gated times (``wall_ref_s``, ``cpu_ref_s``,
``setup_s``) are each child's time scaled to a fixed reference speed by the
probes taken while it ran.  The raw times are printed and kept too.

``--trace 0`` reports the ``end_to_end`` metrics of ``BENCHMARK.json``,
``--trace 1`` the ``per_layer`` ones, from traced passes (``tracer.py``)
alternating with untraced passes that give the tracing overhead.
End-to-end numbers always come from untraced children.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

from checks import INVARIANTS, check_output
from ops import OPS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
PY = sys.executable

WORKLOADS = {
    # recurrence kernel and memo retention; nothing rendered
    "joint13": ["joint13"],
    # rendering, specialization and import cost, paid once per command
    "fpoly-cli": ["fpoly10-plain", "fpoly10-json", "fpoly10-csv",
                  "fpoly10-columns", "fpoly10-bind"],
    # enumeration oracles: millions of tiny MultiPoly/QLaurent values
    "verify12": ["verify12-json"],
}

SETUP_PER_PASS = 4      # fresh `import invq.cli` processes after each pass
RUN_LIMIT_S = 170       # children still running this long into a workload are killed

PROBE_EVERY_S = 0.1
PROBE_KEYS = [(i, i % 13, i % 7) for i in range(2000)]
PROBE_COEFF = 3 ** 60
# The reference speed of the *_ref_s metrics and setup_s: one probe() takes
# REF_PROBE_S seconds of CPU time, within the range of its medians on the
# machine the baseline was measured on, so scaled times read close to raw.
REF_PROBE_S = 0.0007


# ------------------------------------------------------------------ children

def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def op_command(op: str, stats_path: Path | None = None) -> list[str]:
    if stats_path is not None:
        return [PY, str(HERE / "tracer.py"), str(stats_path), op]
    if OPS[op] is None:
        return [PY, str(HERE / "ops.py"), op]
    return [PY, "-m", "invq.cli", *OPS[op]]


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(cmd: list[str], timeout: float) -> dict:
    """Run one command through launch.py: status, stdout, wall time, rusage."""
    report = WORK / "tmp" / "launch.txt"
    report.unlink(missing_ok=True)
    with tempfile.TemporaryFile(dir=WORK) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([PY, str(HERE / "launch.py"), str(report), *cmd],
                                cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=err,
                                start_new_session=True)
        timer = threading.Timer(max(timeout, 1.0), _kill_group, (proc.pid,))
        timer.start()
        try:
            out = proc.stdout.read()
            proc.wait()
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
            proc.stdout.close()
        wall = time.perf_counter() - t0
        err.seek(0)
        stderr = err.read()[-2000:].decode(errors="replace")
    if proc.returncode != 0 or not report.exists():     # killed on timeout
        return {"code": proc.returncode or -1, "out": out, "t0": t0,
                "wall_s": wall, "cpu_s": 0.0, "rss_mb": 0.0, "stderr": stderr}
    code, wall, cpu, rss_kib = report.read_text().split()
    return {"code": int(code), "out": out, "t0": t0, "wall_s": float(wall),
            "cpu_s": float(cpu), "rss_mb": int(rss_kib) / 1024,
            "stderr": stderr}


def probe() -> None:
    """A small fixed job: like invq's term maps, it adds big integers into a
    dict keyed by exponent tuples, but it runs no invq code, so a change to
    invq cannot change its speed."""
    terms = {}
    for key in PROBE_KEYS:
        terms[key] = terms.get(key, 0) + PROBE_COEFF
    for key in PROBE_KEYS:
        terms[key] = terms[key] * 3 - PROBE_COEFF


class SpeedProbe(threading.Thread):
    """Times probe() every PROBE_EVERY_S on the CPU the children run on.

    The probe's own CPU time (``thread_time``) leaves out the time the child
    holds the CPU and the time this thread waits for the GIL, so a sample
    tells how fast the CPU runs Python code at that moment.  It costs the
    child about 1% of its CPU.
    """

    def __init__(self):
        super().__init__(daemon=True)
        self.samples: list[tuple[float, float]] = []   # (perf_counter, CPU s)
        self.stopped = threading.Event()

    def run(self) -> None:
        while not self.stopped.wait(PROBE_EVERY_S):
            t0, c0 = time.perf_counter(), time.thread_time()
            probe()
            self.samples.append((t0, time.thread_time() - c0))

    def scale(self, t0: float, seconds: float) -> float:
        """The factor that takes times of the span from `t0` that lasted
        `seconds` to the reference speed, from the probes taken in that
        span, or the three nearest to it."""
        t1 = t0 + seconds
        inside = [c for t, c in self.samples if t0 <= t <= t1]
        if len(inside) < 3:
            middle = (t0 + t1) / 2
            nearest = sorted(self.samples, key=lambda s: abs(s[0] - middle))
            inside = [c for _, c in nearest[:3]]
        return REF_PROBE_S * len(inside) / sum(inside)

    def since(self, t0: float) -> list[float]:
        """The probe times of the samples taken from `t0` on."""
        return [c for t, c in self.samples if t >= t0]


SPEED = SpeedProbe()


class Run:
    """One benchmark run: the deadline, op accounting and the op log."""

    def __init__(self):
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.attempted = 0
        self.failures: list[dict] = []

    def timeout(self) -> float:
        return self.deadline - time.monotonic()

    def record(self, op: str, result: dict) -> None:
        self.attempted += 1
        problems = check_output(op, result["code"], result["out"])
        if problems:
            self.failures.append({"op": op, "problems": problems,
                                  "stderr": result.get("stderr", "")})


def run_pass(run: Run, ops: list[str], traced: bool = False) -> dict:
    """Run every op once; sums over the children of the pass."""
    p = {"wall_s": 0.0, "cpu_s": 0.0, "wall_ref_s": 0.0, "cpu_ref_s": 0.0,
         "peak_rss_mb": 0.0, "cli_bytes": 0,
         "covered_s": 0.0, "layers": defaultdict(Counter)}
    for op in ops:
        # the traced child's aggregates and span log; the last pass's stay
        stats_path = WORK / "spans" / f"{op}.json" if traced else None
        if traced:
            stats_path.unlink(missing_ok=True)
        result = run_child(op_command(op, stats_path), run.timeout())
        run.record(op, result)
        p.setdefault("first", (op, result))
        p["wall_s"] += result["wall_s"]
        p["cpu_s"] += result["cpu_s"]
        scale = SPEED.scale(result["t0"], result["wall_s"])
        p["wall_ref_s"] += result["wall_s"] * scale
        p["cpu_ref_s"] += result["cpu_s"] * scale
        p["peak_rss_mb"] = max(p["peak_rss_mb"], result["rss_mb"])
        if OPS[op] is not None:
            p["cli_bytes"] += len(result["out"])
        if traced and stats_path.exists():
            stats = json.loads(stats_path.read_text())
            p["covered_s"] += stats["covered_s"]
            for layer, values in stats["layers"].items():
                p["layers"][layer].update(values)
    return p


# ------------------------------------------------------------------ metrics

def summary(values: list[float]) -> dict:
    """Median, first and third quartile, sample count, the samples."""
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "samples": values}


def layer_metric(name: str, p: dict) -> float:
    """One per-layer metric of one traced pass, named <layer>.<stat>."""
    layers = p["layers"]
    layer, stat = name.rsplit(".", 1)
    values = layers.get(layer, Counter())
    if name == "cli.bytes_out":
        return p["cli_bytes"]
    if name == "trace.unattributed_s":
        return p["wall_s"] - p["covered_s"]
    if stat == "s":                                    # verify.<suite>.s
        return layers["verify.run_suite"][layer.split(".")[1]]
    if stat == "accumulations_per_s":
        return values["accumulations"] / values["self_s"] if values["self_s"] else 0.0
    if stat == "kept_ratio":
        return values["kept_out"] / values["kept_in"] if values["kept_in"] else 0.0
    return values[stat]


def module_shares(p: dict) -> dict:
    """Self time per module (the first part of each layer name)."""
    shares = Counter()
    for layer, values in p["layers"].items():
        shares[layer.split(".")[0]] += values["self_s"]
    shares["(tracer bookkeeping)"] = p["covered_s"] - sum(
        v["self_s"] for v in p["layers"].values())
    shares["(unattributed)"] = p["wall_s"] - p["covered_s"]
    return dict(shares)


def measure_setup(run: Run, count: int) -> list[dict]:
    cmd = [PY, "-c", "import invq.cli"]
    results = []
    for _ in range(count):
        result = run_child(cmd, run.timeout())
        if result["code"] != 0:
            raise SystemExit(f"error: `import invq.cli` failed:\n{result['stderr']}")
        results.append(result)
    return results


def run_workload(run: Run, name: str, seed: int, seconds: float,
                 traced: bool, spec: dict) -> dict:
    rng = random.Random(f"{name}:{seed}")
    ops = WORKLOADS[name]
    run.deadline = time.monotonic() + RUN_LIMIT_S
    attempted, failed = run.attempted, len(run.failures)
    passes, plain, setup, laps = [], [], [], []
    self_test = None
    t0, probes_from = time.monotonic(), time.perf_counter()
    # stop before a lap that would not end within `seconds`
    while not laps or time.monotonic() - t0 + statistics.median(laps) <= seconds:
        lap = time.monotonic()
        order = rng.sample(ops, len(ops))
        passes.append(run_pass(run, order, traced=traced))
        if self_test is None:
            self_test = corrupted_output_is_counted(*passes[0]["first"])
        del passes[-1]["first"]
        if traced:
            plain.append(run_pass(run, order))
        else:
            # spread over the run, so setup_s sees the host's slow spells too
            setup += measure_setup(run, SETUP_PER_PASS)
        laps.append(time.monotonic() - lap)
    attempted = run.attempted - attempted
    failed = len(run.failures) - failed
    result = {"workload": name, "ops": ops, "passes": len(passes),
              "measured_s": time.monotonic() - t0,
              "attempted": attempted, "failed": failed,
              "fail_ratio": failed / attempted,
              "checker_self_test": self_test,
              "probe_cpu_s": summary(SPEED.since(probes_from)),
              "metrics": {}, "raw": {}}
    if traced:
        untraced = statistics.median(p["wall_ref_s"] for p in plain)
        traced_wall = statistics.median(p["wall_ref_s"] for p in passes)
        for m in spec["per_layer"]:
            if m["name"] == "trace.overhead_ratio":
                values = [(traced_wall - untraced) / untraced]
            else:
                values = [layer_metric(m["name"], p) for p in passes]
            result["metrics"][m["name"]] = {"unit": m["unit"], **summary(values)}
        result["layers"] = {layer: dict(values)
                            for layer, values in sorted(passes[0]["layers"].items())}
        result["module_self_s"] = module_shares(passes[0])
        result["untraced_pass_wall_s"] = summary([p["wall_s"] for p in plain])
    else:
        sample = {name: [p[name] for p in passes]
                  for name in ("wall_ref_s", "cpu_ref_s", "peak_rss_mb")}
        sample["setup_s"] = [r["wall_s"] * SPEED.scale(r["t0"], r["wall_s"])
                             for r in setup]
        result["raw"] = {
            "wall_s": summary([p["wall_s"] for p in passes]),
            "cpu_s": summary([p["cpu_s"] for p in passes]),
            "setup_s": summary([r["wall_s"] for r in setup])}
        for m in spec["end_to_end"]:
            if m["name"] in sample:
                result["metrics"][m["name"]] = {"unit": m["unit"],
                                                **summary(sample[m["name"]])}
        # 1 - fail_ratio: the same accounting, as a figure that is never 0
        result["metrics"]["ok_ratio"] = {"unit": "ratio",
                                         "median": 1 - failed / attempted,
                                         "q1": None, "q3": None, "n": attempted}
    return result


# --------------------------------------------------------------- self-test

def corrupted_output_is_counted(op: str, result: dict) -> bool:
    """Feed the checker a real output of `op` with one byte changed."""
    run = Run()
    out = bytearray(result["out"])
    middle = len(out) // 2
    out[middle] = ord("7") if out[middle] != ord("7") else ord("8")
    run.record(op, result)
    run.record(op, dict(result, out=bytes(out)))
    return run.attempted == 2 and [f["op"] for f in run.failures] == [op]


def self_test() -> int:
    """Good output passes; a wrong count and a bad exit status both fail."""
    op = "fpoly10-columns"
    run = Run()
    good = run_child(op_command(op), run.timeout())
    text = good["out"].decode()
    wrong = text.replace("16796", "16797")        # C_10, the q=0 column
    cases = [("real output", good),
             ("Catalan number changed", dict(good, out=wrong.encode())),
             ("exit status 1", dict(good, code=1))]
    for label, result in cases:
        before = len(run.failures)
        run.record(op, result)
        verdict = "FAILED " + "; ".join(run.failures[-1]["problems"]) \
            if len(run.failures) > before else "passed"
        print(f"self-test  {label:<24} {verdict}")
    invariant = INVARIANTS[op](wrong)
    print(f"self-test  invariant alone flags the changed count: {invariant}")
    ratio = len(run.failures) / run.attempted
    print(f"self-test  attempted {run.attempted}, failed {len(run.failures)}, "
          f"fail_ratio {ratio:.4f}")
    ok = (len(run.failures) == 2 and run.failures[0]["problems"][-1].startswith("row 10")
          and run.failures[1]["problems"] == ["exit status 1"] and bool(invariant))
    print("self-test  " + ("ok: corrupted output is counted as failed"
                           if ok else "BROKEN: a corrupted output was not counted"))
    return 0 if ok else 1


# ------------------------------------------------------------- environment

def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "invq").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    return {"python": platform.python_version(),
            "executable": PY,
            "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "invq_commit": _git_commit(),
            "invq_source_sha256": _source_digest(),
            "seed": seed,
            "loadavg_start": os.getloadavg()}


def warn_if_busy(env: dict) -> None:
    for key in ("loadavg_start", "loadavg_end"):
        if env[key][0] > env["nproc"]:
            env["busy_host"] = True
            print(f"WARNING: 1-min load average {env[key][0]:.2f} at "
                  f"{key[8:]} exceeds nproc {env['nproc']}: a shared host was "
                  "busy; do not compare these figures", file=sys.stderr)


# --------------------------------------------------------------------- main

def print_metrics(prefix: str, metrics: dict) -> None:
    for name, m in metrics.items():
        spread = (f"over {m['n']} ops" if m["q1"] is None else
                  f"q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  n {m['n']}")
        print(f"{prefix}{name:<48} {m['median']:>14.6g} {m['unit']:<6} {spread}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path,
                        help="results file (default .perfbench/results/...)")
    parser.add_argument("--self-test", action="store_true",
                        help="show that a corrupted output counts as failed")
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "invq" / "cli.py").is_file():
        print(f"error: no invq sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))          # the checks read invq.oeis
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for sub in ("tmp", "spans"):
        (WORK / sub).mkdir(parents=True, exist_ok=True)
    if args.self_test:
        return self_test()

    # The host slows each vCPU on its own, so the probe tells the speed the
    # children get only on their CPU: pin this process, and so every child.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    env = environment(args.seed)
    env["cpu"] = cpu
    run = Run()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    SPEED.start()
    try:
        measure_setup(run, 1)            # warm the bytecode and page caches
        results = [run_workload(run, name, args.seed, args.seconds,
                                bool(args.trace), spec) for name in names]
    finally:
        SPEED.stopped.set()
        SPEED.join()
    env["loadavg_end"] = os.getloadavg()
    warn_if_busy(env)

    correct = not run.failures and all(r["checker_self_test"] for r in results)
    final = {}
    for r in results:
        prefix = "" if len(results) == 1 else r["workload"] + "."
        probe_s = r["probe_cpu_s"]
        print(f"# {r['workload']}: {r['passes']} passes in "
              f"{r['measured_s']:.1f} s, trace {args.trace}; probe "
              f"{probe_s['median'] * 1e3:.3f} ms [{probe_s['q1'] * 1e3:.3f}, "
              f"{probe_s['q3'] * 1e3:.3f}], reference {REF_PROBE_S * 1e3} ms")
        print_metrics(prefix, r["metrics"])
        if r["raw"]:
            print("# raw, not scaled to the reference speed and not gated:")
            print_metrics(prefix, {name: {"unit": "s", **m}
                                   for name, m in r["raw"].items()})
        for name, m in r["metrics"].items():
            final[prefix + name] = {"value": m["median"], "unit": m["unit"]}
        if args.trace:
            print(f"# {r['workload']}: self time by module in one traced pass")
            for module, s in sorted(r["module_self_s"].items(),
                                    key=lambda kv: -kv[1]):
                if s:
                    print(f"#   {module:<24} {s:9.4f} s")
            print("# no layer waits: one process, one thread, no queue")
    for failure in run.failures:
        print(f"FAILED {failure['op']}: {'; '.join(failure['problems'])}",
              file=sys.stderr)

    out = args.out or (WORK / "results" /
                       f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({
        "environment": env, "seconds": args.seconds, "trace": args.trace,
        "correct": correct, "attempted": run.attempted,
        "failed": len(run.failures), "failures": run.failures,
        "workloads": results}, indent=1) + "\n")
    print(f"# results written to {out}")
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": len(run.failures), "metrics": final}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
