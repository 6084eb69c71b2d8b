"""Benchmark of the carr workbench.

    python3 benchmarks/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload closed-loop from this single process (one client, one
thread, BLAS pinned to one thread): the seed fixes the op list of one pass,
and passes repeat until ``--seconds`` is spent.  Every op's output is checked
against ``reference.json``.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes and reports per-layer
metrics.  The last line of stdout is one JSON object; the lines before it
are a human-readable summary and the environment fingerprint.  See
README.md in this directory for the workloads and metrics.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here

import argparse
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("robust_sweep", "standard_sweep", "oracle_audit", "gradcheck_audit")
SETUP_SAMPLES = 3  # this process plus two fresh set-up-only interpreters
MIN_PASSES = 3  # untraced run
MIN_PAIRS = 2  # traced run: (untraced, traced) pass pairs
HARD_LIMIT_S = 150.0  # stop starting passes past this, whatever --seconds says
P90_MIN_BEYOND = 10
# Time of one speed-kernel run on the reference machine at its usual speed.
KERNEL_NOMINAL_S = 0.0055
SETUP_KERNEL_RUNS = 9


def pin_blas() -> None:
    """One BLAS thread; must run before numpy is first imported."""
    for var in BLAS_VARS:
        os.environ[var] = "1"


def p90(values):
    """Nearest-rank 90th percentile, or None unless at least
    ``P90_MIN_BEYOND`` samples lie beyond it (100 samples or more)."""
    n = len(values)
    rank = -(-9 * n // 10)
    if n - rank < P90_MIN_BEYOND:
        return None
    return sorted(values)[rank - 1]


# ---------------------------------------------------------------------------
# Machine speed
#
# The shared machine's speed drifts by up to 2x over seconds to minutes,
# for identical work and with CPU time equal to wall time.  A fixed kernel
# that runs no carr code is timed between ops, and every reported time is
# divided by the kernel's slowdown against KERNEL_NOMINAL_S: times read as
# seconds on the reference machine at its usual speed.  A change to carr
# moves the op times but not the kernel.  Of the kernels tried (64x64 and
# 4x64 products, interpreter loops, mixes), 256x256 products tracked every
# workload's drift best, Python-bound ones included.
# ---------------------------------------------------------------------------


def kernel_matrix():
    import numpy as np

    return np.random.default_rng(0).standard_normal((256, 256)) / 16


def kernel_s(a) -> float:
    """Seconds for one run of the speed kernel: five 256x256 products."""
    import numpy as np

    t = time.perf_counter()
    x = a
    for _ in range(5):
        x = np.tanh(a @ x)
    return time.perf_counter() - t


def slowdown(kernel_samples) -> float:
    return statistics.median(kernel_samples) / KERNEL_NOMINAL_S


# ---------------------------------------------------------------------------
# Environment fingerprint
# ---------------------------------------------------------------------------


def _git_rev() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _openblas_runtime(numpy):
    """(core name, thread count) from the bundled scipy-openblas, if found."""
    import ctypes

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*.so"))
    try:
        lib = ctypes.CDLL(libs[0])
        core = lib.scipy_openblas_get_corename64_
        threads = lib.scipy_openblas_get_num_threads64_
    except (IndexError, OSError, AttributeError):
        return None, None
    core.restype, threads.restype = ctypes.c_char_p, ctypes.c_int
    return core().decode(), threads()


def fingerprint() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    core, threads = _openblas_runtime(numpy)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_core": core,
        "blas_threads": threads,
        "thread_env": {var: os.environ.get(var) for var in BLAS_VARS},
        "nproc": os.cpu_count(),
        "git_rev": _git_rev(),
    }


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def setup(workload: str, seed: int):
    """Import carr, build this seed's ops, warm up; returns the ops, the
    reference outputs and the set-up timings of this interpreter."""
    sys.path.insert(0, str(SRC))
    import carr  # noqa: F401  (the import is what is timed)

    t_import = time.perf_counter()
    import workloads

    pool, warm_up = workloads.WORKLOADS[workload]
    reference = workloads.load_reference()["ops"][workload]
    ops = workloads.select(workload, pool(), seed, reference)
    t_inputs = time.perf_counter()
    warm_up()
    t_done = time.perf_counter()
    matrix = kernel_matrix()
    return ops, reference, {
        "import_s": t_import - _T0,
        "inputs_s": t_inputs - t_import,
        "warmup_s": t_done - t_inputs,
        "setup_s": t_done - _T0,
        "slowdown": slowdown([kernel_s(matrix) for _ in range(SETUP_KERNEL_RUNS)]),
    }


def setup_probe(workload: str, seed: int) -> dict:
    """Set-up timings of a fresh interpreter that does nothing else."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


@dataclass
class Pass:
    """Raw timings of one pass, with the speed-kernel times around its ops."""

    traced: bool
    op_s: list = field(default_factory=list)
    cpu_s: float = 0.0
    kernel_s: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    profile: dict | None = None

    @property
    def slowdown(self) -> float:
        return slowdown(self.kernel_s)

    @property
    def nominal_op_s(self) -> list:
        return [t / self.slowdown for t in self.op_s]


def pass_time(passes) -> float:
    """Nominal time of the pass's fixed work: the sum over its ops of each
    op's median time across passes, so one slow moment moves one sample of
    one op rather than a whole pass."""
    per_op = zip(*(p.nominal_op_s for p in passes))
    return sum(statistics.median(times) for times in per_op)


def run_pass(ops, matrix, tracer=None) -> Pass:
    """Run every op once, timing each, with a speed-kernel run before each
    op and after the last; exceptions are failed ops."""
    result = Pass(traced=tracer is not None)
    for op in ops:
        result.kernel_s.append(kernel_s(matrix))
        span = tracer.open("op") if tracer is not None else None
        cpu, t = time.process_time(), time.perf_counter()
        try:
            out, err = op.call(), None
        except Exception as exc:  # a failed op is a result, not a crash
            out, err = None, f"{type(exc).__name__}: {exc}"
        result.op_s.append(time.perf_counter() - t)
        result.cpu_s += time.process_time() - cpu
        if tracer is not None:
            tracer.close(span)
        result.outputs.append(out)
        result.errors.append(err)
    result.kernel_s.append(kernel_s(matrix))
    return result


def run_traced_pass(ops, matrix, tracer) -> Pass:
    import tracing
    import workloads

    tracer.counters.clear()
    lo = len(tracer)
    with tracing.installed(tracer):
        result = run_pass(ops, matrix, tracer)
    epochs = sum(workloads.epochs_of(out) for out in result.outputs if out)
    result.profile = tracing.pass_profile(tracer, lo, len(tracer),
                                          tracer.counters, epochs)
    return result


def measure(ops, seconds: float, trace: bool, tracer):
    """Repeat passes until the time is spent (untraced, or alternating
    untraced and traced), never fewer than the minimum."""
    matrix = kernel_matrix()
    passes = []
    start = time.perf_counter()
    deadline, hard_deadline = start + seconds, start + HARD_LIMIT_S
    while True:
        t = time.perf_counter()
        if trace:
            group = [run_pass(ops, matrix), run_traced_pass(ops, matrix, tracer)]
            enough = len(passes) // 2 + 1 >= MIN_PAIRS
        else:
            group = [run_pass(ops, matrix)]
            enough = len(passes) + 1 >= MIN_PASSES
        passes += group
        now = time.perf_counter()
        step = now - t
        if now + step > hard_deadline or (enough and now + step > deadline):
            return passes


def check_passes(ops, passes, reference):
    """Every op execution against the reference and, bit for bit, against
    the first untraced pass.  Returns one message per failed execution."""
    import workloads

    first = passes[0]
    failures = []
    for p in passes:
        for i, op in enumerate(ops):
            err = p.errors[i] or workloads.check(op, p.outputs[i], reference)
            if err is None and first.outputs[i] is not None and \
                    workloads.digest(p.outputs[i]) != workloads.digest(first.outputs[i]):
                kind = "traced" if p.traced else "replayed"
                err = f"{kind} output is not bit-identical to the first untraced pass"
            if err:
                failures.append(f"{op.key}: {err}")
    return failures


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _nominal(samples, key):
    """Median of ``key`` over set-up samples, each at its own slowdown."""
    return statistics.median(s[key] / s["slowdown"] for s in samples)


def nominal_op_s(passes):
    return [t for p in passes for t in p.nominal_op_s]


def end_to_end(passes, setups):
    return {
        "setup_s": (_nominal(setups, "setup_s"), "s"),
        "wall_s": (pass_time(passes), "s"),
        "op_s.p50": (statistics.median(nominal_op_s(passes)), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def per_layer(passes, setups):
    """Per-layer metrics plus the list of counts that did not repeat."""
    import tracing

    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    counts = traced[0].profile["counts"]
    unsteady = {k for p in traced[1:] for k in set(counts) | set(p.profile["counts"])
                if p.profile["counts"].get(k) != counts.get(k)}
    names = {n for p in traced for n in p.profile["self_s"]}
    self_s = {n: statistics.median(p.profile["self_s"].get(n, 0.0) / p.slowdown
                                   for p in traced)
              for n in names}
    metrics = tracing.layer_metrics(counts, self_s)
    metrics.update({
        "setup.import_s": (_nominal(setups, "import_s"), "s"),
        "setup.inputs_s": (_nominal(setups, "inputs_s"), "s"),
        "process.cpu_s": (statistics.median(p.cpu_s / p.slowdown for p in plain), "s"),
        "trace.overhead_frac": (pass_time(traced) / pass_time(plain) - 1, "ratio"),
    })
    return metrics, sorted(unsteady)


def summary_lines(args, passes, ops, failures, flags, metrics):
    op_s = nominal_op_s(passes)
    lines = [f"{args.workload} seed {args.seed}: {len(passes)} passes of {len(ops)} ops, "
             f"failed_frac {len(failures) / len(op_s):.6g} ratio "
             f"({len(failures)} failed of {len(op_s)} attempted)",
             "  machine slowdown per pass "
             + " ".join(f"{p.slowdown:.3f}" for p in passes)
             + ", raw pass seconds " + " ".join(f"{sum(p.op_s):.4g}" for p in passes)]
    for name, (value, unit) in metrics.items():
        count = f" (n={len(op_s)} ops)" if name.startswith("op_s") else ""
        lines.append(f"  {name} {value:.6g} {unit}{count}")
    tail = p90(op_s)
    if not args.trace and tail is not None:
        lines.append(f"  op_s.p90 {tail:.6g} s (n={len(op_s)} ops)")
    lines += [f"  FAILED {msg}" for msg in failures[:20]]
    lines += [f"  FLAGGED {msg}" for msg in flags]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    pin_blas()
    if not (SRC / "carr" / "__init__.py").is_file():
        print(f"error: carr sources not found under {SRC}", file=sys.stderr)
        return 2
    ops, reference, own_setup = setup(args.workload, args.seed)
    if args.setup_probe:
        print(json.dumps(own_setup))
        return 0
    setups = [own_setup] + [setup_probe(args.workload, args.seed)
                            for _ in range(SETUP_SAMPLES - 1)]
    env = fingerprint()

    import tracing

    tracer = tracing.Tracer()
    passes = measure(ops, args.seconds, bool(args.trace), tracer)
    failures = check_passes(ops, passes, reference)
    flags = []
    if args.trace:
        metrics, unsteady = per_layer(passes, setups)
        flags = [f"count {k} differs between traced passes" for k in unsteady]
    else:
        metrics = end_to_end(passes, setups)

    lines = summary_lines(args, passes, ops, failures, flags, metrics)
    result = {
        "correct": not failures and not flags,
        "attempted": len(ops) * len(passes),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    label = f"{args.workload}{'_trace' if args.trace else ''}"
    with open(OUT / f"BENCH_{label}.json", "w") as fh:
        json.dump({"args": vars(args), "fingerprint": env, "summary": lines,
                   "passes": [{"traced": p.traced, "op_s": p.op_s, "cpu_s": p.cpu_s,
                               "kernel_s": p.kernel_s} for p in passes],
                   "setups": setups, "result": result}, fh, indent=1)
    if args.trace:
        tracer.save(OUT / f"spans_{args.workload}.npz",
                    json.dumps({"args": vars(args), "fingerprint": env}))
    print("fingerprint " + json.dumps(env, sort_keys=True))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
