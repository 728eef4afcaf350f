"""semshield benchmark: one workload, one process, one caller at a time.

Usage (from the repository root):

    python3 perfbench/run.py --workload bulk_sweep --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` spends half the time untraced and half with every public
function of the layer modules wrapped by ``tracer.Tracer``, and reports
the per-layer metrics plus the tracing overhead.  The metric names come
from ``BENCHMARK.json``; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

The workload runs in this process as a closed loop with a single caller:
the next sample starts only when the previous one has returned and been
checked.  numpy/BLAS are pinned to one thread before numpy is imported.

The timed unit is a whole pass over the workload's inputs, and times are
*reference seconds*: CPU seconds, rescaled by how fast a fixed reference
kernel (no semshield code) ran between the samples.  On the small shared
virtual machine this benchmark was built on (2 vCPUs, Intel Xeon), wall
time per pass moved by up to 2.2x when the hypervisor gave the CPU to
another guest, and even CPU time per pass moved by 2x between minutes as
the host got busier; the reference kernel slowed down with it.  The run
record keeps the raw wall and CPU times.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread pins)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

# CPU seconds of reference_kernel() on the reference machine when idle.
REFERENCE_KERNEL_S = 0.032
# The kernel runs between samples at most this often, so that the mean of
# its times follows the machine's speed over the whole run: that speed
# changed within single 2-second passes.
KERNEL_EVERY_S = 0.4
# Set-up is sampled between samples, at most once per SETUP_EVERY_S, so its
# median covers the whole run rather than one moment of a noisy machine.
SETUP_EVERY_S = 1.5
SETUP_MIN_RUNS = 15
# A fresh interpreter until the CLI could start a scenario: package
# import, argument parsing and config validation.
SETUP_CODE = (
    "import semshield\n"
    "from semshield.cli import build_parser\n"
    "from semshield.experiments import ExperimentConfig\n"
    "args = build_parser().parse_args(['ber_sweep'])\n"
    "ExperimentConfig(scenario=args.scenario)\n"
)
# A fresh interpreter importing standard-library modules only: the yardstick
# each set-up interpreter is paired with, and its CPU seconds on the idle
# reference machine.
REFERENCE_SETUP_CODE = (
    "import json, argparse, dataclasses, hashlib, email.parser, http.client, xml.dom.minidom, "
    "decimal, fractions, statistics, unittest, logging.handlers, asyncio"
)
REFERENCE_SETUP_S = 0.12

END_TO_END_UNITS = {
    "pass_ref_s": "s",
    "payload_kbit_per_s": "kbit/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "success_rate": "ratio",
}


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (missing sources or declaration)."""


def load_declaration() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchmarkError(f"{path.name} not found next to {HERE.name}/")
    return json.loads(path.read_text(encoding="utf-8"))


def import_program():
    """Import semshield from this checkout's src/, and only from there."""
    if not (SRC / "semshield" / "__init__.py").is_file():
        raise BenchmarkError("src/semshield is missing: run from a full checkout")
    sys.path.insert(0, str(SRC))
    import semshield

    if Path(semshield.__file__).resolve().parent != (SRC / "semshield").resolve():
        raise BenchmarkError(f"semshield imported from {semshield.__file__}, not from src/")
    return semshield


def unit_of(name: str) -> str:
    """The unit of a per-layer metric, from the statistic its name ends in.

    Counts and times are per pass over the workload's inputs.
    """
    stat = name.rsplit(".", 1)[-1]
    if stat.endswith("ratio"):
        return "ratio"
    if stat == "units_per_frame":
        return "count/frame"
    if stat.endswith("_s"):
        return "s/pass"
    if stat.endswith("bits"):
        return "bit/pass"
    if stat == "bytes":
        return "B/pass"
    return "count/pass"


def machine_record() -> dict:
    import cryptography
    import numpy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "loadavg_at_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cryptography": cryptography.__version__,
    }


def reference_kernel() -> float:
    """CPU seconds of a fixed piece of work that runs no semshield code.

    It mixes the two kinds of work the workloads do: Python-level calls on
    tiny arrays and large FFTs.
    """
    rng = np.random.default_rng(12345)
    bits = rng.integers(0, 2, 4096).astype(np.uint8)
    x = rng.standard_normal(1 << 16) + 1j * rng.standard_normal(1 << 16)
    c0 = time.process_time()
    acc = 0
    for i in range(6000):
        j = (i * 32) % 4064
        acc += int.from_bytes(np.packbits(bits[j:j + 32]).tobytes(), "big") & 7
    for _ in range(8):
        x = np.fft.ifft(np.fft.fft(x))
    return time.process_time() - c0


class SetupProbe:
    """Times fresh interpreters between passes, in reference seconds.

    Each set-up interpreter is followed at once by a reference interpreter
    that imports standard-library modules only, and set-up time is the
    median ratio of their CPU times times REFERENCE_SETUP_S.  Both start
    a process and load modules, so a busy host slows them alike: over
    ten-interpreter groups on the reference machine, the median CPU time
    spread 0.25 (quartile distance over median) and the median ratio 0.03.
    The compute kernel that rescales pass times slowed down more than
    imports did and is no use here.
    """

    def __init__(self):
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        # Like an installed package, later processes reuse the bytecode the
        # first one compiles; compiling on every start would dominate.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.times: list[float] = []
        self.reference_times: list[float] = []
        self._last = -SETUP_EVERY_S

    def _cpu_of(self, code: str) -> float:
        proc = subprocess.Popen([sys.executable, "-c", code], env=self.env, cwd=ROOT,
                                stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up interpreter exited with {proc.returncode}")
        return usage.ru_utime + usage.ru_stime

    def once(self) -> None:
        self.times.append(self._cpu_of(SETUP_CODE))
        self.reference_times.append(self._cpu_of(REFERENCE_SETUP_CODE))

    def setup_ref_s(self) -> float:
        return REFERENCE_SETUP_S * statistics.median(
            t / r for t, r in zip(self.times, self.reference_times))

    def __call__(self) -> None:
        if time.perf_counter() - self._last >= SETUP_EVERY_S:
            self.once()
            self._last = time.perf_counter()


class Runner:
    """Runs samples one at a time and keeps the correctness tally."""

    def __init__(self, samples, reference=None):
        self.samples = samples
        self.reference = reference
        self.first_digest = [None] * len(samples)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def attempt(self, k: int, call=None) -> tuple[float, float, bool]:
        """Run sample ``k`` once; return its wall and CPU time and whether it passed."""
        sample = self.samples[k]
        self.attempted += 1
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            out = (call or sample.run)()
        except Exception as exc:  # noqa: BLE001 - any exception is a failed operation
            errors = [f"{type(exc).__name__}: {exc}"]
            return time.perf_counter() - w0, time.process_time() - c0, self._passed(k, errors)
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        errors = list(sample.check(out))
        digest = sample.digest(out)
        if self.first_digest[k] is None:
            self.first_digest[k] = digest
        elif digest != self.first_digest[k]:
            errors.append("output differs from an earlier run of the same input")
        if self.reference is not None and digest != self.reference[k]:
            errors.append("output differs from the recorded reference digest")
        return wall, cpu, self._passed(k, errors)

    def _passed(self, k, errors) -> bool:
        if not errors:
            return True
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{self.samples[k].label}: {'; '.join(errors)}")
        return False

    def loop(self, seconds: float, calls=None, on_sample=None, between_samples=None) -> list:
        """Run whole passes until ``seconds`` are up, at least one.

        Returns one dict per pass with its runs, (sample index, wall, cpu,
        passed), and the reference kernel times taken between its samples.
        """
        passes = []
        deadline = time.perf_counter() + seconds
        last_kernel = -KERNEL_EVERY_S
        n = 0
        while not passes or time.perf_counter() < deadline:
            runs, kernels = [], []
            for k in range(len(self.samples)):
                if between_samples:
                    between_samples()
                if time.perf_counter() - last_kernel >= KERNEL_EVERY_S:
                    kernels.append(reference_kernel())
                    last_kernel = time.perf_counter()
                if on_sample:
                    on_sample(n)
                n += 1
                runs.append((k, *self.attempt(k, calls[k] if calls else None)))
            passes.append({
                "cpu": sum(r[2] for r in runs),
                "wall": sum(r[1] for r in runs),
                # A failed sample carried no checked payload.
                "bits": sum(self.samples[k].payload_bits for k, _, _, ok in runs if ok),
                "runs": runs,
                "kernels": kernels,
            })
        passes[-1]["kernels"].append(reference_kernel())
        return passes


def timing_summary(values: list[float]) -> dict:
    """Median, quartiles and the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if n >= 2 else (values[0],) * 3
    out = {"n": n, "median": statistics.median(values), "q1": q1, "q3": q3}
    if n >= 20:
        pct = int(100 * (1 - 10 / n))
        out[f"p{pct}"] = statistics.quantiles(values, n=100)[pct - 1]
    return out


def ref_seconds(passes) -> float:
    """Total CPU seconds of the passes at reference speed.

    A ratio of sums, total pass CPU over mean kernel CPU: the machine's
    speed changes within a pass, so only averages over the run match.
    """
    kernel = statistics.mean(t for p in passes for t in p["kernels"])
    return sum(p["cpu"] for p in passes) * REFERENCE_KERNEL_S / kernel


def end_to_end(runner: Runner, passes, probe: SetupProbe, peak_rss_mb) -> tuple[dict, dict]:
    ref = ref_seconds(passes)
    values = {
        "pass_ref_s": ref / len(passes),
        "payload_kbit_per_s": sum(p["bits"] for p in passes) / ref / 1e3,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": probe.setup_ref_s(),
        "success_rate": (runner.attempted - runner.failed) / runner.attempted,
    }
    detail = {
        "pass_cpu_s": timing_summary([p["cpu"] for p in passes]),
        "pass_wall_s": timing_summary([p["wall"] for p in passes]),
        "kernel_cpu_s": timing_summary([t for p in passes for t in p["kernels"]]),
        "sample_cpu_s": timing_summary([r[2] for p in passes for r in p["runs"]]),
        "setup_cpu_s": timing_summary(probe.times),
        "setup_reference_cpu_s": timing_summary(probe.reference_times),
    }
    return values, detail


def traced(runner: Runner, seconds: float, run_id: str) -> tuple[dict, dict, list]:
    from tracer import ROOT_SPAN, Tracer

    plain = runner.loop(seconds / 2)
    tracer = Tracer()
    calls = [tracer.wrap(ROOT_SPAN, s.run) for s in runner.samples]
    tracer.install()
    try:
        with_trace = runner.loop(seconds / 2, calls=calls,
                                 on_sample=lambda i: setattr(tracer, "current_sample", i))
    finally:
        tracer.uninstall()
    sample_wall = sum(r[1] for p in with_trace for r in p["runs"])
    values = tracer.stats(len(with_trace), sample_wall)
    values["trace.overhead_ratio"] = (ref_seconds(with_trace) / len(with_trace)
                                      / (ref_seconds(plain) / len(plain)))
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{run_id.split('-seed')[0]}-spans.npz"
    tracer.save(spans_path, run_id)
    detail = {"spans_file": str(spans_path.relative_to(ROOT)),
              "untraced_passes": len(plain), "traced_passes": len(with_trace),
              "span_percentiles_us": tracer.percentiles(len(with_trace))}
    return values, detail, plain + with_trace


def select(declared: list[dict], values: dict, units: dict) -> dict:
    metrics = {}
    for spec in declared:
        name = spec["name"]
        if name not in values:
            raise BenchmarkError(f"declared metric {name} was not measured")
        metrics[name] = {"value": float(values[name]), "unit": units[name]}
    return metrics


def parse_args(argv):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def run(argv=None, small: bool = False) -> dict:
    """Run one benchmark invocation and return its record.

    ``small`` shrinks every workload for the self-test; the reference
    digests then do not apply and no record is written.
    """
    declaration = load_declaration()
    import_program()
    sys.path.insert(0, str(HERE))
    import workloads

    args = parse_args(argv)
    machine = machine_record()
    samples = workloads.BUILDERS[args.workload](args.seed, small=small)
    reference = None
    if not small:
        ref = json.loads(REFERENCE.read_text(encoding="utf-8"))
        if args.seed == ref["pinned_seed"]:
            reference = ref["digests"][args.workload]
    runner = Runner(samples, reference)
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    # Warm-up pass: lazy imports, allocator growth and every input's first
    # digest, checked but not timed.  Peak RSS is read after this fixed
    # amount of work, because heap fragmentation keeps creeping up with the
    # number of samples, which depends on how fast the machine is.
    for k in range(len(samples)):
        runner.attempt(k)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.trace:
        values, detail, passes = traced(runner, args.seconds, run_id)
        metrics = select(declaration["per_layer"], values, {k: unit_of(k) for k in values})
    else:
        probe = SetupProbe()
        passes = runner.loop(args.seconds, between_samples=probe)
        while len(probe.times) < SETUP_MIN_RUNS:
            probe.once()
        values, detail = end_to_end(runner, passes, probe, peak_rss_mb)
        metrics = select(declaration["end_to_end"], values, END_TO_END_UNITS)

    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    record = {"run_id": run_id, "machine": machine, "argv": vars(args), "small": small,
              "pass": [s.label for s in samples], "digests": runner.first_digest,
              "problems": runner.problems, "detail": detail, "passes": passes, "result": result}
    if not small:
        OUT.mkdir(exist_ok=True)
        (OUT / f"{run_id}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return record


def main(argv=None) -> int:
    try:
        record = run(argv)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    result = record["result"]
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    for problem in record["problems"]:
        print(f"FAILED {problem}")
    for name, d in record["detail"].items():
        print(f"detail {name} {json.dumps(d, sort_keys=True)}")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
