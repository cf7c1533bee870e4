"""hollowlat benchmark: time to a correct verdict through the CLI.

Run from the repository root:

    python3 bench/run.py --workload cyclic-enum --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --record-goldens
    python3 -m pytest -q bench/test_bench.py        # harness self-tests

Every request is one ``hollowlat.cli.main(argv)`` call in this process, made
by one client in a closed loop: the next request starts when the previous one
returns.  Each request parses its own spec file, so no module cache carries
over between requests.  A run first sets up (import, spec files, warm-up)
several times and reports the median as ``setup_s``, then runs whole passes
over the workload's requests, at least one, while the next pass is expected
to end within ``--seconds``; whole passes keep the request mix fixed.
Throughput counts request time only: the output checks and the garbage
collection between requests are the harness's, not the CLI's.
``latency_p50_s`` and ``latency_p90_s`` are nearest-rank quantiles over the
requests of one pass, taking each request's median latency over the run's
passes.  ``--seed`` sets the order of the requests in a pass; the inputs are
the same for every seed.

Each request's exit code and the sha256 of its ``--report`` output (of the
DOT for ``hasse``) is checked against ``bench/goldens.json``; a request
without a golden fails only on an exception, exit code 1 or 3, or a ``fail``
claim.  ``--workload all`` runs each workload in its own process.

With ``--trace 1`` the run times some passes untraced, then the same passes
with ``tracer.Tracer`` installed, and reports the per-layer metrics per traced
pass.  The spans go to ``.bench_run/spans-<workload>-seed<seed>.jsonl``.

Workloads, why they exist, and which layer metric should move which
end-to-end metric on them (layer shares are self time over a traced pass):

cyclic-enum    ``submodules``, ``pshollow`` and ``verify`` on Z_n for
               n in {120, 240, 420, 840, 1024, 1260} (1024: a chain).
               Submodule enumeration dominates: modules ~85%, lattice ~7%
               through the bridge.  modules.enumerate_s, modules.submodules
               -> throughput_rps, latency_p50_s here; flat on lattice-specs
               (never called) and on sums-search (~5%).
sums-search    ``verify``/``represent``/``minimize`` on small direct sums.
               Enumeration is cheap; the subset search over ps-hollow
               submodules dominates: pshollow ~80%, most of it in the
               minimality test the search calls per candidate family.
               pshollow.search_s, pshollow.minimality_s,
               pshollow.families_examined, modules.second_reps_s,
               modules.sum_of_calls -> throughput_rps, latency_p90_s here;
               flat on the other two.
lattice-specs  ``spectra``/``verify``/``hasse`` on seven emitted submodule
               lattices, ``spectra``/``verify`` on the random instances
               ``spectra.random_instance(i, 16, 6)`` for i < 60.  No module
               or ps-hollow work: lattice ~84%, spectra ~11%, cli ~5%.
               lattice.build_s, lattice.derived_s, lattice.action_s ->
               throughput_rps, latency_p50_s here (and part of cyclic-enum,
               through the bridge); spectra.* -> throughput_rps; cli.parse_s,
               report.render_s -> latency_p50_s.  Cache sizes behind
               modules.sum_of_calls move peak_rss_mb on sums-search and
               cyclic-enum, not here.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import itertools
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer as tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
GOLDENS = BENCH_DIR / "goldens.json"

DEFAULT_SEED = 1
SETUP_REPEATS = 3
RANDOM_INSTANCES = 60

END_TO_END = (
    ("throughput_rps", "1/s"), ("latency_p50_s", "s"), ("latency_p90_s", "s"),
    ("setup_s", "s"), ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or goldens)."""


@dataclass(frozen=True)
class Request:
    command: str
    spec: str
    extra: tuple[str, ...] = ()


@dataclass
class Plan:
    """One workload at one seed: spec texts, one pass of requests, warm-up."""

    specs: dict[str, str]
    requests: list[Request]
    warmup: list[Request]
    digests: dict[str, str] = field(default_factory=dict)

    def key(self, req: Request) -> str:
        """Golden key: the request and a digest of its spec text."""
        return " ".join((req.command, *req.extra, f"{req.spec}@{self.digests[req.spec]}"))


def module_text(ring: int, factors) -> str:
    return f"ring {ring}\nmodule {' '.join(map(str, factors))}\n"


# -- workloads -------------------------------------------------------------------

def plan_cyclic_enum(hl, seed: int) -> Plan:
    # Z_2048, Z_2520 and Z_3600 are left out: one verify takes 6-10 s.
    orders = (120, 240, 420, 840, 1024, 1260)
    specs = {f"z{n}": module_text(n, [n]) for n in orders}
    groups = [[Request(cmd, f"z{n}") for cmd in ("submodules", "pshollow", "verify")]
              for n in orders]
    random.Random(seed).shuffle(groups)
    warmup = [Request(cmd, "z120") for cmd in ("submodules", "pshollow", "verify")]
    return Plan(specs, [r for g in groups for r in g], warmup)


def plan_sums_search(hl, seed: int) -> Plan:
    sums = {"z2x2x2": (2, [2, 2, 2]), "z11x11": (11, [11, 11]), "z3x3x3": (3, [3, 3, 3]),
            "z2x2x2x2": (2, [2, 2, 2, 2]), "z7x7": (7, [7, 7]), "z6x6": (6, [6, 6]),
            "z12x6": (12, [12, 6]), "z10x10": (10, [10, 10]), "z12": (12, [12])}
    specs = {name: module_text(ring, factors) for name, (ring, factors) in sums.items()}
    requests = [
        Request("verify", "z2x2x2"),
        Request("represent", "z2x2x2", ("--max-terms", "4")),
        Request("represent", "z11x11"),
        Request("represent", "z3x3x3", ("--max-terms", "3")),
        Request("represent", "z2x2x2x2", ("--max-terms", "2")),
        Request("verify", "z7x7"),
        Request("verify", "z6x6"),
        Request("verify", "z12x6"),
        Request("verify", "z10x10"),
        Request("minimize", "z12", ("--summands", "(3),(4),(6)")),
    ]
    random.Random(seed).shuffle(requests)
    warmup = [Request("verify", "z7x7"), Request("represent", "z3x3x3", ("--max-terms", "3")),
              Request("minimize", "z12", ("--summands", "(3),(4),(6)"))]
    return Plan(specs, requests, warmup)


def plan_lattice_specs(hl, seed: int) -> Plan:
    emitted = {"sub_z2x2x2x2": (2, [2, 2, 2, 2]), "sub_z12x6": (12, [12, 6]),
               "sub_z10x10": (10, [10, 10]), "sub_z720": (720, [720]),
               "sub_z6x6": (6, [6, 6]), "sub_z360": (360, [360]), "sub_z8x4": (8, [8, 4])}
    specs = {}
    for name, (ring, factors) in emitted.items():
        module = hl.modules.FiniteModule(hl.modules.Ring(ring), factors)
        _, action = hl.modules.submodule_lattice(module)
        specs[name] = hl.cli.emit_lattice_spec(action)
    groups = [[Request(cmd, name) for cmd in ("spectra", "verify", "hasse")]
              for name in emitted]
    # The instance seeds are fixed, not drawn from `seed`: instance cost is
    # heavy-tailed (coefficient of variation ~1.7), so 60 seed-drawn instances
    # moved throughput by ~12% and p90 by ~30% from one seed to the next.
    for i in range(RANDOM_INSTANCES):
        name = f"rand{i:02d}"
        action = hl.spectra.random_instance(i, 16, 6)
        specs[name] = hl.cli.emit_lattice_spec(action)
        groups.append([Request("spectra", name), Request("verify", name)])
    random.Random(seed).shuffle(groups)
    warmup = [Request(cmd, "rand00") for cmd in ("spectra", "verify", "hasse")]
    return Plan(specs, [r for g in groups for r in g], warmup)


WORKLOADS = {
    "cyclic-enum": plan_cyclic_enum,
    "sums-search": plan_sums_search,
    "lattice-specs": plan_lattice_specs,
}


# -- set-up ----------------------------------------------------------------------

def import_hollowlat():
    """Import the package from this checkout's src/, afresh each time."""
    if not (SRC / "hollowlat" / "cli.py").is_file():
        raise BenchError(f"no hollowlat sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "hollowlat" or n.startswith("hollowlat.")]:
        del sys.modules[name]
    cli = importlib.import_module("hollowlat.cli")
    if Path(cli.__file__).resolve().parent != SRC / "hollowlat":
        raise BenchError(f"imported hollowlat from {cli.__file__}, not from {SRC}")
    return argparse.Namespace(cli=cli, modules=importlib.import_module("hollowlat.modules"),
                              spectra=importlib.import_module("hollowlat.spectra"))


def set_up(workload: str, seed: int, work_dir: Path):
    """Import, write the spec files under work_dir, and warm up once."""
    hl = import_hollowlat()
    plan = WORKLOADS[workload](hl, seed)
    spec_dir = work_dir / "specs"
    spec_dir.mkdir(parents=True)
    for name, text in plan.specs.items():
        (spec_dir / f"{name}.spec").write_text(text, encoding="utf-8")
        plan.digests[name] = hashlib.sha256(text.encode()).hexdigest()[:16]
    for req in plan.warmup:
        invoke(hl, req, work_dir)
    return hl, plan


# -- requests --------------------------------------------------------------------

def argv_for(req: Request, work_dir: Path) -> list[str]:
    out = ["--dot", str(work_dir / "out.dot")] if req.command == "hasse" else \
          ["--report", str(work_dir / "out.report")]
    return [req.command, "--in", str(work_dir / "specs" / f"{req.spec}.spec"), *req.extra, *out]


def invoke(hl, req: Request, work_dir: Path, call=None):
    """Run one request; returns (seconds, exit code or None, exception or None)."""
    argv = argv_for(req, work_dir)
    for name in ("out.dot", "out.report"):
        with contextlib.suppress(FileNotFoundError):
            (work_dir / name).unlink()
    sink = io.StringIO()
    code = error = None
    # Each CLI run starts in a fresh process; collect the previous request's
    # cyclic garbage here, untimed, so it does not slow this one down.
    gc.collect()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = call(hl.cli.main, argv) if call else hl.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is a failed request, not a crash
            error = exc
    return time.perf_counter() - start, code, error


def check(req: Request, key: str, code, error, work_dir: Path, goldens: dict) -> str | None:
    """Why the request failed, or None when its output is correct."""
    if error is not None:
        return f"raised {type(error).__name__}: {error}"
    path = work_dir / ("out.dot" if req.command == "hasse" else "out.report")
    data = path.read_bytes() if path.is_file() else None
    golden = goldens.get(key)
    if golden is not None:
        if code != golden["exit"]:
            return f"exit {code}, golden {golden['exit']}"
        digest = hashlib.sha256(data).hexdigest() if data is not None else None
        if digest != golden["sha256"]:
            return "output differs from golden"
        return None
    if code not in (0, 2):
        return f"exit {code}"
    if data is None:
        return "no output written"
    if any(line.split()[2:3] == ["fail"] for line in data.decode().splitlines()
           if line.startswith("claim ")):
        return "fail claim in report"
    return None


@dataclass
class Passes:
    passes: int = 0
    latencies: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)


def run_passes(hl, plan: Plan, work_dir: Path, goldens: dict, seconds: float,
               call=None) -> Passes:
    """Whole passes over plan.requests, at least one, while the next pass is
    expected to end within `seconds`."""
    out = Passes()
    start = time.perf_counter()
    while True:
        for req in plan.requests:
            latency, code, error = invoke(hl, req, work_dir, call)
            out.latencies.append(latency)
            reason = check(req, plan.key(req), code, error, work_dir, goldens)
            if reason is not None:
                out.failures.append(f"{plan.key(req)}: {reason}")
        out.passes += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / out.passes > seconds:
            return out


def nearest_rank(values: list[float], q: float) -> float:
    """The q-quantile by nearest rank, so it is always one request's latency."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# -- one workload ----------------------------------------------------------------

def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_goldens() -> dict:
    if not GOLDENS.is_file():
        raise BenchError(f"missing {GOLDENS}; write it with --record-goldens")
    return json.loads(GOLDENS.read_text(encoding="utf-8"))["requests"]


def measure(workload: str, seed: int, seconds: float, trace: bool,
            goldens: dict | None = None, select=None) -> dict:
    """Set up and run one workload; returns the printed result and its context.

    `select`, when given, keeps only the requests it accepts (a slice for the
    self-tests).
    """
    if goldens is None:
        goldens = load_goldens()
    work_root = RUN_DIR / f"{workload}-{os.getpid()}"
    shutil.rmtree(work_root, ignore_errors=True)
    try:
        setups = []
        for i in range(SETUP_REPEATS):
            work_dir = work_root / f"setup{i}"
            start = time.perf_counter()
            hl, plan = set_up(workload, seed, work_dir)
            setups.append(time.perf_counter() - start)
        if select is not None:
            plan.requests = [r for r in plan.requests if select(r)]
        info = {"workload": workload, "seed": seed, "git_sha": git_sha(),
                "python": platform.python_version(), "nproc": os.cpu_count(),
                "requests_per_pass": len(plan.requests)}
        if not trace:
            run = run_passes(hl, plan, work_dir, goldens, seconds)
            attempted, failures = len(run.latencies), run.failures
            info.update(passes=run.passes, latency_samples=attempted)
            # Each request's median over the passes, so a quantile always
            # picks from the same fixed mix of requests.
            width = len(plan.requests)
            typical = [statistics.median(run.latencies[i::width]) for i in range(width)]
            metrics = {
                "throughput_rps": attempted / sum(run.latencies),
                "latency_p50_s": nearest_rank(typical, 0.5),
                "latency_p90_s": nearest_rank(typical, 0.9),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = dict(END_TO_END)
        else:
            plain = run_passes(hl, plan, work_dir, goldens, seconds / 2)
            spans = tracing.Tracer()
            request_ids = itertools.count()
            spans.install()
            try:
                run = run_passes(hl, plan, work_dir, goldens, seconds / 2,
                                 call=lambda fn, argv: spans.call(next(request_ids), fn, argv))
            finally:
                spans.uninstall()
            attempted = len(plain.latencies) + len(run.latencies)
            failures = plain.failures + run.failures
            overhead = (sum(run.latencies) / run.passes) / (sum(plain.latencies) / plain.passes)
            metrics = spans.metrics(run.passes, overhead)
            units = dict(tracing.PER_LAYER)
            spans_path = RUN_DIR / f"spans-{workload}-seed{seed}.jsonl"
            spans.write(spans_path)
            info.update(passes=run.passes, untraced_passes=plain.passes,
                        spans=len(spans.spans), span_file=str(spans_path.relative_to(ROOT)),
                        layer_self_share={k: round(v, 4)
                                          for k, v in spans.layer_shares().items()},
                        unwrapped=spans.missing)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    info["error_rate"] = len(failures) / attempted
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return {"result": result, "info": info, "failures": failures}


def report(outcome: dict, stream=None) -> None:
    """Human-readable lines, the environment line, then the result JSON last."""
    stream = stream or sys.stdout
    info, result = outcome["info"], outcome["result"]
    for failure in outcome["failures"][:20]:
        print(f"FAILED {failure}", file=stream)
    if "latency_samples" in info:
        print(f"# {info['workload']}: latency quantiles over {info['requests_per_pass']} "
              f"requests, each the median of {info['passes']} passes "
              f"({info['latency_samples']} samples)", file=stream)
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}", file=stream)
    print(f"error_rate {info['error_rate']:.6g} ratio "
          f"({result['failed']} failed / {result['attempted']} attempted)", file=stream)
    if "pshollow.search_yield" in result["metrics"]:
        found = result["metrics"]["pshollow.representations_found"]["value"]
        examined = result["metrics"]["pshollow.families_examined"]["value"]
        print(f"# pshollow.search_yield = {found:g} found / {examined:g} examined per pass",
              file=stream)
    print(json.dumps({"info": info}), file=stream)
    print(json.dumps(result), file=stream)
    stream.flush()


# -- goldens ---------------------------------------------------------------------

def record_goldens() -> None:
    """Run one pass of every workload at the default seed and store the goldens."""
    found = {}
    for workload in WORKLOADS:
        work_dir = RUN_DIR / f"goldens-{workload}-{os.getpid()}"
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            hl, plan = set_up(workload, DEFAULT_SEED, work_dir)
            for req in plan.requests:
                _, code, error = invoke(hl, req, work_dir)
                reason = check(req, plan.key(req), code, error, work_dir, {})
                if reason is not None:
                    raise BenchError(f"{plan.key(req)}: {reason}")
                path = work_dir / ("out.dot" if req.command == "hasse" else "out.report")
                found[plan.key(req)] = {"exit": code,
                                        "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
    GOLDENS.write_text(json.dumps({"seed": DEFAULT_SEED, "recorded_at": git_sha(),
                                   "requests": dict(sorted(found.items()))}, indent=1) + "\n",
                       encoding="utf-8")
    print(f"wrote {len(found)} goldens to {GOLDENS.relative_to(ROOT)}")


# -- entry point -----------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-goldens", action="store_true",
                        help="rewrite bench/goldens.json from the current sources")
    args = parser.parse_args(argv)
    try:
        if args.record_goldens:
            record_goldens()
            return 0
        if args.workload == "all":
            status = 0
            for workload in WORKLOADS:
                child = subprocess.run(
                    [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--trace", str(args.trace)], check=False)
                status = status or child.returncode
            return status
        outcome = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    report(outcome)
    return 0


if __name__ == "__main__":
    sys.exit(main())
