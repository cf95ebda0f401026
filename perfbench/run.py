"""Benchmark harness for the `tamari` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; `tamari` is imported from its
`src/`.  NAME is a workload of `workloads.py`, or `all` to run each in
turn.  A closed loop with one client: one op at a time, each a fresh
`python -m tamari.cli <argv>` child, so every op pays interpreter start,
import and cold engine caches as a user does.  `os.wait4` gives each op's
CPU time and peak RSS.  After an op ends, outside its timed window, its
output is checked (`checks.py`).  A pass runs the workload's ops once in
an order drawn from the seed; passes repeat for about S seconds.

--trace 0 reports the end-to-end metrics.  Before the passes, `import
tamari.cli` is spawned SETUP_SPAWNS times for setup_s.

--trace 1 reports the per-layer metrics: each round is one untraced pass
and one pass whose ops run under `traced.py`; trace_overhead_s is the
difference of their wall times.  The traced numbers never feed the
end-to-end metrics.

The last line of stdout is one JSON object {correct, attempted, failed,
metrics}; the lines before it print each metric by name with its unit,
the failure ratio, and the machine.  A fuller record (per-op times, the
machine, the harness's own peak RSS) goes to .perfbench/ in the checkout.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import random
import selectors
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

from traced import LAYERS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_SPAWNS = 15
# every run must end well inside three minutes, whatever the program does
RUN_LIMIT_S = 165.0
STDERR_TAIL = 2000

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("ok_ratio", "ratio"),
)

# per-layer metric -> (unit, how it is read off the summed trace counters)
PER_LAYER = {
    "cli.self_s": ("s", ("self", "cli")),
    "lattice.self_s": ("s", ("self", "lattice")),
    "lattice.elements": ("count", ("items", "lattice.all_trees")),
    "lattice.intervals_yielded": ("count", ("items", "lattice.intervals")),
    "lattice.engine_hit_ratio": ("ratio", ("engine", "lattice")),
    "paths.self_s": ("s", ("self", "paths")),
    "paths.elements": ("count", ("items", "paths.m_tamari_elements")),
    "paths.covers": ("count", ("items", "paths.m_tamari_covers")),
    "paths.engine_hit_ratio": ("ratio", ("engine", "paths")),
    "trees.sort_key_s": ("s", ("group", "trees.sort_key")),
    "trees.rotations_s": ("s", ("total", "trees.rotations_down")),
    "trees.covers": ("count", ("items", "trees.rotations_down")),
    "trees.spans_s": ("s", ("group", "trees.spans")),
    "trees.canopy_s": ("s", ("group", "trees.canopy")),
    "diagonal.self_s": ("s", ("self", "diagonal")),
    "diagonal.classified": ("count", ("calls", "diagonal.classify_edges")),
    "series.self_s": ("s", ("self", "series")),
    "series.newton_s": ("s", ("total", "series.newton_solve")),
    "series.eq_eval_s": ("s", ("total",
                               "series.PolynomialEquation.evaluate")),
    "series.mul_s": ("s", ("total", "series.TruncatedSeries.__mul__")),
    "series.mul_calls": ("count", ("calls",
                                   "series.TruncatedSeries.__mul__")),
    "polys.mul_s": ("s", ("total", "polys.ZPolynomial.__mul__")),
    "polys.mul_calls": ("count", ("calls", "polys.ZPolynomial.__mul__")),
    "equations.load_s": ("s", ("total", "equations.load_quartic")),
    "formulas.self_s": ("s", ("self", "formulas")),
}
PER_LAYER.update({f"{layer}.errors": ("count", ("errors", layer))
                  for layer in LAYERS})
# the traced passes' wall time minus the untraced passes'
PER_LAYER["trace_overhead_s"] = ("s", None)


# ===================================================================
# children
# ===================================================================

def child_env() -> dict:
    """The user's environment minus anything that could change an op."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith(("PYTHON", "TAMARI_"))}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def kill(pid: int) -> None:
    with contextlib.suppress(ProcessLookupError):
        os.kill(pid, signal.SIGKILL)


class Spawner:
    """Runs op children through `spawner.py`, which stays small.

    Each op's stdout and stderr are pipes this process reads; the helper
    starts the op and reports its exit status and `os.wait4` usage.
    """

    def __init__(self, env: dict):
        self.sock, theirs = socket.socketpair(socket.AF_UNIX,
                                              socket.SOCK_SEQPACKET)
        with theirs:
            self.proc = subprocess.Popen(
                [sys.executable, str(HERE / "spawner.py"),
                 str(theirs.fileno())],
                cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                pass_fds=[theirs.fileno()])

    def close(self) -> None:
        self.sock.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def _reply(self) -> dict:
        message = self.sock.recv(1 << 12)
        if not message:
            raise RuntimeError("perfbench: the spawner exited")
        return json.loads(message)

    def run(self, argv: list, deadline: float) -> dict:
        """Run one child to completion, killing it at the deadline."""
        out_read, out_write = os.pipe()
        err_read, err_write = os.pipe()
        start = time.perf_counter()
        try:
            socket.send_fds(self.sock, [json.dumps(argv).encode()],
                            [out_write, err_write])
        finally:
            os.close(out_write)
            os.close(err_write)
        out, err = bytearray(), bytearray()
        timed_out = False
        with open(out_read, "rb", buffering=0) as out_pipe, \
                open(err_read, "rb", buffering=0) as err_pipe, \
                selectors.DefaultSelector() as selector:
            pid = self._reply()["pid"]
            try:
                selector.register(out_pipe, selectors.EVENT_READ, out)
                selector.register(err_pipe, selectors.EVENT_READ, err)
                while selector.get_map():
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0:
                        timed_out = True
                        kill(pid)
                        break
                    for key, _ in selector.select(remaining):
                        chunk = os.read(key.fd, 1 << 16)
                        if chunk:
                            key.data.extend(chunk)
                        else:
                            selector.unregister(key.fileobj)
            except BaseException:
                kill(pid)
                raise
            finally:
                result = self._reply()
        result.update(
            wall_s=time.perf_counter() - start,
            rss_mb=result.pop("rss_kb") / 1024,
            timed_out=timed_out,
            stdout=bytes(out),
            stderr_tail=err[-STDERR_TAIL:].decode("utf-8", "replace"))
        return result


# ===================================================================
# one run
# ===================================================================

class Run:
    """One workload measured once: the ops it ran and what they cost."""

    def __init__(self, name: str, seed: int, seconds: int, trace: bool,
                 spawner: Spawner):
        self.ops = WORKLOADS[name].ops
        self.rng = random.Random(seed)
        self.seconds = seconds
        self.trace = trace
        self.spawner = spawner
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.records: list = []
        self.setup_walls: list = []
        self.out_of_time = False
        OUT_DIR.mkdir(exist_ok=True)

    def measure_setup(self, spawns: int) -> None:
        """Warm the bytecode cache once, then time `import tamari.cli`."""
        argv = [sys.executable, "-c",
                "import sys, tamari.cli; sys.stdout.write(tamari.cli.__file__)"]
        for i in range(spawns + 1):
            result = self.spawner.run(argv, self.deadline)
            where = Path(result["stdout"].decode() or ".").resolve()
            if result["status"] != 0 or ROOT / "src" not in where.parents:
                raise SystemExit(f"perfbench: `import tamari.cli` failed or "
                                 f"came from outside {ROOT / 'src'}: "
                                 f"{result['stderr_tail']}")
            if i:
                self.setup_walls.append(result["wall_s"])

    def run_pass(self, order: list, index: int, traced: bool) -> None:
        from checks import op_failure  # imports tamari: needs src/ on the path

        for argv in order:
            if traced:
                trace_path = OUT_DIR / f"trace-{os.getpid()}.json"
                command = [sys.executable, str(HERE / "traced.py"),
                           str(trace_path), *argv]
            else:
                command = [sys.executable, "-m", "tamari.cli", *argv]
            result = self.spawner.run(command, self.deadline)
            record = {key: result[key] for key in
                      ("wall_s", "cpu_s", "rss_mb", "status")}
            record.update(argv=list(argv), pass_index=index, traced=traced)
            if result["timed_out"]:
                record["failure"] = "killed at the run's time limit"
                self.out_of_time = True
            else:
                record["failure"] = op_failure(argv, result["status"],
                                               result["stdout"], ROOT)
            if record["failure"]:
                record["stderr_tail"] = result["stderr_tail"]
            if traced:
                try:
                    record["trace"] = json.loads(trace_path.read_text())
                    trace_path.unlink()
                except (OSError, ValueError) as exc:
                    record["trace"] = None
                    record["failure"] = (record["failure"]
                                         or f"no trace written: {exc}")
            self.records.append(record)
            if self.out_of_time:
                return

    def measure(self) -> None:
        """Run rounds of passes, stopping at the round end nearest S s."""
        start = round_start = time.perf_counter()
        index = 0
        while not self.out_of_time:
            order = self.rng.sample(self.ops, len(self.ops))
            self.run_pass(order, index, traced=False)
            if self.trace and not self.out_of_time:
                self.run_pass(order, index, traced=True)
            index += 1
            now = time.perf_counter()
            if now - start + (now - round_start) / 2 >= self.seconds:
                break
            round_start = now

    @property
    def failed(self) -> int:
        return sum(1 for record in self.records if record["failure"])

    def _passes(self, traced: bool) -> list:
        """Complete passes, each a list of records in op order."""
        by_pass: dict = {}
        for record in self.records:
            if record["traced"] == traced:
                by_pass.setdefault(record["pass_index"], []).append(record)
        return [sorted(records, key=lambda r: self.ops.index(tuple(r["argv"])))
                for records in by_pass.values()
                if len(records) == len(self.ops)]

    def _pass_sum(self, traced: bool, field: str) -> float:
        """Sum over ops of each op's median across complete passes.

        A run cut at its time limit may have none; then the sum over the
        ops it did run stands in.
        """
        passes = self._passes(traced)
        if not passes:
            return sum(r[field] for r in self.records
                       if r["traced"] == traced)
        return sum(statistics.median(p[i][field] for p in passes)
                   for i in range(len(self.ops)))

    def end_to_end(self) -> dict:
        untraced = [r for r in self.records if not r["traced"]]
        values = {
            "wall_s": self._pass_sum(False, "wall_s"),
            "cpu_s": self._pass_sum(False, "cpu_s"),
            "peak_rss_mb": max(r["rss_mb"] for r in untraced),
            "setup_s": statistics.median(self.setup_walls),
            "ok_ratio": 1 - self.failed / len(self.records),
        }
        return {name: {"value": values[name], "unit": unit}
                for name, unit in END_TO_END}

    def per_layer(self) -> tuple:
        """(metrics, {metric: why absent}) from the traced passes."""
        traced = [records for records in self._passes(traced=True)
                  if all(r["trace"] for r in records)]
        absent: dict = {}
        metrics = {}
        for name, (unit, rule) in PER_LAYER.items():
            if not traced:
                value = 0
                absent[name] = "no complete traced pass"
            elif rule is None:
                value = (self._pass_sum(True, "wall_s")
                         - self._pass_sum(False, "wall_s"))
            else:
                values = []
                for records in traced:
                    pass_value, why = layer_value(rule, records)
                    values.append(pass_value)
                    if why:
                        absent[name] = why
                value = statistics.median(values)
            metrics[name] = {"value": value, "unit": unit}
        return metrics, absent


def layer_value(rule: tuple, records: list) -> tuple:
    """(value, reason it is absent or None) summed over one traced pass."""
    kind, target = rule
    traces = [r["trace"] for r in records]
    if kind == "errors":
        return sum(t["errors"].get(target, 0) for t in traces), None
    if kind == "group":
        return sum(t["groups"][target] for t in traces) / 1e9, None
    if kind == "engine":
        if any("absent" in t["engines"][target] for t in traces):
            return 0, traces[0]["engines"][target]["absent"]
        hits = sum(t["engines"][target]["hits"] for t in traces)
        calls = hits + sum(t["engines"][target]["misses"] for t in traces)
        if not calls:
            return 0, f"the {target} engine is never called"
        return hits / calls, None
    if kind == "self":
        prefix = target + "."
        return sum(stat[2] for t in traces for key, stat in t["stats"].items()
                   if key.startswith(prefix)) / 1e9, None
    if not any(target in t["stats"] for t in traces):
        return 0, f"the program has no {target}"
    field = {"calls": 0, "total": 1, "items": 3}[kind]
    value = sum(t["stats"][target][field] for t in traces
                if target in t["stats"])
    return (value / 1e9 if kind == "total" else value), None


# ===================================================================
# reporting
# ===================================================================

def machine() -> dict:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "mem_total_kb": os.sysconf("SC_PHYS_PAGES")
        * os.sysconf("SC_PAGE_SIZE") // 1024,
        "python": platform.python_version(),
        "git_sha": git_sha(),
    }


def harness_peak_rss_mb():
    """VmHWM of this process.

    Unlike ru_maxrss it leaves out the memory of the process that started
    the harness.
    """
    try:
        with open("/proc/self/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return round(int(line.split()[1]) / 1024, 1)
    except OSError:
        pass
    return None


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    spawner = Spawner(child_env())
    try:
        run = Run(name, seed, seconds, trace, spawner)
        run.measure_setup(SETUP_SPAWNS if not trace else 0)
        run.measure()
    finally:
        spawner.close()
    absent: dict = {}
    if trace:
        metrics, absent = run.per_layer()
    else:
        metrics = run.end_to_end()
    attempted, failed = len(run.records), run.failed
    print(f"workload {name}: seed {seed}, trace {int(trace)}, "
          f"{attempted} ops, passes "
          f"{len({r['pass_index'] for r in run.records})}")
    for metric, entry in metrics.items():
        note = f"  (absent: {absent[metric]})" if metric in absent else ""
        print(f"  {metric:<26} {entry['value']:.6g} {entry['unit']}{note}")
    print(f"  {'fail_ratio':<26} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} ops failed)")
    for record in run.records:
        if record["failure"]:
            print(f"  FAILED {' '.join(record['argv'])}: {record['failure']}")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    detail = dict(result, workload=name, seed=seed, seconds=seconds,
                  trace=trace, absent=absent, machine=machine(),
                  setup_walls_s=run.setup_walls,
                  harness_peak_rss_mb=harness_peak_rss_mb(),
                  ops=[{k: v for k, v in r.items() if k != "trace"}
                       for r in run.records])
    out = OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(detail, indent=1) + "\n")
    print(f"  machine: {json.dumps(detail['machine'])}")
    print(f"  harness peak RSS {detail['harness_peak_rss_mb']} MB; "
          f"record in {out.relative_to(ROOT)}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tamari" / "cli.py").is_file():
        print(f"perfbench: no tamari sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds,
                                  bool(args.trace))
               for name in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": entry
                        for name, r in results.items()
                        for metric, entry in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
