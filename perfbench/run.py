"""mono3dkit benchmark: closed-loop CLI workloads and a traced per-layer run.

    python3 perfbench/run.py --workload kitti-pseudolabel --seed 1 --seconds 28 --trace 0

Run from the root of a source checkout.  One run:

1. generates the workload's inputs from --seed in a separate process
   (perfbench/gen.py), under .perfbench/ in the checkout;
2. runs ops back to back for --seconds (a closed loop with one client).
   Each op is one CLI command over the whole input set, run in-process by
   a fresh interpreter (perfbench/op.py).  Without --trace, each timed op
   is followed by one more fresh interpreter that only times
   ``import mono3dkit.cli``: the set-up time;
3. checks every op's output and counts the ops that fail;
4. prints each metric with its unit, then, as the last line, one JSON
   object: the end-to-end metrics with --trace 0, the per-layer metrics
   with --trace 1.  Metric names and units come from BENCHMARK.json.

With --trace 1, untraced and traced ops alternate: the traced ones give
the per-layer metrics and the pair gives the tracing overhead.  Details,
spans and the environment go to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
GEN_TIMEOUT_S = 120
OP_TIMEOUT_S = 60
TAIL_BEYOND = 10  # the tail percentile keeps at least this many ops above it
# Run in a fresh interpreter, this prints the wall time of the CLI's import.
IMPORT_TIMER = "import time; t = time.perf_counter(); import mono3dkit.cli; print(time.perf_counter() - t)"
LABEL_CLASSES = {"Car", "Pedestrian", "Cyclist"}
EVAL_ROWS = {"easy", "moderate", "hard", "all"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass(frozen=True)
class Workload:
    command: str  # pseudolabel | eval | gradcheck
    flags: tuple  # extra CLI flags
    items: str  # manifest key counted by items_per_s


WORKLOADS = {
    "kitti-pseudolabel": Workload("pseudolabel", ("--workers", "2"), "images"),
    "crowd-pseudolabel": Workload("pseudolabel", (), "images"),
    "kitti-eval3d": Workload("eval", ("--class-name", "Car", "--metric", "3d"), "images"),
    "gradcheck": Workload("gradcheck", (), "points"),
}


def op_argv(wl: Workload, inputs: Path, out: Path, manifest: dict) -> list:
    if wl.command == "pseudolabel":
        return [
            "pseudolabel",
            "--detections", str(inputs / "detections"),
            "--depth", str(inputs / "depth"),
            "--calib", str(inputs / "calib"),
            "--out", str(out),
            *wl.flags,
        ]
    if wl.command == "eval":
        return ["eval", "--pred", str(inputs / "pred"), "--gt", str(inputs / "gt"), *wl.flags,
                "--report", str(out / "report.json")]
    return ["gradcheck", "--seed", str(manifest["kernel_seed"]), "--points", str(manifest["points"]),
            "--report", str(out / "report.json")]


# ---------------------------------------------------------------- checks


def check_output(wl: Workload, result: dict, out: Path, manifest: dict):
    """(digest, None) for a correct op, (None, reason) otherwise."""
    if result.get("rc") != 0:
        return None, f"exit {result.get('rc')}: {result.get('stderr', '').strip()[-300:]}"
    h = hashlib.sha256()
    if wl.command == "pseudolabel":
        expected = {f"{i:06d}.txt" for i in range(manifest["images"])}
        names = sorted(p.name for p in out.iterdir())
        if set(names) != expected or len(names) != len(expected):
            return None, f"{len(names)} output files for {len(expected)} images"
        lines = 0
        for name in names:
            body = (out / name).read_bytes()
            for line in body.decode("ascii").splitlines():
                fields = line.split()
                if len(fields) != 16 or fields[0] not in LABEL_CLASSES or float(fields[13]) <= 0:
                    return None, f"{name}: bad label line {line!r}"
                lines += 1
            h.update(name.encode() + b"\0" + body + b"\0")
        emitted = re.search(r"^emitted = (\d+)$", result["stdout"], re.M)
        if emitted is None or int(emitted.group(1)) != lines:
            return None, f"{lines} label lines but summary says {emitted and emitted.group(1)}"
        return h.hexdigest(), None
    report_path = out / "report.json"
    if not report_path.is_file():
        return None, "no report written"
    body = report_path.read_bytes()
    report = json.loads(body)
    if wl.command == "eval":
        if set(report["rows"]) != EVAL_ROWS:
            return None, f"report rows {sorted(report['rows'])}"
        for name, row in report["rows"].items():
            if not (row["matched"] <= row["num_gt"] and 0.0 <= row["ap"] <= 100.0):
                return None, f"row {name} inconsistent: {row}"
        if not 0.0 < report["rows"]["moderate"]["ap"] < 100.0:
            return None, f"moderate AP {report['rows']['moderate']['ap']} at a bound"
    else:
        kernels = report["kernels"]
        if not (report["passed"] and kernels and all(k["passed"] for k in kernels.values())):
            return None, f"gradient check failed: {kernels}"
    h.update(body)
    return h.hexdigest(), None


# ----------------------------------------------------------- environment


def guard_environment():
    bad = sorted(k for k in os.environ if k.startswith("MALLOC_"))
    if "malloc" in os.environ.get("GLIBC_TUNABLES", ""):
        bad.append("GLIBC_TUNABLES")
    if bad:
        raise BenchError(
            f"refusing to run with {', '.join(bad)} set: allocator settings change "
            "the program being measured"
        )
    if not (SRC / "mono3dkit" / "cli.py").is_file():
        raise BenchError(f"no mono3dkit source under {SRC}: run from the root of a source checkout")


def git_commit():
    """HEAD of the checkout, or None when it is not a git repository of its own."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT.resolve():
        return None
    return lines[1]


def tree_digest(root: Path, pattern="**/*") -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.glob(pattern) if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()


def environment(seed: int, numpy_version) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": git_commit(),
        "src_sha256": tree_digest(SRC, "**/*.py"),
        "seed": seed,
    }


# ------------------------------------------------------------ statistics


def tail(values):
    """(value, percentile, ops above it): the highest whole percentile with
    at least TAIL_BEYOND ops above it (nearest rank), but never below p50."""
    ordered = sorted(values)
    n = len(ordered)
    p = next((p for p in range(99, 50, -1) if n - math.ceil(p * n / 100) >= TAIL_BEYOND), 50)
    rank = max(1, math.ceil(p * n / 100))
    # At p50 the nearest rank can fall below the interpolated median.
    return max(ordered[rank - 1], statistics.median(ordered)), p, n - rank


def median_of(rows, key):
    return statistics.median(row[key] for row in rows)


# ------------------------------------------------------------------ run


def run_op(spec: dict) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "op.py"), json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=OP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"rc": f"op timed out after {OP_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"rc": f"op process exit {proc.returncode}", "stderr": proc.stderr}
    return json.loads(lines[-1])


def setup_sample() -> float:
    """Wall time of ``import mono3dkit.cli`` in one fresh interpreter."""
    # One BLAS thread.  With more, OpenBLAS's worker thread spins for about
    # 0.1 s once numpy is loaded.  On a 2-vCPU host that slowed the rest of
    # the import by about 0.07 s for tens of minutes at a time, then not at
    # all, while op times held (see README.md).
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    try:
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_TIMER],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=OP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"importing mono3dkit.cli took over {OP_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"importing mono3dkit.cli failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout)


def generate(workload: str, seed: int, inputs: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "gen.py"), "--workload", workload, "--seed", str(seed), "--out", str(inputs)],
        cwd=ROOT, capture_output=True, text=True, timeout=GEN_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"input generation failed: {proc.stderr.strip()[-500:]}")
    return json.loads((inputs / "manifest.json").read_text())


def layer_value(name: str, layers: dict):
    if name in layers:
        return layers[name]
    function, kind = name.rsplit(".", 1)
    table = {"calls": "_calls", "busy_s": "_busy_s", "self_s": "_self_s"}[kind]
    return layers[table].get(function, 0)


def measure(workload: str, seed: int, seconds: float, traced: bool, work: Path, spans: Path):
    wl = WORKLOADS[workload]
    inputs, out = work / "inputs", work / "out"
    manifest = generate(workload, seed, inputs)
    input_digest = tree_digest(inputs)
    argv = op_argv(wl, inputs, out, manifest)

    ops, setups, failures, reference = [], [], [], None
    deadline = None
    index = 0
    while deadline is None or time.perf_counter() < deadline:
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        trace_this = traced and index % 2 == 1
        spec = {"argv": argv, "pairs": manifest.get("pairs", 0)}
        if trace_this:
            spec.update(spans=str(spans), op_id=index)
        result = run_op(spec)
        try:
            digest, why = check_output(wl, result, out, manifest)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            # Output the checks cannot even parse is a failed op.
            digest, why = None, f"unreadable output: {type(exc).__name__}: {exc}"
        if digest is not None and reference is not None and digest != reference:
            digest, why = None, "output differs from the first op's"
        if digest is None:
            failures.append({"op": index, "traced": trace_this, "why": why})
        elif reference is None:
            reference = digest
            mono = Path(result["mono3dkit"]).resolve()
            if SRC.resolve() not in mono.parents:
                raise BenchError(f"measured {mono}, not the checkout's source under {SRC}")
        if deadline is None:
            # The first op is a warm-up: checked, never timed.
            deadline = time.perf_counter() + seconds
        elif digest is not None:
            result["traced"] = trace_this
            ops.append(result)
            if not traced:
                setups.append(setup_sample())
        index += 1
    return {
        "manifest": manifest,
        "input_sha256": input_digest,
        "output_sha256": reference,
        "attempted": index,
        "failures": failures,
        "ops": ops,
        "setups": setups,
        "items": manifest[wl.items],
    }


def end_to_end(run: dict) -> dict:
    ops = run["ops"]
    op_times = [o["op_s"] for o in ops]
    tail_s, pct, beyond = tail(op_times)
    run["tail"] = {"percentile": pct, "ops": len(ops), "beyond": beyond}
    return {
        "setup_s": statistics.median(run["setups"]),
        "op_s.p50": statistics.median(op_times),
        "op_s.tail": tail_s,
        "items_per_s": run["items"] * len(ops) / sum(op_times),
        "peak_rss_mb": median_of(ops, "maxrss_kb") / 1024.0,
    }


def per_layer(run: dict, names) -> dict:
    traced = [o for o in run["ops"] if o["traced"]]
    plain = [o for o in run["ops"] if not o["traced"]]
    values = {}
    for name in names:
        if name == "trace.overhead_frac":
            values[name] = median_of(traced, "op_s") / median_of(plain, "op_s") - 1.0
        else:
            values[name] = statistics.median(layer_value(name, o["layers"]) for o in traced)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="mono3dkit closed-loop CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        guard_environment()
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        section = "per_layer" if args.trace else "end_to_end"
        units = {m["name"]: m["unit"] for m in declared[section]}
        results_dir = WORK / "results"
        results_dir.mkdir(parents=True, exist_ok=True)
        spans = results_dir / f"{args.workload}-seed{args.seed}-spans.csv"
        if args.trace:
            spans.write_text("op,id,parent,thread,name,start,end\n")
        work = WORK / f"run-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            run = measure(args.workload, args.seed, args.seconds, bool(args.trace), work, spans)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        timed = [o for o in run["ops"] if o["traced"]] if args.trace else run["ops"]
        if not timed or (args.trace and len(timed) == len(run["ops"])):
            raise BenchError(f"too few correct ops to measure: {run['failures'][:3]}")
        values = per_layer(run, units) if args.trace else end_to_end(run)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    failed = len(run["failures"])
    env = environment(args.seed, run["ops"][0]["numpy"])
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": env,
        "manifest": run["manifest"],
        "input_sha256": run["input_sha256"],
        "output_sha256": run["output_sha256"],
        "attempted": run["attempted"],
        "failed": failed,
        "failed_frac": failed / run["attempted"],
        "failures": run["failures"],
        "tail": run.get("tail"),
        "metrics": values,
        "ops": [{k: o[k] for k in ("op_s", "minflt", "maxrss_kb", "traced")} for o in run["ops"]],
        "setups": run["setups"],
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (WORK / "results" / name).write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"python {env['python']}  numpy {env['numpy']}  nproc {env['nproc']}  commit {env['git_commit']}")
    print(f"  input sha256 {run['input_sha256']}  output sha256 {run['output_sha256']}")
    print(f"  {'failed_frac':<52}{record['failed_frac']:>14.4f} frac  ({failed} of {run['attempted']} ops)")
    for key, value in values.items():
        print(f"  {key:<52}{value:>14.6g} {units[key]}")
    if not args.trace:
        t = run["tail"]
        print(f"  op_s.tail is p{t['percentile']} of {t['ops']} timed ops, {t['beyond']} above it")
    for f in run["failures"][:5]:
        print(f"  FAILED op {f['op']}: {f['why']}")
    metrics = {key: {"value": values[key], "unit": units[key]} for key in units}
    print(json.dumps({"correct": failed == 0, "attempted": run["attempted"], "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
