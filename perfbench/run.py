#!/usr/bin/env python3
"""Build and run preo's benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload mono --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a source tree. The script builds the benchmark and the
`preoc` worker binary with dune (inside the tree: `_build/`), runs the
benchmark in its own process group, checks that the last line it prints
names exactly the metrics BENCHMARK.json declares for the chosen trace mode,
and passes its output through. It exits non-zero, without a result line,
when the tree holds no preo sources to build.
"""

import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT = 850
RUN_TIMEOUT = 170
TARGETS = ["./perfbench/perfbench.exe", "./bin/preoc.exe"]

# Workloads run on one CPU: the lowest of the CPUs this process may use.
# The monolithic runtime's tasks all live in one domain; left free to
# migrate, their wakeups cross CPUs, and on a virtual machine that made the
# same run read anywhere from 26k to 57k steps/s (see README.md). The
# worker process of the fabric phase inherits the pin.
PINNED = {"mono"}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_group(cmd, timeout, **kw):
    """Run cmd in a new process group. Whatever is left of the group when
    it exits or times out (a worker process orphaned by a crash) is killed."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        kill_group(proc.pid)
        proc.communicate()
        fail("%s: no result within %d s" % (os.path.basename(cmd[0]), timeout))
    kill_group(proc.pid)
    return proc.returncode, out


def build(env):
    for need in ("dune-project", "lib", "bin/preoc.ml", "perfbench/dune"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("no preo sources to build (missing %s)" % need)
    code, _ = run_group(
        ["dune", "build", "--root", ROOT, "-j", "2", "--display", "quiet"] + TARGETS,
        BUILD_TIMEOUT,
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if code != 0:
        fail("build failed (exit %d)" % code)


def declared(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["end_to_end" if trace == "0" else "per_layer"]}


def main(argv):
    env = {k: v for k, v in os.environ.items() if not k.startswith("PREO_")}
    env["DUNE_CACHE"] = "disabled"
    build(env)
    build_dir = os.path.join(ROOT, "_build", "default")
    env["PREO_PREOC"] = os.path.join(build_dir, "bin", "preoc.exe")
    exe = os.path.join(build_dir, "perfbench", "perfbench.exe")
    if "--workload" in argv and argv[argv.index("--workload") + 1] in PINNED:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    code, out = run_group(
        [exe] + argv, RUN_TIMEOUT, cwd=ROOT, env=env, stdout=subprocess.PIPE
    )
    lines = out.decode().splitlines()
    if code != 0 or argv == ["--self-test"]:
        print("\n".join(lines))
        return code
    trace = argv[argv.index("--trace") + 1] if "--trace" in argv else "0"
    result = json.loads(lines[-1])
    names = set(result["metrics"])
    want = declared(trace)
    if names != want:
        print("\n".join(lines[:-1]))
        fail(
            "metrics differ from BENCHMARK.json: missing %s, extra %s"
            % (sorted(want - names), sorted(names - want))
        )
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
