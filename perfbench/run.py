#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selfcheck

Run from the root of a checkout. The benchmark program (perfbench/*.go) and
the kaleidod daemon are built from source into the build directory
($CARGO_TARGET_DIR, default .bench_build), with every Go cache, temporary
file and spill file kept inside it. The program's standard output is passed
through; its last line is the JSON result. --selfcheck runs the benchmark's
own tests instead: each workload at toy size, and a tampered expected answer
that must fail.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT = 850
RUN_TIMEOUT = 170


def build_env(build):
    env = dict(os.environ)
    for key in ("GOFLAGS", "GOENV", "GOWORK"):
        env.pop(key, None)
    home = os.path.join(build, "home")
    tmp = os.path.join(build, "tmp")
    for d in (home, tmp):
        os.makedirs(d, exist_ok=True)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOENV="off",
        CGO_ENABLED="0",
        HOME=home,
        XDG_CONFIG_HOME=os.path.join(home, ".config"),
        XDG_CACHE_HOME=os.path.join(home, ".cache"),
        TMPDIR=tmp,
    )
    return env


def run_checked(cmd, env, timeout):
    """Run a build step, sending its output to stderr; raise on failure."""
    subprocess.run(cmd, cwd=HERE, env=env, stdout=sys.stderr, stderr=sys.stderr,
                   timeout=timeout, check=True)


def run_group(cmd, cwd, env, timeout):
    """Run cmd in its own process group, passing stdout through; on timeout
    kill the whole group. Returns the exit code."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        raise


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=34)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true", help="run the benchmark's own tests")
    args = ap.parse_args()
    if not args.selfcheck and not args.workload:
        ap.error("--workload is required")

    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("run.py: no go.mod at %s: not a checkout of the repository" % ROOT, file=sys.stderr)
        return 1
    build = os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build"))
    os.makedirs(build, exist_ok=True)
    env = build_env(build)

    if args.selfcheck:
        return run_group(["go", "test", "-count=1", "-timeout", "600s", "-v", "."], HERE, env, 900)

    bindir = os.path.join(build, "bin")
    bench = os.path.join(bindir, "perfbench")
    daemon = os.path.join(bindir, "kaleidod")
    try:
        run_checked(["go", "build", "-o", bench, "."], env, BUILD_TIMEOUT)
        run_checked(["go", "build", "-o", daemon, "kaleido/cmd/kaleidod"], env, BUILD_TIMEOUT)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        print("run.py: build failed: %s" % e, file=sys.stderr)
        return 1

    workdir = os.path.join(build, "run-%d" % os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cmd = [bench, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", repr(args.seconds), "-trace", str(args.trace),
           "-daemon", daemon, "-workdir", workdir]
    try:
        return run_group(cmd, ROOT, env, RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        print("run.py: %s timed out after %ds" % (args.workload, RUN_TIMEOUT), file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
