#!/usr/bin/env python3
"""Build and run the HYMV benchmark.

One workload:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

All four workloads untraced, with a summary table of their metrics:

    python3 perfbench/run.py --all [--seed N] [--seconds S]

Run from the root of a source tree. The runner builds the `perfbench`
package (release, offline) into `$CARGO_TARGET_DIR`, `.bench_build` when
unset, runs the binary, and prints its output followed by provenance
lines. The last line of standard output is the result as one JSON object.
Traced runs also write their spans under `perfbench/out/`.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

WORKLOADS = [
    "elast-hex20-solve",
    "poisson-hex8-solve",
    "serve-open-w8",
    "adaptive-damage-hex8",
]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def source_digest(root):
    """SHA-256 over the sources the benchmark builds, for trees that are
    not git checkouts."""
    h = hashlib.sha256()
    files = [root / "Cargo.toml", root / "Cargo.lock"]
    for top in ("crates", "vendor", "perfbench"):
        for p in sorted((root / top).rglob("*")):
            rel = p.relative_to(root).parts
            if p.is_file() and rel[:2] not in (("perfbench", "out"), ("perfbench", "target")):
                files.append(p)
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def revision(root):
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if out.returncode == 0:
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "tree-sha256:" + source_digest(root)


def run_checked(cmd, root, env, timeout, capture):
    """Run `cmd`, killing it (and waiting for it) if it overruns."""
    proc = subprocess.Popen(
        cmd,
        cwd=root,
        env=env,
        stdout=subprocess.PIPE if capture else sys.stderr,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{cmd[0]} exceeded {timeout} s")
    return proc.returncode, out


def build(root, env):
    code, _ = run_checked(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            "perfbench/Cargo.toml",
        ],
        root,
        env,
        BUILD_TIMEOUT_S,
        capture=False,
    )
    if code != 0:
        fail("build failed")
    target = pathlib.Path(env["CARGO_TARGET_DIR"])
    if not target.is_absolute():
        target = root / target
    return target / "release" / "perfbench"


def run_one(binary, root, env, workload, seed, seconds, trace):
    """Run one workload; returns (its output lines, the parsed result)."""
    cmd = [
        str(binary),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        str(trace),
    ]
    if trace:
        cmd += ["--spans-dir", "perfbench/out"]
    code, out = run_checked(cmd, root, env, RUN_TIMEOUT_S, capture=True)
    lines = out.rstrip("\n").split("\n") if out else []
    if code != 0 or not lines:
        sys.stdout.write(out or "")
        fail(f"{workload} exited with code {code}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        print("\n".join(lines))
        fail(f"{workload} printed no result line")
    return lines, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload untraced")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.all == (args.workload is not None):
        ap.error("give exactly one of --workload NAME and --all")
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    root = pathlib.Path(__file__).resolve().parent.parent
    if not (root / "Cargo.toml").is_file() or not (root / "crates").is_dir():
        fail(f"{root} holds no HYMV source tree (Cargo.toml and crates/ are missing)")
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    binary = build(root, env)
    provenance = f"provenance rev={revision(root)}"

    if args.workload:
        lines, result = run_one(
            binary, root, env, args.workload, args.seed, args.seconds, args.trace
        )
        print("\n".join(lines[:-1] + [provenance, lines[-1]]))
        return 0

    results = {}
    for w in WORKLOADS:
        lines, result = run_one(binary, root, env, w, args.seed, args.seconds, 0)
        print(f"== {w}")
        print("\n".join(line for line in lines[:-1] if not line.startswith(("env ", "host "))))
        results[w] = result
    print(provenance)
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
