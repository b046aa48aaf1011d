#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <sweep|fm-d|kmer-s|service> \
        --seed <n> --seconds <s> --trace <0|1>

The harness is a Rust package of its own (`perfbench/Cargo.toml`) that
depends on the repository's crates by path. Its build forwards the root
workspace's `[patch.crates-io]` and `[profile.release]` tables through
`cargo --config`, so it compiles the crates exactly as the shipped
binaries are compiled and keeps tracking the root manifest. Cargo runs
offline; the target directory is `$CARGO_TARGET_DIR`, by default
`.bench_build` at the root of the checkout.

Build output goes to stderr. The harness's standard output is passed
through unchanged; its last line is the JSON result. Any failure (no
repository around `perfbench/`, a failed build, a failed run) exits
non-zero without printing a result.
"""

import json
import os
import subprocess
import sys
import tomllib
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def toml_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    return json.dumps(str(value))


def leaves(prefix, table):
    for key, value in table.items():
        if isinstance(value, dict):
            yield from leaves(f"{prefix}.{key}", value)
        else:
            yield f"{prefix}.{key}", value


def cargo_config():
    """`--config` arguments mirroring the root manifest's patches and
    release profile."""
    with open(ROOT / "Cargo.toml", "rb") as f:
        manifest = tomllib.load(f)
    args = []
    for name, dep in manifest.get("patch", {}).get("crates-io", {}).items():
        if "path" in dep:
            path = json.dumps(str(ROOT / dep["path"]))
            args += ["--config", f"patch.crates-io.{name}.path={path}"]
    release = manifest.get("profile", {}).get("release", {})
    for key, value in leaves("profile.release", release):
        args += ["--config", f"{key}={toml_value(value)}"]
    return args


def main():
    try:
        config = cargo_config()
    except (OSError, tomllib.TOMLDecodeError) as e:
        print(f"perfbench: cannot read the root Cargo.toml: {e}", file=sys.stderr)
        return 2
    target = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml"), *config],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    run = subprocess.run([str(target / "release" / "perfbench"), *sys.argv[1:]])
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
