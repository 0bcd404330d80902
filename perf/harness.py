"""Fresh-process repetitions: spawn, pin, time out, clean up, describe.

Every repetition of every workload runs in a child interpreter started
here, in its own session, so a wall-clock timeout can kill the whole
tree (launcher, ranks, reader threads) and nothing outlives the run.
Children report through ``PERF_RESULT <json>`` lines on stdout.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time

PERF = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(PERF, "child.py")
RESULT_MARK = "PERF_RESULT "
_serial = itertools.count()

#: AF_UNIX paths cap at ~107 bytes and the runtime appends
#: ``ombpy-uds-<pid>-<8hex>/rank<r>.sock`` to TMPDIR.
_MAX_TMPDIR = 60


class Scratch:
    """Benchmark-owned temp dir inside the checkout (or the system temp
    dir when the checkout path is too long for a socket address)."""

    def __init__(self) -> None:
        local = os.path.join(ROOT, ".perf_tmp", str(os.getpid()))
        if len(local) <= _MAX_TMPDIR:
            os.makedirs(local, exist_ok=True)
            self.path = local
        else:
            self.path = tempfile.mkdtemp(prefix="perf-")

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        parent = os.path.dirname(self.path)
        if os.path.basename(parent) == ".perf_tmp":
            try:
                os.rmdir(parent)
            except OSError:
                pass    # another run is using it


def child_env(scratch: str, extra: dict | None = None) -> dict:
    """Environment for a child: the repo on the path, a private TMPDIR,
    and none of the caller's OMBPY_* knobs leaking into the measurement."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("OMBPY_")}
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + inherited if inherited else "")
    env["TMPDIR"] = scratch
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    # One hash seed for every child: dict and set layout is part of the
    # program's speed, and must not differ between repetitions.
    env["PYTHONHASHSEED"] = "0"
    if extra:
        env.update(extra)
    return env


def _group_members(pgid: int) -> list[int]:
    """Live (non-zombie) processes in process group ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if fields[0] != "Z" and int(fields[2]) == pgid:
            members.append(int(entry))
    return members


def _kill_group(pgid: int) -> None:
    """SIGKILL whatever is left of the child's session and wait until it
    is gone.  (Orphans are reaped by init, so a zombie counts as gone.)"""
    if not _group_members(pgid):
        return
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        return
    deadline = time.monotonic() + 5.0
    while _group_members(pgid) and time.monotonic() < deadline:
        time.sleep(0.01)


def run_child(job: dict, scratch: str, timeout_s: float,
              env_extra: dict | None = None) -> tuple[list[dict], str | None]:
    """Run one child job; returns (result records, error-or-None).

    The spawn stamp travels in the job so the child can report set-up
    time on the shared CLOCK_MONOTONIC timeline.  Output goes to files,
    not pipes: a helper process that outlives the child (the shm
    resource tracker) would otherwise hold a pipe open past its exit.
    """
    stem = os.path.join(scratch, f"child-{next(_serial)}")
    with open(stem + ".out", "w+") as out, open(stem + ".err", "w+") as err:
        job = dict(job, t_spawn_ns=time.perf_counter_ns())
        proc = subprocess.Popen(
            [sys.executable, CHILD, json.dumps(job)], stdout=out, stderr=err,
            env=child_env(scratch, env_extra), cwd=ROOT,
            start_new_session=True,
        )
        error = None
        try:
            proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            error = f"timed out after {timeout_s:.0f}s"
        finally:
            _kill_group(proc.pid)
            proc.wait()
        out.seek(0)
        err.seek(0)
        out_text, err_text = out.read(), err.read()
    os.unlink(stem + ".out")
    os.unlink(stem + ".err")
    records = []
    for line in out_text.splitlines():
        if line.startswith(RESULT_MARK):
            records.append(json.loads(line[len(RESULT_MARK):]))
    if error is None and proc.returncode != 0:
        error = f"exit code {proc.returncode}: {err_text.strip()[-400:]}"
    elif error is None and not records:
        error = f"no result record: {err_text.strip()[-400:]}"
    return records, error


def emit(record: dict) -> None:
    """Child side: publish one result record."""
    sys.stdout.write(RESULT_MARK + json.dumps(record) + "\n")
    sys.stdout.flush()


def cores() -> list[int]:
    try:
        return sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return list(range(os.cpu_count() or 1))


def pin() -> int | None:
    """Pin this process (and the threads it starts) to the benchmark's
    core: the last one allowed.  Core 0 is where device interrupts and
    most housekeeping land."""
    core = cores()[-1]
    try:
        os.sched_setaffinity(0, {core})
    except (AttributeError, OSError):
        return None
    return core


def _tree_sha() -> str:
    """Content hash of the code under test (the checkout the driver
    benchmarks is not a git repository, so a commit id may not exist)."""
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(SRC, "repro")):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def _git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def _llc_bytes() -> int | None:
    best = None
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in os.listdir(base):
            if not index.startswith("index"):
                continue
            with open(os.path.join(base, index, "size")) as fh:
                text = fh.read().strip()
            mult = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1], 1)
            size = int(text.rstrip("KMG")) * mult
            best = max(best or 0, size)
    except (OSError, ValueError):
        return None
    return best


def provenance(seed: int, reps: dict, seconds: float) -> dict:
    allowed = cores()
    return {
        "git_sha": _git_sha(),
        "tree_sha": _tree_sha(),
        "nproc": os.cpu_count(),
        "cores_allowed": allowed,
        "affinity": f"every rank (thread or process) on core {allowed[-1]}; "
                    "launcher and harness unpinned",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "llc_bytes": _llc_bytes(),
        "repetitions": reps,
        "seed": seed,
        "seconds": seconds,
    }
