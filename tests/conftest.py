"""Shared test helpers."""

import os
import subprocess
import sys
from pathlib import Path

try:
    import resource
except ImportError:  # not on every platform; children then run uncapped
    resource = None

ROOT = Path(__file__).resolve().parent.parent

_ENV = dict(os.environ)
_ENV["PYTHONPATH"] = os.pathsep.join(
    [str(ROOT / "src")] + [p for p in [_ENV.get("PYTHONPATH")] if p]
)

_ADDRESS_SPACE = 2 << 30  # a runaway child fails with MemoryError instead


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (_ADDRESS_SPACE, _ADDRESS_SPACE))


def run_python(argv, timeout, cwd=None) -> subprocess.CompletedProcess:
    """Run the interpreter on argv with cpckit importable from src/, its
    output captured, its time limited to timeout seconds and its address
    space to about 2 GiB."""
    return subprocess.run(
        [sys.executable, *argv], cwd=cwd, env=_ENV, capture_output=True, text=True,
        timeout=timeout, preexec_fn=_cap_memory if resource else None,
    )


def force_cpus(monkeypatch, n):
    """Let cpckit see n usable CPUs, so that cv and sweep run their folds
    and partitions in at most n shares."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
