"""One SHA-256 per benchmark workload over every operation of its input pool.

    python3 tools/pool_digest.py --seed N [--root DIR]

Builds the input pools of the three workloads of ``bench/workloads.py``
(the rounds ``bench/run.py`` generates, at seed N) and runs each
operation once, untimed, with ``bench/`` and ``src/`` read from DIR (by
default the checkout holding this file).  Engine results are hashed in
full: the approximation, the certificate, every panel and its
certificate, the panel values, the evaluation count and the converged
flag, with floats as hex and arrays as dtype, shape and bytes.  CLI
results are hashed as printed: the exit code and the text.  An operation
that raises is hashed as its exception's type and message.

Two trees that print the same digests give the same bits on every pool
operation.  Nothing is gated on them: a change may move bits when its
notes say where.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib
import os
import random
import sys
from pathlib import Path

import numpy as np


def _canon(x):
    """A JSON-like form of a result whose repr pins every bit."""
    if isinstance(x, (bool, int, str)) or x is None:
        return x
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, (np.ndarray, np.generic)):
        x = np.asarray(x)
        return [x.dtype.str, list(x.shape), x.tobytes().hex()]
    if dataclasses.is_dataclass(x):
        return [type(x).__name__,
                [[f.name, _canon(getattr(x, f.name))] for f in dataclasses.fields(x)]]
    if isinstance(x, (tuple, list)) or hasattr(x, "__len__"):
        return [_canon(item) for item in x]
    return repr(x)


def _load(root: Path):
    """The workloads module and the pool size of ``root``'s benchmark,
    with ``certquad`` imported from ``root/src``."""
    for path in (root / "bench", root / "src"):
        sys.path.insert(0, str(path))
    cq = importlib.import_module("certquad")
    importlib.import_module("certquad.cli")
    if Path(cq.__file__).resolve().parent != (root / "src" / "certquad").resolve():
        raise ImportError(f"certquad imported from {cq.__file__}, not from {root / 'src'}")
    run = importlib.import_module("run")
    workloads = importlib.import_module("workloads")
    os.environ.pop(run.ORACLE_ENV, None)  # the oracle runs at its default, as in a run
    return cq, workloads.WORKLOADS, run.POOL_ROUNDS


def digests(root: Path, seed: int) -> dict[str, tuple[int, str]]:
    cq, workloads, rounds = _load(root)
    out = {}
    for name in sorted(workloads):
        workload = workloads[name](cq)
        pool = workload.inputs(random.Random(seed), rounds)
        h = hashlib.sha256()
        for op in pool:
            try:
                result = workload.call(op)
            except Exception as exc:
                result = (type(exc).__name__, str(exc))
            h.update(repr(_canon(result)).encode())
            h.update(b"\n")
        out[name] = (len(pool), h.hexdigest())
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout whose bench/ and src/ are run (default: this one)")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    for name, (count, digest) in digests(root, args.seed).items():
        print(f"{name:<14} seed {args.seed} {count:>5} ops  {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
