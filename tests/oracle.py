"""Brute-force decode oracle built on ``perfbench/reference.py``.

The reference module recomputes pruning, raw-span pinning and the
altered-span reward from their documented definitions without importing
``udspell``. It and the benchmark's input generator ``workloads`` are
loaded by file path so no ``perfbench`` module goes onto ``sys.path``. The
oracle reads a lattice, a dictionary and a decode config through their
attributes only.
"""
import functools
import importlib.util
import itertools
import operator
import sys
from pathlib import Path


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


reference = _load("reference")
workloads = _load("workloads")  # the benchmark's seeded inputs


def positions(lat, dic, cfg):
    """The reference-pruned candidate lists of ``lat`` with raw-span matches pinned."""
    p = cfg.prune
    pruned = reference.prune(lat.positions, p.min_logp, p.max_logp, p.k)
    return reference.pin(lat.input, pruned, dic.terms, cfg.eta)


def brute_decode(lat, dic, cfg):
    """``(tokens, raw, reward, total)`` of the best path by enumeration. Ties go
    to the higher raw score, then to fewer altered positions, then to the
    smaller token string, as in ``decode``."""
    best = None
    for combo in itertools.product(*positions(lat, dic, cfg)):
        tokens = "".join(t for t, _ in combo)
        # left to right from 0.0, as decode adds them (sum() compensates on 3.12+)
        raw = functools.reduce(operator.add, (lp for _, lp in combo), 0.0)
        reward = reference.asm_reward(lat.input, tokens, dic.terms, cfg.asm_count_mode)
        total = raw + cfg.eta * reward
        key = (-total, -raw, sum(a != b for a, b in zip(tokens, lat.input)), tokens)
        if best is None or key < best[0]:
            best = key, (tokens, raw, reward, total)
    return best[1]
