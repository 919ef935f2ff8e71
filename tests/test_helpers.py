"""Shared test helpers: a seeded instance is the same in every process."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

from helpers import src_env

TESTS_DIR = Path(__file__).resolve().parent

# Hashes every seed's instance in a canonical form; a set's iteration order
# must not leak into it.
DIGEST_SCRIPT = """
import hashlib

import numpy as np

from helpers import random_instance

digest = hashlib.sha256()
for seed in range(200):
    instance = random_instance(np.random.default_rng(seed))
    shape = (
        sorted(instance.pair_last_cycle.items()),
        [(p.test.id, p.priority, sorted(p.test.compatible_agents)) for p in instance.prioritized],
        [(a.id, a.budget) for a in instance.agents],
        instance.current_cycle,
    )
    digest.update(repr(shape).encode())
print(digest.hexdigest())
"""


def random_instance_digest(hash_seed: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", DIGEST_SCRIPT],
        capture_output=True,
        text=True,
        cwd=TESTS_DIR,
        env=src_env(PYTHONHASHSEED=hash_seed),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_random_instance_ignores_hash_seed():
    assert random_instance_digest("1") == random_instance_digest("3")
