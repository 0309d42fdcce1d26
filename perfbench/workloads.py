"""The benchmark's four workloads and the exact checks on their output.

The workloads form a 2x2 grid, engine (cluster or positive) times weight
type (plain integers when avoiding, polynomials when tracking), so every
engine layer and the weight ring each have a workload that loads them and
one that leaves them idle.  All use `count ... --format json`.

The seed picks only the symmetry image and the order of the patterns.  The
engines route every image to the same work (the cluster engine runs one
representative per class; the positive engine's tables are the same size
for every image of a set), so the seed changes the input bytes and the
output bytes, never the amount of work.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"


@dataclass(frozen=True)
class Workload:
    name: str
    flag: str                  # "--avoid" or "--track"
    variants: tuple[str, ...]  # pattern sets, one per symmetry image and order
    n: int
    method: str                # the engine the router must choose

    def argv(self, seed: int) -> list[str]:
        """CLI arguments (after the program name) for one seed."""
        patterns = self.variants[seed % len(self.variants)]
        return ["count", self.flag, patterns, "--n", str(self.n), "--format", "json"]


WORKLOADS = {w.name: w for w in (
    # Cluster engine, integer weights: t = 0 up front, deep series, big integers.
    Workload("avoid-deep", "--avoid", ("132", "213", "231", "312"), 120, "cluster"),
    # Cluster engine, polynomial weights in u = t - 1; overlaps {1, 2}; the
    # chopping recurrence and the u -> t conversion do real work.
    Workload("track-cluster", "--track", ("2413", "3142"), 24, "cluster"),
    # Positive engine, bivariate polynomial weights over a small state.
    Workload("track-positive", "--track", ("123;321", "321;123"), 16, "positive"),
    # Positive engine, integer weights over a large state.
    Workload("avoid-set", "--avoid", ("1324;2143", "2143;1324", "4231;3412", "3412;4231"),
             25, "positive"),
)}


def reference_key(argv: list[str]) -> str:
    return " ".join(argv)


def load_reference() -> dict[str, str]:
    """SHA-256 of the expected stdout, keyed by `reference_key`."""
    return json.loads(REFERENCE.read_text())


def parse_poly(text: str, names: list[str]) -> dict[tuple[int, ...], int]:
    """Parse the CLI's canonical polynomial text, e.g. `2*t0^2*t1 - t1 + 3`."""
    terms: dict[tuple[int, ...], int] = {}
    for piece in text.replace(" - ", " + -").split(" + "):
        sign = -1 if piece.startswith("-") else 1
        coeff = 1
        exps = [0] * len(names)
        for factor in piece.lstrip("-").split("*"):
            if factor.isdigit():
                coeff = int(factor)
            else:
                name, _, power = factor.partition("^")
                exps[names.index(name)] += int(power) if power else 1
        terms[tuple(exps)] = terms.get(tuple(exps), 0) + sign * coeff
    return terms


def exact_errors(workload: Workload, argv: list[str], stdout: bytes) -> list[str]:
    """Identities the output must satisfy, whatever the reference says.

    Avoidance: a_n = n! for n < k and a_k = k! - |set|.  Tracking:
    P_n(1) = n! and, for n >= k, dP_n/dt_i(1) = (n-k+1) n!/k!, the expected
    number of occurrences of each tracked pattern.
    """
    doc = json.loads(stdout)
    patterns = argv[2].split(";")
    terms = doc["terms"]
    errors = []
    if doc["method"] != workload.method:
        errors.append(f"method {doc['method']!r}, expected {workload.method!r}")
    if len(terms) != workload.n + 1:
        return errors + [f"{len(terms)} terms, expected {workload.n + 1}"]
    k = len(patterns[0])
    if workload.flag == "--avoid":
        counts = [int(t) for t in terms]
        for n in range(k):
            if counts[n] != math.factorial(n):
                errors.append(f"a_{n} = {counts[n]}, expected {n}!")
        if counts[k] != math.factorial(k) - len(patterns):
            errors.append(f"a_{k} = {counts[k]}, expected {k}! - {len(patterns)}")
        return errors
    names = ["t"] if len(patterns) == 1 else [f"t{i}" for i in range(len(patterns))]
    for n, text in enumerate(terms):
        poly = parse_poly(text, names)
        if sum(poly.values()) != math.factorial(n):
            errors.append(f"P_{n}(1) != {n}!")
        for i, p in enumerate(patterns):
            if n >= len(p):
                expected = (n - len(p) + 1) * math.factorial(n) // math.factorial(len(p))
                if sum(c * e[i] for e, c in poly.items()) != expected:
                    errors.append(f"dP_{n}/d{names[i]}(1) != {expected}")
    return errors


def output_errors(workload: Workload, argv: list[str], stdout: bytes,
                  reference: dict[str, str]) -> list[str]:
    """Exact identities, then the byte comparison with the recorded output."""
    try:
        errors = exact_errors(workload, argv, stdout)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]
    if hashlib.sha256(stdout).hexdigest() != reference.get(reference_key(argv)):
        errors.append("stdout differs from the reference bytes")
    return errors
