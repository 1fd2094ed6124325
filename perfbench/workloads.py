"""The benchmark's workloads: their CLI invocations, seeded inputs and the
checks on every output.

No check trusts the program: delta and thm2 outputs are checked against
what the paper's pipeline must give (a passing delta report; converged
thm2 reports whose exact total is below the tolerance), wspace and the
golden check runs against reference outputs committed under
``reference/``, and the seeded inputs against residuals and round trips
computed here with plain ``fractions.Fraction`` arithmetic.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

REFERENCE_FILE = Path(__file__).with_name("reference") / "relations.json"
GOLDEN = {
    "plus": "src/zetapoly/data/r_delta_plus.json",
    "minus": "src/zetapoly/data/r_delta_minus.json",
}
RELATIONS = ("fricke", "es1", "es2", "res1", "res2")
SEEDED_W = 100
# Invocations of each precision per pass.  The cheap precisions repeat so
# their per-command medians rest on several samples; 4096 bits runs once
# because one invocation takes about 25 s.
DELTA_REPEATS = {128: 5, 1024: 3, 4096: 1}
THM2_N = "1,2,3,4,5"
THM2_TOL = Fraction(1, 10**10)  # the CLI's default --tol

# Per-command metrics: each is the mean (or, for a sequence of commands
# that users run together, the sum) of the medians of its labels.
COMMAND_METRICS = {
    "delta": ("delta_p128_s", "delta_p1024_s", "delta_p4096_s"),
    "thm2": ("thm2_s",),
    "relations": ("wspace_w10_s", "wspace_w30_s", "check_w100_s", "rv_roundtrip_s"),
}
SUMMED = {"rv_roundtrip_s"}


@dataclass(frozen=True)
class Invocation:
    """One CLI call writing its JSON output to ``out``.
    ``check(exit_code, output_or_None)`` returns a description of what is
    wrong, or None."""

    label: str
    argv: tuple
    out: Path
    check: Callable
    metric: str | None = None
    prec: int | None = None


# ---------------------------------------------------------------------
# Exact helpers (independent of zetapoly)
# ---------------------------------------------------------------------

Q = tuple  # (re, im) pair of Fractions


def fmt(q: Q) -> list:
    return [f"{x.numerator}/{x.denominator}" for x in q]


def parse(pair) -> Q:
    return Fraction(pair[0]), Fraction(pair[1])


def poly_dict(coeffs, w: int = SEEDED_W) -> dict:
    return {"w": w, "variable": "X", "coeffs": [fmt(c) for c in coeffs]}


def small_q(rng: random.Random) -> Q:
    return (
        Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
        Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
    )


def es1_residual(coeffs) -> list:
    """r + r|S coefficientwise: a_m + (-1)^m a_{w-m}."""
    w = len(coeffs) - 1
    return [
        tuple(a + (-1) ** m * b for a, b in zip(coeffs[m], coeffs[w - m]))
        for m in range(w + 1)
    ]


def fricke_residual(coeffs, eps: int) -> list:
    """a_j + eps i^w a_{w-j}, for w divisible by 4 (i^w = 1)."""
    w = len(coeffs) - 1
    if w % 4:
        raise ValueError(f"i^w is not 1 for w = {w}")
    return [tuple(a + eps * b for a, b in zip(coeffs[j], coeffs[w - j])) for j in range(w + 1)]


def es1_input(rng: random.Random, w: int = SEEDED_W) -> list:
    """Dense small rationals with a_{w-j} = -(-1)^j a_j and a_{w/2} = 0."""
    coeffs = [None] * (w + 1)
    for j in range(w // 2):
        coeffs[j] = small_q(rng)
        coeffs[w - j] = tuple(-((-1) ** j) * x for x in coeffs[j])
    coeffs[w // 2] = (Fraction(0), Fraction(0))
    return coeffs


def fricke_input(rng: random.Random, eps: int, w: int = SEEDED_W) -> list:
    """Dense small rationals with a_{w-j} = -eps a_j (w divisible by 4);
    the middle coefficient is free for eps = -1 and 0 for eps = +1."""
    coeffs = [None] * (w + 1)
    for j in range(w // 2):
        coeffs[j] = small_q(rng)
        coeffs[w - j] = tuple(-eps * x for x in coeffs[j])
    coeffs[w // 2] = small_q(rng) if eps == -1 else (Fraction(0), Fraction(0))
    return coeffs


def perturbed(rng: random.Random, coeffs) -> list:
    """A copy with one coefficient off the middle moved by a nonzero
    rational, which breaks both the S and the Fricke relation there."""
    w = len(coeffs) - 1
    k = rng.choice([j for j in range(w + 1) if j != w // 2])
    bump = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 6))
    out = list(coeffs)
    out[k] = (coeffs[k][0] + bump, coeffs[k][1])
    return out


def first_difference(got, want, path: str = "") -> str | None:
    """Path of the first field where two JSON values differ, or None."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return f"{path or '/'}: keys differ"
        for key in want:
            diff = first_difference(got[key], want[key], f"{path}/{key}")
            if diff:
                return diff
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{path or '/'}: lengths differ"
        for i, (g, w) in enumerate(zip(got, want)):
            diff = first_difference(g, w, f"{path}/{i}")
            if diff:
                return diff
        return None
    if type(got) is not type(want) or got != want:
        return f"{path or '/'}: got {got!r}, want {want!r}"
    return None


# ---------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------


def _exit(rc: int, want: int) -> str | None:
    return None if rc == want else f"exit code {rc}, want {want}"


def check_delta(prec: int):
    def check(rc, out):
        problem = _exit(rc, 0)
        if problem or out is None:
            return problem or "no output"
        if out.get("prec") != prec:
            return f"prec {out.get('prec')!r}, want {prec}"
        if out.get("passed") is not True:
            return "passed is not true"
        return None

    return check


def check_thm2(rc, out):
    problem = _exit(rc, 0)
    if problem or out is None:
        return problem or "no output"
    reports = out.get("reports", [])
    if out.get("passed") is not True:
        return "passed is not true"
    if [r.get("n") for r in reports] != [int(n) for n in THM2_N.split(",")]:
        return "reports do not cover n = " + THM2_N
    for r in reports:
        if r.get("converged") is not True:
            return f"n={r.get('n')}: not converged"
        if Fraction(r["tol"]) != THM2_TOL:
            return f"n={r['n']}: tol {r['tol']}, want {THM2_TOL}"
        re, im = parse(r["total"])
        if not re * re + im * im < THM2_TOL * THM2_TOL:
            return f"n={r['n']}: |total| >= {THM2_TOL}"
    return None


def check_reference(expected: dict):
    def check(rc, out):
        problem = _exit(rc, expected["exit"])
        if problem or out is None:
            return problem or "no output"
        return first_difference(out, expected["output"])

    return check


def check_relation(relation: str, residual: list):
    holds = all(not a and not b for a, b in residual)

    def check(rc, out):
        problem = _exit(rc, 0 if holds else 1)
        if problem or out is None:
            return problem or "no output"
        want = {"relation": relation, "holds": holds, "residual": [fmt(c) for c in residual]}
        return first_difference(out, want)

    return check


def check_forward(a0: Q, w: int):
    def check(rc, out):
        problem = _exit(rc, 0)
        if problem or out is None:
            return problem or "no output"
        if out.get("w") != w or out.get("variable") != "s" or len(out.get("coeffs", ())) != w + 1:
            return "not a zeta-polynomial of the input's weight"
        # Z(0) = sum_j a_j C(w - j, w) = a_0.
        if parse(out["coeffs"][0]) != a0:
            return "Z(0) differs from a_0"
        return None

    return check


def check_same(expected: dict):
    def check(rc, out):
        problem = _exit(rc, 0)
        if problem or out is None:
            return problem or "no output"
        return first_difference(out, expected)

    return check


# ---------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------


def reference_cases() -> dict:
    """label -> argv of the invocations checked against reference outputs."""
    cases = {f"wspace {w}": ("wspace", str(w)) for w in (10, 30)}
    for rel in RELATIONS:
        for part, path in GOLDEN.items():
            eps = ("--eps", "1") if rel == "fricke" else ()
            cases[f"check {rel} {part}"] = ("check", rel, path) + eps
    return cases


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())["outputs"]


def delta_invocations(outputs: Path) -> list:
    return [
        Invocation(f"delta --prec {p}", ("delta", "--prec", str(p)), outputs / f"delta{p}.json",
                   check_delta(p), metric=f"delta_p{p}_s", prec=p)
        for p, repeats in DELTA_REPEATS.items()
        for _ in range(repeats)
    ]


def thm2_invocations(outputs: Path) -> list:
    return [
        Invocation(f"thm2 {part}", ("thm2", path, "--n", THM2_N), outputs / f"thm2_{part}.json",
                   check_thm2, metric="thm2_s")
        for part, path in GOLDEN.items()
    ]


def relations_invocations(seed: int, inputs: Path, outputs: Path) -> list:
    """Writes the seeded w = 100 inputs under ``inputs``."""
    rng = random.Random(seed)
    reference = load_reference()
    out = []
    for label, argv in reference_cases().items():
        metric = {"wspace 10": "wspace_w10_s", "wspace 30": "wspace_w30_s"}.get(label)
        out.append(Invocation(label, argv, outputs / (label.replace(" ", "_") + ".json"),
                              check_reference(reference[label]), metric=metric))

    eps = rng.choice([1, -1])
    es1_ok = es1_input(rng)
    fricke_ok = fricke_input(rng, eps)
    seeded = {
        "es1 ok": ("es1", es1_ok, ()),
        "es1 perturbed": ("es1", perturbed(rng, es1_ok), ()),
        "fricke ok": ("fricke", fricke_ok, ("--eps", str(eps))),
        "fricke perturbed": ("fricke", perturbed(rng, fricke_ok), ("--eps", str(eps))),
    }
    inputs.mkdir(parents=True, exist_ok=True)
    for name, (rel, coeffs, extra) in seeded.items():
        path = inputs / (name.replace(" ", "_") + ".json")
        path.write_text(json.dumps(poly_dict(coeffs)))
        residual = es1_residual(coeffs) if rel == "es1" else fricke_residual(coeffs, eps)
        out.append(Invocation(f"check {name} w{SEEDED_W}", ("check", rel, str(path)) + extra,
                              outputs / path.name,
                              check_relation(rel, residual), metric="check_w100_s"))

    rt = [small_q(rng) for _ in range(SEEDED_W + 1)]
    rt_in = inputs / "roundtrip_r.json"
    rt_in.write_text(json.dumps(poly_dict(rt)))
    z_path = outputs / "roundtrip_z.json"
    out.append(Invocation(f"rv-forward w{SEEDED_W}", ("rv-forward", str(rt_in)), z_path,
                          check_forward(rt[0], SEEDED_W), metric="rv_roundtrip_s"))
    out.append(Invocation(f"rv-inverse w{SEEDED_W}", ("rv-inverse", str(z_path)),
                          outputs / "roundtrip_r.json", check_same(poly_dict(rt)),
                          metric="rv_roundtrip_s"))
    return out


def build(workload: str, seed: int, run_dir: Path) -> list:
    """The invocations of one pass; inputs go to run_dir/inputs and each
    output to its own file under run_dir/out."""
    outputs = run_dir / "out"
    outputs.mkdir(parents=True, exist_ok=True)
    if workload == "delta":
        return delta_invocations(outputs)
    if workload == "thm2":
        return thm2_invocations(outputs)
    if workload == "relations":
        return relations_invocations(seed, run_dir / "inputs", outputs)
    raise ValueError(f"unknown workload {workload!r}")
