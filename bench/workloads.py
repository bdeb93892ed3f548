"""The benchmark's workloads: ``sweep``, ``boundary`` and ``cli``.

Each workload is a closed loop with one client: the worker builds item
``i``'s input with ``make_input(i)``, times ``run_item(input)`` and then,
off the clock, calls ``check(input, output)``, which returns a failure
message or None.  Inputs depend only on the seed and the item index.
Calls into seqrac go through the module attribute (``sampling.random_strategy``)
so that the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import re
from pathlib import Path

import numpy as np

from seqrac import analytics, cli, documents, optimizer, sampling, scenario, strategies

SQRT2 = math.sqrt(2.0)
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _hex(*values: float) -> str:
    return ",".join(float(v).hex() for v in values)


class Sweep:
    """Score one seeded random strategy against the quantum set.

    Criterion-11 traffic.  Time goes to ``sampling`` and ``scenario``;
    ``optimizer`` is idle and items share no work, so a cache cannot help.
    """

    name = "sweep"
    # Share of items whose witnesses are re-derived from the 64-entry
    # joint_prob table (about 1 ms each, so only a sample is checked).
    resum_share = 1.0 / 16.0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def make_input(self, i: int):
        return i, np.random.default_rng([self.seed, i])

    def warm_up(self) -> None:
        for i in range(50):
            self.run_item((-1, np.random.default_rng([self.seed, 1 << 40, i])))

    def run_item(self, item):
        _, rng = item
        s = sampling.random_strategy(rng)
        pair = scenario.witness_pair(s)
        return s, pair, analytics.in_quantum_set(pair, tol=1e-7)

    def check(self, item, output) -> str | None:
        i, _ = item
        s, pair, inside = output
        if not inside:
            return f"pair {tuple(pair)} outside the quantum set at tol 1e-7"
        picked = np.random.default_rng([self.seed, i, 1]).random() < self.resum_share
        if picked:
            w_ab, w_ac = resummed_witnesses(s)
            if abs(w_ab - pair.w_ab) > 1e-12 or abs(w_ac - pair.w_ac) > 1e-12:
                return f"joint_prob sums ({w_ab!r}, {w_ac!r}) disagree with {tuple(pair)}"
        return None

    def digest(self, output) -> str:
        _, pair, inside = output
        return f"{_hex(*pair)}:{inside}"

    def counters(self, output) -> dict:
        return {}


def resummed_witnesses(s) -> tuple[float, float]:
    """Both witnesses from the 64-entry distribution ``p(b, c | x, y, z)``.

    ``w_ab`` averages ``b = x_y`` and ``w_ac`` averages ``c = x_z`` over the
    16 input triples.
    """
    w_ab = w_ac = 0.0
    for x in scenario.INPUT_PAIRS:
        for y in (0, 1):
            for z in (0, 1):
                for b in (0, 1):
                    for c in (0, 1):
                        p = scenario.joint_prob(s, x, y, z, b, c)
                        w_ab += p if b == x[y] else 0.0
                        w_ac += p if c == x[z] else 0.0
    return w_ab / 16.0, w_ac / 16.0


class Boundary:
    """One curve level as ``seqrac boundary --with-seesaw`` computes a row.

    Time goes to ``optimizer``'s grids, bounded scalar searches and
    reduced-family formulas; ``sampling`` is idle.  Every level reuses the
    same ``(theta, phi1)`` grid, so cross-level reuse would show only here.
    """

    name = "boundary"
    reference_every = 8  # every 8th level is the 3/4 reference level

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.offset = float(np.random.default_rng([seed, 0]).uniform())

    def make_input(self, i: int) -> tuple[float, optimizer.OptimizerConfig]:
        """Level ``i`` and the default config with a see-saw seed.

        Levels are uniform on [1/2, (2+sqrt(2))/4], plus the 3/4 reference:
        a seeded offset plus golden-ratio steps spreads any run of levels
        evenly over the interval.  The see-saw's restart seed changes its
        work by about 13%, so each level gets its own seed drawn from the
        workload seed; one seed for the whole run would bias the run.
        """
        if i % self.reference_every == 0:
            alpha = 0.75
        else:
            alpha = 0.5 + ((self.offset + i * GOLDEN) % 1.0) * (analytics.W_AB_MAX - 0.5)
        rng_seed = int(np.random.SeedSequence([self.seed, i]).generate_state(1)[0])
        return alpha, optimizer.OptimizerConfig(rng_seed=rng_seed)

    def warm_up(self) -> None:
        self.run_item((0.75, optimizer.OptimizerConfig(rng_seed=self.seed)))

    def run_item(self, item):
        alpha, cfg = item
        point = optimizer.trace_boundary([alpha], cfg)[0]
        return point, optimizer.seesaw(alpha, cfg)

    def check(self, item, output) -> str | None:
        alpha, _ = item
        point, result = output
        bound = analytics.boundary_wac(alpha)
        if abs(point.wac - bound) > 1e-6:
            return f"alpha {alpha!r}: boundary gap {point.wac - bound:.3e}"
        w_ab, w_ac = result.pair
        if abs(w_ab - alpha) > 1e-8:
            return f"alpha {alpha!r}: see-saw w_ab off by {w_ab - alpha:.3e}"
        if not bound - 1e-3 <= w_ac <= bound + 1e-7:
            return f"alpha {alpha!r}: see-saw w_ac {w_ac!r} outside [bound - 1e-3, bound + 1e-7]"
        result.strategy.validate()
        return None

    def digest(self, output) -> str:
        point, result = output
        p = point.params
        return _hex(point.alpha, point.wac, p.theta, p.phi0, p.phi1, *result.pair)

    def counters(self, output) -> dict:
        """See-saw work per level, read from ``SeesawResult.runs``."""
        runs = output[1].runs
        best = max(run.final_wac for run in runs)
        return {
            "best_response_steps": sum(len(run.charlie_steps) for run in runs),
            "restart_yield": sum(abs(run.final_wac - best) <= 1e-9 for run in runs) / len(runs),
        }


PUBLISHED_NOISE = ("0.70710678", "0.95", "0.90", "0.95")  # eta, v_a, v_b, v_c
PUBLISHED_PAIR = "(0.7138, 0.7826)"
PUBLISHED_INTERVAL = "[0.6047, 0.8010]"
CHECKS_SAMPLES = 100
CHECKS_GRID = 60
POOL = 4  # documents of each kind, and certify/noise variants


class CliSession:
    """One scripted session of in-process ``seqrac.cli.main`` calls.

    Exercises what the other workloads barely touch: ``documents``,
    ``sequence``, the 65536-strategy enumeration, the ``linalg`` kernels in
    ``inequality_report`` and argparse.  ``classical`` (and ``checks``, whose
    seed is the workload seed) repeat identical argv in every session, so a
    result cache would show a gain here that a user running one command
    per process never gets.
    """

    name = "cli"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.seen: dict[tuple, bytes] = {}
        rng = np.random.default_rng([seed, 0])
        self.docs = []  # (path, expected WitnessPair)
        for kind in ("canonical", "random"):
            for k in range(POOL):
                s = _noisy_rotated_canonical(rng) if kind == "canonical" else sampling.random_strategy(rng)
                path = workdir / f"{kind}-{k}.json"
                documents.write_strategy_file(s, path)
                self.docs.append((str(path), scenario.witness_pair(s)))
        self.certify = [(("0.7138", "0.7826"), PUBLISHED_INTERVAL)]
        self.noise = [(PUBLISHED_NOISE, PUBLISHED_PAIR, PUBLISHED_INTERVAL)]
        for _ in range(POOL):
            eta, va, vb, vc = (repr(float(v)) for v in _noise_parameters(rng))
            pair, interval = _noise_expectation(eta, va, vb, vc)
            self.noise.append(((eta, va, vb, vc), f"({pair.w_ab:.4f}, {pair.w_ac:.4f})", interval))
            rounded = f"{pair.w_ab:.4f}", f"{pair.w_ac:.4f}"
            lo, hi = analytics.certify_interval(scenario.WitnessPair(*map(float, rounded))).rounded()
            self.certify.append((rounded, f"[{lo:.4f}, {hi:.4f}]"))

    def make_input(self, i: int) -> list:
        """The session's commands, each with what its output must show."""
        k = i % POOL
        commands = [
            (["evaluate", self.docs[k][0]], ("evaluate", self.docs[k][1])),
            (["evaluate", self.docs[POOL + k][0]], ("evaluate", self.docs[POOL + k][1])),
        ]
        for (wab, wac), interval in (self.certify[0], self.certify[1 + k]):
            commands.append((["certify", "--wab", wab, "--wac", wac], ("certify", interval)))
        for (eta, va, vb, vc), pair, interval in (self.noise[0], self.noise[1 + k]):
            argv = ["noise", "--eta", eta, "--va", va, "--vb", vb, "--vc", vc]
            commands.append((argv, ("noise", pair, interval)))
        commands += [
            (["sequence", "--parties", "10"], ("sequence",)),
            (["classical"], ("classical",)),
            (["checks", "--samples", str(CHECKS_SAMPLES), "--grid", str(CHECKS_GRID),
              "--seed", str(self.seed)], ("checks",)),
        ]
        return commands

    def warm_up(self) -> None:
        self.run_item(self.make_input(0))

    def run_item(self, commands: list) -> list:
        outputs = []
        for argv, _ in commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            outputs.append((code, out.getvalue(), err.getvalue()))
        return outputs

    def check(self, commands: list, outputs: list) -> str | None:
        for (argv, expect), (code, out, err) in zip(commands, outputs):
            label = " ".join(argv[:1] + [a for a in argv[1:] if a.startswith("-")])
            if code != 0 or err:
                return f"{label}: exit {code}, stderr {err.strip()!r}"
            digest = hashlib.sha256(out.encode()).digest()
            if self.seen.setdefault(tuple(argv), digest) != digest:
                return f"{label}: stdout differs from an earlier identical call"
            problem = _CHECKS[expect[0]](out, *expect[1:])
            if problem:
                return f"{label}: {problem}"
        return None

    def digest(self, outputs: list) -> str:
        return hashlib.sha256("".join(out for _, out, _ in outputs).encode()).hexdigest()

    def counters(self, outputs) -> dict:
        return {}


def _noise_parameters(rng) -> np.ndarray:
    """Sharpness and visibilities strictly inside the quantum set's interior."""
    return np.concatenate([rng.uniform(0.5, 0.95, 1), rng.uniform(0.85, 0.99, 3)])


def _noisy_rotated_canonical(rng):
    eta, va, vb, vc = _noise_parameters(rng)
    noisy = strategies.apply_visibility(
        strategies.canonical_strategy(float(eta)), strategies.VisibilityTriple(va, vb, vc)
    )
    return scenario.conjugate_strategy(noisy, sampling.random_su2(rng))


def _noise_expectation(eta: str, va: str, vb: str, vc: str):
    """The 4-decimal pair and certified interval ``seqrac noise`` must print."""
    noisy = strategies.apply_visibility(
        strategies.canonical_strategy(float(eta)),
        strategies.VisibilityTriple(float(va), float(vb), float(vc)),
    )
    pair = scenario.witness_pair(noisy)
    rounded = scenario.WitnessPair(
        analytics.round_reported(pair.w_ab), analytics.round_reported(pair.w_ac)
    )
    lo, hi = analytics.certify_interval(rounded, tol=2e-3).rounded()
    return rounded, f"[{lo:.4f}, {hi:.4f}]"


def _field(out: str, prefix: str) -> str | None:
    for line in out.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    return None


def _check_evaluate(out: str, pair) -> str | None:
    for name, want in (("w_ab", pair.w_ab), ("w_ac", pair.w_ac)):
        got = _field(out, f"{name} = ")
        if got is None or abs(float(got) - want) > 5e-7 + 1e-12:
            return f"{name} printed {got!r}, strategy has {want!r}"
    if _field(out, "quantum set:") != "True":
        return "strategy not reported inside the quantum set"
    rows = re.findall(r"^  (\d)  (\d)  (\d)  (\d)  \d  \d  ([0-9.]+)$", out, re.M)
    if len(rows) != 64:
        return f"distribution has {len(rows)} rows, expected 64"
    return None


def _check_certify(out: str, interval: str) -> str | None:
    got = _field(out, "rounded (4dp):")
    return None if got == interval else f"interval {got!r}, expected {interval!r}"


def _check_noise(out: str, pair: str, interval: str) -> str | None:
    got_pair = _field(out, "witness pair (4dp):")
    got_interval = _field(out, "rounded (4dp):")
    if got_pair != pair or got_interval != interval:
        return f"printed {got_pair} {got_interval}, expected {pair} {interval}"
    return None


def _check_sequence(out: str) -> str | None:
    lines = out.splitlines()
    if lines[:1] != ["k,witness,radius,closed_form,diff"] or len(lines) != 11:
        return "chain CSV is not a header and 10 rows"
    for line in lines[1:]:
        k, witness, radius, _, _ = line.split(",")
        k = int(k)
        law = 0.5 * (1.0 + SQRT2 / 2.0**k)
        if abs(float(witness) - law) > 1e-12 or abs(float(radius) - 2.0 ** (1 - k)) > 1e-12:
            return f"party {k} breaks the halving law: {line}"
    return None


def _check_classical(out: str) -> str | None:
    lines = out.splitlines()
    want = ("max W_AB = 0.750000", "max W_AC = 0.750000")
    if tuple(lines[:2]) != want or "  (0.750000, 0.750000)" not in lines:
        return "classical maxima are not exactly 3/4"
    return None


def _check_checks(out: str) -> str | None:
    limits = (
        ("eigenvalue-sum bound margin (max lhs - rhs):", 1e-9),
        ("trig inequality maximum:", 1.0 + 1e-12),
        ("closed-form eigenvalue residual (max):", 1e-10),
    )
    for prefix, limit in limits:
        got = _field(out, prefix)
        if got is None or not float(got) <= limit:
            return f"{prefix} {got!r} exceeds {limit!r}"
    if _field(out, "samples per suite:") != str(CHECKS_SAMPLES):
        return "wrong sample count"
    return None


_CHECKS = {
    "evaluate": _check_evaluate,
    "certify": _check_certify,
    "noise": _check_noise,
    "sequence": _check_sequence,
    "classical": _check_classical,
    "checks": _check_checks,
}

WORKLOADS = {w.name: w for w in (Sweep, Boundary, CliSession)}
