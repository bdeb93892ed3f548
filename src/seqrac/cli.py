"""Command-line front end.

Exit codes are part of the stable interface: 0 success, 2 parse error,
3 invariant violation, 4 convergence failure, 5 infeasible witness pair,
6 inequality violation.  Every command is deterministic given its flags
and --seed; the environment variable SEQRAC_SEED is the fallback seed.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import os
import struct
import sys

import numpy as np

from .analytics import (
    W_AB_MAX,
    boundary_wac,
    certify_interval,
    in_classical_set,
    in_quantum_set,
    round_reported,
)
from .documents import read_strategy_file
from .errors import (
    ConvergenceFailure,
    DocumentError,
    DocumentInvariantError,
    DomainError,
    InequalityViolation,
    InfeasiblePair,
    InvalidStrategy,
    require_integer,
    require_real,
)
from .optimizer import (
    OptimizerConfig,
    classical_bruteforce,
    inequality_report,
    seesaw,
    trace_boundary,
)
from .scenario import (
    INPUT_PAIRS,
    WitnessPair,
    effective_ensemble,
    joint_prob,
    witness_pair,
)
from .sequence import ChainConfig, party_witness_closed_form, simulate_chain
from .strategies import VisibilityTriple, apply_visibility, canonical_strategy

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INVARIANT = 3
EXIT_CONVERGENCE = 4
EXIT_INFEASIBLE = 5
EXIT_INEQUALITY = 6

# Largest --points: a level keeps its alpha and CSV row, about 0.5 kB, so
# the largest grid holds about 50 MB (a level takes 30-150 ms to trace).
BOUNDARY_POINTS_MAX = 100_000


def _g17(x: float) -> str:
    return format(float(x), ".17g")


def _resolve_seed(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get("SEQRAC_SEED")
    try:
        return int(env) if env else 0
    except ValueError:
        raise DomainError(f"SEQRAC_SEED = {env!r} is not an integer") from None


def _emit(lines: list[str], out_path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_evaluate(args) -> int:
    strategy = read_strategy_file(args.strategy_file)
    pair = witness_pair(strategy)
    print(f"w_ab = {pair.w_ab:.6f}")
    print(f"w_ac = {pair.w_ac:.6f}")
    print(f"classical set: {in_classical_set(pair)}")
    print(f"quantum set:   {in_quantum_set(pair)}")
    print()
    print("effective ensemble Bloch vectors (after Bob, averaged):")
    for x, st in zip(INPUT_PAIRS, effective_ensemble(strategy)):
        nx, ny, nz = st.bloch
        print(f"  x=({x[0]},{x[1]}): ({nx:.6f}, {ny:.6f}, {nz:.6f})")
    print()
    print("distribution p(b,c|x,y,z):")
    print("  x0 x1  y  z  b  c  p")
    for x, y, z, b, c in itertools.product(INPUT_PAIRS, *[(0, 1)] * 4):
        p = joint_prob(strategy, x, y, z, b, c)
        print(f"  {x[0]}  {x[1]}  {y}  {z}  {b}  {c}  {p:.6f}")
    return EXIT_OK


def cmd_boundary(args) -> int:
    require_integer(args.points, "--points", 2, BOUNDARY_POINTS_MAX)
    # Uniform grid plus the 3/4 reference level (not representable on any
    # uniform grid over this interval).
    alphas = sorted(set(np.linspace(0.5, W_AB_MAX, args.points).tolist()) | {0.75})
    cfg = OptimizerConfig(rng_seed=_resolve_seed(args.seed))
    header = "alpha,wac_closed_form,wac_numeric,gap,theta,phi"
    if args.with_seesaw:
        header += ",wac_seesaw,seesaw_gap"
    lines = [header]
    failed = False
    for alpha in alphas:
        closed = boundary_wac(alpha)
        try:
            point = trace_boundary([alpha])[0]
            numeric, theta, phi = point.wac, point.params.theta, point.params.phi0
            gap = abs(numeric - closed)
        except ConvergenceFailure as exc:
            print(f"boundary: {exc}", file=sys.stderr)
            numeric = theta = phi = gap = float("nan")
            failed = True
        row = [_g17(alpha), _g17(closed), _g17(numeric), _g17(gap), _g17(theta), _g17(phi)]
        if args.with_seesaw:
            try:
                result = seesaw(alpha, cfg)
                row += [_g17(result.pair.w_ac), _g17(abs(result.pair.w_ac - closed))]
            except ConvergenceFailure as exc:
                print(f"seesaw: {exc}", file=sys.stderr)
                row += [_g17(float("nan")), _g17(float("nan"))]
                failed = True
        lines.append(",".join(row))
    _emit(lines, args.out)
    return EXIT_CONVERGENCE if failed else EXIT_OK


def cmd_certify(args) -> int:
    pair = WitnessPair(require_real(args.wab, "--wab", 0.0, 1.0),
                       require_real(args.wac, "--wac", 0.0, 1.0))
    interval = certify_interval(pair)
    lo4, hi4 = interval.rounded()
    print(f"witness pair: ({_g17(pair.w_ab)}, {_g17(pair.w_ac)})")
    print(f"sharpness interval: [{_g17(interval.lower)}, {_g17(interval.upper)}]")
    print(f"rounded (4dp):      [{lo4:.4f}, {hi4:.4f}]")
    print(f"classical set: {in_classical_set(pair)}")
    print(f"quantum set:   {in_quantum_set(pair)}")
    return EXIT_OK


def cmd_noise(args) -> int:
    visibility = VisibilityTriple(args.va, args.vb, args.vc)
    noisy = apply_visibility(canonical_strategy(args.eta), visibility)
    pair = witness_pair(noisy)
    rounded = WitnessPair(round_reported(pair.w_ab), round_reported(pair.w_ac))
    # Certification runs on the 4-decimal pair: intervals quoted for
    # published witness values are reproduced digit for digit.  Rounding can
    # push a boundary pair slightly outside the quantum set, so feasibility
    # is judged at the rounding granularity.
    interval = certify_interval(rounded, tol=2e-3)
    lo4, hi4 = interval.rounded()
    print(f"witness pair (full): ({_g17(pair.w_ab)}, {_g17(pair.w_ac)})")
    print(f"witness pair (4dp):  ({rounded.w_ab:.4f}, {rounded.w_ac:.4f})")
    print(f"sharpness interval from 4dp pair: [{_g17(interval.lower)}, {_g17(interval.upper)}]")
    print(f"rounded (4dp):                    [{lo4:.4f}, {hi4:.4f}]")
    print(f"classical set: {in_classical_set(rounded)}")
    print(f"quantum set:   {in_quantum_set(rounded)}")
    return EXIT_OK


def cmd_sequence(args) -> int:
    if args.eta_profile is not None:  # an empty profile is malformed, not absent
        try:
            profile = tuple(float(v) for v in args.eta_profile.split(","))
        except ValueError as exc:
            raise DomainError(f"bad --eta-profile {args.eta_profile!r}: {exc}") from exc
    else:
        profile = None
    rows = simulate_chain(ChainConfig(args.parties, profile))
    lines, key = ["k,witness,radius,closed_form,diff"], None
    for step in rows:
        closed = party_witness_closed_form(step.party)
        values = (step.witness, step.entering_radius, closed, step.witness - closed)
        bits = struct.pack("4d", *values)
        if bits != key:  # a chain at its fixed point repeats its row's text
            key, text = bits, ",".join(map(_g17, values))
        lines.append(f"{step.party},{text}")
    _emit(lines, args.out)
    return EXIT_OK


def cmd_classical(args) -> int:
    result = classical_bruteforce()
    print(f"max W_AB = {result.max_w_ab:.6f}")
    print(f"max W_AC = {result.max_w_ac:.6f}")
    print("extreme attainable pairs:")
    for pair in result.extremes:
        print(f"  ({pair.w_ab:.6f}, {pair.w_ac:.6f})")
    return EXIT_OK


def cmd_checks(args) -> int:
    report = inequality_report(
        samples=args.samples, grid=args.grid, seed=_resolve_seed(args.seed)
    )
    print(f"samples per suite: {args.samples}")
    print(f"trig grid points:  {args.grid ** 3}")
    print(f"eigenvalue-sum bound margin (max lhs - rhs): {_g17(report['bound_margin_max'])}")
    print(f"trig inequality maximum:                     {_g17(report['trig_max'])}")
    print(f"closed-form eigenvalue residual (max):       {_g17(report['eigen_residual_max'])}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqrac",
        description="Sequential qubit random access codes: evaluate, trace, certify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evaluate", help="evaluate a strategy document")
    p.add_argument("strategy_file")

    p = sub.add_parser("boundary", help="trace the quantum trade-off curve to CSV")
    p.add_argument("--points", type=int, default=21)
    p.add_argument("--out", default=None)
    p.add_argument("--with-seesaw", action="store_true")
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("certify", help="certify a sharpness interval from witnesses")
    p.add_argument("--wab", type=float, required=True)
    p.add_argument("--wac", type=float, required=True)

    p = sub.add_parser("noise", help="evaluate the canonical strategy under visibilities")
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--va", type=float, required=True)
    p.add_argument("--vb", type=float, required=True)
    p.add_argument("--vc", type=float, required=True)

    p = sub.add_parser("sequence", help="simulate a chain of measuring parties to CSV")
    p.add_argument("--parties", type=int, required=True)
    p.add_argument("--eta-profile", default=None, help="comma-separated sharpnesses")
    p.add_argument("--out", default=None)

    sub.add_parser("classical", help="exhaustive classical enumeration")

    p = sub.add_parser("checks", help="run the operator-inequality sampling suites")
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--grid", type=int, default=100, help="per-axis trig grid size")
    p.add_argument("--seed", type=int, default=None)

    return parser


_parser = functools.cache(build_parser)  # one per process, shared by repeated in-process main calls

# Exit code of each error a command may raise.
_EXIT_CODES = {
    DocumentError: EXIT_PARSE,
    DomainError: EXIT_PARSE,
    OSError: EXIT_PARSE,
    DocumentInvariantError: EXIT_INVARIANT,
    InvalidStrategy: EXIT_INVARIANT,
    ConvergenceFailure: EXIT_CONVERGENCE,
    InfeasiblePair: EXIT_INFEASIBLE,
    InequalityViolation: EXIT_INEQUALITY,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # Looked up at call time, so a rebound cmd_* (a test stub, a tracer) runs.
        return globals()[f"cmd_{args.command}"](args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
