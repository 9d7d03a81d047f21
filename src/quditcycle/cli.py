"""Command-line front end.

Subcommands:
  run     classify one permutation (quantum one-query or classical two-query)
  verify  sweep dimensions and check every promise the simulator makes
  nmr     synthesize and run the spin-3/2 pulse protocol, exporting artifacts

Exit codes: 0 success, 1 verification failure, 2 malformed permutation or
bad arguments, 3 non-cyclic input to the quantum runner, 4 unconverged
pulse synthesis, 141 standard output closed before the output was written.
The default output directory for nmr artifacts is $QUDITCYCLE_OUTDIR,
falling back to the current directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys as _sys
import time

import numpy as np

from .algorithm import (
    FOURIER_VARIANTS,
    FourierKind,
    NotCyclicError,
    one_query_insufficient,
    phase_table,
    run_classical,
    run_quantum,
)
from .linalg import MAX_DIM
from .nmr import SpinSystem, inject_readout_noise, pseudo_pure
from .permutations import Chirality, Permutation, classify_cyclic, enumerate_cyclic, parity

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_PERMUTATION = 2
EXIT_NOT_CYCLIC = 3
EXIT_UNCONVERGED = 4
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process the signal ended

# --gate value -> (oracle representative, circuit prefix)
GATE_MAP = {
    "qft": ("positive", "after_qft"),
    "pos": ("positive", "after_oracle"),
    "neg": ("negative", "after_oracle"),
    "fullpos": ("positive", "full"),
    "fullneg": ("negative", "full"),
}


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _write(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def _error(message, code: int = EXIT_BAD_PERMUTATION) -> int:
    print(f"error: {message}", file=_sys.stderr)
    return code


def cmd_run(args) -> int:
    if args.mode == "classical" and (args.relabel is not None or args.fourier != "general"):
        return _error("--relabel and --fourier qutrit apply to --mode quantum only")
    try:
        p = Permutation.from_string(args.perm)
        if args.dim is not None and args.dim != p.dim:
            raise ValueError(f"--dim {args.dim} does not match permutation of size {p.dim}")
        sigma = None if args.relabel is None else Permutation.from_string(args.relabel)
        if args.mode == "classical":
            report = run_classical(p)
        else:
            report = run_quantum(p, FourierKind(args.fourier, sigma))
    except NotCyclicError as exc:
        return _error(exc, EXIT_NOT_CYCLIC)
    except ValueError as exc:
        return _error(exc)

    text = _dumps(report.to_json())
    if args.out is not None:
        try:
            _write(args.out, text + "\n")
        except OSError as exc:
            return _error(f"cannot write output: {exc}")
    if not args.json:
        line = f"{','.join(map(str, p.image))} -> {report.classification.value}"
        line += f" ({report.oracle_queries} oracle quer{'y' if report.oracle_queries == 1 else 'ies'}"
        if report.measured_index is not None:
            line += f", measured |{report.measured_index}>"
        line += ")"
        print(line)
    if args.json or args.out is None:
        print(text)
    return EXIT_OK


def _mark(check: bool) -> str:
    return "ok" if check else "FAIL"


def cmd_verify(args) -> int:
    rows = []
    ok = parity_matches = True
    t0 = time.perf_counter()
    for d in range(3, args.dmax + 1):
        table = phase_table(d)
        class_ok = phase_ok = two_ok = True
        classes = []
        for p in enumerate_cyclic(d):
            truth = classify_cyclic(p)
            classes.append((truth.chirality, p.image))
            quantum = run_quantum(p)
            classical = run_classical(p)
            class_ok &= quantum.classification is truth.chirality
            phase_ok &= abs(quantum.phase - table[(truth.chirality, truth.shift)]) <= 1e-10
            two_ok &= classical.classification is truth.chirality and classical.oracle_queries == 2
            if d == 3:
                parity_matches &= (truth.chirality is Chirality.POSITIVE) == (parity(p) == 1)
        checks = {
            "classifications": class_ok,
            "phases": phase_ok,
            "one_query_insufficient": one_query_insufficient(d, classes),
            "classical_two_queries": two_ok,
        }
        ok &= all(checks.values())
        rows.append({"dim": d, **checks})
    elapsed = time.perf_counter() - t0
    ok &= parity_matches

    if args.json:
        print(_dumps({"rows": rows, "parity_is_chirality_at_dim3": parity_matches, "ok": ok}))
    else:
        for row in rows:
            marks = "  ".join(f"{key}={_mark(val)}" for key, val in row.items() if key != "dim")
            print(f"d={row['dim']:2d}  {marks}")
        print(f"d= 3  chirality coincides with even/odd parity: {_mark(parity_matches)}")
        print(f"{'all checks passed' if ok else 'FAILURES detected'} in {elapsed:.2f}s")
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def _write_csv(path: str, data: np.ndarray) -> None:
    rows = (f"{i + 1},{j + 1},{float(v)!r}\n" for (i, j), v in np.ndenumerate(data))
    _write(path, "i,j,value\n" + "".join(rows))


def cmd_nmr(args) -> int:
    # the pulse layer imports scipy.optimize; run and verify never load it
    from .protocol import run_protocol
    from .smp import OptimizerConfig, segments_to_json

    oracle, stage = GATE_MAP[args.gate]
    if args.noise_seed < 0:
        return _error(f"--noise-seed must be >= 0, got {args.noise_seed}")

    # OptimizerConfig fields a --config file may set; the report echoes them.
    config_keys = tuple(f.name for f in dataclasses.fields(OptimizerConfig))
    flags = ("seed", "segments", "restarts", "min_fidelity")
    overrides = {k: getattr(args, k) for k in flags if getattr(args, k) is not None}
    try:
        loaded = {}
        if args.config is not None:
            with open(args.config) as fh:
                loaded = json.load(fh)
            if not isinstance(loaded, dict):
                raise ValueError(f"config file must hold a JSON object, got {type(loaded).__name__}")
            bad = set(loaded) - set(config_keys)
            if bad:
                raise ValueError(f"unknown config keys {sorted(bad)}")
        cfg = OptimizerConfig(**{**loaded, **overrides})
    except (OSError, ValueError, TypeError, RecursionError) as exc:
        return _error(f"bad optimizer config: {exc}")

    outdir = args.out if args.out is not None else os.environ.get("QUDITCYCLE_OUTDIR") or "."
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        return _error(f"cannot write output: {exc}")

    sys_ = SpinSystem()
    result = run_protocol(sys_, oracle, stage, None if args.ideal else cfg)

    pure = result.pure_part
    if args.noise_sigma is not None:
        try:
            pure = inject_readout_noise(pure, sigma=args.noise_sigma, seed=args.noise_seed)
        except ValueError as exc:
            return _error(f"bad --noise-sigma: {exc}")
    rho = pseudo_pure(pure, args.epsilon)

    report = {
        "gate": args.gate,
        "oracle": oracle,
        "stage": stage,
        "gate_source": "ideal" if args.ideal else "smp",
        "seed": cfg.seed,
        "epsilon": args.epsilon,
        "fidelity": result.fidelity,
        "unconverged": not result.converged,
        "dominant_index": result.dominant_index,
        "noise_sigma": args.noise_sigma,
        "config": {k: getattr(cfg, k) for k in config_keys},
        "pulses": None if result.smp is None else segments_to_json(result.smp.segments),
    }
    text = _dumps(report)
    prefix = os.path.join(outdir, args.gate)
    try:
        # dev = the pure part: the deviation from the maximally mixed background,
        # in units of epsilon: rho = (1 - eps)/4 * 1 + eps * dev.
        for name, matrix in (("rho", rho), ("dev", pure)):
            _write_csv(f"{prefix}_{name}_re.csv", matrix.real)
            _write_csv(f"{prefix}_{name}_im.csv", matrix.imag)
        _write(f"{prefix}_report.json", text + "\n")
        if report["pulses"] is not None:
            _write(f"{prefix}_pulses.json", _dumps(report["pulses"]) + "\n")
    except OSError as exc:
        return _error(f"cannot write output: {exc}")

    if args.json:
        print(text)
    else:
        flag = "" if result.converged else "  [UNCONVERGED]"
        print(
            f"{args.gate}: fidelity {result.fidelity:.6f} to theory, "
            f"dominant level |{result.dominant_index}>{flag}"
        )
        print(f"artifacts written under {outdir}/")
    return EXIT_OK if result.converged else EXIT_UNCONVERGED


def _ranged(cast, lower, upper, what: str):
    """argparse type: cast(text) if it lands in [lower, upper] and is finite; NaN and Inf are refused."""

    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {cast.__name__} value: {text!r}") from None
        if not (lower <= value <= upper and math.isfinite(value)):
            raise argparse.ArgumentTypeError(f"must be {what} in [{lower}, {upper}], got {text!r}")
        return value

    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    ap = argparse.ArgumentParser(
        prog="quditcycle",
        description="Classify cyclic permutations with one quantum query on a single qudit.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="classify one permutation")
    run_p.add_argument("--perm", required=True, help='image list, e.g. "2,3,4,1"')
    run_p.add_argument("--dim", type=int, default=None, help="optional size cross-check")
    run_p.add_argument("--mode", choices=("quantum", "classical"), default="quantum")
    run_p.add_argument(
        "--fourier",
        choices=FOURIER_VARIANTS,
        default="general",
        help="Fourier convention: general labels 1..d, or the 3-level spin basis",
    )
    run_p.add_argument("--relabel", default=None, help="relabeling permutation, e.g. \"1,3,2,4\"")
    run_p.add_argument("--json", action="store_true", help="machine-readable output only")
    run_p.add_argument("--out", default=None, help="write the report JSON to this file")

    ver_p = sub.add_parser("verify", help="check the simulator's promises over a range of dims")
    ver_p.add_argument("--dmax", type=_ranged(int, 3, MAX_DIM, "an integer"), default=8, metavar=f"3..{MAX_DIM}")
    ver_p.add_argument("--json", action="store_true")

    nmr_p = sub.add_parser("nmr", help="run the spin-3/2 pulse protocol")
    nmr_p.add_argument("--gate", required=True, choices=sorted(GATE_MAP))
    nmr_p.add_argument("--seed", type=int, default=None, help="optimizer seed (default 0); overrides --config")
    nmr_p.add_argument("--ideal", action="store_true", help="use exact gates instead of pulses")
    nmr_p.add_argument("--epsilon", type=_ranged(float, 0, 1.0, "a finite number"), default=1e-5)
    nmr_p.add_argument("--config", default=None, help="JSON file with optimizer settings")
    nmr_p.add_argument("--segments", type=int, default=None)
    nmr_p.add_argument("--restarts", type=int, default=None)
    nmr_p.add_argument("--min-fidelity", type=float, default=None)
    nmr_p.add_argument(
        "--noise-sigma",
        type=_ranged(float, 0, math.inf, "a finite number"),
        default=None,
        help="simulated readout noise",
    )
    nmr_p.add_argument("--noise-seed", type=int, default=0)
    nmr_p.add_argument("--out", default=None, help="output directory (default $QUDITCYCLE_OUTDIR)")
    nmr_p.add_argument("--json", action="store_true")

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # looked up by name on each call, so a replaced module attribute takes effect
        code = globals()[f"cmd_{args.command}"](args)
        _sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone: point stdout at devnull so the flush at exit is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), _sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    raise SystemExit(main())
