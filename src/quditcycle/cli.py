"""Command-line front end.

Subcommands:
  run     classify one permutation (quantum one-query or classical two-query)
  verify  sweep dimensions and check every promise the simulator makes
  nmr     synthesize and run the spin-3/2 pulse protocol, exporting artifacts

Exit codes: 0 success, 1 verification failure, 2 malformed permutation,
bad arguments or output that cannot be written, 3 non-cyclic input to the
quantum runner, 4 unconverged pulse synthesis, 141 standard output closed
before the output was written.
The default output directory for nmr artifacts is $QUDITCYCLE_OUTDIR,
falling back to the current directory.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import io
import json
import math
import os
import stat
import sys as _sys
import time
from json.encoder import encode_basestring_ascii

import numpy as np

from .algorithm import (
    FOURIER_VARIANTS,
    FourierKind,
    NotCyclicError,
    RunReport,
    _run_quantum_table,
    one_query_insufficient,
    phase_table,
    run_classical,
    run_quantum,
)
from .linalg import DEFAULT_TOL, MAX_DIM, check_choice, check_range
from .nmr import SpinSystem, check_epsilon, check_seed, check_sigma, inject_readout_noise, pseudo_pure
from .permutations import Chirality, Permutation, enumerate_cyclic, parity

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


def _dumps(obj, indent: str = "\n") -> str:
    """json.dumps(obj, indent=2, sort_keys=True), byte for byte.

    json's indent takes its pure-Python encoder, which costs exact-cli 4.0%
    of its speed; this writer uses the same pieces: the C string escaper,
    float.__repr__ with NaN and +-Infinity, sorted str keys, "[]" and "{}"
    for empty containers, and ",\\n" with two more spaces a level.  Values
    of any other type, and keys that are not str, raise TypeError.
    """
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if obj != obj:
            return "NaN"
        if obj == math.inf:
            return "Infinity"
        if obj == -math.inf:
            return "-Infinity"
        return float.__repr__(obj)
    inner = indent + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[" + inner + ("," + inner).join([_dumps(v, inner) for v in obj]) + indent + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        # a key that is not a str fails the sort or the escaper with a TypeError
        items = [encode_basestring_ascii(k) + ": " + _dumps(obj[k], inner) for k in sorted(obj)]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _write(path: str, text: str) -> None:
    """Write text over path in place, keeping its inode, links and mode.

    No O_TRUNC: ext4 starts writeback on close of a file truncated to zero.
    Only a regular file is cut to the written length; /dev/null or a pipe
    behind /dev/stdout cannot be truncated.
    """
    data = text.encode()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:  # a write may take fewer bytes than it was given
            view = view[os.write(fd, view) :]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _error(message, code: int = EXIT_BAD_PERMUTATION) -> int:
    print(f"error: {message}", file=_sys.stderr)
    return code


def _permutation(text: str) -> Permutation:
    """--perm and --relabel: comma-separated entries, each read by int(), so "2, 3 ,1" is 2,3,1."""
    try:
        img = tuple(int(s) for s in text.split(","))
    except ValueError as exc:
        raise ValueError(f"malformed permutation string {text!r}") from exc
    return Permutation(img)


# The report's complex numbers are {"re": x, "im": y} and its state vector
# {"dim": d, "re": [...], "im": [...]}: split real and imaginary arrays keep
# the files readable and language-neutral.
def _complex_json(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def _report_json(report: RunReport) -> dict:
    """The run report, the --json output and the --out file."""
    p, state = report.permutation, report.final_state
    return {
        "dim": p.dim,
        "permutation": {"dim": p.dim, "image": list(p.image)},
        "oracle_queries": report.oracle_queries,
        "classification": report.classification.value,
        "measured_index": report.measured_index,
        "phase": None if report.phase is None else _complex_json(report.phase),
        "final_state": None
        if state is None
        else {"dim": len(state), "re": state.real.tolist(), "im": state.imag.tolist()},
    }


def cmd_run(args) -> int:
    if args.mode == "classical" and (args.relabel is not None or args.fourier != "general"):
        return _error("--relabel and --fourier qutrit apply to --mode quantum only")
    try:
        p = _permutation(args.perm)
        if args.dim is not None and args.dim != p.dim:
            raise ValueError(f"--dim {args.dim} does not match permutation of size {p.dim}")
        sigma = None if args.relabel is None else _permutation(args.relabel)
        if args.mode == "classical":
            report = run_classical(p)
        else:
            report = run_quantum(p, FourierKind(args.fourier, sigma))
    except NotCyclicError as exc:
        return _error(exc, EXIT_NOT_CYCLIC)
    except ValueError as exc:
        return _error(exc)

    text = _dumps(_report_json(report))
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


# verify's per-dimension columns, in the order both outputs give them
VERIFY_COLUMNS = ("classifications", "phases", "one_query_insufficient", "classical_two_queries")


def _mark(check: bool) -> str:
    return "ok" if check else "FAIL"


def _witness(witnesses: dict, check: str, d: int, p: Permutation, expected, observed) -> None:
    """Keep the first failing permutation of a check; a later failure of it adds nothing."""
    witnesses.setdefault(check, {"dim": d, "permutation": list(p.image), "expected": expected, "observed": observed})


def cmd_verify(args) -> int:
    rows = []
    parity_matches = True
    t0 = time.perf_counter()
    dims = range(3, args.dmax + 1)
    families = [enumerate_cyclic(d) for d in dims]
    # every member's one-query run at once: run_quantum's class, its refusal read as not-cyclic, and phase
    classes, phases = _run_quantum_table(families)
    outcomes = zip(classes, phases.tolist())
    for d, family in zip(dims, families):
        table = phase_table(d)
        witnesses = {}  # failing check -> its first witness; stays empty on a passing row
        # family first, so zip takes no outcome past this family's last member
        for i, (p, (seen, phase)) in enumerate(zip(family, outcomes)):
            # the enumeration's order is its labels: rotation(d, i), then reflection(d, i - d)
            chirality = Chirality.POSITIVE if i < d else Chirality.NEGATIVE
            want = table[chirality, i % d]
            if seen is not chirality:
                _witness(witnesses, "classifications", d, p, chirality.value, seen.value)
            elif not abs(phase - want) <= DEFAULT_TOL:  # a NaN phase fails
                _witness(witnesses, "phases", d, p, _complex_json(want), _complex_json(phase))
            c = run_classical(p)
            if c.classification is not chirality or c.oracle_queries != 2:
                expected = {"classification": chirality.value, "oracle_queries": 2}
                observed = {"classification": c.classification.value, "oracle_queries": c.oracle_queries}
                _witness(witnesses, "classical_two_queries", d, p, expected, observed)
            if d == 3:
                parity_matches &= (chirality is Chirality.POSITIVE) == (parity(p) == 1)
        if not one_query_insufficient(d):
            witnesses["one_query_insufficient"] = {"dim": d}
        row = {"dim": d, **{column: column not in witnesses for column in VERIFY_COLUMNS}}
        if witnesses:
            row["witnesses"] = witnesses
        rows.append(row)
    elapsed = time.perf_counter() - t0
    ok = parity_matches and not any("witnesses" in row for row in rows)

    if args.json:
        print(_dumps({"rows": rows, "parity_is_chirality_at_dim3": parity_matches, "ok": ok}))
    else:
        for row in rows:
            marks = "  ".join(f"{column}={_mark(row[column])}" for column in VERIFY_COLUMNS)
            print(f"d={row['dim']:2d}  {marks}")
            for check, witness in row.get("witnesses", {}).items():
                print(f"      {check} witness: {json.dumps(witness, sort_keys=True)}")
        print(f"d= 3  chirality coincides with even/odd parity: {_mark(parity_matches)}")
        print(f"{'all checks passed' if ok else 'FAILURES detected'} in {elapsed:.2f}s")
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


@functools.cache
def _csv_labels(shape: tuple[int, int]) -> tuple[str, ...]:
    """The "i,j," that starts each row of a CSV of this shape, in C order, built once per shape (1.7% of exact-cli)."""
    rows, cols = shape
    return tuple(f"{i},{j}," for i in range(1, rows + 1) for j in range(1, cols + 1))


def _write_csv(path: str, data: np.ndarray) -> None:
    # tolist() gives Python floats, whose repr is that of the numpy scalars;
    # ravel() reads a strided .real or .imag view in C order, as the labels run
    rows = [f"{label}{v!r}\n" for label, v in zip(_csv_labels(data.shape), data.ravel().tolist())]
    _write(path, "i,j,value\n" + "".join(rows))


def cmd_nmr(args) -> int:
    # the pulse layer loads only here; run and verify never import it
    from .protocol import run_protocol
    from .smp import OptimizerConfig, segments_to_json

    oracle, stage = GATE_MAP[args.gate]

    # OptimizerConfig fields a --config file may set and a flag of the same
    # name overrides (max_iter has no flag); the report echoes them.
    config_keys = tuple(f.name for f in dataclasses.fields(OptimizerConfig))
    overrides = {k: getattr(args, k) for k in config_keys if getattr(args, k, None) is not None}
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
    except (OSError, ValueError, RecursionError) as exc:
        return _error(f"bad optimizer config: {exc}")

    outdir = args.out if args.out is not None else os.environ.get("QUDITCYCLE_OUTDIR") or "."
    try:
        if not os.path.isdir(outdir):  # one stat where makedirs makes three calls and raises: 2.7% of exact-cli
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


def _checked(cast, check):
    """argparse type: cast(text), refused by check(value) with check's ValueError as the option's error line.

    Text that cast refuses raises ValueError out of here, which argparse words
    as "invalid <cast> value: 'x'"; every other refusal is worded by linalg.
    """

    def parse(text: str):
        value = cast(text)
        try:
            check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    parse.__name__ = cast.__name__
    return parse


def _choice(choices, name: str) -> dict:
    """add_argument's type and metavar for a string choice: check_choice's refusal, argparse's {a,b} usage text."""
    return {"type": _checked(str, lambda v: check_choice(v, choices, name)), "metavar": "{" + ",".join(choices) + "}"}


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
    run_p.add_argument("--mode", **_choice(("quantum", "classical"), "mode"), default="quantum")
    run_p.add_argument(
        "--fourier",
        type=_checked(str, FourierKind),
        metavar="{" + ",".join(FOURIER_VARIANTS) + "}",
        default="general",
        help="Fourier convention: general labels 1..d, or the 3-level spin basis",
    )
    run_p.add_argument("--relabel", default=None, help="relabeling permutation, e.g. \"1,3,2,4\"")
    run_p.add_argument("--json", action="store_true", help="machine-readable output only")
    run_p.add_argument("--out", default=None, help="write the report JSON to this file")

    ver_p = sub.add_parser("verify", help="check the simulator's promises over a range of dims")
    dmax = _checked(int, lambda v: check_range(v, "dmax", 3, MAX_DIM))
    ver_p.add_argument("--dmax", type=dmax, default=8, metavar=f"3..{MAX_DIM}")
    ver_p.add_argument("--json", action="store_true")

    nmr_p = sub.add_parser("nmr", help="run the spin-3/2 pulse protocol")
    nmr_p.add_argument("--gate", required=True, **_choice(tuple(sorted(GATE_MAP)), "gate"))
    nmr_p.add_argument("--seed", type=int, default=None, help="optimizer seed (default 0); overrides --config")
    nmr_p.add_argument("--ideal", action="store_true", help="use exact gates instead of pulses")
    nmr_p.add_argument("--epsilon", type=_checked(float, check_epsilon), default=1e-5)
    nmr_p.add_argument("--config", default=None, help="JSON file with optimizer settings")
    nmr_p.add_argument("--segments", type=int, default=None)
    nmr_p.add_argument("--restarts", type=int, default=None)
    nmr_p.add_argument("--min-fidelity", type=float, default=None)
    nmr_p.add_argument(
        "--noise-sigma",
        type=_checked(float, check_sigma),
        default=None,
        help="simulated readout noise",
    )
    nmr_p.add_argument("--noise-seed", type=_checked(int, check_seed), default=0)
    nmr_p.add_argument("--out", default=None, help="output directory (default $QUDITCYCLE_OUTDIR)")
    nmr_p.add_argument("--json", action="store_true")

    ap.commands = sub.choices  # command name -> its subparser, for _parse, whose hand-off is 6.1% of exact-cli
    return ap


def _parse(argv) -> argparse.Namespace:
    """build_parser().parse_args(argv), with a command's arguments parsed once, by its own subparser.

    The top-level parser would match every token and then hand the same tokens
    to that subparser. Any other argv (help, no command or an unknown one, a
    "--"), and one the subparser leaves unrecognized, goes to the top-level
    parser, so help, usage and error lines are argparse's own.
    """
    ap = build_parser()
    argv = _sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in ap.commands and "--" not in argv:
        args, extras = ap.commands[argv[0]].parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not extras:
            return args
    return ap.parse_args(argv)


def main(argv=None) -> int:
    # stdout, argparse's help and usage included, is held and written in one
    # place, so an OSError there is stdout's own and never one from the command
    held = io.StringIO()
    with contextlib.redirect_stdout(held):
        try:
            args = _parse(argv)
        except SystemExit as exc:  # raised again once the held text is out
            code = exc
        else:
            # looked up by name on each call, so a replaced module attribute takes effect
            code = globals()[f"cmd_{args.command}"](args)
    try:
        if held.tell():  # a usage error holds nothing, and an empty write fails on a full device
            _sys.stdout.write(held.getvalue())
            _sys.stdout.flush()
    except OSError as exc:
        # point stdout at devnull so the interpreter's flush at exit is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), _sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):  # the reader has gone
            return EXIT_BROKEN_PIPE
        return _error(f"cannot write output: {exc}")
    if isinstance(code, SystemExit):
        raise code
    return code
