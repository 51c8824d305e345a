"""Operator command line.

Four subcommands cover the desk workflow: `enroll` builds challenge
maps from device readouts and reports extraction efficiency, `update`
drives end-to-end firmware sessions (optionally under the harvested-
power model and channel tampering), `analyze` emits reliability and
entropy tables, and `attack` demonstrates the helper-data coset bound
at toy scale. Output is tab-separated text with '#' section markers so
any plotting tool can consume it.

Exit codes: 0 ok/committed, 2 usage, 3 bad input or enrollment
material, 10 rejected by token, 11 key recovery failure, 12 brownout,
13 timeout.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
from functools import partial
from pathlib import Path
from typing import Callable

from . import bch, enroll, fuzzy, gen2, powersim, protocol, puf
from .protocol import CHUNK_WORDS, START_WORD, TamperPolicy, UpdateOutcome

EXIT_OK = 0
EXIT_INPUT = 3

# cmd_analyze reads trial j of each readout row at trial seed base + offset + j,
# with offsets 100 apart; more trials would read another row's readouts again
ANALYZE_MAX_TRIALS = 100

OUTCOME_EXIT = {
    UpdateOutcome.COMMITTED: 0,
    UpdateOutcome.REJECTED_BY_TOKEN: 10,
    UpdateOutcome.KEY_RECOVERY_FAILURE: 11,
    UpdateOutcome.BROWNOUT_ABORTED: 12,
    UpdateOutcome.TIMEOUT: 13,
}


class InputError(Exception):
    """Bad device source, image, or enrollment material."""


# ------------------------------------------------------------- input loading

def load_device(source: str, seed: int) -> puf.PufDevice:
    if source == "synthetic":
        return puf.synth_device(seed=seed)
    if source.startswith("dump:"):
        path = source[len("dump:"):]
        try:
            return puf.device_from_dump(puf.read_dump(path), seed=seed)
        except (OSError, ValueError) as exc:
            raise InputError(f"cannot load dump {path!r}: {exc}") from exc
    raise InputError(f"unknown device source {source!r} (synthetic or dump:<path>)")


def enroll_checked(device: puf.PufDevice, device_id: str) -> enroll.EnrollmentRecord:
    try:
        return enroll.enroll_device(device, device_id)
    except enroll.InsufficientMaterialError as exc:
        raise InputError(f"{device_id}: {exc}") from exc


def load_image(name: str) -> protocol.FirmwareImage:
    demos = protocol.demo_images()
    if name in demos:
        return demos[name]
    path = Path(name)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise InputError(f"cannot load image {name!r}: {exc}") from exc
    if not data:
        raise InputError(f"image {name!r} is empty")
    return protocol.FirmwareImage(data)


def parse_code(text: str) -> bch.BchParams:
    try:
        n, k, t = (int(x) for x in text.split(","))
        return bch.make_code(n, k, t)
    except (ValueError, bch.UnsupportedCodeError) as exc:
        raise argparse.ArgumentTypeError(f"bad code {text!r}: {exc}") from exc


def _int_at_least(text: str, low: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
    return value


def positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def non_negative_int(text: str) -> int:
    return _int_at_least(text, 0)


def analyze_trials(text: str) -> int:
    value = positive_int(text)
    if value > ANALYZE_MAX_TRIALS:
        raise argparse.ArgumentTypeError(
            f"must be at most {ANALYZE_MAX_TRIALS}, got {value}")
    return value


def positive_float(text: str) -> float:
    """A positive, finite number whose square is too (distances enter as d*d)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (value > 0 and 0 < value * value < math.inf):
        raise argparse.ArgumentTypeError(
            f"must be positive with a finite, nonzero square, got {text!r}")
    return value


def tamper_rule(text: str) -> tuple[str, int | None]:
    """Split a --tamper rule into (policy, index).

    chunk:<i> and drop:<frame> must carry an integer index; any other rule
    comes back whole with no index. Policy names and index ranges are
    checked against the image in parse_tamper.
    """
    kind, sep, index = text.partition(":")
    if not (sep and kind in ("chunk", "drop")):
        return text, None
    try:
        return kind, int(index)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad index in tamper rule {text!r}") from None


def out_path(text: str) -> str:
    """An --out directory; an empty path would mean the working directory."""
    if not text:
        raise argparse.ArgumentTypeError("must name a directory")
    return text


def out_dir(args: argparse.Namespace) -> Path | None:
    if args.out is None:
        return None
    path = Path(args.out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot create output directory {args.out!r}: {exc}") from exc
    return path


def write_out(path: Path, text: str) -> None:
    """Write one --out file; a path that cannot take it is an input error."""
    try:
        path.write_text(text)
    except OSError as exc:
        raise InputError(f"cannot write {str(path)!r}: {exc}") from exc


def emit(lines: list[str], dest: Path | None, name: str) -> None:
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if dest is not None:
        write_out(dest / name, text)
        sys.stdout.write(f"# wrote\t{dest / name}\n")


# ------------------------------------------------------------------- enroll

def cmd_enroll(args: argparse.Namespace) -> int:
    dest = out_dir(args)
    if args.device != "synthetic" and args.devices != 1:
        raise InputError("--devices requires the synthetic source")
    lines = ["# enroll", "device\tblocks\tbits\tefficiency_pct"]
    for i in range(args.devices):
        seed = args.seed + i
        device = load_device(args.device, seed)
        device_id = f"dev-{seed:04d}"
        record = enroll_checked(device, device_id)
        blocks = len(record.crp_map)
        eff = 100.0 * enroll.efficiency(record.crp_map)
        lines.append(f"{device_id}\t{blocks}\t{blocks * enroll.BLOCK_BITS}\t{eff:.3g}")
        if dest is not None:
            write_out(dest / f"{device_id}.record.txt",
                      enroll.record_to_text(record))
    emit(lines, dest, "enroll.tsv")
    return EXIT_OK


# ------------------------------------------------------------------- update

class Relay(protocol.Channel):
    """Mutates (protocol.mutate_payload) every frame whose decoded view hit() picks."""

    def __init__(self, token: protocol.TokenSim,
                 hit: Callable[[gen2.CommandView], bool]) -> None:
        super().__init__(token)
        self.hit = hit

    def send(self, frame: gen2.Gen2Frame) -> protocol.Reply:
        if self.hit(gen2.decode(frame)):
            frame = protocol.mutate_payload(frame)
        return super().send(frame)


def parse_tamper(rule: tuple[str, int | None], image: protocol.FirmwareImage
                 ) -> Callable[[protocol.TokenSim], protocol.Channel]:
    """The channel factory of a (policy, index) rule as split by tamper_rule.

    mac and chunk:<i> mutate that frame's payload in every attempt,
    wherever that frame falls, so a retry meets the same tamper;
    drop:<frame> drops the frame at that delivery index.
    """
    kind, idx = rule
    chunks = math.ceil(image.total_bytes / (2 * CHUNK_WORDS))
    if idx is None:
        if kind == "none":
            return protocol.Channel
        if kind == "mac":
            return partial(Relay, hit=lambda view: isinstance(view, gen2.SecureComm))
        raise InputError(f"unknown tamper policy {kind!r}")
    if kind == "chunk":
        if not 0 <= idx < chunks:
            raise InputError(f"chunk index out of range in 'chunk:{idx}'")
        return partial(Relay, hit=lambda view: isinstance(view, gen2.BlockWrite) and
                       view.membank == 3 and view.wordptr == START_WORD + idx * CHUNK_WORDS)
    if not 0 <= idx <= 3 + chunks:   # privilege, setup, auth, chunks..., then the tag
        raise InputError(f"frame index out of range in 'drop:{idx}'")
    return partial(protocol.Channel, policy=TamperPolicy(drops=frozenset({idx})))


def cmd_update(args: argparse.Namespace) -> int:
    dest = out_dir(args)
    device = load_device(args.device, args.seed)
    token_id = f"dev-{args.seed:04d}"
    record = enroll_checked(device, token_id)
    db = protocol.ProverDb()
    db.add(record)
    image = load_image(args.image)
    make_channel = parse_tamper(args.tamper, image)

    lines = ["# update", "trial\toutcome\tframes\tlatency_ms"]
    committed = 0
    exit_code = EXIT_OK
    for trial in range(args.trials):
        harvest = None if args.distance_cm is None else powersim.Harvest(
            args.distance_cm, args.sleep_ms, powersim.draw_kappa(args.seed, trial))
        token = protocol.TokenSim(
            device, record.crp_map, session_seed=args.seed * 1000 + trial,
            harvest=harvest,
        )
        channel = make_channel(token)
        outcome = protocol.prover_update(db, token_id, image, channel)
        committed += outcome is UpdateOutcome.COMMITTED
        # a powered token's own clock: each charge, boot and frame of all attempts
        shown = "-" if token.energy is None else f"{token.energy.time_ms:.3f}"
        lines.append(f"{trial}\t{outcome.name}\t{len(channel.frames)}\t{shown}")
        exit_code = OUTCOME_EXIT[outcome]
        if dest is not None:
            write_out(dest / f"transcript-{trial}.txt",
                      "\n".join(f.to_hex() for f in channel.frames) + "\n")
    lines.append(f"# committed\t{committed}/{args.trials}")
    emit(lines, dest, "update.tsv")
    return exit_code


# ------------------------------------------------------------------ analyze

def cmd_analyze(args: argparse.Namespace) -> int:
    dest = out_dir(args)
    device = load_device(args.device, args.seed)
    record = enroll_checked(device, f"dev-{args.seed:04d}")
    cfg = fuzzy.FeConfig(code=args.code, blocks=args.blocks)
    base = 9_000_000 + args.seed * 10_000

    nominal = enroll.NOMINAL_TEMP
    lines = ["# ber_vs_temperature", "temperature_c\traw_ber\tpipeline_ber"]
    (ref_region,) = enroll.eligible_reads(device, [nominal], 1, base)
    for i, temp in enumerate((0.0, 10.0, 25.0, 40.0)):
        trials = enroll.eligible_reads(device, [temp], args.trials, base + 100 * (i + 1))
        raw = puf.ber(ref_region, trials)
        pipe = enroll.measure_pipeline_ber(device, record, (temp,), args.trials,
                                           base + 10_000 * (i + 1))
        lines.append(f"{temp:g}\t{raw:.6g}\t{pipe:.6g}")

    raw = enroll.eligible_reads(device, [nominal], args.trials, base + 900)
    reads = enroll.eligible_reads(device, [nominal], args.trials, base + 1300)
    pipe = enroll.response_bits(record.crp_map, reads, first_cell=enroll.ELIGIBLE_CELLS[0])
    lines += ["# bias", "stage\tmean_one_prob",
              f"raw\t{puf.bias(raw):.5f}", f"pipeline\t{puf.bias(pipe):.5f}"]

    lines += ["# p_fail_vs_ber", "ber\tp_fail"]
    for ber in (0.001, 0.0025, 0.005, 0.0075, 0.0094, 0.0125, 0.015, 0.02):
        lines.append(f"{ber:g}\t{fuzzy.key_failure_prob(ber, cfg):.6g}")

    lines += ["# residual_min_entropy", "bias\tbits"]
    for b in (0.5, 0.501, 0.499, 0.51, 0.5374, 0.55):
        lines.append(f"{b:g}\t{fuzzy.residual_min_entropy(b, cfg):.6g}")

    emit(lines, dest, "analyze.tsv")
    return EXIT_OK


# ------------------------------------------------------------------- attack

def cmd_attack(args: argparse.Namespace) -> int:
    dest = out_dir(args)
    code = args.code
    if code.n > 20:
        raise InputError(
            f"coset enumeration needs a toy code, not ({code.n},{code.k},{code.t})"
        )
    cfg = fuzzy.FeConfig(code=code, blocks=1)
    rng = random.Random(args.seed)
    response = sum(rng.randrange(2) << i for i in range(cfg.response_bits))
    _, helper = fuzzy.fe_gen(response, cfg)
    candidates = list(fuzzy.coset_candidates(helper, cfg))

    tampered_set = set(fuzzy.coset_candidates(helper ^ 1, cfg))
    overlap = len(tampered_set & set(candidates))

    full = fuzzy.default_config()
    lines = [
        "# attack_demo",
        f"code\t({code.n},{code.k},{code.t})",
        "helper\t" + f"{helper:0{cfg.helper_bits}b}"[::-1],   # bit 0 first
        f"candidates\t{len(candidates)}",
        f"expected\t2^{code.k} = {2 ** code.k}",
        f"true_response_in_candidates\t{'yes' if response in candidates else 'no'}",
        f"tampered_helper_overlap\t{overlap}",
        "# full_scale_extrapolation",
        f"code\t({full.code.n},{full.code.k},{full.code.t}) x {full.blocks}",
        f"brute_force_complexity\t2^{full.key_bits}",
    ]
    emit(lines, dest, "attack.tsv")
    return EXIT_OK


# --------------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crfidsim",
        description="Wireless firmware-update simulator for "
                    "intermittently powered RFID tokens.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=non_negative_int, default=0)
        p.add_argument("--device", default="synthetic",
                       help="synthetic or dump:<path>")
        p.add_argument("--out", type=out_path, default=None,
                       help="directory for output files")

    p_enroll = sub.add_parser("enroll", help="build challenge maps and report "
                                             "extraction efficiency")
    common(p_enroll)
    p_enroll.add_argument("--devices", type=positive_int, default=1)
    p_enroll.set_defaults(func=cmd_enroll)

    p_update = sub.add_parser("update", help="run end-to-end update sessions")
    common(p_update)
    p_update.add_argument("--image", default="blinky",
                          help="blinky, sense, boot-shim, or a file path")
    p_update.add_argument("--distance-cm", type=positive_float, default=None)
    p_update.add_argument("--sleep-ms", type=float, default=0,
                          choices=powersim.SLEEP_CHOICES)
    p_update.add_argument("--trials", type=positive_int, default=1)
    p_update.add_argument("--tamper", type=tamper_rule, default="none",
                          help="none, mac, chunk:<i>, or drop:<frame>")
    p_update.set_defaults(func=cmd_update)

    p_analyze = sub.add_parser("analyze", help="emit reliability and entropy "
                                               "tables")
    common(p_analyze)
    p_analyze.add_argument("--code", type=parse_code,
                           default=bch.make_code(31, 16, 3))
    p_analyze.add_argument("--blocks", type=positive_int, default=8)
    p_analyze.add_argument("--trials", type=analyze_trials, default=5)
    p_analyze.set_defaults(func=cmd_analyze)

    p_attack = sub.add_parser("attack", help="helper-data coset demonstration")
    common(p_attack)
    p_attack.add_argument("--code", type=parse_code,
                          default=bch.make_code(7, 4, 1))
    p_attack.set_defaults(func=cmd_attack)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "update" and args.sleep_ms and args.distance_cm is None:
        parser.error("--sleep-ms needs --distance-cm")
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
