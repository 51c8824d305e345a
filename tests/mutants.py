"""Hand-written mutants of the token, the prover's retry, Gen2 decoding, the
CLI's input checks, the Monte-Carlo kernel and enrollment, and a runner that
shows Tier-1 kills each.

Each entry of MUTANTS is (module, exact old text, new text, name): one
textual change to src/crfidsim/<module>.py. The runner copies src/, tests/,
bench/ (which two tests import) and pyproject.toml to a temporary directory,
applies one mutant there and runs ``pytest -x -q tests``, leaving out
tests/test_mutants.py. A mutant is killed when that run fails. The unmutated
copy runs first and must pass. tests/test_mutants.py checks that each old
text occurs exactly once, so a refactor that moves a check must move its
mutant too; a mutated copy fails that check by construction, which is why
the runs leave it out.

    python tests/mutants.py          # every mutant
    python tests/mutants.py NAME...  # only the named ones

Exits 1 if any mutant survives, 2 if the unmutated copy fails. Stdlib only;
pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MUTANTS = (
    # token_boot: the temperature gate
    ("protocol", "if not TEMP_LEGAL_MIN <= temperature <= TEMP_LEGAL_MAX:",
     "if not TEMP_LEGAL_MIN < temperature < TEMP_LEGAL_MAX:", "boot-gate-strict"),
    ("protocol", "if not TEMP_LEGAL_MIN <= temperature <= TEMP_LEGAL_MAX:",
     "if False:", "boot-gate-gone"),
    # token_handle: a halted token and undecodable frames
    ("protocol", "if state.mode is TokenMode.HALTED:", "if False:", "halted-answers"),
    ("protocol",
     "except gen2.WordPtrRangeError:\n        return state, Nak(ErrorCode.BAD_WORDPTR), False",
     "except gen2.WordPtrRangeError:\n        return state, None, False",
     "wordptr-range-silent"),
    ("protocol",
     "except (gen2.BadCrcError, gen2.UnknownDiscriminatorError, gen2.FrameFormatError):\n"
     "        return state, None, False",
     "except (gen2.BadCrcError, gen2.UnknownDiscriminatorError, gen2.FrameFormatError):\n"
     "        return state, Nak(ErrorCode.BAD_SETUP), False",
     "malformed-frame-naks"),
    ("protocol",
     "except (gen2.BadCrcError, gen2.UnknownDiscriminatorError, gen2.FrameFormatError):",
     "except gen2.BadCrcError:", "malformed-frame-raises"),
    # TagPrivilege
    ("protocol", "if state.mode is TokenMode.KEY_READY and state.setup is None:",
     "if False:", "privilege-key-ready-resets"),
    ("protocol", "state.nvm.firmware_update_flag = True", "pass", "privilege-no-flag"),
    ("protocol", 'Ack("privilege"), True', 'Ack("privilege"), False',
     "privilege-no-reset"),
    # setup write
    ("protocol", "if view.wordptr != SETUP_WORDPTR:", "if False:", "setup-any-wordptr"),
    ("protocol",
     "if state.mode is not TokenMode.KEY_READY:\n"
     "            return state, Nak(ErrorCode.BAD_MODE), False",
     "if False:\n            return state, Nak(ErrorCode.BAD_MODE), False",
     "setup-any-mode"),
    ("protocol", "if len(view.words) != 4:", "if False:", "setup-any-length"),
    ("protocol", "state.setup = UpdateSetup.from_words(view.words)", "pass",
     "setup-not-stored"),
    # Authenticate
    ("protocol",
     "if state.mode is not TokenMode.KEY_READY:\n"
     "            return state, Nak(ErrorCode.BAD_MODE), True",
     "if False:\n            return state, Nak(ErrorCode.BAD_MODE), True",
     "auth-any-mode"),
    ("protocol",
     "return state, Nak(ErrorCode.BAD_MODE), True\n        setup = state.setup\n"
     "        if setup is None:",
     "return state, Nak(ErrorCode.BAD_MODE), False\n        setup = state.setup\n"
     "        if setup is None:",
     "auth-bad-mode-no-reset"),
    ("protocol", "if setup is None:", "if False:", "auth-no-setup-check"),
    ("protocol", "Nak(ErrorCode.BAD_SETUP), True", "Nak(ErrorCode.BAD_SETUP), False",
     "auth-no-setup-no-reset"),
    ("protocol", "if view.csi != CSI_CMAC_AES128 or ", "if ", "auth-any-csi"),
    ("protocol", " or setup.method != METHOD_CMAC_AES128:", ":", "auth-any-method"),
    ("protocol", "Nak(ErrorCode.BAD_METHOD), True", "Nak(ErrorCode.BAD_METHOD), False",
     "auth-bad-method-no-reset"),
    ("protocol", "if setup.start_word >= area_bytes // 2:",
     "if setup.start_word > area_bytes // 2:", "auth-start-word-off-by-one"),
    ("protocol", "Nak(ErrorCode.BAD_WORDPTR), True", "Nak(ErrorCode.BAD_WORDPTR), False",
     "auth-bad-wordptr-no-reset"),
    ("protocol", "if setup.size <= 0 or ", "if ", "auth-empty-size"),
    ("protocol", "2 * setup.start_word + setup.size > area_bytes:",
     "2 * setup.start_word + setup.size >= area_bytes:", "auth-size-off-by-one"),
    ("protocol", "Nak(ErrorCode.SIZE_TOO_LARGE), True",
     "Nak(ErrorCode.SIZE_TOO_LARGE), False", "auth-too-large-no-reset"),
    ("protocol", "state.nvm.download_area[off : off + setup.size] = bytes(setup.size)",
     "pass", "auth-no-zeroing"),
    ("protocol", "state.mode = TokenMode.FIRMWARE_UPDATE", "pass", "auth-mode-kept"),
    # chunk write
    ("protocol", "if view.membank != 3:", "if False:", "chunk-any-membank"),
    ("protocol",
     "if state.mode is not TokenMode.FIRMWARE_UPDATE:\n"
     "            return state, Nak(ErrorCode.BAD_MODE), False",
     "if False:\n            return state, Nak(ErrorCode.BAD_MODE), False",
     "chunk-any-mode"),
    ("protocol", "if view.wordptr + len(view.words) > area_words:",
     "if view.wordptr + len(view.words) >= area_words:", "chunk-bound-off-by-one"),
    ("protocol", 'f">{len(view.words)}H", *view.words',
     'f">{len(view.words)}H", *(w ^ 1 for w in view.words)', "chunk-bits-flipped"),
    # SecureComm and the commit
    ("protocol",
     "if state.mode is not TokenMode.FIRMWARE_UPDATE:\n"
     "        return state, Nak(ErrorCode.BAD_MODE), True",
     "if False:\n        return state, Nak(ErrorCode.BAD_MODE), True",
     "tag-any-mode"),
    ("protocol",
     "return state, Nak(ErrorCode.BAD_MODE), True\n    setup = state.setup\n"
     "    s_prime",
     "return state, Nak(ErrorCode.BAD_MODE), False\n    setup = state.setup\n"
     "    s_prime",
     "tag-bad-mode-no-reset"),
    ("protocol", "if mac.mac_firmware(received, state.auth.nonce, state.key) != s_prime:",
     "if False:", "tag-unchecked"),
    ("protocol", "Nak(ErrorCode.MAC_MISMATCH), True", "Nak(ErrorCode.MAC_MISMATCH), False",
     "tag-mismatch-no-reset"),
    ("protocol", "state.nvm.app_area[off : off + setup.size] = received", "pass",
     "commit-no-copy"),
    ("protocol", "state.nvm.firmware_update_flag = False", "pass", "commit-flag-kept"),
    ("protocol", 'Ack("commit"), True', 'Ack("commit"), False', "commit-no-reset"),
    # TokenSim: a brownout, and the reset that token_handle asks for
    ("protocol", "self.state = TokenState(TokenMode.HALTED, self.nvm)",
     "self.state.mode = TokenMode.HALTED", "brownout-keeps-keys"),
    ("protocol", "self.brownout_pending = True", "pass", "brownout-not-pending"),
    ("protocol", "if reset:\n            self.power_cycle()", "if False:\n            pass",
     "reset-ignored"),
    # TokenSim: a powered token charges the tag check only on a decoded SecureComm
    ("protocol",
     "except ValueError:   # token_handle ignores or rejects the frame\n"
     "                pass",
     "except ValueError:   # token_handle ignores or rejects the frame\n"
     "                return (powersim.FRAME, powersim.mac_op(self.state.setup.size + 16))",
     "frame-ops-mac-on-undecodable"),
    # the prover: which endings a fresh boot retries, and when the field cycles
    ("protocol", "reply.code is ErrorCode.MAC_MISMATCH", "False",
     "mac-mismatch-not-retried"),
    ("protocol", "if outcome is UpdateOutcome.BROWNOUT_ABORTED:",
     "if outcome is not None:", "field-cycled-every-retry"),
    # gen2.decode: the structure checks behind a valid CRC
    ("gen2", "if len(f.words) < 1:", "if False:", "empty-write-accepted"),
    ("gen2", "if len(f.words) != 9:", "if False:", "wrapper-any-length"),
    ("gen2", "for _ in range(EBV_MAX_GROUPS):", "for _ in range(EBV_MAX_GROUPS + 1):",
     "ebv-sixth-group-read"),
    # the CLI's checks of an image file and of --tamper indexes
    ("cli", "if not data:", "if False:", "cli-empty-image-accepted"),
    ("cli", "if not 0 <= idx < chunks:", "if False:", "cli-chunk-index-unchecked"),
    ("cli", "if not 0 <= idx <= 3 + chunks:", "if False:", "cli-drop-index-unchecked"),
    # fuzzy.run_sessions: a session fails when some block has more than t errors
    ("fuzzy", "np.bitwise_count(e) > cfg.code.t", "np.bitwise_count(e) >= cfg.code.t",
     "mc-weight-at-t-fails"),
    ("fuzzy", "cfg.code.t).any(axis=1)", "cfg.code.t).all(axis=1)", "mc-every-block-fails"),
    # enroll: screening, the reference bits, the block->cell rule and the BER
    ("enroll", "keep = stable & ~tie", "keep = stable", "enroll-tie-kept"),
    ("enroll", "weights = 1 << np.arange(8)", "weights = 1 << np.arange(7, -1, -1)",
     "enroll-ref-bits-msb-first"),
    ("enroll", "if v.bit_count() == 4}", "if v.bit_count() >= 4}", "enroll-debias-any-weight"),
    ("enroll", "[:, :, None] + np.arange(8)", "[:, :, None] + np.arange(1, 9)",
     "enroll-cell-off-by-one"),
    ("enroll", "if cells.min() < 0 or ", "if ", "enroll-window-no-low-check"),
    ("enroll", "np.count_nonzero(got != refs) / got.size",
     "np.count_nonzero(got != refs) / refs.size", "enroll-ber-wrong-total"),
)


def run_suite(mutant: tuple[str, str, str, str] | None = None) -> tuple[str, float]:
    """The suite's first failure ("" if it passed) and its seconds, run in a
    temporary copy with mutant applied."""
    with tempfile.TemporaryDirectory(prefix="crfidsim-mutant-") as tmp:
        work = Path(tmp)
        for part in ("src", "tests", "bench"):
            shutil.copytree(ROOT / part, work / part,
                            ignore=shutil.ignore_patterns("__pycache__", "results"))
        shutil.copy2(ROOT / "pyproject.toml", work / "pyproject.toml")
        if mutant is not None:
            module, old, new, _ = mutant
            target = work / "src" / "crfidsim" / f"{module}.py"
            text = target.read_text()
            if text.count(old) != 1:
                raise ValueError(f"old text occurs {text.count(old)} times in {module}.py")
            target.write_text(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--ignore=tests/test_mutants.py", "tests"],
            cwd=work, env=env, capture_output=True, text=True,
        )
        seconds = time.perf_counter() - start
        if result.returncode == 0:
            return "", seconds
        failures = [line for line in result.stdout.splitlines()
                    if line.startswith(("FAILED ", "ERROR "))]
        return (failures[0] if failures else f"exit {result.returncode}"), seconds


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m[3] in names]
    unknown = set(names) - {m[3] for m in MUTANTS}
    if unknown:
        print(f"unknown mutant(s): {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    failure, seconds = run_suite()
    print(f"{'FAILED' if failure else 'passed'} {seconds:6.1f} s  unmutated copy  "
          f"{failure}", flush=True)
    if failure:
        return 2
    survivors = []
    for mutant in chosen:
        name = mutant[3]
        failure, seconds = run_suite(mutant)
        print(f"{'killed  ' if failure else 'SURVIVED'} {seconds:6.1f} s  {name}  "
              f"{failure}", flush=True)
        if not failure:
            survivors.append(name)
    print(f"{len(chosen) - len(survivors)} killed, {len(survivors)} survived, "
          f"{time.perf_counter() - start:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
