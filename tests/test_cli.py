"""Subcommand behavior, exit codes, and output formats."""

import contextlib
import hashlib
import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crfidsim import cli, enroll, protocol, puf
from crfidsim.layout import DEFAULT_LAYOUT


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    return code, capsys.readouterr()


def rows_of(section, text):
    """Data rows of one '#'-marked section (header row skipped)."""
    lines = text.strip().split("\n")
    start = lines.index(f"# {section}")
    out = []
    for line in lines[start + 2 :]:
        if line.startswith("#"):
            break
        out.append(line.split("\t"))
    return out


class TestEnroll:
    def test_single_device_row(self, capsys):
        code, cap = run_cli(capsys, "enroll", "--seed", "11")
        assert code == 0
        rows = rows_of("enroll", cap.out)
        assert len(rows) == 1
        dev, blocks, bits, eff = rows[0]
        assert dev == "dev-0011"
        assert int(bits) == int(blocks) * 248
        device = puf.synth_device(seed=11)
        record = enroll.enroll_device(device, "dev-0011")
        assert int(blocks) == len(record.crp_map)
        assert eff == f"{100 * enroll.efficiency(record.crp_map):.3g}"

    def test_batch_meets_two_block_floor(self, capsys):
        code, cap = run_cli(capsys, "enroll", "--seed", "100", "--devices", "20")
        assert code == 0
        rows = rows_of("enroll", cap.out)
        assert len(rows) == 20
        assert all(int(r[1]) >= 2 for r in rows)

    def test_noiseless_device_maximal_blocks(self, capsys, tmp_path):
        device = puf.synth_device(stable_frac=1.0, noisy_epsilon=0.0, seed=5)
        dump = puf.collect_dump(device, 5, temperatures=(0.0, 25.0, 40.0),
                                readouts_per_temp=3)
        path = tmp_path / "clean.dump"
        puf.write_dump(str(path), dump)

        # independent block-count oracle straight from the cell probabilities
        bits = (device.cell_one_prob > 0.5).astype(int)
        lo = DEFAULT_LAYOUT.eligible_start
        hi = lo + DEFAULT_LAYOUT.eligible_bytes
        weights = bits[8 * lo : 8 * hi].reshape(-1, 8).sum(axis=1)
        expected = int(np.count_nonzero(weights == 4)) // enroll.BLOCK_BYTES

        code, cap = run_cli(capsys, "enroll", "--device", f"dump:{path}")
        assert code == 0
        assert int(rows_of("enroll", cap.out)[0][1]) == expected

    def test_empty_dump_clean_error(self, capsys, tmp_path):
        path = tmp_path / "empty.dump"
        path.write_bytes(b"")
        code, cap = run_cli(capsys, "enroll", "--device", f"dump:{path}")
        assert code == 3
        assert "error:" in cap.err
        assert "Traceback" not in cap.err

    @pytest.mark.parametrize("keep", ["header", "last_readout"])
    def test_truncated_dump_clean_error(self, capsys, tmp_path, keep):
        device = puf.synth_device(seed=6)
        dump = puf.collect_dump(device, 6, temperatures=(25.0,), readouts_per_temp=2)
        path = tmp_path / "cut.dump"
        puf.write_dump(str(path), dump)
        data = path.read_bytes()
        path.write_bytes(data[:10] if keep == "header" else data[:-100])
        code, cap = run_cli(capsys, "enroll", "--device", f"dump:{path}")
        assert code == 3
        assert "truncated" in cap.err or "bad magic" in cap.err
        assert "Traceback" not in cap.err

    def test_dump_without_readouts_clean_error(self, capsys, tmp_path):
        path = tmp_path / "none.dump"
        path.write_bytes(puf.DUMP_MAGIC + struct.pack("<BIIH", puf.DUMP_VERSION, 1, 64, 0))
        code, cap = run_cli(capsys, "enroll", "--device", f"dump:{path}")
        assert code == 3
        assert "empty dump set" in cap.err

    def test_dump_temperature_outside_model_range_clean_error(self, capsys, tmp_path):
        path = tmp_path / "hot.dump"
        bits = np.zeros(64, dtype=np.uint8)
        puf.write_dump(str(path), puf.DumpSet(1, np.array([90.0]), bits[None]))
        code, cap = run_cli(capsys, "enroll", "--device", f"dump:{path}")
        assert code == 3
        assert "outside model range" in cap.err
        assert "Traceback" not in cap.err

    def test_dump_smaller_than_eligible_region_clean_error(self, capsys, tmp_path):
        device = puf.PufDevice(cell_one_prob=np.full(512, 0.5), rng_seed=4)
        path = tmp_path / "small.dump"
        puf.write_dump(str(path), puf.collect_dump(device, 4, temperatures=(25.0,),
                                                   readouts_per_temp=2))
        code, cap = run_cli(capsys, "enroll", "--device", f"dump:{path}")
        assert code == 3
        assert "does not cover the eligible region" in cap.err
        assert "Traceback" not in cap.err

    @settings(max_examples=300, deadline=None)
    @given(data=st.one_of(
        st.binary(max_size=300),
        st.binary(max_size=300).map(lambda b: puf.DUMP_MAGIC + b),
        st.binary(max_size=300).map(
            lambda b: puf.DUMP_MAGIC + bytes([puf.DUMP_VERSION]) + b),
    ))
    def test_arbitrary_dump_bytes_load_or_raise_input_error(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("fuzz") / "x.dump"
        path.write_bytes(data)
        try:
            cli.load_device(f"dump:{path}", 0)
        except cli.InputError:
            pass   # any other exception fails the test

    def test_batch_requires_synthetic(self, capsys, tmp_path):
        path = tmp_path / "x.dump"
        path.write_bytes(b"")
        code, cap = run_cli(
            capsys, "enroll", "--device", f"dump:{path}", "--devices", "3"
        )
        assert code == 3

    def test_out_dir_record_round_trip(self, capsys, tmp_path):
        code, cap = run_cli(
            capsys, "enroll", "--seed", "11", "--out", str(tmp_path)
        )
        assert code == 0
        assert (tmp_path / "enroll.tsv").exists()
        want = enroll.record_to_text(
            enroll.enroll_device(puf.synth_device(seed=11), "dev-0011"))
        assert (tmp_path / "dev-0011.record.txt").read_bytes() == want.encode()


class TestUpdate:
    def test_clean_commit(self, capsys):
        code, cap = run_cli(
            capsys, "update", "--seed", "11", "--image", "boot-shim"
        )
        assert code == 0
        (row,) = rows_of("update", cap.out)
        assert row[1] == "COMMITTED"
        assert row[2] == "8"
        assert row[3] == "-"
        assert "# committed\t1/1" in cap.out

    def test_all_demo_images_commit(self, capsys):
        for image in ("blinky", "sense", "boot-shim"):
            code, cap = run_cli(
                capsys, "update", "--seed", "11", "--image", image
            )
            assert code == 0, image

    def test_tampered_mac_rejected_every_trial(self, capsys):
        code, cap = run_cli(
            capsys, "update", "--seed", "11", "--image", "boot-shim",
            "--tamper", "mac", "--trials", "3",
        )
        assert code == 10
        rows = rows_of("update", cap.out)
        assert [r[1] for r in rows] == ["REJECTED_BY_TOKEN"] * 3

    def test_tampered_chunk_rejected(self, capsys):
        code, cap = run_cli(
            capsys, "update", "--seed", "11", "--image", "boot-shim",
            "--tamper", "chunk:0",
        )
        assert code == 10

    def test_mac_tamper_leaves_every_chunk_intact_after_a_brownout(self, capsys, tmp_path):
        """--tamper mac alters the tag in every attempt and nothing else:
        trial 9's first attempt browns out before its tag, so the later
        attempts start at other delivery indexes than a full attempt's."""
        code, cap = run_cli(
            capsys, "update", "--seed", "0", "--image", "blinky", "--distance-cm", "30",
            "--sleep-ms", "0", "--tamper", "mac", "--trials", "10", "--out", str(tmp_path),
        )
        assert rows_of("update", cap.out)[9][1:3] == ["BROWNOUT_ABORTED", "19"]
        from crfidsim.gen2 import BitString, BlockWrite, Gen2Frame, decode

        data = protocol.demo_images()["blinky"].assemble() + b"\x00"   # 399 bytes, padded to words
        words = struct.unpack(f">{len(data) // 2}H", data)
        writes = []
        for line in (tmp_path / "transcript-9.txt").read_text().splitlines():
            raw = bytes.fromhex(line)   # a BlockWrite ends in 6 pad bits
            try:
                view = decode(Gen2Frame(bits=BitString(int.from_bytes(raw, "big") >> 6,
                                                       8 * len(raw) - 6)))
            except ValueError:          # another command, padded otherwise
                continue
            if isinstance(view, BlockWrite) and view.membank == 3:
                writes.append(view)
        assert len(writes) == 10
        for view in writes:
            assert view.words == words[view.wordptr : view.wordptr + len(view.words)]

    def test_dropped_frame_times_out(self, capsys):
        code, cap = run_cli(
            capsys, "update", "--seed", "11", "--image", "boot-shim",
            "--tamper", "drop:4",
        )
        assert code == 13
        assert rows_of("update", cap.out)[0][1] == "TIMEOUT"

    def test_bad_tamper_and_bad_image(self, capsys):
        code, _ = run_cli(capsys, "update", "--tamper", "bogus")
        assert code == 3
        code, _ = run_cli(capsys, "update", "--image", "/no/such/file")
        assert code == 3

    def test_powered_close_range_commits(self, capsys):
        code, cap = run_cli(
            capsys, "update", "--seed", "11", "--image", "blinky",
            "--distance-cm", "20", "--sleep-ms", "30", "--trials", "5",
        )
        assert code == 0
        rows = rows_of("update", cap.out)
        committed = sum(r[1] == "COMMITTED" for r in rows)
        assert committed >= 4
        assert all(float(r[3]) > 0 for r in rows if r[1] == "COMMITTED")

    def test_overflowing_harvest_rate_commits(self, capsys):
        # at 1e-160 cm, kappa / d^2 overflows to inf; the token still boots
        argv = ("update", "--trials", "2", "--distance-cm")
        code, tiny = run_cli(capsys, *argv, "1e-160")
        _, small = run_cli(capsys, *argv, "1e-150")
        assert code == 0
        assert [r[1] for r in rows_of("update", tiny.out)] == ["COMMITTED"] * 2
        assert tiny.out == small.out

    def test_powered_far_range_browns_out(self, capsys, tmp_path):
        code, cap = run_cli(
            capsys, "update", "--seed", "11", "--image", "blinky",
            "--distance-cm", "80", "--sleep-ms", "0", "--trials", "4",
            "--out", str(tmp_path),
        )
        rows = rows_of("update", cap.out)
        assert any(r[1] == "BROWNOUT_ABORTED" for r in rows)
        browned = [r for r in rows if r[1] == "BROWNOUT_ABORTED"]
        for trial, _, frames, _ in browned:   # the frames actually delivered
            transcript = tmp_path / f"transcript-{trial}.txt"
            assert int(frames) == len(transcript.read_text().splitlines())
        assert code in (0, 12)

    def test_smaller_image_no_worse_under_power(self, capsys):
        def committed(image):
            _, cap = run_cli(
                capsys, "update", "--seed", "11", "--image", image,
                "--distance-cm", "40", "--sleep-ms", "0", "--trials", "40",
            )
            return sum(r[1] == "COMMITTED" for r in rows_of("update", cap.out))

        small = committed("boot-shim")   # 223 bytes
        large = committed("blinky")      # 399 bytes
        assert 0 < small < 40
        assert small >= large

    def test_transcript_file_decodable(self, capsys, tmp_path):
        code, _ = run_cli(
            capsys, "update", "--seed", "11", "--image", "boot-shim",
            "--out", str(tmp_path),
        )
        assert code == 0
        from crfidsim.gen2 import BitString, Gen2Frame, decode

        lines = (tmp_path / "transcript-0.txt").read_text().strip().split("\n")
        assert len(lines) == 8
        for line in lines:
            # a frame has 50 + 8*EBV + 16*words bits, so 6 pad bits per line
            data = bytes.fromhex(line)
            packed = int.from_bytes(data, "big")
            assert packed & 0x3F == 0
            decode(Gen2Frame(bits=BitString(packed >> 6, 8 * len(data) - 6)))

    def test_sleep_without_distance_is_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.run(["update", "--sleep-ms", "30", "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "--distance-cm" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_deterministic_under_seed(self, capsys):
        argv = ("update", "--seed", "7", "--image", "sense",
                "--distance-cm", "40", "--sleep-ms", "10", "--trials", "6")
        _, first = run_cli(capsys, *argv)
        _, second = run_cli(capsys, *argv)
        assert first.out == second.out


class TestAnalyze:
    @pytest.fixture(scope="class")
    def report(self, request):
        capsys = request.getfixturevalue("capsys")
        code, cap = run_cli(capsys, "analyze", "--seed", "11")
        assert code == 0
        return cap.out

    def test_p_fail_reference_point(self, capsys):
        _, cap = run_cli(capsys, "analyze", "--seed", "11", "--trials", "2")
        rows = {r[0]: r[1] for r in rows_of("p_fail_vs_ber", cap.out)}
        assert rows["0.0094"] == "0.00160318"

    def test_entropy_section(self, capsys):
        _, cap = run_cli(capsys, "analyze", "--seed", "11", "--trials", "2")
        rows = {r[0]: r[1] for r in rows_of("residual_min_entropy", cap.out)}
        assert rows["0.5"] == "128"
        assert rows["0.5374"].startswith("102.191")
        assert float(rows["0.501"]) == float(rows["0.499"])
        ordered = [float(rows[b]) for b in ("0.5", "0.501", "0.51", "0.5374", "0.55")]
        assert ordered == sorted(ordered, reverse=True)

    def test_ber_and_bias_sections(self, capsys):
        _, cap = run_cli(capsys, "analyze", "--seed", "11", "--trials", "4")
        for _, raw, pipe in rows_of("ber_vs_temperature", cap.out):
            assert float(pipe) <= 0.0094
            assert float(pipe) < float(raw)
        bias = {r[0]: float(r[1]) for r in rows_of("bias", cap.out)}
        assert abs(bias["pipeline"] - 0.499) < 0.005
        assert abs(bias["raw"] - 0.5) < 0.01

    def test_toy_code_flag(self, capsys):
        code, cap = run_cli(
            capsys, "analyze", "--seed", "11", "--trials", "2",
            "--code", "7,4,1", "--blocks", "1",
        )
        assert code == 0
        rows = {r[0]: r[1] for r in rows_of("residual_min_entropy", cap.out)}
        assert rows["0.5"] == "4"   # k - 0 helper leak at b = 1/2

    def test_bad_code_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.run(["analyze", "--code", "9,9,9"])
        assert exc.value.code == 2


class TestAttack:
    def test_toy_coset_enumeration(self, capsys):
        code, cap = run_cli(capsys, "attack", "--seed", "3")
        assert code == 0
        lines = dict(
            line.split("\t") for line in cap.out.strip().split("\n")
            if "\t" in line
        )
        assert lines["candidates"] == "16"
        assert lines["expected"] == "2^4 = 16"
        assert lines["true_response_in_candidates"] == "yes"
        assert lines["tampered_helper_overlap"] == "0"
        assert lines["brute_force_complexity"] == "2^128"

    def test_full_scale_code_refused(self, capsys):
        code, cap = run_cli(capsys, "attack", "--seed", "3", "--code", "31,16,3")
        assert code == 3
        assert "toy code" in cap.err

    def test_deterministic(self, capsys):
        _, a = run_cli(capsys, "attack", "--seed", "9")
        _, b = run_cli(capsys, "attack", "--seed", "9")
        assert a.out == b.out


@pytest.mark.parametrize("argv", [
    ["update", "--distance-cm", "0"],
    ["update", "--distance-cm", "-5"],
    ["update", "--distance-cm", "nan"],
    ["update", "--tamper", "chunk:abc"],
    ["update", "--tamper", "drop:"],
    ["update", "--trials", "0"],
    ["enroll", "--devices", "0"],
    ["enroll", "--devices", "two"],
    ["analyze", "--blocks", "0"],
    ["analyze", "--trials", "0"],
    ["analyze", "--trials", "101"],
    ["update", "--distance-cm", "1e300"],
    ["update", "--distance-cm", "1e-300"],
    ["enroll", "--seed", "-1"],
    ["update", "--seed", "-1"],
    ["analyze", "--seed", "-1"],
    ["attack", "--seed", "-1"],
])
def test_bad_arguments_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.run(argv)
    assert exc.value.code == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("command", ["enroll", "update", "analyze", "attack"])
def test_out_under_a_regular_file_is_input_error(capsys, tmp_path, command):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    code, cap = run_cli(capsys, command, "--out", str(blocker / "sub"))
    assert code == 3
    assert "cannot create output directory" in cap.err
    assert cap.out == ""


def test_empty_out_is_usage_error(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.run(["enroll", "--out", ""])
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("argv,blocked", [
    (["enroll"], "enroll.tsv"),
    (["enroll"], "dev-0000.record.txt"),
    (["update", "--image", "boot-shim"], "transcript-0.txt"),
])
def test_unwritable_out_file_is_input_error(capsys, tmp_path, argv, blocked):
    (tmp_path / blocked).mkdir()
    code, cap = run_cli(capsys, *argv, "--out", str(tmp_path))
    assert code == 3
    assert "cannot write" in cap.err and blocked in cap.err
    assert "Traceback" not in cap.err


def test_exit_code_map_is_total():
    from crfidsim.protocol import UpdateOutcome

    assert set(cli.OUTCOME_EXIT) == set(UpdateOutcome)
    assert sorted(cli.OUTCOME_EXIT.values()) == [0, 10, 11, 12, 13]


# Hostile and ordinary values for every flag of every subcommand; count
# flags stay small so that each example runs in milliseconds.
NUMBERS = ["nan", "1e400", "-0", "", "0", "-1", "inf"]
COMMON_FLAGS = {
    "--seed": NUMBERS + ["7", "99999999999999999999"],
    "--device": ["synthetic", "dump:/nonexistent", "dump:", "", "bogus"],
    "--out": ["<dir>", "<file>/sub"],
}
FLAGS = {
    "enroll": {"--devices": NUMBERS + ["2"]},
    "update": {
        "--image": ["blinky", "boot-shim", "", "/nonexistent", "/"],
        "--distance-cm": NUMBERS + ["20", "1e-160", "1e-300", "1e150", "1e200"],
        "--sleep-ms": NUMBERS + ["10", "30", "15"],
        "--trials": NUMBERS + ["2"],
        "--tamper": ["none", "mac", "chunk:", "chunk:0", "chunk:-1", "chunk:99",
                     "drop:-1", "drop:0", "drop:1e400", "drop:", "bogus", ""],
    },
    "analyze": {
        "--code": ["7,4,1", "63,24,7", "nan", "", "7,4", "1,1,1", "-7,4,1"],
        "--blocks": NUMBERS + ["1", "99999999999"],
        "--trials": NUMBERS + ["1", "101"],
    },
    "attack": {"--code": ["7,4,1", "31,16,3", "nan", "", "7,4,1,0"]},
}
EXITS = {0, 2, 3, 10, 11, 12, 13}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    flags = {**COMMON_FLAGS, **FLAGS[command], "--bogus": ["1"]}
    names = draw(st.lists(st.sampled_from(sorted(flags)), max_size=4, unique=True))
    argv = [command]
    for name in names:
        argv += [name, draw(st.sampled_from(flags[name]))]
    return argv


@settings(max_examples=120, deadline=None)
@given(argv=argvs())
def test_arbitrary_argv_ends_in_a_documented_exit(tmp_path_factory, argv):
    tmp = tmp_path_factory.mktemp("argv")
    (tmp / "file").write_text("")
    argv = [a.replace("<dir>", str(tmp / "out")).replace("<file>", str(tmp / "file"))
            for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            code = cli.run(argv)
        except SystemExit as exc:   # argparse's usage errors
            code = exc.code
    assert code in EXITS, (argv, out.getvalue())


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


class TestPinnedOutputs:
    """Byte-exact CLI outputs: exit code, stdout and every --out file.

    Each entry holds the first 16 hex digits of a sha256. The --out
    directory's path is replaced by '<out>' in stdout before hashing.
    """

    PINNED = [
        (("enroll", "--devices", "3"), 0, "1fb5a4f42478b5d9",
         {"dev-0000.record.txt": "e1b34dc378675f64",
          "dev-0001.record.txt": "4719a1a2dafc00e7",
          "dev-0002.record.txt": "f767247ef037f394",
          "enroll.tsv": "27e8059a198bacaa"}),
        (("update", "--trials", "3"), 0, "d2f46b66175b16a3",
         {"transcript-0.txt": "225eabecfb9c06e2",
          "transcript-1.txt": "c121f033f680a33f",
          "transcript-2.txt": "8888dd7300fedd43",
          "update.tsv": "58b67be70c50c073"}),
        (("update", "--tamper", "mac"), 10, "0c1efaa7cced7b74",
         {"transcript-0.txt": "7a4e37d267a82bc3",
          "update.tsv": "5ef3abe906d06e66"}),
        (("update", "--tamper", "chunk:1", "--seed", "5"), 10, "0c1efaa7cced7b74",
         {"transcript-0.txt": "7be03fb2c06db1b5",
          "update.tsv": "5ef3abe906d06e66"}),
        (("update", "--tamper", "drop:4", "--seed", "6"), 13, "ca458686d11ccc8d",
         {"transcript-0.txt": "8408f6fe8199add6",
          "update.tsv": "0b4ff02e919e47b6"}),
        (("update", "--image", "boot-shim", "--distance-cm", "40", "--sleep-ms", "10",
          "--trials", "6"), 0, "32cf0d0a72171e85",
         {"transcript-0.txt": "21da1e87e93a2759",
          "transcript-1.txt": "0eed75a13dfcdb01",
          "transcript-2.txt": "dc0accf0795c7c6b",
          "transcript-3.txt": "81ad5fe6bb57ccd0",
          "transcript-4.txt": "ac4df8231b8b005c",
          "transcript-5.txt": "4b8faaf6901e8dda",
          "update.tsv": "3c4943396bfa6b92"}),
        (("update", "--distance-cm", "60", "--trials", "4", "--seed", "3"), 12,
         "1dc62563c4f09f07",
         {"transcript-0.txt": "67f97a5a07e7c673",
          "transcript-1.txt": "4949766da1aa2aac",
          "transcript-2.txt": "4949766da1aa2aac",
          "transcript-3.txt": "4949766da1aa2aac",
          "update.tsv": "44132d6616301a40"}),
        (("analyze",), 0, "d2d3fce242f0ccba", {"analyze.tsv": "e4a745b08f7126a8"}),
        (("attack",), 0, "554c77b83e189f2c", {"attack.tsv": "92ce30259e5094ef"}),
    ]

    @pytest.mark.parametrize("argv,exit_code,stdout,files", PINNED,
                             ids=[" ".join(p[0]) for p in PINNED])
    def test_outputs_unchanged(self, capsys, tmp_path, argv, exit_code, stdout, files):
        code, cap = run_cli(capsys, *argv, "--out", str(tmp_path))
        assert code == exit_code
        assert _digest(cap.out.replace(str(tmp_path), "<out>").encode()) == stdout
        written = {p.name: _digest(p.read_bytes()) for p in tmp_path.iterdir()}
        assert written == files
