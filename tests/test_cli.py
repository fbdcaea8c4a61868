"""Command-line surface: exit codes, output formats, configuration
resolution, resource caching, determinism.

Everything drives main(argv, out=...) in-process; argparse-level rejections
surface as SystemExit(2), mapped errors as return codes.
"""

import inspect
import io
import json
import math
import os
import struct
import subprocess
import sys

import pytest

import mrl
from mrl import cli, explicit, moebius, zeros
from mrl import zerosums as zs
from mrl.cli import (
    RunConfig,
    build_parser,
    main,
    report_from_json_dict,
    report_to_json_dict,
)
from mrl.errors import MrlError
from mrl.kernel import DOUBLE, EXTENDED
from mrl.moebius import CheckpointCache
from mrl.zerosums import inv_zeta_identity
import oracles


def run_cli(*argv: str) -> tuple[int, str]:
    buf = io.StringIO()
    rc = main(list(argv), out=buf)
    return rc, buf.getvalue()


def test_the_modules_are_the_api():
    assert [n for n in dir(mrl) if not n.startswith("_")] == [
        "cli", "errors", "explicit", "kernel", "moebius", "zeros", "zerosums"
    ]
    # only the functions the benchmark passes a CheckpointCache to keep the parameter
    for fn in (moebius.weak_mertens_integral, moebius.divim_sign_changes,
               oracles.riesz_recurrence_check, explicit.compare_direct_explicit,
               zs.swmh_report, zs.integral_M_explicit):
        assert "cache" not in inspect.signature(fn).parameters, fn.__name__


@pytest.mark.parametrize("module", [m for m in vars(mrl).values()
                                    if inspect.ismodule(m) and hasattr(m, "__all__")],
                         ids=lambda m: m.__name__)
def test_all_names_exactly_the_public_functions_and_classes(module):
    # both ways: nothing public goes unlisted, and no listed name is stale
    defined = {n for n, obj in vars(module).items()
               if not n.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == module.__name__}
    assert all(hasattr(module, n) for n in module.__all__)
    listed = {n for n in module.__all__
              if inspect.isfunction(getattr(module, n)) or inspect.isclass(getattr(module, n))}
    assert listed == defined


def test_import_mrl_leaves_mpmath_and_numpy_polynomial_unloaded():
    src = os.path.dirname(os.path.dirname(mrl.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    probe = "import sys, mrl; print(sorted({'mpmath', 'numpy.polynomial'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_mertens_scalar():
    rc, out = run_cli("mertens", "10")
    assert rc == 0
    assert out.strip() == "-1"


def test_riesz_scalar():
    rc, out = run_cli("riesz", "4", "--tau", "1")
    assert rc == 0
    assert out.strip() == "0.0"


def test_integral_scalar():
    rc, out = run_cli("integral", "2", "--kappa", "1")
    assert rc == 0
    assert float(out) == pytest.approx(math.log(2.0), rel=1e-15)


def test_scalar_json_format():
    rc, out = run_cli("--format", "json", "mertens", "100")
    assert rc == 0
    payload = json.loads(out)
    assert payload["value"] == 1
    assert payload["command"] == "mertens"


def test_explicit_requires_zeros():
    rc, _ = run_cli("explicit", "10.5", "--tau", "1")
    assert rc == 3


def test_explicit_compare_csv():
    rc, out = run_cli(
        "--zeros", "builtin", "explicit", "100.5", "--tau", "1.5", "--compare"
    )
    assert rc == 0
    header, row = out.strip().split("\n")
    assert header == "x,tau,T,L,direct,explicit,abs_diff,error_estimate"
    cells = row.split(",")
    assert float(cells[0]) == 100.5
    assert abs(float(cells[4]) - float(cells[5])) == pytest.approx(
        float(cells[6]), rel=1e-9
    )


def test_explicit_without_compare_leaves_direct_empty():
    rc, out = run_cli("--zeros", "builtin", "explicit", "10.5", "--tau", "2")
    assert rc == 0
    row = out.strip().split("\n")[1]
    cells = row.split(",")
    assert cells[4] == ""  # direct not computed
    assert cells[6] == ""  # no abs_diff either
    float(cells[5])  # explicit value parses


def test_identity_report_schema_roundtrip(table):
    rc, out = run_cli("--zeros", "builtin", "identity", "inv-zeta", "--s", "3")
    assert rc == 0
    payload = json.loads(out)
    assert set(payload) == {"kind", "params", "value", "trace", "residual"}
    rep = report_from_json_dict(payload)
    want = inv_zeta_identity(3.0, table, 1000.0, 40)
    assert rep.kind == want.kind
    assert rep.value == want.value
    assert rep.residual == want.residual
    assert rep.partial_trace == want.partial_trace
    assert report_to_json_dict(rep) == payload


def test_identity_complex_value_json():
    rc, out = run_cli(
        "--zeros", "builtin", "identity", "inv-zeta", "--s", "2+3j"
    )
    assert rc == 0
    payload = json.loads(out)
    assert set(payload["value"]) == {"re", "im"}
    rep = report_from_json_dict(payload)
    assert isinstance(rep.value, complex)


def test_identity_exit_codes():
    rc, _ = run_cli("identity", "hko", "--lambda", "-1.2")
    assert rc == 4
    rc, _ = run_cli("identity", "hko", "--lambda", "7")
    assert rc == 0
    rc, _ = run_cli("--zeros", "builtin", "identity", "a-const", "--kappa", "1")
    assert rc == 2  # pole at kappa = 1
    rc, _ = run_cli("identity", "jsum", "--lambda", "0")
    assert rc == 3  # needs zeros


def test_a_const_singular_error_names_kappa(capsys):
    rc, _ = run_cli("--zeros", "builtin", "identity", "a-const", "--kappa", "-1")
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: A(kappa) is singular at kappa = -1.0: ")


@pytest.mark.parametrize(
    "argv, library",
    [
        (("zeta-real",), lambda t: zs.zeta_eq_real_report(2.0, t, 1000.0, 40)),
        (("swmh", "--x", "1e4"), lambda t: zs.swmh_report(1e4, t, 1000.0)),
        (("im-const", "--kappa", "1.25"), lambda t: zs.im_constants(1.25, t, 1000.0)),
    ],
    ids=["zeta-real", "swmh", "im-const"],
)
def test_identity_value_matches_library(table, argv, library):
    rc, out = run_cli("--zeros", "builtin", "identity", *argv)
    assert rc == 0
    assert report_from_json_dict(json.loads(out)).value == library(table).value


def test_domain_errors_exit_2():
    rc, _ = run_cli("integral", "0.5", "--kappa", "1")
    assert rc == 2
    rc, _ = run_cli("mertens", "notanumber")
    assert rc == 2
    rc, _ = run_cli(
        "scan", "tau-regime", "--x-start", "100", "--x-stop", "10",
        "--points", "3"
    )
    assert rc == 2
    # an overflow is a computation error too
    for argv in (("identity", "jsum", "--lambda", "1e300"),
                 ("identity", "hko", "--lambda", "1e300"),
                 ("explicit", "1e3", "--tau", "1e300")):
        rc, _ = run_cli("--zeros", "builtin", *argv)
        assert rc == 2


def test_argparse_rejections_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["--precision", "quad", "mertens", "10"])
    assert exc.value.code == 2


def test_missing_zero_file_exit_3(tmp_path):
    rc, _ = run_cli(
        "--zeros", str(tmp_path / "nope.txt"), "explicit", "10", "--tau", "1"
    )
    assert rc == 3


def test_T_beyond_table_exit_3():
    rc, _ = run_cli("--zeros", "builtin", "--T", "2000", "identity", "jsum")
    assert rc == 3


def test_scan_density():
    rc, out = run_cli("scan", "density", "--X", "1e6")
    assert rc == 0
    header, row = out.strip().split("\n")
    assert header == "X,density"
    val = float(row.split(",")[1])
    assert 0.0 < val < 1.0


def test_scan_divim_sign():
    rc, out = run_cli("scan", "divIM-sign", "--X", "100000")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "index,x,kappa"
    assert len(lines) >= 2
    assert float(lines[1].split(",")[1]) == pytest.approx(
        64099.41812094184, rel=1e-12
    )


def test_scan_divim_sign_at_kappa_one():
    # the single crossing below 10 is sqrt(30), found in closed form
    rc, out = run_cli("scan", "divIM-sign", "--X", "10", "--kappa", "1")
    assert rc == 0
    assert out == "index,x,kappa\n1,5.477225575051661,1.0\n"


def test_scan_tau_regime_csv():
    rc, out = run_cli(
        "scan", "tau-regime", "--x-start", "100", "--x-stop", "10000",
        "--points", "3", "--schedule", "inv-log"
    )
    assert rc == 0
    lines = out.strip().split("\n")
    assert len(lines) == 4
    assert lines[0].startswith("x,schedule,c,status,tau")
    assert all(",inv-log,1.0,ok," in ln for ln in lines[1:])


def test_scan_undefined_schedule_rows():
    rc, out = run_cli(
        "scan", "tau-regime", "--x-start", "100", "--x-stop", "1000",
        "--points", "2", "--schedule", "iterated-log"
    )
    assert rc == 0
    for ln in out.strip().split("\n")[1:]:
        assert ",undefined,,,,," in ln


def test_csv_output_is_deterministic():
    args = (
        "--zeros", "builtin", "scan", "tau-regime", "--x-start", "100",
        "--x-stop", "100000", "--points", "5", "--schedule", "constant",
        "--c", "1.5",
    )
    rc1, a = run_cli(*args)
    rc2, b = run_cli(*args)
    assert rc1 == rc2 == 0
    assert a == b


def test_env_variable_fallbacks(monkeypatch):
    monkeypatch.setenv("MRL_ZEROS", "builtin")
    monkeypatch.setenv("MRL_FORMAT", "json")
    rc, out = run_cli("explicit", "10.5", "--tau", "2")
    assert rc == 0
    rows = json.loads(out)
    assert rows[0]["x"] == 10.5
    assert rows[0]["direct"] is None
    # explicit flag wins over the environment
    rc, out = run_cli("--format", "csv", "explicit", "10.5", "--tau", "2")
    assert rc == 0
    assert out.startswith("x,tau,")


def test_zero_table_content_hash_cache(tmp_path):
    args = ("--zeros", "builtin", "--cache-dir", str(tmp_path),
            "identity", "jsum", "--lambda", "0")
    rc, out1 = run_cli(*args)
    assert rc == 0
    cached = list(tmp_path.glob("zeros-*.ztbl"))
    assert len(cached) == 1
    stamp = cached[0].stat().st_mtime_ns
    rc, out2 = run_cli(*args)
    assert rc == 0
    assert out2 == out1
    assert cached[0].stat().st_mtime_ns == stamp  # reused, not rewritten


def test_zero_table_cache_rebuilt_when_corrupt(tmp_path):
    args = ("--zeros", "builtin", "--cache-dir", str(tmp_path),
            "identity", "jsum", "--lambda", "0")
    rc, out1 = run_cli(*args)
    cached = next(tmp_path.glob("zeros-*.ztbl"))
    # a malformed file (ParseError), then a well-formed ZTBL0001 file of two
    # records whose ordinates descend (NotAscending)
    descending = (b"ZTBL0001" + struct.pack("<Q", 2)
                  + struct.pack("<dddq", 21.0, 0.8, -0.1, 53)
                  + struct.pack("<dddq", 14.0, 0.7, 0.3, 53))
    for corrupt in (b"garbage", descending):
        cached.write_bytes(corrupt)
        rc, out2 = run_cli(*args)
        assert rc == 0
        assert out2 == out1
        assert cached.stat().st_size > 100  # rewritten with real content


def test_zero_table_cache_with_a_value_that_is_not_finite_is_rebuilt(tmp_path):
    # the 6th record's Re zeta' set to nan (the sum read nan) or its Im zeta'
    # to inf (its zero dropped), or the last ordinate to inf (kept in the
    # cache): each file is a miss and is rewritten
    args = ("--zeros", "builtin", "--cache-dir", str(tmp_path), "explicit", "1e4", "--tau", "1")
    rc, want = run_cli(*args)
    assert rc == 0
    cached = next(tmp_path.glob("zeros-*.ztbl"))
    good = cached.read_bytes()
    sixth = 16 + 5 * 32  # after the magic and the count, 32 bytes a record
    for offset, value in ((sixth + 8, math.nan), (sixth + 16, math.inf), (len(good) - 32, math.inf)):
        blob = bytearray(good)
        struct.pack_into("<d", blob, offset, value)
        cached.write_bytes(bytes(blob))
        assert run_cli(*args) == (0, want)
        assert cached.read_bytes() == good


def test_builtin_at_double_precision_reads_the_packaged_refined_table(
        tmp_path, monkeypatch, table):
    def refuse(*args, **kwargs):
        raise AssertionError("refine_table called for the packaged table at double precision")

    monkeypatch.setattr(cli, "refine_table", refuse)
    want = json.dumps(report_to_json_dict(zs.j_lambda(table, 0.0, 1000.0))) + "\n"
    jsum = ("identity", "jsum", "--lambda", "0")
    for extra in ((), ("--cache-dir", str(tmp_path))):
        assert run_cli("--zeros", "builtin", *extra, *jsum) == (0, want)
    cached = next(tmp_path.glob("zeros-*.ztbl"))
    cached.write_bytes(b"garbage")
    assert run_cli("--zeros", "builtin", "--cache-dir", str(tmp_path), *jsum) == (0, want)
    packaged = zeros.builtin_zeros_path().with_name(zeros._REFINED_BUILTIN_NAME)
    assert cached.read_bytes() == packaged.read_bytes()


def test_user_tables_and_extended_precision_are_still_refined(
        tmp_path, monkeypatch, table, raw_table):
    calls = []

    def counting(source, precision):
        calls.append((source.gammas.tolist(), precision))
        return table

    monkeypatch.setattr(cli, "refine_table", counting)
    user = tmp_path / "z.txt"
    user.write_text("\n".join(map(repr, raw_table.gammas[:20].tolist())))
    jsum = ("identity", "jsum", "--lambda", "0")
    assert run_cli("--zeros", str(user), *jsum)[0] == 0
    assert run_cli("--precision", "extended", "--zeros", "builtin", *jsum)[0] == 0
    assert calls == [(raw_table.gammas[:20].tolist(), DOUBLE),
                     (raw_table.gammas.tolist(), EXTENDED)]


def test_mertens_checkpoints_persist(tmp_path):
    rc, out1 = run_cli("--cache-dir", str(tmp_path), "mertens", "2000000")
    assert rc == 0
    chk = tmp_path / "mertens-v1.chk"
    assert chk.exists()
    rc, out2 = run_cli("--cache-dir", str(tmp_path), "mertens", "2000000")
    assert out2 == out1


def _assert_checkpoints_untouched(tmp_path, argv):
    rc, _ = run_cli("--cache-dir", str(tmp_path), "mertens", "2000000")
    assert rc == 0
    chk = tmp_path / "mertens-v1.chk"
    before = chk.stat()
    blob = chk.read_bytes()
    rc, _ = run_cli("--zeros", "builtin", "--cache-dir", str(tmp_path), *argv)
    assert rc == 0
    after = chk.stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    assert chk.read_bytes() == blob


def test_explicit_without_compare_leaves_checkpoints_untouched(tmp_path):
    _assert_checkpoints_untouched(tmp_path, ["explicit", "10.5", "--tau", "2"])


# Only `mrl mertens` opens the checkpoint file.  These commands, some of
# them streaming mu past n = 2 * 10^6, leave it as it was.
@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["riesz", "2500000.5", "--tau", "0.5"], id="riesz"),
        pytest.param(["integral", "2500000.5", "--kappa", "0.5"], id="integral"),
        pytest.param(["explicit", "10.5", "--tau", "2", "--compare"], id="explicit-compare"),
        pytest.param(["identity", "swmh", "--x", "1e4"], id="identity-swmh"),
        pytest.param(["scan", "density", "--X", "2500000"], id="scan-density"),
        pytest.param(["scan", "divIM-sign", "--X", "1e4"], id="scan-divim"),
        pytest.param(["scan", "tau-regime", "--x-start", "100", "--x-stop", "2.5e6",
                      "--points", "3", "--c", "0.5"], id="scan-tau-regime"),
    ],
)
def test_only_mertens_opens_the_checkpoint_file(tmp_path, argv):
    _assert_checkpoints_untouched(tmp_path, argv)


# A warm request only reads the cache directory.  Its mtime is set back
# first, so a write shows however coarse the filesystem's clock is.
@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["mertens", "2000000"], id="mertens"),
        pytest.param(["--zeros", "builtin", "identity", "jsum", "--lambda", "0"],
                     id="zero-table"),
    ],
)
def test_warm_request_leaves_the_cache_dir_unwritten(tmp_path, argv):
    args = ("--cache-dir", str(tmp_path), *argv)
    rc, out = run_cli(*args)
    assert rc == 0
    listing = sorted(os.listdir(tmp_path))
    stamp = 10**18
    os.utime(tmp_path, ns=(stamp, stamp))
    rc, again = run_cli(*args)
    assert (rc, again) == (0, out)
    assert sorted(os.listdir(tmp_path)) == listing
    assert tmp_path.stat().st_mtime_ns == stamp


def test_mertens_checkpoints_old_format_rewritten(tmp_path):
    # an MRTC0001 file (x, M, I2 records), its M deliberately wrong
    chk = tmp_path / "mertens-v1.chk"
    chk.write_bytes(b"MRTC0001" + struct.pack("<Qqd", 1_000_000, 0, 1.5))
    rc, out = run_cli("--cache-dir", str(tmp_path), "mertens", "2000000")
    assert rc == 0
    assert out.strip() == "-247"
    # the old file's records are dropped; the new one holds the value computed
    assert chk.read_bytes() == b"MRTC0002" + struct.pack("<Qq", 2_000_000, -247)


def test_mertens_cache_file_serves_repeated_lookups(tmp_path, monkeypatch):
    rc, out = run_cli("--cache-dir", str(tmp_path), "mertens", "1234567")
    assert rc == 0
    (record,) = CheckpointCache.load(tmp_path / "mertens-v1.chk").checkpoints()
    assert (record.x, record.M) == (1_234_567, int(out))

    def recompute(*args):
        raise AssertionError("M(x) recomputed")

    monkeypatch.setattr(moebius, "_mu_power_sums", recompute)
    chk = tmp_path / "mertens-v1.chk"
    before = chk.stat()
    rc, again = run_cli("--cache-dir", str(tmp_path), "mertens", "1234567")
    assert (rc, again) == (0, out)
    after = chk.stat()  # a hit leaves the file as it was
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)


def test_mertens_floors_the_argument_exactly():
    # float("10.9999999999999999999") rounds up to 11.0, and M(11) = -2
    rc, out = run_cli("mertens", "10.9999999999999999999")
    assert (rc, out.strip()) == (0, "-1")
    rc, out = run_cli("mertens", "1e3")
    assert (rc, out.strip()) == (0, "2")
    for bad in ("nan", "inf", "0x10"):
        assert run_cli("mertens", bad)[0] == 2


def test_runconfig_validation():
    with pytest.raises(MrlError):
        RunConfig(precision_mode="quad")
    with pytest.raises(MrlError):
        RunConfig(output_format="yaml")
    with pytest.raises(MrlError):
        RunConfig(default_T=-5.0)
    with pytest.raises(MrlError):
        RunConfig(default_L=0)


def test_shared_parser_leaks_no_state_between_calls(tmp_path, monkeypatch, raw_table):
    # options, then their defaults, with and without a cache dir: each stdout
    # must match the one from a parser built afresh for that call alone
    zeros = tmp_path / "z.txt"
    zeros.write_text("\n".join(map(repr, raw_table.gammas[:40].tolist())))
    commands = [
        ("integral", "1e3", "--kappa", "1.5"),
        ("integral", "1e3"),
        ("--T", "100", "identity", "jsum", "--lambda", "0.5"),
        ("--T", "100", "identity", "jsum"),
        ("--T", "100", "identity", "a-const", "--kappa", "3"),
        ("--T", "100", "identity", "a-const"),
        ("--T", "100", "explicit", "1e3", "--tau", "1.5", "--compare"),
        ("--T", "100", "explicit", "1e3"),
        ("mertens", "1e5"),
    ]
    argvs = [
        ["--zeros", str(zeros), "--format", fmt, *extra, *command]
        for extra in ([], ["--cache-dir", str(tmp_path / "cache")])
        for fmt in ("csv", "json")
        for command in commands
    ]
    argvs += argvs[::-1]
    assert build_parser() is build_parser()
    shared = [run_cli(*argv) for argv in argvs]
    with monkeypatch.context() as m:
        m.setattr(cli, "build_parser", build_parser.__wrapped__)
        fresh = [run_cli(*argv) for argv in argvs]
    assert all(rc == 0 for rc, _ in shared)
    assert shared == fresh


def test_parser_lists_all_subcommands():
    parser = build_parser()
    actions = {
        a.dest: a for a in parser._subparsers._group_actions
    }["command"].choices
    assert set(actions) == {
        "mertens", "riesz", "integral", "explicit", "identity", "scan"
    }


@pytest.mark.parametrize(
    "argv",
    [
        ("riesz", "inf", "--tau", "1.5"),
        ("integral", "inf", "--kappa", "0.5"),
        ("scan", "density", "--X", "inf"),
        ("--zeros", "builtin", "identity", "swmh", "--x", "inf"),
        ("riesz", "1e3", "--tau", "nan"),
        ("integral", "1e3", "--kappa", "nan"),
        ("--zeros", "builtin", "explicit", "nan"),
        ("--zeros", "builtin", "explicit", "inf"),
        ("--zeros", "builtin", "explicit", "1e3", "--tau", "nan"),
        ("--zeros", "builtin", "identity", "im-const", "--kappa", "nan"),
        ("--zeros", "builtin", "identity", "im-const", "--kappa=-inf"),
        ("--zeros", "builtin", "identity", "jsum", "--lambda", "inf"),
        ("identity", "hko", "--lambda", "inf"),
        ("--T", "inf", "identity", "hko", "--lambda", "1"),
    ],
)
def test_non_finite_arguments_exit_2(argv):
    assert run_cli(*argv) == (2, "")


@pytest.mark.parametrize(
    "flag, value",
    [("--x-stop", "inf"), ("--x-stop", "nan"), ("--x-start", "nan"), ("--x-start", "-inf")],
)
def test_tau_regime_non_finite_range_exit_2(capsys, flag, value):
    # the range is refused before the log grid turns inf * 0 into a nan x
    assert run_cli("scan", "tau-regime", f"{flag}={value}") == (2, "")
    assert f"{flag} must be finite, got {value}" in capsys.readouterr().err


def test_tau_regime_tiny_constant_exits_0():
    # the growth factor (tau/e)^(-tau-1) overflows at tau = 5e-324 and reads inf
    rc, out = run_cli("scan", "tau-regime", "--c", "5e-324", "--x-stop", "1e3")
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert rc == 0 and len(rows) == 9
    assert all(row[3] == "ok" and row[-1] == "inf" for row in rows)
