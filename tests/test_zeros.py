"""Zero tables: ordinate quality, derivative values, counting, file formats.

Ordinate/derivative oracles are mpmath zetazero values at 30 digits, frozen
as doubles.
"""

import fnmatch
import hashlib
import math
import struct
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from mrl import zeros
from mrl.errors import MissingZeros, NoConvergence, NotAscending, OutOfRange, ParseError
from mrl.kernel import EXTENDED, zeta
from mrl.zeros import (
    SUSPECT_DERIV_FLOOR,
    ZeroRecord,
    ZeroTable,
    count_main_term,
    find_zeros,
    hardy_z,
    import_zeros,
    load_builtin,
    refine_table,
    refine_zero,
    riemann_siegel_theta,
    verify_count,
)

# mpmath.zetazero at 30 digits.
KNOWN_GAMMAS = {
    1: 14.134725141734695,
    2: 21.022039638771556,
    10: 49.7738324776723,
    29: 98.83119421819369,
    100: 236.5242296658162,
}

KNOWN_ZETA_PRIMES = {
    1: complex(0.783296511867031, 0.12469982974817109),
    2: complex(1.1092955634626716, -0.24872978851649746),
    100: complex(2.2455848965354943, -3.304174629263106),
}


def test_builtin_table_shape(raw_table):
    assert len(raw_table) == 730
    assert raw_table.max_gamma == pytest.approx(1099.360667, abs=1e-5)
    gs = raw_table.gammas
    assert np.all(np.diff(gs) > 0)


def test_builtin_ordinates_match_known(raw_table):
    for k, want in KNOWN_GAMMAS.items():
        assert raw_table.gammas[k - 1] == pytest.approx(want, abs=5e-9), f"#{k}"


def test_refined_table_derivatives(table):
    for k, want in KNOWN_ZETA_PRIMES.items():
        got = table[k - 1].zeta_prime
        assert abs(got - want) <= 1e-9 * abs(want), f"#{k}"
    assert all(rec.refined_bits >= 53 for rec in table)
    assert not any(rec.suspect for rec in table)
    assert all(abs(rec.zeta_prime) > SUSPECT_DERIV_FLOOR for rec in table)


def test_refined_ordinates_are_actual_zeros(table):
    # |zeta(1/2 + i gamma)| should be at rounding scale for every 10th zero.
    for rec in table[::10]:
        val = zeta(complex(0.5, rec.gamma))
        assert abs(val) < 1e-9, f"gamma={rec.gamma}"


def test_refine_is_idempotent(table):
    again = refine_table(table)
    assert np.allclose(again.gammas, table.gammas, rtol=0, atol=1e-12)


def test_refine_zero_single():
    rec = refine_zero(14.1347)
    assert rec.gamma == pytest.approx(KNOWN_GAMMAS[1], abs=1e-12)
    assert abs(rec.zeta_prime - KNOWN_ZETA_PRIMES[1]) < 1e-10


def test_find_zeros_reproduces_packaged_ordinates_below_100(raw_table):
    found = find_zeros(0.0, 100.0)
    want = raw_table.gammas[: raw_table.count_up_to(100.0)]
    assert len(found) == len(want) == 29
    assert np.max(np.abs(found.gammas - want)) <= 1e-11


# Zero counts frozen from mpmath.nzeros(b) - mpmath.nzeros(a).  Above t = 5e3
# the evaluated |zeta| at a zero can stay above NEWTON_TOL; the polish of one
# zero in the last window ends on the noise-floor stop.
@pytest.mark.parametrize(
    "a, b, count",
    [
        (13063.0, 13070.7, 9),
        (9565.22, 9568.36, 4),
        (9592.444753142643, 9595.572214469972, 4),
        (9701.935254053516, 9705.027420638267, 4),
    ],
)
def test_find_zeros_high_windows(a, b, count):
    found = find_zeros(a, b)
    assert len(found) == count
    assert all(a < g <= b for g in found.gammas)


def _forced_euler_maclaurin_scan(monkeypatch):
    """Make find_zeros scan with hardy_z at every grid point, as it did before
    the Riemann-Siegel signs."""
    monkeypatch.setattr(
        zeros, "_riemann_siegel_z", lambda ts: (np.full(len(ts), np.nan), np.zeros(len(ts)))
    )


def _hex(table):
    return [g.hex() for g in table.gammas.tolist()], [
        (z.real.hex(), z.imag.hex()) for z in table.zeta_primes.tolist()
    ]


def test_riemann_siegel_z_within_gabcke_bound():
    # Gabcke: |Z - Z_RS| <= 0.127 t^(-3/4) for t >= 200, with C0 alone; the
    # returned bound is twice that plus rounding, and no value below t = 200.
    rng = np.random.default_rng(14)
    ts = np.concatenate([rng.uniform(200.0, 5e4, 24), [200.0, 1e3, 1e4, 4.99e4]])
    rs, bound = zeros._riemann_siegel_z(ts)
    gabcke = 0.127 * ts**-0.75
    assert np.all(np.isfinite(rs)) and np.all(bound >= 2.0 * gabcke)
    for t, z, e in zip(ts.tolist(), rs.tolist(), gabcke.tolist()):
        assert abs(z - hardy_z(t)) <= e, f"t = {t}"
    for t, z, e in list(zip(ts.tolist(), rs.tolist(), gabcke.tolist()))[:4]:
        assert abs(z - float(mp.siegelz(t))) <= e, f"t = {t}"
    low, _ = zeros._riemann_siegel_z(np.array([14.0, 199.99]))
    assert np.all(np.isnan(low))


# 24 windows, 4 of them across t = 200, where the scan starts to use
# Riemann-Siegel signs; the rest seeded between 200 and 3e4.
_SCAN_WINDOWS = [(190.0, 210.0), (199.9, 200.1), (150.0, 201.0), (199.99, 236.53)] + [
    (t, t + 1.5) for t in np.random.default_rng(1400).uniform(200.0, 3e4, 20).tolist()
]


def test_find_zeros_equals_an_euler_maclaurin_scan(monkeypatch):
    # The seeds come from hardy_z at both bracket ends, so every ordinate and
    # zeta' is the same float as a scan that calls hardy_z everywhere.
    fast = [find_zeros(a, b) for a, b in _SCAN_WINDOWS]
    _forced_euler_maclaurin_scan(monkeypatch)
    slow = [find_zeros(a, b) for a, b in _SCAN_WINDOWS]
    assert sum(len(t) for t in slow) >= 30
    for (a, b), f, s in zip(_SCAN_WINDOWS, fast, slow):
        assert _hex(f) == _hex(s), f"[{a}, {b}]"


def _hardy_z_args(monkeypatch):
    calls = []

    def counted(t):
        calls.append(t)
        return hardy_z(t)

    monkeypatch.setattr(zeros, "hardy_z", counted)
    return calls


def test_find_zeros_falls_back_on_a_zero_and_where_cos_2pi_p_vanishes(table, monkeypatch):
    # A grid point on a zero has |Z| inside the bound; at t = 2pi (N + 1/4)^2
    # cos 2pi p = 0 and C0 is not evaluated.  Both call hardy_z there.
    on_zero = table.gammas[100].item()
    quarter = 2.0 * math.pi * 20.25**2
    rs, bound = zeros._riemann_siegel_z(np.array([on_zero, quarter]))
    assert abs(rs[0]) <= bound[0] and math.isnan(rs[1])
    windows = [(on_zero, on_zero + 1.0), (quarter, quarter + 1.0)]
    calls = _hardy_z_args(monkeypatch)
    fast = [find_zeros(a, b) for a, b in windows]
    assert on_zero in calls and quarter in calls
    _forced_euler_maclaurin_scan(monkeypatch)
    for (a, b), f in zip(windows, fast):
        assert _hex(f) == _hex(find_zeros(a, b)), f"[{a}, {b}]"


def test_find_zeros_calls_hardy_z_twice_per_bracket(monkeypatch):
    calls = _hardy_z_args(monkeypatch)
    found = find_zeros(9565.22, 9568.36)
    assert len(found) == 4 and len(calls) == 8


def test_find_zeros_takes_hardy_z_once_per_point(monkeypatch):
    # Near t = 9927.8 cos 2pi p is small, so four grid points fall back to
    # hardy_z, and the one bracket lies between two of them: its ends reuse
    # the fallback values.
    calls = _hardy_z_args(monkeypatch)
    fast = find_zeros(9927.5, 9928.2)
    assert len(fast) == 1 and len(calls) == 4 and len(set(calls)) == 4
    _forced_euler_maclaurin_scan(monkeypatch)
    assert _hex(fast) == _hex(find_zeros(9927.5, 9928.2))


def test_refine_zero_off_basin_returns_a_zero_or_raises(raw_table):
    # Midpoints between neighbouring zeros lie outside the Newton basin: the
    # polish may reach either neighbour or refuse, but never stop elsewhere.
    gs = raw_table.gammas[: raw_table.count_up_to(1000.0)]
    for a, b in zip(gs[:-1:10].tolist(), gs[1::10].tolist()):
        try:
            rec = refine_zero(0.5 * (a + b))
        except NoConvergence:
            continue
        assert abs(zeta(complex(0.5, rec.gamma))) <= 1e-9, f"seed {0.5 * (a + b)}"
        assert np.min(np.abs(raw_table.gammas - rec.gamma)) <= 1e-9, f"seed {0.5 * (a + b)}"


def test_counts(table):
    # N(100) = 29, N(1000) = 649 (classical counts).
    gs = table.gammas
    assert int((gs <= 100.0).sum()) == 29
    assert int((gs <= 1000.0).sum()) == 649


def test_count_main_term_and_verify(table):
    for T in (50.0, 100.0, 500.0, 1000.0):
        rep = verify_count(table, T)
        assert rep.ok, f"T={T}: |{rep.difference}| > {rep.bound}"
        assert rep.bound == pytest.approx(2.0 * math.log(T))
        assert rep.main_term == pytest.approx(count_main_term(T))
    with pytest.raises(MissingZeros):
        verify_count(table, 5000.0)


@pytest.mark.parametrize(
    "args, message",
    [
        pytest.param((100.0, 100.0), "t_min < t_max", id="empty-window"),
        pytest.param((100.0, 50.0), "t_min < t_max", id="reversed-window"),
        pytest.param((0.0, zeros.IM_MAX + 1.0), "exceeds supported maximum", id="past-im-max"),
        pytest.param((10.0, 20.0, 0.0), "grid_step", id="step-zero"),
        pytest.param((10.0, 20.0, 0.6), "grid_step", id="step-above-half"),
    ],
)
def test_find_zeros_refuses_a_bad_window(args, message):
    with pytest.raises(OutOfRange, match=message):
        find_zeros(*args)


@pytest.mark.parametrize("T", [1.0, 2.0 * math.pi])
def test_verify_count_needs_t_above_2pi(table, T):
    with pytest.raises(OutOfRange, match="exceed 2\\*pi"):
        verify_count(table, T)


def test_hardy_z_matches_zeta_modulus():
    # |Z(t)| = |zeta(1/2 + it)| and Z is real-valued.
    z = hardy_z(20.0)
    assert isinstance(z, float)
    assert z == pytest.approx(1.1478424121851973, rel=1e-10)
    assert abs(z) == pytest.approx(abs(zeta(complex(0.5, 20.0))), rel=1e-10)


def test_riemann_siegel_theta_oracle():
    assert riemann_siegel_theta(100.0) == pytest.approx(
        87.97216523178722, rel=1e-12
    )


def test_hardy_z_sign_changes_at_zeros(table):
    # Z flips sign across each ordinate.
    for rec in table[:5]:
        assert hardy_z(rec.gamma - 1e-3) * hardy_z(rec.gamma + 1e-3) < 0


def test_import_zeros_parsing(tmp_path):
    p = tmp_path / "z.txt"
    p.write_text("# comment\n14.134725\n21.022040 # trailing\n\n25.010858\n")
    t = import_zeros(p)
    assert len(t) == 3
    assert t[0].zeta_prime == 0j
    assert t[0].refined_bits == 0

    bad_order = tmp_path / "bad.txt"
    bad_order.write_text("21.0\n14.1\n")
    with pytest.raises(NotAscending):
        import_zeros(bad_order)

    garbage = tmp_path / "garbage.txt"
    garbage.write_text("14.13\nnot-a-number\n")
    with pytest.raises(ParseError):
        import_zeros(garbage)


def test_table_binary_roundtrip(tmp_path, table):
    p = tmp_path / "t.ztbl"
    table.save(p)
    loaded = ZeroTable.load(p)
    assert len(loaded) == len(table)
    for a, b in zip(loaded, table):
        assert a.gamma == b.gamma
        assert a.zeta_prime == b.zeta_prime
        assert a.refined_bits == b.refined_bits
        assert a.suspect == b.suspect


def test_table_save_failing_partway_keeps_previous_file(tmp_path, table, monkeypatch):
    path = tmp_path / "t.ztbl"
    table.save(path)
    before = path.read_bytes()

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("os.replace", fail)  # the new bytes are written, the rename fails
    with pytest.raises(OSError):
        ZeroTable(table[: table.count_up_to(100.0)]).save(path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["t.ztbl"]


def test_table_binary_rejects_corruption(tmp_path, table):
    p = tmp_path / "t.ztbl"
    table.save(p)
    blob = bytearray(p.read_bytes())
    blob[:4] = b"XXXX"
    bad = tmp_path / "bad.ztbl"
    bad.write_bytes(bytes(blob))
    with pytest.raises(ParseError):
        ZeroTable.load(bad)
    truncated = tmp_path / "trunc.ztbl"
    truncated.write_bytes(p.read_bytes()[:-7])
    with pytest.raises(ParseError):
        ZeroTable.load(truncated)


def test_table_load_refuses_a_cut_count_header(tmp_path):
    p = tmp_path / "cut.ztbl"
    p.write_bytes(b"ZTBL0001" + struct.pack("<Q", 2)[:5])
    with pytest.raises(ParseError, match="missing record count"):
        ZeroTable.load(p)


def test_table_load_rejects_descending_ordinates(tmp_path):
    p = tmp_path / "desc.ztbl"
    rows = [(21.0, 0.8, -0.1, 53), (14.0, 0.7, 0.3, 53)]
    p.write_bytes(b"ZTBL0001" + struct.pack("<Q", len(rows))
                  + b"".join(struct.pack("<dddq", *row) for row in rows))
    with pytest.raises(NotAscending):
        ZeroTable.load(p)


def test_loaded_columns_are_read_only_bit_identical_and_floored(tmp_path, table):
    tiny = complex(0.5 * SUSPECT_DERIV_FLOOR, 0.0)
    mixed = ZeroTable([*table[:3], ZeroRecord(gamma=40.0, zeta_prime=tiny, refined_bits=53)])
    p = tmp_path / "t.ztbl"
    mixed.save(p)
    loaded = ZeroTable.load(p)
    for name in ("gammas", "zeta_primes", "refined_bits", "suspect"):
        column, saved = getattr(loaded, name), getattr(mixed, name)
        assert not column.flags.writeable, name
        assert column.dtype == saved.dtype and column.tobytes() == saved.tobytes(), name
    assert loaded.suspect.tolist() == [False, False, False, True]
    with pytest.raises(ValueError):
        loaded.gammas[0] = 1.0


def test_table_indexing_reads_the_columns(table):
    assert table[0] == next(iter(table))
    assert table[-1] == tuple(table)[-1]
    assert table[::100] == tuple(table)[::100]
    rec = table[3]
    assert [type(v) for v in (rec.gamma, rec.zeta_prime, rec.refined_bits, rec.suspect)] == [
        float, complex, int, bool
    ]
    with pytest.raises(IndexError):
        table[len(table)]
    low = ZeroTable(table[: table.count_up_to(100.0)])
    assert isinstance(low, ZeroTable) and tuple(low) == table[: table.count_up_to(100.0)]
    assert not low.gammas.flags.writeable


def test_table_constructor_requires_ascending():
    with pytest.raises(NotAscending):
        ZeroTable([ZeroRecord(gamma=21.0), ZeroRecord(gamma=14.0)])


def test_load_builtin_is_cached_and_consistent(raw_table):
    again = load_builtin()
    assert np.array_equal(again.gammas, raw_table.gammas)


# sha256 of the ZTBL0001 bytes of refine_table(load_builtin()): pins every
# bit of the double-precision ordinates and zeta' values.
REFINED_BUILTIN_SHA256 = (
    "b14a1bfc03381631db7e28365ce7d257611af4487f084b1d1b064bb1f36a025b"
)


def test_refined_builtin_bytes_are_pinned(tmp_path, table):
    p = tmp_path / "t.ztbl"
    table.save(p)
    assert hashlib.sha256(p.read_bytes()).hexdigest() == REFINED_BUILTIN_SHA256


def test_packaged_refined_table_is_the_refined_builtin(table):
    # fails when zeros_t1100.txt is regenerated and the .ztbl beside it is not
    packaged = zeros.builtin_zeros_path().with_name(zeros._REFINED_BUILTIN_NAME)
    assert hashlib.sha256(packaged.read_bytes()).hexdigest() == REFINED_BUILTIN_SHA256
    shipped = zeros._load_refined_builtin()
    for name in ("gammas", "zeta_primes", "refined_bits", "suspect"):
        assert np.array_equal(getattr(shipped, name), getattr(table, name)), name


def test_every_data_file_is_package_data():
    tomllib = pytest.importorskip("tomllib")
    data = Path(zeros.__file__).parent / "data"
    pyproject = Path(zeros.__file__).parents[2] / "pyproject.toml"
    globs = tomllib.loads(pyproject.read_text())["tool"]["setuptools"]["package-data"]["mrl"]
    shipped = [p.relative_to(data.parent).as_posix() for p in data.rglob("*") if p.is_file()]
    assert shipped
    for name in shipped:
        assert any(fnmatch.fnmatchcase(name, g) for g in globs), name


# refine_zero(seed, EXTENDED) from the packaged ordinates #29..#31.
EXTENDED_ORDINATES = {
    98.831194218194: 98.83119421819369,
    101.317851005731: 101.31785100573138,
    103.725538040478: 103.72553804047834,
}


@pytest.mark.parametrize("seed", sorted(EXTENDED_ORDINATES))
def test_refine_zero_extended_ordinates(seed):
    rec = refine_zero(seed, EXTENDED)
    assert rec.gamma == EXTENDED_ORDINATES[seed]
    assert rec.refined_bits == 128


@pytest.mark.parametrize("n", [1, 30, 606])
def test_refine_zero_extended_matches_zetazero(raw_table, n):
    # The packaged line of zero 606 is 1.13e-12 off; the extended record
    # must still be the correctly rounded double of mpmath's ordinate.
    rec = refine_zero(raw_table.gammas[n - 1], EXTENDED)
    with mp.workdps(40):
        rho = mp.zetazero(n)
        want_dz = mp.zeta(rho, derivative=1)
        assert rec.gamma == float(rho.imag)
        assert abs(rec.zeta_prime - want_dz) <= 2.0**-52 * abs(want_dz)


def test_refine_zero_extended_refuses_a_far_double_result(monkeypatch):
    # From 1e-6 off, one Newton step leaves about 1e-12, far above 2^-64 |t|.
    polish = zeros._newton_polish
    monkeypatch.setattr(
        zeros, "_newton_polish", lambda t0: (polish(t0)[0] + 1e-6, 0j)
    )
    with pytest.raises(NoConvergence):
        refine_zero(KNOWN_GAMMAS[1], EXTENDED)


def test_refine_zero_extended_refuses_a_far_start_with_its_zeta_prime(monkeypatch):
    # as above, but with the polish's own zeta', so the step is taken
    polish = zeros._newton_polish
    monkeypatch.setattr(
        zeros, "_newton_polish", lambda t0: (polish(t0)[0] + 1e-6, polish(t0)[1])
    )
    with pytest.raises(NoConvergence, match="extended Newton step"):
        refine_zero(KNOWN_GAMMAS[1], EXTENDED)


@pytest.mark.parametrize("t", [15.0, 20.0, 30.5, 100.2, 500.7])
def test_hardy_z_extended_sign(t):
    # the double Z(t) against mpmath's at EXTENDED's width: same sign, and
    # within 1e-12 (7.8e-14 at t = 500.7)
    with mp.workprec(EXTENDED.significand_bits):
        want = mp.siegelz(t)
    assert (hardy_z(t) > 0) == (want > 0)
    assert abs(hardy_z(t) - want) <= 1e-12
