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

import oracles
from mrl import zeros
from mrl.errors import (
    DomainError,
    MissingZeros,
    MultipleZeroFlag,
    NoConvergence,
    NotAscending,
    OutOfRange,
    ParseError,
)
from mrl.kernel import EXTENDED, zeta, zeta_and_deriv
from mrl.zeros import (
    GRID_STEP,
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


def test_find_zeros_reproduces_packaged_ordinates_below_100(raw_table, table):
    found = find_zeros(0.0, 100.0)
    want = raw_table.gammas[: raw_table.count_up_to(100.0)]
    assert len(found) == len(want) == 29
    assert np.max(np.abs(found.gammas - want)) <= 1e-11
    # the refined ordinates, each within an ulp of its zero, float for float
    assert found.gammas.tolist() == table.gammas[:29].tolist()


# Zero counts frozen from mpmath.nzeros(b) - mpmath.nzeros(a), in windows
# above t = 5e3 with Riemann-Siegel seeds.
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
    # Gabcke: |Z - Z_RS| <= 0.127 t^(-3/4) for t >= 200 with C0 alone, and
    # <= 0.017 t^(-11/4) with C0..C4; the returned bound is twice the latter
    # plus rounding, and no value below t = 200.
    rng = np.random.default_rng(14)
    ts = np.concatenate([rng.uniform(200.0, 5e4, 24), [200.0, 1e3, 1e4, 4.99e4]])
    rs, bound = zeros._riemann_siegel_z(ts)
    gabcke = 0.127 * ts**-0.75
    assert np.all(np.isfinite(rs)) and np.all(bound >= 2.0 * 0.017 * ts**-2.75)
    for t, z, e in zip(ts.tolist(), rs.tolist(), gabcke.tolist()):
        assert abs(z - hardy_z(t)) <= e, f"t = {t}"
    for t, z, e in list(zip(ts.tolist(), rs.tolist(), gabcke.tolist()))[:4]:
        assert abs(z - float(mp.siegelz(t))) <= e, f"t = {t}"
    low, _ = zeros._riemann_siegel_z(np.array([14.0, 199.99]))
    assert np.all(np.isnan(low))
    # C0..C4 against 30-digit mpmath, seeded and at t = 2pi (N + 1/4)^2,
    # where cos 2pi p = 0: within the bound, and within Gabcke's term plus
    # 2^-50 t log t, which C0 alone (off by up to 1e-4) or a wrong C_k misses
    quarters = [2.0 * math.pi * (n + 0.25) ** 2 for n in (6, 20, 40, 88)]
    ts = np.concatenate([np.random.default_rng(38).uniform(200.0, 5e4, 8), quarters])
    rs, bound = zeros._riemann_siegel_z(ts)
    with mp.workdps(30):
        for t, z, e in zip(ts.tolist(), rs.tolist(), bound.tolist()):
            err = abs(z - float(mp.siegelz(t)))
            assert err <= e and err <= 2.0 * 0.017 * t**-2.75 + 2.0**-50 * t * math.log(t), f"t = {t}"


# 24 windows, 4 of them across t = 200, where the scan starts to use
# Riemann-Siegel signs; the rest seeded between 200 and 3e4.
_SCAN_WINDOWS = [(190.0, 210.0), (199.9, 200.1), (150.0, 201.0), (199.99, 236.53)] + [
    (t, t + 1.5) for t in np.random.default_rng(1400).uniform(200.0, 3e4, 20).tolist()
]

# mpmath.findroot(mpmath.siegelz) at 30 digits for the 62 zeros above t = 200
# in _SCAN_WINDOWS, in window order.
_SCAN_ORDINATES = (
    "201.264751943703788733016133428", "202.493594514140534277686660638",
    "204.189671803104554330716438386", "205.394697202163286025212379391",
    "207.906258887806209861501967908", "209.57650971685625985283564429",
    "201.264751943703788733016133428", "202.493594514140534277686660638",
    "204.189671803104554330716438386", "205.394697202163286025212379391",
    "207.906258887806209861501967908", "209.57650971685625985283564429",
    "211.690862595365307563907486731", "213.347919359712666190639122021",
    "214.547044783491423222944201073", "216.169538508263700265869563354",
    "219.06759634902137898567725659", "220.714918839314003369115592634",
    "221.430705554693338732097475119", "224.007000254604335211728875529",
    "224.983324669582287503782523681", "227.421444279679291310461436161",
    "229.337413305525348107760083306", "231.25018870049916477380618677",
    "231.987235253180248603771668539", "233.693404178908300640704494733",
    "236.524229665816205802475507956", "10904.3085725386399866065363042",
    "29929.4731205066516699885911415", "29930.2130153406203987188492687",
    "402.861917763886114176315443096", "29973.414498594495687434118677",
    "5834.9352420186212442812173565", "21507.421563838937000184422187",
    "21508.5105762254753026942092927", "8082.0958483689999016923409296",
    "6487.44521526241574344840592744", "6487.83021681324221451002603989",
    "17334.7541155217011857084362257", "17335.2821182678975338033360971",
    "10393.9371827661245634666674714", "10394.9040746875805490835487486",
    "10395.3081097754498781254703809", "28615.3661973494795473222991664",
    "28616.3662950184160802315080063", "28267.3860280564860360271445743",
    "28267.6720371651751570177287812", "12688.3744509051032689538960975",
    "12688.9800580151085436320003519", "28460.0407999366528540730426932",
    "28460.5994397387969220913710322", "16070.634777563010280355550028",
    "26291.8881727727150017481590968", "26292.7783242784416735541000086",
    "28667.2253877502108499106829862", "28667.8718928563193037859072949",
    "6695.93898183628882168068759204", "6696.27231064692002917174694564",
    "3329.46558394840962562582322633", "18392.9653078375901683310511408",
    "18393.381763507754171343782222", "18394.3200271547395474540670069",
)


def _hardy_z_args(monkeypatch):
    calls = []

    def counted(t):
        calls.append(t)
        return hardy_z(t)

    monkeypatch.setattr(zeros, "hardy_z", counted)
    return calls


def _ulps_within_the_stop_rule(records, ordinates):
    """Each ordinate's distance to its 30-digit value in ulps, after checking
    that it is within one ulp: the Newton polish stops on a step below
    2^-51 t, taken from a zeta good to about 1e-15."""
    ulps = []
    for rec, ref in zip(records, ordinates, strict=True):
        g = rec.gamma
        with mp.workdps(30):
            err = abs(float(mp.mpf(ref) - g))
        assert err <= math.ulp(g), g
        ulps.append(err / math.ulp(g))
    return ulps


def test_find_zeros_is_as_close_to_mpmath_as_an_euler_maclaurin_scan(monkeypatch):
    # Below t = 5040 the seed is the regula-falsi point of hardy_z at both
    # bracket ends, as in a scan that calls hardy_z everywhere, so the zero
    # is the same float.  Above, the seed is the zero of the Riemann-Siegel
    # formula; both polishes land within an ulp of mpmath, so no ordinate is
    # more than one ulp farther from mpmath than the scan's.
    fast = [find_zeros(a, b) for a, b in _SCAN_WINDOWS]
    _forced_euler_maclaurin_scan(monkeypatch)
    slow = [find_zeros(a, b) for a, b in _SCAN_WINDOWS]
    assert sum(len(t) for t in slow) >= 90
    for (a, b), f, s in zip(_SCAN_WINDOWS, fast, slow):
        assert len(f) == len(s), f"[{a}, {b}]"
        below = f.count_up_to(zeros._RS_SEED_MIN_T, inclusive=False)
        assert _hex(ZeroTable(f[:below])) == _hex(ZeroTable(s[:below])), f"[{a}, {b}]"
    fast_high, slow_high = ([r for t in tables for r in t if r.gamma >= 200.0] for tables in (fast, slow))
    fast_ulps = _ulps_within_the_stop_rule(fast_high, _SCAN_ORDINATES)
    slow_ulps = _ulps_within_the_stop_rule(slow_high, _SCAN_ORDINATES)
    assert all(f <= s + 1.0 for f, s in zip(fast_ulps, slow_ulps))
    assert all(f <= 1.0 for r, f in zip(fast_high, fast_ulps) if r.gamma >= zeros._RS_SEED_MIN_T)


@pytest.mark.parametrize("ref", [g for g in _SCAN_ORDINATES if float(g) > 5040.0][::5])
def test_newton_polish_lands_on_the_zero_from_either_side(ref):
    # A Riemann-Siegel seed is a few ulps from the zero.  From ordinates up to
    # 6 ulps off either way, the Newton polish lands within an ulp of the
    # 30-digit zero: the result depends on the zero, not on the seed.
    with mp.workdps(30):
        want = mp.mpf(ref)
        for k in (-6, -1, 0, 1, 6):
            got = zeros._newton_polish(float(want) + k * math.ulp(float(want)))[0]
            assert abs(float(want - got)) <= math.ulp(got), (ref, k)


def test_find_zeros_falls_back_on_a_zero_and_not_where_cos_2pi_p_vanishes(table, monkeypatch):
    # A grid point on a zero has |Z| inside the bound and calls hardy_z; at
    # t = 2pi (N + 1/4)^2, where cos 2pi p = 0, the C_k polynomials have no
    # singular point, so the sign is certain there and hardy_z is not called.
    # The zero on the first window's left end is outside it; the next is in.
    # The polish from the grid hit stays on it.
    on_zero = table.gammas[100].item()
    quarter = 2.0 * math.pi * 40.25**2
    rs, bound = zeros._riemann_siegel_z(np.array([on_zero, quarter]))
    assert abs(rs[0]) <= bound[0] and abs(rs[1]) > bound[1]
    windows = [(on_zero, on_zero + 2.0), (quarter, quarter + 2.0)]
    calls = _hardy_z_args(monkeypatch)
    fast = [find_zeros(a, b) for a, b in windows]
    assert on_zero in calls and quarter not in calls
    assert refine_zero(on_zero).gamma == on_zero
    _forced_euler_maclaurin_scan(monkeypatch)
    slow = [find_zeros(a, b) for a, b in windows]
    with mp.workdps(30):
        refs = [mp.findroot(mp.siegelz, r.gamma) for t in slow for r in t]
    fast_ulps, slow_ulps = (
        _ulps_within_the_stop_rule([r for t in tables for r in t], refs) for tables in (fast, slow)
    )
    assert len(refs) >= 2
    assert all(f <= s + 1.0 for f, s in zip(fast_ulps, slow_ulps))


def _euler_maclaurin_args(monkeypatch):
    calls = []

    def counted(s):
        calls.append(s)
        return zeta_and_deriv(s)

    monkeypatch.setattr(zeros, "zeta_and_deriv", counted)
    return calls


# The benchmark's cold window for seed 431, about 3e4/t wide near t = 1e4.
_COLD_WINDOW = (9799.603309001137, 9802.664657410256)

# zeta'(rho) at its zeros, from mpmath at 30 digits.
_COLD_ZETA_PRIMES = [
    complex(-0.3504234743282343660812222, -5.290611580225617168748229),
    complex(3.383635338096501405137065, -0.9412065635516995521672924),
    complex(4.292312762836000337587505, 1.386577053396130791300825),
    complex(5.424473421500525977340112, 5.681796592946537018650849),
]


def test_find_zeros_takes_one_euler_maclaurin_step_per_zero_near_1e4(monkeypatch):
    # Near t = 1e4 every grid sign is certain, so no point takes hardy_z, and
    # each Riemann-Siegel seed is a few ulps from the ordinate: the Newton
    # polish mostly stops after its first zeta_and_deriv.  Where |zeta'| is
    # small its steps chase the rounding noise for a few more.
    windows = [(t, t + 3.0) for t in np.random.default_rng(38).uniform(9.5e3, 1.05e4, 20)]
    calls, steps = _hardy_z_args(monkeypatch), _euler_maclaurin_args(monkeypatch)
    found = sum(len(find_zeros(a, b)) for a, b in windows)
    assert found >= 60 and not calls and len(steps) <= 1.5 * found


def test_find_zeros_derivatives_in_the_cold_window():
    # zeta'(rho) comes from the last Newton evaluation, up to the step floor
    # 2^-51 t from the returned ordinate, so it is good to a few 1e-11 only
    # (3.5e-11 relative at worst here, with regula-falsi and with
    # Riemann-Siegel seeds alike)
    found = find_zeros(*_COLD_WINDOW)
    assert len(found) == len(_COLD_ZETA_PRIMES)
    for got, want in zip(found.zeta_primes.tolist(), _COLD_ZETA_PRIMES):
        assert abs(got - want) <= 5e-11 * abs(want), want


def test_find_zeros_takes_hardy_z_once_per_point(monkeypatch):
    # Below t = 200 every grid point takes hardy_z once, and the brackets
    # there reuse those values at their ends; above, the brackets take it at
    # their ends, each once.  Near t = 1e4 the signs are certain, and no
    # point takes hardy_z, not even where cos 2pi p is small (near t =
    # 9927.8, where C0 alone left four points to hardy_z).
    calls = _hardy_z_args(monkeypatch)
    fast = find_zeros(190.0, 210.0)
    grid = [min(190.0 + i * GRID_STEP, 210.0) for i in range(401)]
    assert calls[:200] == grid[:200] and grid[199] < 200.0 <= grid[200]
    assert len(set(calls)) == len(calls) == 200 + 2 * len(fast.gammas[fast.gammas > 200.0])
    del calls[:]
    assert len(find_zeros(9927.5, 9928.2)) == 1 and not calls
    _forced_euler_maclaurin_scan(monkeypatch)
    slow = find_zeros(190.0, 200.0)
    assert len(slow) == 5 and _hex(ZeroTable(fast[:5])) == _hex(slow)


def test_newton_polish_stops_on_a_cycle_of_noisy_steps(monkeypatch):
    # From this seed, Newton on a zeta whose phases were rounded doubles
    # alternated between two ordinates 3 ulps apart and never took a step
    # below the stop rule; with the double-double phases the polish lands
    # within an ulp of the 30-digit zero instead of raising NoConvergence
    seed = float.fromhex("0x1.167016606d101p+15")
    with mp.workdps(30):
        ref = mp.findroot(mp.siegelz, seed)
    _ulps_within_the_stop_rule([refine_zero(seed)], [ref])
    # a regula-falsi seed in this window ran into such a cycle too; the
    # count is mpmath.nzeros(b) - mpmath.nzeros(a)
    _forced_euler_maclaurin_scan(monkeypatch)
    assert len(find_zeros(22004.789712653037, 22006.789712653037)) == 2


def test_newton_polish_refuses_when_no_step_is_small(monkeypatch):
    # a zeta whose Newton step is always 1
    monkeypatch.setattr(zeros, "zeta_and_deriv", lambda s: (1.0 + 0j, -1j))
    with pytest.raises(NoConvergence, match="did not take a step below"):
        refine_zero(14.13)


def test_find_zeros_seeds_newton_at_an_exact_grid_zero(monkeypatch):
    # Z(t) = 0 exactly at the grid point 14.15: that point is the seed, and
    # no sign change brackets it from either side
    exact = 14.0 + 3 * GRID_STEP
    monkeypatch.setattr(zeros, "hardy_z", lambda t, z=hardy_z: 0.0 if t == exact else z(t))
    seeds = []
    monkeypatch.setattr(zeros, "refine_zero", lambda seed: seeds.append(seed) or refine_zero(seed))
    assert find_zeros(14.0, 14.5).gammas.tolist() == pytest.approx([KNOWN_GAMMAS[1]], abs=1e-12)
    assert seeds == [exact]


def test_find_zeros_refuses_an_ordinate_that_escapes_its_bracket(monkeypatch):
    monkeypatch.setattr(zeros, "refine_zero", lambda seed: ZeroRecord(gamma=seed + 1.0))
    with pytest.raises(NoConvergence, match="escaped bracket"):
        find_zeros(14.0, 14.5)


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


def test_table_save_refuses_a_flag_it_cannot_keep(tmp_path, table):
    # ZTBL0001 has no suspect column: load flags |zeta'| below the floor
    # alone, so a producer's flag above it would be dropped, and a sum that
    # raises MultipleZeroFlag before the save would take the record after it
    p = tmp_path / "t.ztbl"
    flagged = ZeroTable([*table[:3], ZeroRecord(gamma=40.0, zeta_prime=0.8 + 0.1j,
                                                refined_bits=53, suspect=True)])
    with pytest.raises(MultipleZeroFlag):
        zeros._zero_sum(flagged, 50.0, lambda rho, zp: np.abs(zp))
    with pytest.raises(DomainError, match="gamma=40.0"):
        flagged.save(p)
    assert not p.exists()
    # a record flagged at |zeta'| = 1e-9, below the floor, saves and reloads
    # flagged
    floored = ZeroTable([*table[:3], ZeroRecord(gamma=40.0, zeta_prime=1e-9 + 0j,
                                                refined_bits=53, suspect=True)])
    floored.save(p)
    loaded = ZeroTable.load(p)
    assert loaded.suspect.tolist() == floored.suspect.tolist() == [False, False, False, True]
    assert loaded[3] == floored[3]


@pytest.mark.parametrize("bad", [
    ZeroRecord(gamma=40.0, zeta_prime=complex(math.nan, 0.1), refined_bits=53),
    ZeroRecord(gamma=40.0, zeta_prime=complex(0.8, -math.inf), refined_bits=53),
    ZeroRecord(gamma=math.inf, zeta_prime=0.8 + 0.1j, refined_bits=53),
    ZeroRecord(gamma=math.nan, zeta_prime=0.8 + 0.1j, refined_bits=53),
])
def test_table_constructor_refuses_a_value_that_is_not_finite(table, bad):
    # a nan zeta' escapes the suspect floor and makes every sum nan; an
    # infinite one adds 1/zeta' = 0 in place of its zero
    with pytest.raises(DomainError, match=f"zero record 3 is not finite: gamma = {bad.gamma}"):
        ZeroTable([*table[:3], bad])


@pytest.mark.parametrize("row", [
    (21.0, math.nan, -0.1, 53),
    (21.0, 0.8, math.inf, 53),
    (math.inf, 0.8, -0.1, 53),
    (math.nan, 0.8, -0.1, 53),
])
def test_table_load_refuses_a_value_that_is_not_finite(tmp_path, row):
    p = tmp_path / "bad.ztbl"
    rows = [(14.0, 0.7, 0.3, 53), row]
    p.write_bytes(b"ZTBL0001" + struct.pack("<Q", len(rows))
                  + b"".join(struct.pack("<dddq", *r) for r in rows))
    with pytest.raises(ParseError, match="zero record 1 is not finite"):
        ZeroTable.load(p)


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
    "a9b73b4774525501e36146655f3c1180fb602cbdf561dd89ceca035247e03be2"
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


def test_packaged_lines_are_the_refined_ordinates():
    # zeros_t1100.txt is the refined table's ordinates to 12 decimals, so no
    # line is more than 5e-13 plus the ordinate's own error from its zero
    lines = zeros.builtin_zeros_path().read_text().split()
    assert lines == [f"{g:.12f}" for g in zeros._load_refined_builtin().gammas.tolist()]


# mpmath.zetazero(n) at 30 digits.
ZETAZERO_30 = {
    1: "14.1347251417346937904572519836",
    2: "21.0220396387715549926284795939",
    100: "236.524229665816205802475507956",
    301: "544.323890101005262903121308756",
    606: "946.765842204727851156732167218",
    730: "1099.3606671785717955946165118",
}


@pytest.mark.parametrize("n", sorted(ZETAZERO_30))
def test_packaged_refined_ordinates_are_within_an_ulp(n):
    # all 730 are within 0.53 ulp, the worst being #1
    g = zeros._load_refined_builtin().gammas[n - 1].item()
    with mp.workdps(30):
        assert abs(mp.mpf(ZETAZERO_30[n]) - g) <= math.ulp(g)


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


def _hexed(rec):
    return [rec.gamma.hex(), rec.zeta_prime.real.hex(), rec.zeta_prime.imag.hex()]


def _refine_extended_spied(monkeypatch, seed):
    """refine_zero(seed, EXTENDED), what each _zeta_prime_from_values call
    returned, and the number of kernel calls inside the last one."""
    calls, derived = [], []
    kernel, derive = zeros.zeta_and_deriv, zeros._zeta_prime_from_values

    def spying(*args):
        calls.clear()
        derived.append(derive(*args))
        return derived[-1]

    monkeypatch.setattr(zeros, "zeta_and_deriv", lambda s: calls.append(s) or kernel(s))
    monkeypatch.setattr(zeros, "_zeta_prime_from_values", spying)
    return refine_zero(seed, EXTENDED), derived, len(calls)


@pytest.mark.parametrize("i", [0, 30, 300, 729])
def test_refine_zero_extended_derives_mpmaths_zeta_prime(monkeypatch, raw_table, i):
    # zeta' from the step's two zeta values and the kernel's differences is
    # the record mpmath's zeta' at the stepped ordinate gives, bit for bit
    seed = float(raw_table.gammas[i])
    got, derived, kernel_calls = _refine_extended_spied(monkeypatch, seed)
    assert len(derived) == 1 and derived[0] is not None and kernel_calls == 4
    assert _hexed(got) == _hexed(oracles.refine_zero_by_three_evaluations(seed, EXTENDED))


@pytest.mark.parametrize("budget, kernel_calls", [(2.0**-200, 0), (2.0**-80, 4)],
                         ids=["small-u", "zeta2-term"])
def test_refine_zero_extended_falls_back_to_mpmaths_zeta_prime(
        monkeypatch, raw_table, budget, kernel_calls):
    # At a budget of 2^-200 every |u| is below the small-|u| bound, so mpmath's
    # zeta' serves before the kernel's differences; at 2^-80 zero #301's
    # zeta'' term (about 2^-77) exceeds it after them.  The record is the same.
    monkeypatch.setattr(zeros, "_DERIV_BUDGET", budget)
    seed = float(raw_table.gammas[300])
    got, derived, calls = _refine_extended_spied(monkeypatch, seed)
    assert derived == [None] and calls == kernel_calls
    assert _hexed(got) == _hexed(oracles.refine_zero_by_three_evaluations(seed, EXTENDED))


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
