"""The benchmark workloads, cold and warm: seeded inputs, set-up, one job, oracles.

A workload is built from ``(seed, tiny, workdir)``; the same seed gives the
same inputs.  ``setup`` is the work a user pays once (it is what setup_s
times, after ``import mrl``; it returns the times of its named parts),
``job`` returns the fixed list of operations one job runs, ``counters``
reports what the workload can see of its layers from outside, and
``check`` compares the first job's outputs with an oracle.  Operations call mrl through module attributes
(``moebius.riesz_mean_direct``), so a Tracer's wrappers see every call.

Seeded parameters are jittered grids (see ``_grid``) or Latin hypercubes,
so the work of a job is nearly the same from seed to seed and run-to-run
spread measures the program and the machine, not the draw.  ``tiny`` shrinks
every workload for the smoke test.  Why each workload exists is in
README.md.
"""

from __future__ import annotations

import io
import json
import math
import time
from dataclasses import dataclass
from typing import Callable

import mpmath
import numpy as np

from mrl import cli, explicit, kernel, moebius, zeros

# Published values of M(10^k), OEIS A084237.
PUBLISHED_M = {10: -1, 100: 1, 10**3: 2, 10**4: -23, 10**5: -48, 10**6: 212, 10**7: 1037}

# Oracle tolerances.  Reference sums are recomputed with numpy's pairwise
# summation where the library uses fsum; they differed by at most 6e-14
# relative on two seeds, so 1e-9 leaves a margin of 10^4.
REL_TOL = 1e-9
INV_ZETA_BOUND = 1e-5  # measured residuals ran from 2e-10 to 9e-7
ZETA_REAL_BOUND = 1e-6
ORDINATE_TOL = 1e-9

# Seeded parameters sit on a log-spaced grid over their range and the seed
# moves each point by up to this much in log; the seed changes the inputs
# (which integers, which ordinates), not how much work a job does.
JITTER = 0.05

_CHUNK = 1 << 20


def _same(out):
    return out


def _no_work(kept):
    return {}


@dataclass
class Op:
    """One timed operation; ``keep`` extracts the plain values the oracle checks
    (outside the timed region) and ``work`` says how much the op asked of
    its layer, for the per-layer rates."""

    kind: str
    call: Callable[[], object]
    keep: Callable[[object], object] = _same
    work: Callable[[object], dict] = _no_work


def _grid(rng, lo: float, hi: float, n: int) -> list[float]:
    """n points at the centres of n equal log-strata of [lo, hi], each moved
    by a seeded factor within exp(+-JITTER); rng=None leaves them centred."""
    a, b = math.log(lo), math.log(hi)
    shift = np.zeros(n) if rng is None else rng.uniform(-JITTER, JITTER, n)
    return [math.exp(a + (b - a) * (i + 0.5) / n + float(shift[i])) for i in range(n)]


def _scan_grid(x_start: float, x_stop: float, points: int = 9) -> list[float]:
    """Log-spaced grid, as ``mrl scan tau-regime`` builds it."""
    a, b = math.log(x_start), math.log(x_stop)
    return [math.exp(a + (b - a) * i / (points - 1)) for i in range(points)]


def _close(value: float, ref: float) -> bool:
    return math.isfinite(value) and abs(value - ref) <= REL_TOL * max(1.0, abs(ref))


def _reference_mu(n_max: int) -> np.ndarray:
    """mu(1..n_max) from one from-1 sieve_segment pass (no checkpoints)."""
    return moebius.sieve_segment(1, n_max + 1, cache=moebius.CheckpointCache()).mu


def _check_published(m_ref: np.ndarray) -> None:
    for x, m in PUBLISHED_M.items():
        if x <= len(m_ref) and int(m_ref[x - 1]) != m:
            raise AssertionError(f"reference sieve gives M({x}) = {m_ref[x - 1]}, published {m}")


def _chunks(n_max: int):
    for a in range(1, n_max + 1, _CHUNK):
        yield a, min(a + _CHUNK, n_max + 1)


def _ref_riesz(mu: np.ndarray, x: float, tau: float) -> float:
    log_norm = math.lgamma(1.0 + tau)
    parts = []
    for a, b in _chunks(int(math.floor(x))):
        ns = np.arange(a, b, dtype=np.float64)
        with np.errstate(divide="ignore"):
            w = np.exp(tau * np.log1p(-ns / x) - log_norm)
        parts.append(float(np.sum(mu[a - 1 : b - 1] * w)))
    return math.fsum(parts)


def _ref_integral(m_ref: np.ndarray, x: float, kappa: float) -> float:
    def antideriv(u):
        return np.log(u) if kappa == 1.0 else u ** (1.0 - kappa) / (1.0 - kappa)

    parts = []
    for a, b in _chunks(int(math.floor(x))):
        ns = np.arange(a, b, dtype=np.float64)
        deltas = antideriv(np.minimum(ns + 1.0, x)) - antideriv(ns)
        parts.append(float(np.sum(m_ref[a - 1 : b - 1] * deltas)))
    return math.fsum(parts)


def _ref_density(m_ref: np.ndarray, X: float) -> float:
    parts = []
    for a, b in _chunks(int(math.floor(X))):
        a = max(a, 2)
        if a >= b:
            continue
        ns = np.arange(a, b, dtype=np.float64)
        m = m_ref[a - 1 : b - 1].astype(np.float64)
        starts = np.maximum(ns, m * m)
        uppers = np.minimum(ns + 1.0, X)
        good = starts < uppers
        parts.append(float(np.sum(np.log(uppers[good] / starts[good]))))
    return math.fsum(parts) / math.log(X)


class Cold:
    """Everything from scratch: every integer-side operation streams mu from
    n = 1 with empty caches, and a few zeros are located and refined with
    no table to start from.  The sieve does almost all the work."""

    name = "cold"
    # (kind, tau or kappa) in ascending order of x: the largest x goes to the
    # 9-point scan and to riesz(tau=1), the ROADMAP's headline rows.
    SEEDED = (("riesz", 1.5), ("riesz", 0.5), ("integral", 1.5), ("riesz", 2.0),
              ("integral", 0.0), ("density", None), ("riesz", 1.0), ("scan", 1.0))

    def __init__(self, seed: int, tiny: bool, workdir) -> None:
        rng = np.random.default_rng(seed)
        lo, hi = (1e3, 1e5) if tiny else (1e5, 1e7)
        self.scan_start = 10.0 if tiny else 100.0
        # cold M(10^k), k = 4, 5, 7: M(10^6) would cost about what the
        # median seeded op costs and blur op_ms.p50 between the two
        self.cold = (10**3, 10**4) if tiny else (10**4, 10**5, 10**7)
        n = len(self.SEEDED)
        xs = _grid(rng, lo, hi, n)
        # Scale the draw so a job requests the same number of integers on
        # every seed as the centred grid does.
        scale = self._ints(_grid(None, lo, hi, n)) / self._ints(xs)
        self.xs = [x * scale for x in xs]
        # One zero window near t = 1e4, about 3 wide (about 0.3 s), and one
        # extended-precision refine of a packaged ordinate near t = 100:
        # both cost well away from the median op, whose neighbours they
        # would otherwise be.
        (t0,) = _grid(rng, 1000.0, 1050.0, 1) if tiny else _grid(rng, 5e3, 2e4, 1)
        self.window = (t0, t0 + (1.0 if tiny else 3e4 / t0))
        packaged = zeros.load_builtin()
        self.ext_gamma = packaged[int(rng.integers(20, 40))].gamma
        self._caches: list = []

    def _ints(self, xs) -> int:
        total = 0
        for (kind, _), x in zip(self.SEEDED, xs):
            pts = _scan_grid(self.scan_start, x) if kind == "scan" else [x]
            total += sum(int(math.floor(p)) for p in pts)
        return total

    def setup(self) -> dict:
        return {}

    def job(self) -> list[Op]:
        cache = moebius.CheckpointCache()
        self._caches = [cache]
        ops = [self._seeded_op(kind, p, x, cache) for (kind, p), x in zip(self.SEEDED, self.xs)]
        for x in self.cold:
            own = moebius.CheckpointCache()  # cold: nothing streamed before it
            self._caches.append(own)
            ops.append(Op("mertens", lambda x=x, c=own: moebius.mertens(x, c),
                          work=lambda _, x=x: {"ints": x}))
        a, b = self.window
        ops.append(Op("find_zeros", lambda: zeros.find_zeros(a, b),
                      keep=lambda table: tuple(table.gammas.tolist()),
                      work=lambda kept: {"zeros": len(kept)}))
        ops.append(Op("refine_extended", lambda: zeros.refine_zero(self.ext_gamma, kernel.EXTENDED),
                      keep=lambda rec: rec.gamma))
        return ops

    def _seeded_op(self, kind, p, x, cache) -> Op:
        ints = {"ints": int(math.floor(x))}
        if kind == "riesz":
            return Op(kind, lambda: moebius.riesz_mean_direct(moebius.RieszQuery(x=x, tau=p), cache),
                      work=lambda _: ints)
        if kind == "integral":
            return Op(kind, lambda: moebius.integral_M(x, p, cache), work=lambda _: ints)
        if kind == "density":
            return Op(kind, lambda: moebius.density_S(x, cache=cache), work=lambda _: ints)
        grid = _scan_grid(self.scan_start, x)
        return Op(kind,
                  lambda: moebius.tau_regime_scan(grid, moebius.TauSchedule("constant", p), cache),
                  keep=lambda rows: tuple(r["m_tau"] for r in rows),
                  work=lambda _: {"ints": sum(int(math.floor(g)) for g in grid)})

    def counters(self) -> dict:
        return {"checkpoints_written": sum(len(c.checkpoints()) for c in self._caches)}

    def check(self, outputs: list) -> list:
        grid = _scan_grid(self.scan_start, self.xs[-1])
        n_max = int(max(max(self.cold), max(self.xs), max(grid)))
        mu = _reference_mu(n_max)
        m_ref = np.cumsum(mu, dtype=np.int32)
        _check_published(m_ref)
        mu = mu.astype(np.float64)
        verdicts = []
        for ((kind, p), x), out in zip(zip(self.SEEDED, self.xs), outputs):
            if out is None:
                verdicts.append(None)
            elif kind == "riesz":
                ref = _ref_riesz(mu, x, p)
                verdicts.append(None if _close(out, ref) else f"riesz({x}, {p}) = {out}, reference {ref}")
            elif kind == "integral":
                ref = _ref_integral(m_ref, x, p)
                verdicts.append(None if _close(out, ref) else f"integral_M({x}, {p}) = {out}, reference {ref}")
            elif kind == "density":
                ref = _ref_density(m_ref, x)
                verdicts.append(None if _close(out, ref) else f"density_S({x}) = {out}, reference {ref}")
            else:
                refs = [_ref_riesz(mu, g, p) for g in grid]
                bad = [(g, v, r) for g, v, r in zip(grid, out, refs) if not _close(v, r)]
                verdicts.append(f"scan rows differ: {bad}" if bad else None)
        n_seeded = len(self.SEEDED)
        for x, out in zip(self.cold, outputs[n_seeded:]):
            ok = out is None or out == PUBLISHED_M[x]
            verdicts.append(None if ok else f"mertens({x}) = {out}, published {PUBLISHED_M[x]}")
        found, ext = outputs[n_seeded + len(self.cold):]
        a, b = self.window
        want = int(mpmath.nzeros(b)) - int(mpmath.nzeros(a))
        ok = found is None or len(found) == want
        verdicts.append(None if ok else f"find_zeros({a}, {b}) found {len(found)}, mpmath counts {want}")
        double = zeros.refine_zero(self.ext_gamma).gamma
        ok = ext is None or (abs(ext - self.ext_gamma) <= ORDINATE_TOL
                             and abs(ext - double) <= ORDINATE_TOL)
        verdicts.append(None if ok else f"extended ordinate {ext}: packaged {self.ext_gamma}, double {double}")
        return verdicts


class Warm:
    """A CLI session with a warm --cache-dir: Mertens lookups resume from the
    checkpoint file set-up filled, and spectral requests read the zero table
    set-up refined and cached.  The lookups do almost all the work."""

    name = "warm"
    TAUS = (0.5, 1.0, 1.5, 2.5)
    T = 1000.0
    DIRECT_MAX_X = 1e4  # explicit values are checked against the sieve up to here

    def __init__(self, seed: int, tiny: bool, workdir) -> None:
        self.x_max = 2 * 10**6 if tiny else 2 * 10**7
        n_seeded = 8 if tiny else 60
        stride = moebius.CHECKPOINT_STRIDE
        blocks = self.x_max // stride
        rng = np.random.default_rng(seed)
        # Latin hypercube over (checkpoint block, offset in the block): x is
        # uniform on [1, x_max] and the resumed distance is stratified.
        perm, u = rng.permutation(n_seeded), rng.random(n_seeded)
        xs = [(i % blocks) * stride + max(1, int((perm[i] + u[i]) / n_seeded * stride))
              for i in range(n_seeded)]
        xs += [x for x in PUBLISHED_M if x <= self.x_max]
        self.lookups = [xs[i] for i in rng.permutation(len(xs))]
        # Two explicit rows at two of the four tau, x on a grid over [10, 1e6],
        # and the identity reports, inv-zeta at a real and a complex s.  They
        # are kept few: each costs 5 to 25 ms, among the cheap lookups, well
        # below the median one, and together under 5 % of the job.
        taus = rng.choice(self.TAUS, 2, replace=False)
        self.explicit_args = [(x, float(t)) for x, t in zip(_grid(rng, 10.0, 1e6, 2), taus)]
        s_real, kappa_a, kappa_real, kappa_im = (float(v) for v in rng.uniform(
            [1.5, 2.0, 1.5, 0.6], [4.0, 4.0, 3.0, 1.5]))
        s_cplx = complex(rng.uniform(1.5, 3.0), rng.uniform(5.0, 30.0))
        lam = float(rng.choice((-1.0, 0.5, 1.0)))
        self.identity_args = [
            ["inv-zeta", "--s", repr(s_real)], ["inv-zeta", "--s", str(s_cplx)],
            ["a-const", "--kappa", repr(kappa_a)], ["zeta-real", "--kappa", repr(kappa_real)],
            ["im-const", "--kappa", repr(kappa_im)], ["jsum", "--lambda", repr(lam)],
            ["hko", "--lambda", repr(lam)]]
        self.cache_dir = workdir / "cache"
        self._n_zeros = {"below": 0, "upto": 0}

    def _main(self, *argv: str) -> str:
        buf = io.StringIO()
        args = ["--zeros", "builtin", "--cache-dir", str(self.cache_dir), "--format", "json", *argv]
        rc = cli.main(args, out=buf)
        if rc != 0:
            raise RuntimeError(f"mrl {' '.join(args)} exited with {rc}")
        return buf.getvalue()

    def setup(self) -> dict:
        t0 = time.perf_counter()
        self._main("mertens", str(self.x_max))
        fill_s = time.perf_counter() - t0
        self._main("identity", "jsum", "--lambda", "0")  # refines and caches the table
        gammas = zeros.load_builtin().gammas
        self._n_zeros = {"below": int(np.searchsorted(gammas, self.T, side="left")),
                         "upto": int(np.searchsorted(gammas, self.T, side="right"))}
        return {"fill_s": fill_s}

    def job(self) -> list[Op]:
        ops = [Op("lookup", lambda x=x: self._main("mertens", str(x)),
                  keep=lambda out: json.loads(out)["value"]) for x in self.lookups]
        below, upto = self._n_zeros["below"], self._n_zeros["upto"]
        ops += [Op("explicit", lambda x=x, t=t: self._main("explicit", repr(x), "--tau", repr(t)),
                   keep=lambda out: json.loads(out)[0]["explicit"],
                   work=lambda _: {"zeros": below}) for x, t in self.explicit_args]
        passes = {"im-const": 2, "hko": 0}
        ops += [Op("identity", lambda a=a: self._main("identity", *a),
                   keep=lambda out: tuple(json.loads(out)[k] for k in ("value", "residual")),
                   work=lambda _, a=a: {"zeros": upto * passes.get(a[0], 1)})
                for a in self.identity_args]
        return ops

    def counters(self) -> dict:
        (path,) = self.cache_dir.glob("*.chk")
        cache = moebius.CheckpointCache.load(path)
        anchors = [cache.anchor(x).x for x in self.lookups]
        return {
            "checkpoints_written": len(cache.checkpoints()),
            "resume_ints": [x - a for x, a in zip(self.lookups, anchors)],
            "anchor_hit_ratio": sum(a > 1 for a in anchors) / len(anchors),
        }

    def check(self, outputs: list) -> list:
        m_ref = np.cumsum(_reference_mu(self.x_max), dtype=np.int32)
        _check_published(m_ref)
        verdicts = []
        for x, out in zip(self.lookups, outputs):
            want = PUBLISHED_M.get(x, int(m_ref[x - 1]))
            verdicts.append(None if out is None or out == want else f"M({x}) = {out}, expected {want}")
        rest = outputs[len(self.lookups):]
        for (x, tau), out in zip(self.explicit_args, rest):
            bad = out is not None and not math.isfinite(out)
            if out is not None and x <= self.DIRECT_MAX_X:
                direct = moebius.riesz_mean_direct(moebius.RieszQuery(x=x, tau=tau),
                                                   moebius.CheckpointCache())
                bad = not abs(out - direct) <= explicit.error_estimate(x, tau, self.T)
            verdicts.append(f"explicit({x}, {tau}) = {out}" if bad else None)
        for args, out in zip(self.identity_args, rest[len(self.explicit_args):]):
            if out is None:
                verdicts.append(None)
                continue
            value, residual = out
            parts = [value["re"], value["im"]] if isinstance(value, dict) else [value]
            bound = {"inv-zeta": INV_ZETA_BOUND, "zeta-real": ZETA_REAL_BOUND}.get(args[0])
            if not all(isinstance(v, float) and math.isfinite(v) for v in parts):
                verdicts.append(f"identity {args}: value {value} is not finite")
            elif bound is not None and not residual <= bound:
                verdicts.append(f"identity {args}: residual {residual} exceeds {bound}")
            else:
                verdicts.append(None)
        return verdicts


WORKLOADS = {w.name: w for w in (Cold, Warm)}


def make(name: str, seed: int, tiny: bool, workdir):
    return WORKLOADS[name](seed, tiny, workdir)
