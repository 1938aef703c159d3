"""Upper bound on the relay reliability function via dummy channels.

E_cs(R) = min over dummy relay channels V with cutset value at most R of
max_P D(V||W|P).  By linearity of the conditional divergence in P, the
inner max is attained at a single input pair, so the objective is the
worst row divergence max_x D(V_x||W_x).  A finite objective needs V to
keep W's zeros, so below the zero-error threshold R0 of
`relay_model.zero_error_rate` no feasible V has one and E_cs is +inf by
that certificate, with no search.  Above it the feasible set is nonconvex.
Each seeded restart draws a zero-cutset target u inside W's support and
searches one scalar, the divergence level t: the level channel V(t) moves
every row from u toward W just until its divergence is at most t, and
bisection finds the smallest level whose V(t) is certified feasible: the
upper end of its cutset bracket is at most R.  A probe the bracket leaves
undecided counts as infeasible, so every accepted V is feasible and every
finite value is a valid upper bound; the search affects tightness only.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .prob_core import EnumBudgetError, _row_divergences
from .relay_model import (_DECIDE_ITERATIONS, RelayChannelSpec, cutset_bound,
                          zero_error_rate)

#: halvings of the row weights in V(t) and of the level
_ROW_HALVINGS = 40
_LEVEL_HALVINGS = 20
#: the grid V(t)'s row weights end on, and Newton steps estimating them
_GRID = 2.0 ** -_ROW_HALVINGS
_NEWTON_STEPS = 6
#: rates this far below the zero-error threshold are +inf by its certificate
_ZERO_ERROR_MARGIN = 1e-9
#: entry-iterations an upper computation may plan: the cutset decisions of
#: the rates that can run restarts, times their 30-iteration cap, times the
#: channel's |X1||X2||Y2||Y3| entries; more raises EnumBudgetError
UPPER_WORK_BUDGET = 10**8


@dataclass
class UpperBoundResult:
    value: float                 # bits; +inf when the bound is vacuous
    witness_v: RelayChannelSpec
    feasibility_gap: float       # hi of the witness's cutset bracket - R, >= 0
    restarts_used: int


def ecs_objective(v: RelayChannelSpec, w: RelayChannelSpec) -> float:
    """max over (x1,x2) of D(V(.,.|x1,x2) || W(.,.|x1,x2)) in bits."""
    if v.sizes != w.sizes:
        raise ValueError("channel alphabets must match")
    return float(_row_divergences(v.w, w.w).max())


def _useless_channel(w: RelayChannelSpec, rng=None):
    """A channel with zero cutset value: (y2,y3) independent of x1 given x2
    and y3 independent of everything.  Its Y2 and Y3 laws mix W's over x1
    and over (x1, x2) with weights drawn from `rng`, uniform when None."""
    n_x1, n_x2, n_y2, n_y3 = w.sizes
    if rng is None:
        mix1 = np.full(n_x1, 1.0 / n_x1)
        mix12 = np.full((n_x1, n_x2), 1.0 / (n_x1 * n_x2))
    else:
        mix1 = rng.dirichlet(np.ones(n_x1))
        mix12 = rng.dirichlet(np.ones(n_x1 * n_x2)).reshape(n_x1, n_x2)
    d_y2 = np.einsum("x,xay->ay", mix1, w.y2_marginal())       # (x2, y2)
    h_y3 = np.einsum("xa,xay->y", mix12, w.y3_marginal())      # (y3,)
    table = np.einsum("ay,z->ayz", d_y2, h_y3)                 # (x2, y2, y3)
    full = np.broadcast_to(table[None], (n_x1, n_x2, n_y2, n_y3)).copy()
    return RelayChannelSpec(full)


def _support_target(w: RelayChannelSpec, rng):
    """A low-cutset channel absolutely continuous with respect to W.

    Each row is a product d(y2|x2) x h(y3) restricted to the row's support
    and renormalized; rows whose restriction has no mass keep W's row.
    Staying inside the support keeps the divergence objective finite.
    """
    n_x1, n_x2 = w.sizes[0], w.sizes[1]
    tgt = np.where(w.w > 0.0, _useless_channel(w, rng).w, 0.0)
    tot = tgt.reshape(n_x1, n_x2, -1).sum(axis=-1)[:, :, None, None]
    mass = tot > 0.0
    return np.where(mass, tgt / np.where(mass, tot, 1.0), w.w)


def _crossing(u, w, t):
    """Per row, an estimate of the lam in (0, 1] where
    D(lam) = D((1-lam) u_x + lam W_x || W_x), convex and decreasing in lam,
    falls to t.

    Newton steps on D - t, from the right of the crossing: since
    D(lam) <= log2(1 + chi2(row || W_x)) = log2(1 + (1-lam)^2 c) with
    c = chi2(u_x||W_x), the crossing lies at or left of
    1 - sqrt((2^t - 1) / c).  By convexity the first step lands left of
    the crossing and the later ones climb to it.  Near lam = 1, where D
    is about quadratic in 1 - lam and plain steps from the left only
    halve the distance, that start is within a few percent of the
    crossing.  Entries outside W's support are left out, so a row with
    mass there gets a wrong estimate, which costs _level_channel loop
    steps but not exactness.
    """
    on = w > 0.0
    w_on = np.where(on, w, 1.0)
    step = w_on - np.where(on, u, 1.0)
    log_w = np.log2(w_on)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        chi2 = (step * step / w_on).sum(axis=(2, 3))
        lam = np.fmax(1.0 - np.sqrt(np.expm1(np.log(2.0) * t) / chi2), _GRID)
        for _ in range(_NEWTON_STEPS):
            v = w_on - (1.0 - lam)[:, :, None, None] * step
            log_ratio = np.log2(v) - log_w
            excess = (v * log_ratio).sum(axis=(2, 3)) - t
            slope = (step * log_ratio).sum(axis=(2, 3))
            # fmax and fmin drop a nan step (0 / 0 where lam = 1 and t = 0)
            lam = np.fmin(np.fmax(lam - excess / slope, _GRID), 1.0)
    return lam


def _level_channel(u, w, t, stats=None):
    """V(t): row x is (1-lam_x) u_x + lam_x W_x with the smallest lam_x in
    [0, 1] such that D(row||W_x) <= t.

    The divergence is convex in lam and 0 at lam = 1, so the rows are
    bisected together, _ROW_HALVINGS times; rows with D(u_x||W_x) <= t
    keep u_x exactly.  Each halving is a decision, and the decisions fix
    the end point on the 2^-_ROW_HALVINGS grid.  So the end point is
    predicted first, by rounding the estimate of `_crossing` up to the
    grid; the midpoints the bisection visits on its way there are exact
    dyadic numbers, and all of them are tested in one stacked call with
    the loop's own arithmetic.  The loop then runs only from the first
    halving whose measured decision differs from the predicted one, from
    the state the matching halvings leave, which is known exactly.  The
    result therefore equals the plain _ROW_HALVINGS-step bisection's, bit
    for bit, whatever the estimate; a poor one only costs loop steps.
    `stats`, when given, gains the call in "level_calls" and the loop
    steps run in "level_resumed_steps".
    """
    moving = ~(_row_divergences(u, w) <= t)
    # grid index of the predicted end point, in [1, 2^_ROW_HALVINGS]
    end = np.clip(np.ceil(_crossing(u, w, t) / _GRID), 1,
                  1 << _ROW_HALVINGS).astype(np.int64)
    below = end - 1
    # halving k splits the interval of 2^s grid steps, s = _ROW_HALVINGS
    # + 1 - k, that holds (end - 1, end]; the end is at or below its
    # midpoint exactly when the bisection's decision is ok
    shifts = np.arange(_ROW_HALVINGS, 0, -1)[:, None, None]
    index = np.where(moving, ((below >> shifts) << shifts)
                     + (1 << (shifts - 1)), 0)
    lam = (index * _GRID)[..., None, None]
    ok = _row_divergences((1.0 - lam) * u + lam * w, w) <= t
    wrong = (ok != (~moving | (end <= index))).any(axis=(1, 2))
    done = int(np.argmax(wrong)) if wrong.any() else _ROW_HALVINGS
    # the state the first `done` halvings leave
    shift = _ROW_HALVINGS - done
    lo = np.where(moving, ((below >> shift) << shift) * _GRID, 0.0)
    hi = np.where(moving, lo + (1 << shift) * _GRID, 0.0)
    for _ in range(done, _ROW_HALVINGS):
        mid = 0.5 * (lo + hi)
        lam = mid[:, :, None, None]
        ok = _row_divergences((1.0 - lam) * u + lam * w, w) <= t
        hi = np.where(ok, mid, hi)
        lo = np.where(ok, lo, mid)
    if stats is not None:
        stats["level_calls"] = stats.get("level_calls", 0) + 1
        stats["level_resumed_steps"] = (stats.get("level_resumed_steps", 0)
                                        + _ROW_HALVINGS - done)
    lam = hi[:, :, None, None]
    return (1.0 - lam) * u + lam * w


def _smallest_level(u, w, top, feasible, stats=None):
    """Bisect the level over (0, top]; returns the last V(t) that passed
    `feasible`, or None when no probed level passed.  `stats` is passed on
    to _level_channel."""
    lo, hi, passed = 0.0, top, None
    for _ in range(_LEVEL_HALVINGS):
        mid = 0.5 * (lo + hi)
        table = _level_channel(u, w, mid, stats)
        if feasible(table):
            hi, passed = mid, table
        else:
            lo = mid
    return passed


class _Decisions:
    """Cutset decisions on one channel table from the uniform joint,
    memoised by rate.

    Such a decision runs the same iterates at every rate and stops at the
    first whose bracket settles the rate, so one whose hi came out at most
    r' comes out feasible at every r >= r' as well.  So a rate at or above
    the lowest one decided feasible needs no run, and every other rate
    runs once.
    """

    def __init__(self, table, stats):
        self.table, self.stats, self.spec = table, stats, None
        self.feasible_from = np.inf
        self.runs = {}                 # rate -> (hi, witness joint)

    def __call__(self, r):
        """(hi, witness) of the decision at r: its own run's, or, at or
        above a rate whose run came out feasible, that run's, whose hi is
        then at most r too."""
        if r >= self.feasible_from:
            r = self.feasible_from
        elif r not in self.runs:
            if self.spec is None:
                self.spec = RelayChannelSpec(self.table)
            _, hi, witness = cutset_bound(self.spec, decide_at=r,
                                          stats=self.stats)
            self.runs[r] = hi, witness
            if hi <= r:
                self.feasible_from = r
        return self.runs[r]


def _first_feasible(rates, feasible):
    """Index of the first of the nondecreasing `rates` that the monotone
    test `feasible` accepts; len(rates) when it accepts none.  The lowest
    and then the highest rate are probed first, so a grid wholly on one
    side of the threshold costs one or two probes; then it bisects."""
    lo, hi = 0, len(rates)
    ends = [0, len(rates) - 1]
    while lo < hi:
        mid = ends.pop(0) if ends else (lo + hi) // 2
        if feasible(rates[mid]):
            hi = mid
        else:
            lo = mid + 1
    return lo


class _SweepFacts:
    """What the rates of one sweep over W share, built once: R0's
    certificate, the +inf witness and its decisions, W's own decisions and
    the first rate at which W is feasible, and the restart targets u_s
    with their levels top_s, drawn on first use.  `at(r)` is the bound at
    one of the `rates` the facts were built for, the same at every rate as
    when built for that rate alone.

    The rates that can run restarts are those from R0 - 1e-9 up to the
    first at which W is feasible; each makes at most 2 + 21 x restarts
    cutset decisions of at most 30 iterations over W's entries, and a
    planned total over UPPER_WORK_BUDGET raises EnumBudgetError before
    any restart.
    """

    def __init__(self, w, rates, restarts, seed, stats):
        if restarts < 1:
            raise ValueError("restarts must be >= 1")
        # a witness stays feasible at higher rates only, and the search for
        # the first rate at which W is feasible bisects the grid
        if any(b < a for a, b in zip(rates, rates[1:])):
            raise ValueError("rates must be nondecreasing")
        if any(r < 0 for r in rates):
            raise ValueError("r must be nonnegative")
        self.w, self.restarts, self.seed, self.stats = w, restarts, seed, stats
        cert = zero_error_rate(w)
        self.r0 = cert.rate - _ZERO_ERROR_MARGIN
        decided = [r for r in rates if r < self.r0]
        if stats is not None:
            stats.setdefault("zero_error", {
                "rate": cert.rate, "x2": cert.x2, "x1": list(cert.x1s),
                "exact": cert.exact, "decided": []})["decided"].extend(decided)
        self.channel = _Decisions(w.w, stats)
        searchable = [r for r in rates if not r < self.r0]
        searched = _first_feasible(searchable,
                                   lambda r: self.channel(r)[0] <= r)
        decisions = searched * (2 + (1 + _LEVEL_HALVINGS) * restarts)
        work = decisions * _DECIDE_ITERATIONS * w.w.size
        if work > UPPER_WORK_BUDGET:
            raise EnumBudgetError(
                f"upper plans {decisions} cutset decisions ({searched} rates "
                f"x (2 + {1 + _LEVEL_HALVINGS} x {restarts} restarts)) of "
                f"{_DECIDE_ITERATIONS} iterations over {w.w.size} entries, "
                f"{work:.3g} entry-iterations, over the budget of "
                f"{UPPER_WORK_BUDGET:.0e}")
        if stats is not None:
            record = stats.setdefault("rates", {
                "zero_error": 0, "channel_feasible": 0, "searched": 0,
                "first_feasible": None})
            record["zero_error"] += len(decided)
            record["channel_feasible"] += len(searchable) - searched
            record["searched"] += searched
            known = [r for r in (record["first_feasible"],
                                 *searchable[searched:searched + 1])
                     if r is not None]
            record["first_feasible"] = min(known, default=None)
        self._targets = []

    @cached_property
    def useless(self):
        """The +inf witness and its decisions."""
        witness = _useless_channel(self.w)
        return witness, _Decisions(witness.w, self.stats)

    def _target(self, s):
        """Restart s's target u and its level top, at which V(top) is u."""
        if s == len(self._targets):
            u = _support_target(
                self.w, np.random.default_rng(self.seed + 1000 * s + 1))
            self._targets.append((u, float(_row_divergences(u, self.w.w)
                                           .max())))
        return self._targets[s]

    def at(self, r, warm_starts=None):
        """ecs_upper's result at rate r, one of the facts' `rates`."""
        w, stats = self.w, self.stats
        if r < self.r0:
            # +inf by R0's certificate: no channel inside W's support has
            # cutset value r or less.  A product channel with zero cutset
            # value is still a feasible witness, certifying one-sided
            # validity
            witness, decide = self.useless
            return UpperBoundResult(np.inf, witness,
                                    max(decide(r)[0] - r, 0.0),
                                    self.restarts)
        hi, start = self.channel(r)    # start: witness of the last bracket
        if hi <= r:
            return UpperBoundResult(0.0, w, 0.0, 0)

        def cutset_hi(table):
            nonlocal start
            _, hi, start = cutset_bound(RelayChannelSpec(table),
                                        candidate=start, decide_at=r,
                                        stats=stats)
            return hi

        def feasible(table):
            return cutset_hi(table) <= r

        best_val, best_table = np.inf, None
        for s in range(self.restarts):
            u, top = self._target(s)
            if not feasible(u):
                continue
            table = _smallest_level(u, w.w, top, feasible, stats)
            if table is None:
                table = u
            val = ecs_objective(RelayChannelSpec(table), w)
            if val < best_val:
                best_val, best_table = val, table

        for table in warm_starts or ():
            tbl = np.asarray(table, dtype=np.float64)
            if tbl.shape == w.w.shape and feasible(tbl):
                val = ecs_objective(RelayChannelSpec(tbl), w)
                if val < best_val:
                    best_val, best_table = val, tbl

        if best_table is None:
            # the restarts found no feasible channel: +inf, with the same
            # witness as below R0, decided from the last bracket's witness
            witness = self.useless[0]
            return UpperBoundResult(np.inf, witness,
                                    max(cutset_hi(witness.w) - r, 0.0),
                                    self.restarts)

        # every accepted table has a certified cutset value of at most r
        return UpperBoundResult(best_val, RelayChannelSpec(best_table), 0.0,
                                self.restarts)


def ecs_upper(r: float, w: RelayChannelSpec, restarts: int = 16,
              seed: int = 0, warm_starts=None,
              stats: dict = None) -> UpperBoundResult:
    """Upper-bound value at rate r with a certified feasible dummy-channel
    witness.

    Below the zero-error threshold R0 of `zero_error_rate` (r < R0 - 1e-9)
    the value is +inf by that certificate: every V with a finite objective
    has cutset value at least R0, so no restart runs.  Otherwise restart s
    draws its target from `np.random.default_rng(seed + 1000 * s + 1)`;
    `restarts` must be at least 1 and is reported as used either way.
    `warm_starts` optionally supplies candidate channel tables (used by
    rate sweeps to keep values monotone: any witness feasible at a lower
    rate stays feasible here).  A +inf value's witness is the zero-cutset
    `_useless_channel` with uniform mixtures.  Every cutset bracket is a
    decision against r, warm-started from the previous bracket's witness;
    `stats` is passed on to cutset_bound and gains "zero_error": R0's rate,
    x2, x1 set and exactness, and the rates it decided; and "rates": the
    rates settled by R0 ("zero_error") and by W's own feasibility
    ("channel_feasible"), those "searched", and the "first_feasible" one.
    Planned work over UPPER_WORK_BUDGET raises EnumBudgetError.
    """
    return _SweepFacts(w, [r], restarts, seed, stats).at(r, warm_starts)


def ecs_upper_sweep(rates, w: RelayChannelSpec, restarts: int = 16,
                    seed: int = 0, stats: dict = None):
    """Upper bounds over a nondecreasing rate grid, warm-started and
    running-minimum enforced; returns (results, violation_count).
    `restarts` (>= 1), `seed` and `stats` mean what they mean for
    ecs_upper, and each rate's result is ecs_upper's with the previous
    rate's witness as its warm start.  The facts about W alone are built
    once for the sweep, and the work of the whole grid is checked against
    UPPER_WORK_BUDGET before any restart.  A witness stays feasible at
    higher rates only, so a falling grid raises ValueError."""
    rates = list(rates)
    facts = _SweepFacts(w, rates, restarts, seed, stats)
    results = []
    violations = 0
    prev_tables = []
    prev_val = np.inf
    for r in rates:
        res = facts.at(r, prev_tables)
        if res.value > prev_val + 1e-6:
            violations += 1
            res = UpperBoundResult(prev_val, results[-1].witness_v,
                                   results[-1].feasibility_gap,
                                   res.restarts_used)
        prev_tables = [res.witness_v.w]
        prev_val = min(prev_val, res.value)
        results.append(res)
    return results, violations
