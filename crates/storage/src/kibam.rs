//! Kinetic battery model (KiBaM).
//!
//! The paper dismisses battery-aware DPM for fuel cells on two grounds:
//! batteries exhibit a **recovery effect** (charge becomes available again
//! after rest) and a **rate-capacity effect** (high discharge rates reduce
//! apparent capacity), while "FCs have no recovery effect". This module
//! implements the classic two-well kinetic battery model of Manwell &
//! McGowan so those effects exist *somewhere in this workspace* and the
//! claim can be demonstrated rather than asserted: the ablation compares a
//! KiBaM-buffered hybrid against the ideal buffer and shows which policy
//! conclusions survive.
//!
//! The model splits the charge into an *available* well (fraction `c`)
//! that supplies the load directly and a *bound* well that refills it
//! through a valve with rate constant `k`:
//!
//! ```text
//! dy1/dt = −I + k·(h2 − h1),   h1 = y1/c
//! dy2/dt =      −k·(h2 − h1),  h2 = y2/(1 − c)
//! ```
//!
//! An empty available well under a demand the valve cannot match stays
//! empty: the load then receives exactly the valve flow `k·h2` and the
//! rest is deficit. Together with the total charge kept as state, this
//! makes a step of any length agree with the same time cut into shorter
//! steps, so the simulator's closed-form phases and its per-chunk
//! oracle agree on KiBaM as on the lossless buffer.

use fcdpm_units::{Amps, Charge, Seconds};

use crate::{ChargeStorage, StorageFlow};

/// A two-well kinetic battery.
///
/// # Examples
///
/// ```
/// use fcdpm_storage::{ChargeStorage, KineticBattery};
/// use fcdpm_units::{Amps, Charge, Seconds};
///
/// let mut batt = KineticBattery::new(Charge::new(100.0), 0.5, 0.05, 1.0);
/// // Drain hard, rest, and the available well recovers.
/// batt.step(Amps::new(-5.0), Seconds::new(8.0));
/// let tired = batt.available();
/// batt.step(Amps::ZERO, Seconds::new(60.0));
/// assert!(batt.available() > tired, "recovery effect");
/// ```
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct KineticBattery {
    capacity: Charge,
    /// Available-well fraction `c ∈ (0, 1)`.
    c: f64,
    /// Valve rate constant `k` (1/s).
    k: f64,
    /// Available charge `y1`.
    y1: f64,
    /// Total charge `y1 + y2`; the bound well holds `total − y1`. The
    /// total moves only by the net current, so it is kept as its own
    /// state: a step at open circuit leaves the state of charge
    /// bit-identical however the time is cut into steps.
    total: f64,
}

impl KineticBattery {
    /// Creates a battery with total `capacity`, well split `c`, valve
    /// rate `k` (1/s), starting at `initial_fraction` of capacity
    /// distributed at equilibrium.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is negative, `c` is not in `(0, 1)`, `k` is
    /// not positive, or `initial_fraction` is not in `[0, 1]`.
    #[must_use]
    #[track_caller]
    pub fn new(capacity: Charge, initial_fraction: f64, c: f64, k: f64) -> Self {
        assert!(!capacity.is_negative(), "capacity must be non-negative");
        assert!(
            (0.0..1.0).contains(&c) && c > 0.0,
            "well split must be in (0, 1)"
        );
        assert!(k > 0.0 && k.is_finite(), "valve rate must be positive");
        assert!(
            (0.0..=1.0).contains(&initial_fraction),
            "initial fraction must be in [0, 1]"
        );
        let total = capacity.amp_seconds() * initial_fraction;
        Self {
            capacity,
            c,
            k,
            y1: total * c,
            total,
        }
    }

    /// Charge immediately available to the load (the `y1` well).
    #[must_use]
    pub fn available(&self) -> Charge {
        Charge::new(self.y1)
    }

    /// Charge bound in the slow well (the `y2` well).
    #[must_use]
    pub fn bound(&self) -> Charge {
        Charge::new(self.total - self.y1)
    }

    /// Advances the two wells by `dt` under constant current `i`
    /// (positive charges, negative discharges) using the closed-form
    /// solution. Does **not** clamp — the caller handles boundaries.
    fn advance(&mut self, i: f64, dt: f64) {
        // Manwell–McGowan closed form with combined rate k' = k/(c(1−c)).
        let kp = self.k / (self.c * (1.0 - self.c));
        let e = (-kp * dt).exp();
        let y0 = self.total;
        // The literature states the form for a discharge current I > 0;
        // charging is the same equations with I < 0.
        let discharge = -i;
        self.y1 = self.y1 * e + (y0 * kp * self.c - discharge) * (1.0 - e) / kp
            - discharge * self.c * (kp * dt - 1.0 + e) / kp;
        // The valve conserves charge: only the current moves the total.
        self.total = y0 + i * dt;
    }

    /// The valve flow `k·h2` from the bound well into the available one
    /// (the flow an emptied available well passes on to the load).
    fn valve(&self) -> f64 {
        self.k * (self.total - self.y1) / (1.0 - self.c)
    }

    /// Whether a probe state has left the feasible region: available
    /// well negative, or total charge beyond capacity (both with the
    /// rail tolerance the stepper's guards absorb).
    fn violated(&self, probe: &Self) -> bool {
        probe.y1 < -1e-12 || probe.total > self.capacity.amp_seconds() + 1e-12
    }

    /// Advances the wells by the largest prefix of `dt` for which the
    /// available well stays non-negative (discharge) or the total stays
    /// within capacity (charge), and returns that prefix.
    ///
    /// The whole of `dt` is tried first; when it stays feasible — the
    /// common case — its state is kept, so such a step costs a single
    /// advance. Otherwise both rails have closed forms: the wells
    /// conserve total charge, so the capacity rail is hit at the exact
    /// *linear* crossing, and the available-well rail solves the
    /// Manwell–McGowan transcendental via Lambert W
    /// ([`Self::depletion_time`]). The analytic candidate is validated by
    /// advancing to it; bisection remains only as the fallback for the
    /// degenerate cases where the closed form yields no usable root
    /// (zero effective discharge, a W argument outside the real domain,
    /// or a candidate the rail tolerance rejects). A step that starts on
    /// the empty rail under a demand the valve cannot meet has an empty
    /// prefix, known without advancing.
    fn advance_feasible(&mut self, i: f64, dt: f64) -> f64 {
        if i < 0.0 && self.y1 <= 0.0 && self.valve() <= -i {
            return 0.0;
        }
        let start = self.clone();
        self.advance(i, dt);
        if !start.violated(self) {
            return dt;
        }
        let candidate = if i > 0.0 {
            // Charging: d(y1+y2)/dt = i exactly, and the available well
            // cannot go negative under a non-negative current (at y1 = 0
            // both the current and the valve push it up), so the only
            // reachable rail is capacity — a linear crossing.
            Some(((start.capacity.amp_seconds() - start.total) / i).clamp(0.0, dt))
        } else {
            start.depletion_time(-i, dt)
        };
        if let Some(t) = candidate {
            *self = start.clone();
            self.advance(i, t);
            if !start.violated(self) {
                return t;
            }
        }
        let t = start.bisect_prefix(i, dt);
        *self = start;
        self.advance(i, t);
        t
    }

    /// Analytic time at which the available well empties under constant
    /// discharge, if it does within `dt`.
    ///
    /// With `k' = k/(c(1−c))`, `y0 = y1 + y2` and discharge `I > 0`, the
    /// closed-form available well is
    ///
    /// ```text
    /// y1(t) = α·e^(−k'·t) + β − γ·t
    /// α = y1(0) − y0·c + I(1−c)/k'
    /// β = y0·c − I(1−c)/k'
    /// γ = I·c
    /// ```
    ///
    /// Substituting `u = k'(t − β/γ)` turns `y1(t) = 0` into
    /// `u·e^u = (α·k'/γ)·e^(−k'·β/γ)` — a Lambert-W equation with roots
    /// `t = β/γ + W(z)/k'`. The sign of `α` fixes the geometry: `α ≥ 0`
    /// makes `y1` convex and strictly decreasing (one root, principal
    /// branch, `z ≥ 0`); `α < 0` makes it concave with `z ∈ [−1/e, 0)`,
    /// where both real branches yield candidates and the *largest* root
    /// inside `[0, dt]` is the descending crossing (the smaller one, if
    /// non-negative at all, is the well touching zero before the valve
    /// refills it — still feasible).
    fn depletion_time(&self, discharge: f64, dt: f64) -> Option<f64> {
        let kp = self.k / (self.c * (1.0 - self.c));
        let y0 = self.total;
        let alpha = self.y1 - y0 * self.c + discharge * (1.0 - self.c) / kp;
        let beta = y0 * self.c - discharge * (1.0 - self.c) / kp;
        let gamma = discharge * self.c;
        if gamma <= 0.0 || !gamma.is_finite() {
            return None;
        }
        let z = alpha * kp / gamma * (-kp * beta / gamma).exp();
        if !z.is_finite() {
            return None;
        }
        let mut crossing: Option<f64> = None;
        let mut consider = |w: f64| {
            let t = beta / gamma + w / kp;
            if t.is_finite() && (0.0..=dt).contains(&t) {
                crossing = Some(crossing.map_or(t, |best: f64| best.max(t)));
            }
        };
        if let Some(w) = lambert_w(z, true) {
            consider(w);
        }
        if z < 0.0 {
            if let Some(w) = lambert_w(z, false) {
                consider(w);
            }
        }
        crossing
    }

    /// Bisection fallback for [`Self::advance_feasible`] (the pre-analytic
    /// implementation): 60 probe halvings on the violation predicate.
    fn bisect_prefix(&self, i: f64, dt: f64) -> f64 {
        let (mut lo, mut hi) = (0.0f64, dt);
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            let mut probe = self.clone();
            probe.advance(i, mid);
            if self.violated(&probe) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        lo
    }
}

/// `1/e`, the lower edge of the real Lambert-W domain.
const INV_E: f64 = 1.0 / core::f64::consts::E;

/// Real Lambert W by Halley iteration: solves `w·e^w = z` on the
/// principal branch `W₀` (`w ≥ −1`, `z ≥ −1/e`) or the lower branch
/// `W₋₁` (`w ≤ −1`, `−1/e ≤ z < 0`). Returns `None` outside the branch
/// domain or if the iteration fails to meet a small residual — callers
/// fall back to bisection, so refusal is always safe.
fn lambert_w(z: f64, principal: bool) -> Option<f64> {
    if !z.is_finite() || z < -INV_E {
        return None;
    }
    if !principal && z >= 0.0 {
        return None;
    }
    // Initial guesses: branch-point series in p = √(2(e·z + 1)) near
    // z = −1/e, ln(1+z) on the principal branch elsewhere, and the
    // z → 0⁻ asymptotic ln(−z) − ln(−ln(−z)) deep on the lower branch.
    let p = (2.0 * (core::f64::consts::E * z + 1.0)).max(0.0).sqrt();
    let mut w = if principal {
        if z < 0.0 {
            -1.0 + p - p * p / 3.0
        } else {
            z.ln_1p()
        }
    } else if z > -0.25 {
        let l = (-z).ln();
        l - (-l).ln()
    } else {
        -1.0 - p - p * p / 3.0
    };
    for _ in 0..64 {
        let ew = w.exp();
        let f = w * ew - z;
        let w1 = w + 1.0;
        let denom = ew * w1 - (w + 2.0) * f / (2.0 * w1);
        if !denom.is_finite() || denom == 0.0 {
            break;
        }
        let next = w - f / denom;
        if !next.is_finite() {
            break;
        }
        let done = (next - w).abs() <= 1e-14 * (1.0 + next.abs());
        w = next;
        if done {
            break;
        }
    }
    let residual = w * w.exp() - z;
    (residual.abs() <= 1e-9 * (1.0 + z.abs())).then_some(w)
}

impl ChargeStorage for KineticBattery {
    fn capacity(&self) -> Charge {
        self.capacity
    }

    fn soc(&self) -> Charge {
        Charge::new(self.total)
    }

    fn step(&mut self, net: Amps, dt: Seconds) -> StorageFlow {
        assert!(!dt.is_negative(), "duration must be non-negative");
        let mut flow = StorageFlow::NONE;
        if dt.is_zero() {
            return flow;
        }
        let i = net.amps();
        let total = dt.seconds();
        let feasible = self.advance_feasible(i, total);
        // Numerical guards at the boundaries.
        self.y1 = self.y1.max(0.0);
        self.total = self.total.min(self.capacity.amp_seconds());
        self.y1 = self.y1.min(self.total);
        let moved = Charge::new((i * feasible).abs());
        let rest = total - feasible;
        if i >= 0.0 {
            flow.charged = moved;
            flow.bled = Charge::new(i * rest);
        } else {
            flow.discharged = moved;
            flow.deficit = Charge::new(-i * rest);
        }
        if rest > 1e-12 {
            let bound = self.total - self.y1;
            if i < 0.0 && self.valve() <= -i {
                // The available well emptied under a demand the valve
                // cannot match, so it stays empty for the rest of the
                // step: the load receives exactly the valve flow
                // `k·h2`, and the bound well drains exponentially. This
                // is the limit of ever-shorter steps, so the result does
                // not depend on how a stretch is cut into steps.
                let drained = bound * (1.0 - (-self.k * rest / (1.0 - self.c)).exp());
                self.y1 = 0.0;
                self.total -= drained;
                flow.discharged += Charge::new(drained);
                flow.deficit = Charge::new((-i * rest - drained).max(0.0));
            } else {
                // The remainder passes at open circuit: the wells keep
                // equalizing (this is exactly the recovery effect).
                self.advance(0.0, rest);
                self.y1 = self.y1.max(0.0);
            }
        }
        flow
    }

    fn set_soc(&mut self, soc: Charge) {
        let total = soc.clamp(Charge::ZERO, self.capacity).amp_seconds();
        self.y1 = total * self.c;
        self.total = total;
    }

    /// Linear while the available well is non-empty — the wells
    /// conserve total charge, so the state of charge moves at exactly
    /// `net`. A discharge that empties the well first continues on the
    /// empty rail, where the state of charge falls only as the bound
    /// well drains through the valve: `total(t_d + s) = total_d −
    /// bound_d·(1 − e^(−k·s/(1−c)))` from the depletion time `t_d`
    /// where `advance_feasible` stops, solved for the target in closed
    /// form. A target below that drain's asymptote, or past the
    /// horizon, is `None`.
    fn time_to_soc(&self, net: Amps, target: Charge, horizon: Seconds) -> Option<Seconds> {
        let (i, target, horizon) = (net.amps(), target.amp_seconds(), horizon.seconds());
        if i == 0.0 || target < 0.0 || target > self.capacity.amp_seconds() {
            return None;
        }
        let linear = (target - self.total) / i;
        if linear < 0.0 {
            return None;
        }
        // Charging moves the total at exactly `i` up to capacity, and the
        // target lies within it. A discharge does the same until the
        // available well empties; one advance rules that out cheaply.
        let reach = linear.min(horizon);
        let mut probe = self.clone();
        let depleted = if i > 0.0 {
            reach
        } else {
            probe.advance_feasible(i, reach)
        };
        if depleted >= reach {
            return (linear <= horizon).then_some(Seconds::new(linear));
        }
        // `probe` is the state `step` reaches at the depletion time; apply
        // its boundary guard.
        probe.y1 = probe.y1.max(0.0).min(probe.total);
        let bound = probe.total - probe.y1;
        if probe.valve() > -i || bound <= 0.0 {
            // `step` passes the rest at open circuit: the state of
            // charge stays put, short of the target.
            return None;
        }
        let fraction = (probe.total - target) / bound;
        if fraction >= 1.0 {
            return None;
        }
        let drain = -(-fraction.max(0.0)).ln_1p() * (1.0 - self.c) / self.k;
        let t = depleted + drain;
        (t <= horizon).then_some(Seconds::new(t))
    }

    fn step_coalesced(&mut self, net: Amps, duration: Seconds) -> StorageFlow {
        // `step` already solves the two-well ODE in closed form for an
        // arbitrary duration and finds the rail crossing itself; the
        // default lossless-projection split would disagree with the
        // diffusion-limited boundary.
        self.step(net, duration)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The feasible prefix of a step, leaving the battery untouched.
    fn feasible_prefix(b: &KineticBattery, i: f64, dt: f64) -> f64 {
        b.clone().advance_feasible(i, dt)
    }

    fn battery() -> KineticBattery {
        KineticBattery::new(Charge::new(100.0), 1.0, 0.3, 0.005)
    }

    #[test]
    fn conserves_charge_at_open_circuit() {
        let mut b = battery();
        let before = b.soc();
        b.step(Amps::ZERO, Seconds::new(1000.0));
        assert!(b.soc().approx_eq(before, 1e-9));
    }

    #[test]
    fn equilibrium_distribution_is_stationary() {
        let mut b = battery();
        let (y1, y2) = (b.available(), b.bound());
        b.step(Amps::ZERO, Seconds::new(500.0));
        assert!(b.available().approx_eq(y1, 1e-6));
        assert!(b.bound().approx_eq(y2, 1e-6));
    }

    #[test]
    fn recovery_effect() {
        let mut b = battery();
        // Hard discharge depletes the available well faster than the
        // valve refills it.
        b.step(Amps::new(-2.0), Seconds::new(12.0));
        let tired = b.available();
        let soc_before_rest = b.soc();
        // Rest: bound charge migrates back — no net charge added.
        b.step(Amps::ZERO, Seconds::new(300.0));
        assert!(b.available() > tired + Charge::new(1.0), "no recovery seen");
        assert!(b.soc().approx_eq(soc_before_rest, 1e-6));
    }

    #[test]
    fn rate_capacity_effect() {
        // The same stored charge delivers less before the first brownout
        // at a high rate than at a low rate.
        let drain_until_deficit = |rate: f64| {
            let mut b = battery();
            let mut delivered = 0.0;
            for _ in 0..100_000 {
                let flow = b.step(Amps::new(-rate), Seconds::new(1.0));
                delivered += flow.discharged.amp_seconds();
                if !flow.deficit.is_zero() {
                    break;
                }
            }
            delivered
        };
        let slow = drain_until_deficit(0.05);
        let fast = drain_until_deficit(2.0);
        assert!(
            fast < 0.8 * slow,
            "rate-capacity effect missing: fast {fast}, slow {slow}"
        );
    }

    #[test]
    fn discharge_stops_at_empty_available_well() {
        let mut b = KineticBattery::new(Charge::new(10.0), 0.5, 0.3, 0.001);
        let flow = b.step(Amps::new(-10.0), Seconds::new(10.0));
        assert!(flow.deficit > Charge::ZERO);
        assert!(b.available() >= Charge::ZERO);
        assert!(flow.discharged <= Charge::new(5.0) + Charge::new(1.0));
    }

    #[test]
    fn charge_stops_at_capacity() {
        let mut b = KineticBattery::new(Charge::new(10.0), 0.9, 0.3, 0.05);
        let flow = b.step(Amps::new(5.0), Seconds::new(10.0));
        assert!(flow.bled > Charge::ZERO);
        assert!(b.soc() <= b.capacity() + Charge::new(1e-9));
    }

    #[test]
    fn set_soc_restores_equilibrium() {
        let mut b = battery();
        b.set_soc(Charge::new(50.0));
        assert!(b.available().approx_eq(Charge::new(15.0), 1e-9));
        assert!(b.bound().approx_eq(Charge::new(35.0), 1e-9));
    }

    #[test]
    fn implements_storage_trait() {
        let mut boxed: Box<dyn ChargeStorage> = Box::new(battery());
        let flow = boxed.step(Amps::new(-0.5), Seconds::new(2.0));
        assert!((flow.discharged.amp_seconds() - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "well split")]
    fn invalid_split_rejected() {
        let _ = KineticBattery::new(Charge::new(10.0), 0.5, 1.0, 0.1);
    }

    #[test]
    fn lambert_w_solves_both_branches() {
        // W₀(1) is the omega constant; W₀/W₋₁ straddle −1 on (−1/e, 0).
        let w = lambert_w(1.0, true).unwrap();
        assert!((w - 0.567_143_290_409_783_8).abs() < 1e-12);
        for z in [-0.35, -0.2, -0.05, -0.001] {
            let w0 = lambert_w(z, true).unwrap();
            let wm1 = lambert_w(z, false).unwrap();
            assert!(w0 >= -1.0 && wm1 <= -1.0, "branch order at z = {z}");
            assert!((w0 * w0.exp() - z).abs() < 1e-9, "W0 residual at {z}");
            assert!((wm1 * wm1.exp() - z).abs() < 1e-9, "W-1 residual at {z}");
        }
        assert!(lambert_w(-0.5, true).is_none(), "below −1/e has no real W");
        assert!(lambert_w(0.5, false).is_none(), "W₋₁ needs z < 0");
    }

    /// The analytic-vs-bisection crossing fixture pair of PR 9: the
    /// Lambert-W depletion time and the exact linear capacity crossing
    /// must land where the retired 60-iteration bisection landed.
    #[test]
    fn analytic_crossings_match_bisection() {
        // Discharge rail, both geometries: convex (α ≥ 0: hard drain
        // from equilibrium) and concave (α < 0: a drained available well
        // under a light load, where the valve refill bows y1 upward
        // before the linear term wins).
        let convex = KineticBattery::new(Charge::new(100.0), 1.0, 0.3, 0.005);
        let mut drained = KineticBattery::new(Charge::new(100.0), 0.0, 0.3, 0.005);
        drained.y1 = 5.0;
        drained.total = 50.0;
        let cases = [
            (&convex, -2.0, 60.0),
            (&convex, -0.9, 200.0),
            (&drained, -0.1, 2000.0),
            (&drained, -0.25, 400.0),
        ];
        for (batt, i, dt) in cases {
            let analytic = feasible_prefix(batt, i, dt);
            let bisected = batt.bisect_prefix(i, dt);
            assert!(
                analytic < dt,
                "fixture must actually hit the rail (i = {i})"
            );
            assert!(
                (analytic - bisected).abs() < 1e-6,
                "i = {i}: analytic {analytic} vs bisection {bisected}"
            );
            // The closed form really fired: the depletion time exists.
            assert!(batt.depletion_time(-i, dt).is_some());
        }
        // Charge rail: linear crossing vs bisection.
        let nearly_full = KineticBattery::new(Charge::new(100.0), 0.95, 0.3, 0.005);
        let analytic = feasible_prefix(&nearly_full, 2.0, 60.0);
        let bisected = nearly_full.bisect_prefix(2.0, 60.0);
        assert!(analytic < 60.0);
        assert!((analytic - bisected).abs() < 1e-6);
        assert!((analytic - 2.5).abs() < 1e-9, "5 A·s of headroom at 2 A");
    }

    #[test]
    fn touching_well_keeps_the_descending_crossing() {
        // A drained available well under a light load: the valve refill
        // outpaces the discharge at first (y1 rises from zero), so the
        // feasible prefix must be the *descending* crossing, not t = 0.
        let mut b = KineticBattery::new(Charge::new(100.0), 0.0, 0.3, 0.05);
        b.y1 = 0.0;
        b.total = 60.0;
        let i = -0.1;
        let dt = 2000.0;
        let analytic = feasible_prefix(&b, i, dt);
        let bisected = b.bisect_prefix(i, dt);
        assert!(
            analytic > 1.0,
            "prefix collapsed to the touching root: {analytic}"
        );
        assert!((analytic - bisected).abs() < 1e-6);
    }

    #[test]
    fn time_to_soc_follows_the_valve_limited_drain() {
        // 1 A against a 3 A·s available well: the well empties after
        // about 3 s, before the linear crossing (5 A·s at 5 s), and the
        // state of charge then falls only as the valve drains the bound
        // well.
        let b = KineticBattery::new(Charge::new(10.0), 1.0, 0.3, 0.01);
        let (net, target) = (Amps::new(-1.0), Charge::new(5.0));
        let t = b
            .time_to_soc(net, target, Seconds::new(3600.0))
            .expect("the drain reaches half charge within the hour");
        assert!(
            t.seconds() > 5.0,
            "the crossing is past the linear one: {t:?}"
        );
        let mut stepped = b.clone();
        stepped.step(net, t);
        assert!(stepped.soc().approx_eq(target, 1e-9));
        // Within a horizon that ends before it, there is no crossing.
        assert!(b.time_to_soc(net, target, t - Seconds::new(1.0)).is_none());
        // The drain only approaches the available well's level: from an
        // emptied well, a target at zero is never reached.
        assert!(stepped
            .time_to_soc(net, Charge::ZERO, Seconds::new(1e6))
            .is_none());
    }

    #[test]
    fn empty_well_under_unmet_demand_has_an_empty_prefix() {
        let mut b = KineticBattery::new(Charge::new(100.0), 0.0, 0.3, 0.005);
        b.y1 = 0.0;
        b.total = 40.0;
        // The valve passes k·h2 ≈ 0.29 A; a 1 A demand is not met.
        assert_eq!(feasible_prefix(&b, -1.0, 30.0), 0.0);
        let flow = b.step(Amps::new(-1.0), Seconds::new(30.0));
        assert!(flow.deficit > Charge::ZERO);
        assert_eq!(b.available(), Charge::ZERO);
    }

    /// A KiBaM state drawn for the oracles: wells at equilibrium, with
    /// an emptied available well, or anywhere out of equilibrium.
    fn drawn_battery(
        capacity: f64,
        c: f64,
        k: f64,
        fill: f64,
        mode: u32,
        split: f64,
    ) -> KineticBattery {
        let mut b = KineticBattery::new(Charge::new(capacity), fill, c, k);
        b.y1 = match mode {
            0 => 0.0,
            1 => b.total * c,
            _ => b.total * split,
        };
        b
    }

    /// The state of charge a single `step` of `t` reaches.
    fn soc_after(b: &KineticBattery, net: f64, t: f64) -> f64 {
        let mut stepped = b.clone();
        stepped.step(Amps::new(net), Seconds::new(t));
        stepped.total
    }

    proptest! {
        /// The closed-form rail crossing of `advance_feasible` lands where
        /// the bisection over the violation predicate lands. Bisection
        /// finds the edge of the 1e-12 rail tolerance rather than the
        /// rail itself, which is `1e-12 / |rate|` later, so that gap is
        /// allowed on top of 1e-9 of the step.
        #[test]
        fn feasible_prefix_agrees_with_bisection(
            capacity in 1.0f64..500.0,
            c in 0.05f64..0.95,
            k in 1e-4f64..0.2,
            fill in 0.0f64..1.0,
            mode in 0u32..3,
            split in 0.0f64..1.0,
            rate in 0.0f64..1.0,
            charging in any::<bool>(),
            dt in 0.1f64..3000.0,
        ) {
            let b = drawn_battery(capacity, c, k, fill, mode, split);
            let magnitude = rate * capacity / 20.0;
            let i = if charging { magnitude } else { -magnitude };
            let analytic = feasible_prefix(&b, i, dt);
            let bisected = b.bisect_prefix(i, dt);
            let mut at = b.clone();
            at.advance(i, analytic);
            // How fast the binding rail's quantity moves at the crossing:
            // the total at `i` when charging, the available well at
            // `−I + k·(h2 − h1)` when discharging.
            let speed = if charging {
                i.abs()
            } else {
                (i + k * ((at.total - at.y1) / (1.0 - c) - at.y1 / c)).abs()
            };
            let slack = 1e-9 * dt + 2e-12 / speed;
            prop_assert!(
                (analytic - bisected).abs() <= slack,
                "closed form {analytic} vs bisection {bisected} (slack {slack})"
            );
        }

        /// `time_to_soc` is where stepping crosses the target: a step
        /// just short of it stays on the near side, a step just past it
        /// reaches the target, and `None` means a step over the whole
        /// horizon never does.
        #[test]
        fn time_to_soc_agrees_with_stepping(
            capacity in 1.0f64..500.0,
            c in 0.05f64..0.95,
            k in 1e-4f64..0.2,
            fill in 0.0f64..1.0,
            mode in 0u32..3,
            split in 0.0f64..1.0,
            rate in 0.0f64..1.0,
            charging in any::<bool>(),
            target_fraction in 0.0f64..1.0,
            horizon in 1.0f64..5000.0,
        ) {
            let b = drawn_battery(capacity, c, k, fill, mode, split);
            let magnitude = rate * capacity / 20.0;
            let net = if charging { magnitude } else { -magnitude };
            let target = target_fraction * capacity;
            // Whether a state of charge is still short of the target in
            // the direction the net current moves it.
            let short = |soc: f64| if charging { soc < target } else { soc > target };
            let projected = b.time_to_soc(Amps::new(net), Charge::new(target), Seconds::new(horizon));
            if !short(b.total) {
                // Already on the target, or moving away from it.
                let expected = (b.total == target && net != 0.0).then_some(Seconds::ZERO);
                prop_assert_eq!(projected, expected);
                return Ok(());
            }
            match projected {
                Some(t) => {
                    let t = t.seconds();
                    prop_assert!((0.0..=horizon).contains(&t), "t = {t} outside the horizon");
                    let eps = 1e-6 * t.max(1.0);
                    if t > eps {
                        let before = soc_after(&b, net, t - eps);
                        prop_assert!(short(before), "at t − ε the SoC {before} already passed {target}");
                    }
                    let after = soc_after(&b, net, t + eps);
                    prop_assert!(!short(after), "at t + ε = {} the SoC {after} has not reached {target}", t + eps);
                }
                None => {
                    let end = soc_after(&b, net, horizon);
                    prop_assert!(
                        short(end),
                        "no crossing projected, but stepping the horizon reaches {end} past {target}"
                    );
                }
            }
        }
    }
}
