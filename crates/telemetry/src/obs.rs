//! Always-on observability plane: bounded-memory streaming aggregators,
//! an energy-SLO burn-rate monitor, and per-request energy provenance.
//!
//! Unlike the retain-everything JSONL trace pipeline (which cannot be
//! left on at megafleet scale), everything here is *bounded*: a
//! [`QuantileSketch`] holds a few hundred log-spaced buckets regardless
//! of how many samples it absorbs, a [`Rollup`] holds one cell per
//! time bucket regardless of request volume, and the
//! [`BurnRateMonitor`] holds a handful of counters per rule. All state
//! is keyed by the simulated clock and merges deterministically:
//! folding per-cell aggregators together (as `pc-obs` does across
//! files) yields byte-identical output at any job count.
//!
//! The aggregate artifact is an [`ObsReport`] — a byte-stable JSON
//! document of named sketches, named time series and typed alerts —
//! queried by the `pc-obs` CLI (`report` / `query` / `alerts`).

use crate::export::{escape_into, push_f64};
use std::collections::BTreeMap;

/// Hard clamp on sketch bucket indices: at the default 1 % relative
/// accuracy this spans roughly `1e-17 ..= 1e17`, far beyond any joule,
/// second or watt value the simulation produces, while bounding the
/// sketch to at most `2 * MAX_BUCKET_INDEX + 1` buckets.
const MAX_BUCKET_INDEX: i32 = 2000;

/// Dense bucket slots: every index in `-MAX..=MAX` has one.
const BUCKET_SLOTS: usize = 2 * MAX_BUCKET_INDEX as usize + 1;

/// A deterministic, mergeable quantile sketch over positive values
/// (DDSketch-style relative-error log buckets).
///
/// Values land in geometric buckets `gamma^(i-1) < v <= gamma^i` with
/// `gamma = (1 + alpha) / (1 - alpha)`, so any quantile estimate is
/// within relative error `alpha` of a true sample value. Buckets live
/// in one dense clamped array (allocated on the first positive sample;
/// the array *is* the memory bound), so the per-sample hot path is a
/// single indexed increment. Bucket counts add under
/// [`QuantileSketch::merge`], and merging is associative and
/// commutative, so merged reports are byte-identical whatever the
/// merge order. Non-finite samples are dropped; zero and
/// negative samples are counted in a dedicated zero bucket.
#[derive(Clone)]
pub struct QuantileSketch {
    /// Relative-accuracy parameter (bucket width).
    alpha: f64,
    /// ln(gamma), cached for index arithmetic.
    gamma_ln: f64,
    /// Dense bucket counts; slot `s` holds index `s - MAX_BUCKET_INDEX`.
    /// Empty until the first positive sample.
    buckets: Vec<u64>,
    /// Number of non-zero bucket slots.
    live: usize,
    /// Samples `<= 0.0` (quantile value 0).
    zero: u64,
    /// Total samples absorbed (including the zero bucket).
    total: u64,
    /// Smallest absorbed sample (0 until the first sample).
    min: f64,
    /// Largest absorbed sample.
    max: f64,
}

// The sketch deliberately carries no exact floating-point running sum:
// float addition is not associative, so an exact sum would depend on
// merge grouping and break the "a merged sketch is byte-identical to
// a serial build" guarantee. Sums and means are instead derived from the
// bucket state (within the sketch's relative error), which merges by
// integer addition and is therefore associative, commutative, and
// byte-stable under any merge topology.

impl QuantileSketch {
    /// A sketch with the default 1 % relative accuracy.
    pub fn new() -> QuantileSketch {
        QuantileSketch::with_relative_error(0.01)
    }

    /// A sketch whose quantile estimates are within relative error
    /// `alpha` (clamped to `0.001..=0.2`) of a true sample value.
    pub fn with_relative_error(alpha: f64) -> QuantileSketch {
        let alpha = alpha.clamp(0.001, 0.2);
        let gamma = (1.0 + alpha) / (1.0 - alpha);
        QuantileSketch {
            alpha,
            gamma_ln: gamma.ln(),
            buckets: Vec::new(),
            live: 0,
            zero: 0,
            total: 0,
            min: 0.0,
            max: 0.0,
        }
    }

    /// Non-empty buckets as `(index, count)` pairs in index order — the
    /// canonical sparse view every read path (encode, quantile, sum,
    /// equality) is defined over.
    fn iter_buckets(&self) -> impl Iterator<Item = (i32, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(s, &c)| (s as i32 - MAX_BUCKET_INDEX, c))
    }

    fn bucket_index(&self, v: f64) -> i32 {
        let i = (v.ln() / self.gamma_ln).ceil();
        (i as i32).clamp(-MAX_BUCKET_INDEX, MAX_BUCKET_INDEX)
    }

    /// Representative value of bucket `i` (the bucket's geometric
    /// midpoint).
    fn bucket_value(&self, i: i32) -> f64 {
        let gamma = (1.0 + self.alpha) / (1.0 - self.alpha);
        gamma.powi(i) * 2.0 / (1.0 + gamma)
    }

    /// Absorbs one sample. NaN/infinite samples are dropped.
    pub fn observe(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        if self.total == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.total += 1;
        if v <= 0.0 {
            self.zero += 1;
        } else {
            if self.buckets.is_empty() {
                self.buckets = vec![0; BUCKET_SLOTS];
            }
            let slot = (self.bucket_index(v) + MAX_BUCKET_INDEX) as usize;
            if self.buckets[slot] == 0 {
                self.live += 1;
            }
            self.buckets[slot] += 1;
        }
    }

    /// Folds another sketch into this one (bucket-wise count addition).
    ///
    /// # Panics
    ///
    /// Panics if the sketches were built with different `alpha` — a
    /// merge across accuracies has no meaningful result.
    pub fn merge(&mut self, other: &QuantileSketch) {
        assert_eq!(
            self.alpha, other.alpha,
            "cannot merge sketches of different relative accuracy"
        );
        if other.total == 0 {
            return;
        }
        if self.total == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.total += other.total;
        self.zero += other.zero;
        if other.live > 0 {
            if self.buckets.is_empty() {
                self.buckets = vec![0; BUCKET_SLOTS];
            }
            for (slot, &c) in other.buckets.iter().enumerate() {
                if c > 0 {
                    if self.buckets[slot] == 0 {
                        self.live += 1;
                    }
                    self.buckets[slot] += c;
                }
            }
        }
    }

    /// The estimated `q`-quantile (`q` clamped to `0.0..=1.0`), or 0 for
    /// an empty sketch. Estimates for positive samples are within
    /// relative error `alpha` of a true sample value.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = (q * (self.total - 1) as f64).floor() as u64;
        if rank < self.zero {
            return 0.0;
        }
        let mut seen = self.zero;
        for (i, c) in self.iter_buckets() {
            seen += c;
            if seen > rank {
                return self.bucket_value(i);
            }
        }
        self.max
    }

    /// Samples absorbed.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of absorbed samples, reconstructed from the bucket state
    /// (within relative error `alpha` for positive samples; zero-bucket
    /// samples contribute 0). Derived rather than stored so the sketch
    /// stays associative under merge (see the note on the struct).
    pub fn sum(&self) -> f64 {
        self.iter_buckets().map(|(i, c)| c as f64 * self.bucket_value(i)).sum()
    }

    /// Mean of absorbed samples (0 when empty), within relative error
    /// `alpha`.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum() / self.total as f64
        }
    }

    /// Smallest absorbed sample.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest absorbed sample.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Number of live (non-empty) buckets.
    pub fn bucket_count(&self) -> usize {
        self.live
    }

    fn encode_into(&self, out: &mut String) {
        out.push_str("{\"alpha\":");
        push_f64(out, self.alpha);
        out.push_str(",\"zero\":");
        out.push_str(&self.zero.to_string());
        out.push_str(",\"total\":");
        out.push_str(&self.total.to_string());
        out.push_str(",\"min\":");
        push_f64(out, self.min);
        out.push_str(",\"max\":");
        push_f64(out, self.max);
        out.push_str(",\"buckets\":[");
        for (n, (i, c)) in self.iter_buckets().enumerate() {
            if n > 0 {
                out.push(',');
            }
            out.push('[');
            out.push_str(&i.to_string());
            out.push(',');
            out.push_str(&c.to_string());
            out.push(']');
        }
        out.push_str("]}");
    }

    fn decode(v: &serde_json::Value) -> Result<QuantileSketch, String> {
        let alpha = f64_field(v, "alpha")?;
        let mut s = QuantileSketch::with_relative_error(alpha);
        s.zero = u64_field(v, "zero")?;
        s.total = u64_field(v, "total")?;
        s.min = f64_field(v, "min")?;
        s.max = f64_field(v, "max")?;
        let buckets = v
            .get("buckets")
            .and_then(|b| b.as_array())
            .ok_or("sketch missing buckets")?;
        for pair in buckets {
            let p = pair.as_array().filter(|p| p.len() == 2).ok_or("bad bucket pair")?;
            let i = p[0].as_i64().ok_or("bad bucket index")? as i32;
            let c = p[1].as_u64().ok_or("bad bucket count")?;
            if !(-MAX_BUCKET_INDEX..=MAX_BUCKET_INDEX).contains(&i) {
                return Err(format!("bucket index {i} out of range"));
            }
            if c > 0 {
                if s.buckets.is_empty() {
                    s.buckets = vec![0; BUCKET_SLOTS];
                }
                let slot = (i + MAX_BUCKET_INDEX) as usize;
                if s.buckets[slot] == 0 {
                    s.live += 1;
                }
                s.buckets[slot] += c;
            }
        }
        Ok(s)
    }
}

// Equality and debug formatting go through the sparse view: a sketch
// that never saw a positive sample (no bucket array) equals one whose
// array is allocated but all-zero, and failure output stays readable
// instead of dumping 4001 dense slots.
impl PartialEq for QuantileSketch {
    fn eq(&self, other: &QuantileSketch) -> bool {
        self.alpha == other.alpha
            && self.zero == other.zero
            && self.total == other.total
            && self.min == other.min
            && self.max == other.max
            && self.iter_buckets().eq(other.iter_buckets())
    }
}

impl std::fmt::Debug for QuantileSketch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QuantileSketch")
            .field("alpha", &self.alpha)
            .field("zero", &self.zero)
            .field("total", &self.total)
            .field("min", &self.min)
            .field("max", &self.max)
            .field("buckets", &self.iter_buckets().collect::<Vec<_>>())
            .finish()
    }
}

impl Default for QuantileSketch {
    fn default() -> QuantileSketch {
        QuantileSketch::new()
    }
}

/// One time bucket of a [`Rollup`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RollupCell {
    /// Samples absorbed in this bucket.
    pub count: u64,
    /// Sum of samples in this bucket.
    pub sum: f64,
    /// Smallest sample in this bucket.
    pub min: f64,
    /// Largest sample in this bucket.
    pub max: f64,
}

/// A bounded time-bucketed series: one [`RollupCell`] per elapsed
/// window of simulated time, independent of sample volume. Cells are
/// sparse and merge cell-wise (counts/sums add, min/max fold), so
/// partial rollups merged in a fixed order are byte-identical to a
/// serially built rollup.
#[derive(Debug, Clone, PartialEq)]
pub struct Rollup {
    /// Width of one time bucket, nanoseconds of simulated time.
    bucket_ns: u64,
    /// Sparse cells keyed by bucket index (`t_ns / bucket_ns`).
    cells: BTreeMap<u64, RollupCell>,
}

impl Rollup {
    /// An empty rollup with the given bucket width (minimum 1 ns).
    pub fn new(bucket_ns: u64) -> Rollup {
        Rollup { bucket_ns: bucket_ns.max(1), cells: BTreeMap::new() }
    }

    /// Bucket width, nanoseconds.
    pub fn bucket_ns(&self) -> u64 {
        self.bucket_ns
    }

    /// Absorbs one sample stamped at simulated time `t_ns`. NaN samples
    /// are dropped.
    pub fn observe(&mut self, t_ns: u64, v: f64) {
        if v.is_nan() {
            return;
        }
        let cell = self
            .cells
            .entry(t_ns / self.bucket_ns)
            .or_insert(RollupCell { count: 0, sum: 0.0, min: v, max: v });
        cell.count += 1;
        cell.sum += v;
        cell.min = cell.min.min(v);
        cell.max = cell.max.max(v);
    }

    /// Folds another rollup into this one cell-wise.
    ///
    /// # Panics
    ///
    /// Panics on mismatched bucket widths.
    pub fn merge(&mut self, other: &Rollup) {
        assert_eq!(self.bucket_ns, other.bucket_ns, "cannot merge rollups of different widths");
        for (&i, c) in &other.cells {
            match self.cells.get_mut(&i) {
                Some(mine) => {
                    mine.count += c.count;
                    mine.sum += c.sum;
                    mine.min = mine.min.min(c.min);
                    mine.max = mine.max.max(c.max);
                }
                None => {
                    self.cells.insert(i, *c);
                }
            }
        }
    }

    /// The cell at bucket index `i`, if any sample landed there.
    pub fn cell(&self, i: u64) -> Option<&RollupCell> {
        self.cells.get(&i)
    }

    /// Iterates `(bucket_index, cell)` in time order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &RollupCell)> {
        self.cells.iter().map(|(&i, c)| (i, c))
    }

    /// Number of populated cells — the rollup's memory bound.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` when no sample has been absorbed.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Total samples across all cells.
    pub fn total_count(&self) -> u64 {
        self.cells.values().map(|c| c.count).sum()
    }

    /// Sum over all cells.
    pub fn total_sum(&self) -> f64 {
        self.cells.values().map(|c| c.sum).sum()
    }

    fn encode_into(&self, out: &mut String) {
        out.push_str("{\"bucket_ns\":");
        out.push_str(&self.bucket_ns.to_string());
        out.push_str(",\"cells\":[");
        for (n, (&i, c)) in self.cells.iter().enumerate() {
            if n > 0 {
                out.push(',');
            }
            out.push('[');
            out.push_str(&i.to_string());
            out.push(',');
            out.push_str(&c.count.to_string());
            out.push(',');
            push_f64(out, c.sum);
            out.push(',');
            push_f64(out, c.min);
            out.push(',');
            push_f64(out, c.max);
            out.push(']');
        }
        out.push_str("]}");
    }

    fn decode(v: &serde_json::Value) -> Result<Rollup, String> {
        let mut r = Rollup::new(u64_field(v, "bucket_ns")?);
        let cells = v
            .get("cells")
            .and_then(|c| c.as_array())
            .ok_or("rollup missing cells")?;
        for cell in cells {
            let c = cell.as_array().filter(|c| c.len() == 5).ok_or("bad rollup cell")?;
            let i = c[0].as_u64().ok_or("bad cell index")?;
            r.cells.insert(
                i,
                RollupCell {
                    count: c[1].as_u64().ok_or("bad cell count")?,
                    sum: c[2].as_f64().ok_or("bad cell sum")?,
                    min: c[3].as_f64().ok_or("bad cell min")?,
                    max: c[4].as_f64().ok_or("bad cell max")?,
                },
            );
        }
        Ok(r)
    }
}

/// The typed energy-SLO alert classes the burn-rate monitor can raise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlertKind {
    /// Fleet power rode within the configured headroom fraction of its
    /// cap for consecutive windows — the cap budget is burning down.
    CapBurn,
    /// Attributed joules per completed request regressed past the
    /// configured multiple of the baseline window.
    EnergyRegression,
    /// The gap between measured active energy and attributed energy
    /// exceeded the configured fraction — attribution is losing joules.
    ResidualAnomaly,
}

impl AlertKind {
    /// Every alert kind, in a fixed order (indexable by
    /// [`AlertKind::index`]).
    pub const ALL: [AlertKind; 3] =
        [AlertKind::CapBurn, AlertKind::EnergyRegression, AlertKind::ResidualAnomaly];

    /// Stable kebab-case name (used in exports and telemetry events).
    pub fn name(self) -> &'static str {
        match self {
            AlertKind::CapBurn => "cap-burn",
            AlertKind::EnergyRegression => "energy-regression",
            AlertKind::ResidualAnomaly => "residual-anomaly",
        }
    }

    /// Position in [`AlertKind::ALL`].
    pub fn index(self) -> usize {
        match self {
            AlertKind::CapBurn => 0,
            AlertKind::EnergyRegression => 1,
            AlertKind::ResidualAnomaly => 2,
        }
    }

    /// Telemetry counter name for fired alerts of this kind.
    pub fn counter(self) -> &'static str {
        match self {
            AlertKind::CapBurn => "obs.alerts.cap_burn",
            AlertKind::EnergyRegression => "obs.alerts.energy_regression",
            AlertKind::ResidualAnomaly => "obs.alerts.residual_anomaly",
        }
    }

    /// Parses a stable name back into a kind.
    pub fn from_name(name: &str) -> Option<AlertKind> {
        AlertKind::ALL.iter().copied().find(|k| k.name() == name)
    }
}

/// One fired energy-SLO alert, stamped with the simulated time of the
/// window boundary that tripped it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Alert {
    /// Simulated time of the closing window boundary, nanoseconds.
    pub t_ns: u64,
    /// Which rule fired.
    pub kind: AlertKind,
    /// The observed value that breached (headroom fraction, J/request
    /// ratio vs baseline, or residual fraction, per kind).
    pub value: f64,
    /// The rule threshold the value breached.
    pub threshold: f64,
    /// Index of the window that completed the breach streak.
    pub window: u64,
}

/// Thresholds and hysteresis for the energy-SLO burn-rate rules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloRules {
    /// [`AlertKind::CapBurn`] breaches when the fleet's cap headroom
    /// fraction `1 - power/cap` falls below this.
    pub cap_headroom_frac: f64,
    /// [`AlertKind::EnergyRegression`] breaches when windowed attributed
    /// joules per completed request exceed this multiple of the baseline.
    pub regression_mult: f64,
    /// Number of leading windows that form the J/request baseline (and
    /// are exempt from the regression and residual rules while the
    /// attribution pipeline warms up).
    pub baseline_windows: u32,
    /// [`AlertKind::ResidualAnomaly`] breaches when
    /// `|active - attributed| / active` over a window exceeds this.
    pub residual_frac: f64,
    /// Consecutive breaching windows before an alert fires.
    pub fire_after: u32,
    /// Consecutive clean windows before a fired rule re-arms
    /// (hysteresis: a flapping signal cannot re-fire every window).
    pub clear_after: u32,
}

impl SloRules {
    /// Production-shaped defaults: 5 % headroom, 1.5× regression over a
    /// 4-window baseline, 30 % residual, fire after 2, clear after 2.
    pub fn standard() -> SloRules {
        SloRules {
            cap_headroom_frac: 0.05,
            regression_mult: 1.5,
            baseline_windows: 4,
            residual_frac: 0.30,
            fire_after: 2,
            clear_after: 2,
        }
    }
}

impl Default for SloRules {
    fn default() -> SloRules {
        SloRules::standard()
    }
}

/// Fleet-level signals for one completed monitor window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowSample {
    /// Simulated time of the window's closing boundary, nanoseconds.
    pub end_ns: u64,
    /// Measured active energy drawn fleet-wide in the window, Joules.
    pub active_j: f64,
    /// Energy the facility attributed fleet-wide in the window, Joules.
    pub attributed_j: f64,
    /// Requests completed in the window.
    pub completed: u64,
    /// Fleet power cap, if one is set.
    pub cap_w: Option<f64>,
}

/// Per-rule hysteresis state.
#[derive(Debug, Clone, Copy, Default)]
struct RuleState {
    breach_streak: u32,
    clean_streak: u32,
    active: bool,
}

impl RuleState {
    /// Feeds one window's breach verdict; returns `true` when the rule
    /// newly fires.
    fn step(&mut self, breached: bool, fire_after: u32, clear_after: u32) -> bool {
        if breached {
            self.breach_streak += 1;
            self.clean_streak = 0;
            if !self.active && self.breach_streak >= fire_after {
                self.active = true;
                return true;
            }
        } else {
            self.clean_streak += 1;
            self.breach_streak = 0;
            if self.active && self.clean_streak >= clear_after {
                self.active = false;
            }
        }
        false
    }
}

/// Evaluates the energy-SLO burn-rate rules over a stream of window
/// samples, with per-rule hysteresis. Purely deterministic: the alert
/// stream is a function of the rules and the sample stream alone.
#[derive(Debug, Clone)]
pub struct BurnRateMonitor {
    rules: SloRules,
    /// Window width in simulated nanoseconds (converts window energy to
    /// power for the cap rule).
    window_ns: u64,
    windows_seen: u64,
    baseline_attr_j: f64,
    baseline_completed: u64,
    states: [RuleState; 3],
    alerts: Vec<Alert>,
}

impl BurnRateMonitor {
    /// A monitor with the given rules over `window_ns`-wide windows.
    pub fn new(rules: SloRules, window_ns: u64) -> BurnRateMonitor {
        BurnRateMonitor {
            rules,
            window_ns: window_ns.max(1),
            windows_seen: 0,
            baseline_attr_j: 0.0,
            baseline_completed: 0,
            states: [RuleState::default(); 3],
            alerts: Vec::new(),
        }
    }

    /// The configured rules.
    pub fn rules(&self) -> &SloRules {
        &self.rules
    }

    /// The baseline joules per completed request learned from the
    /// leading windows (0 until any baseline request completes).
    pub fn baseline_j_per_req(&self) -> f64 {
        if self.baseline_completed == 0 {
            0.0
        } else {
            self.baseline_attr_j / self.baseline_completed as f64
        }
    }

    /// Windows observed so far.
    pub fn windows_seen(&self) -> u64 {
        self.windows_seen
    }

    /// Every alert fired so far, in firing order.
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// Feeds one completed window; returns how many alerts newly fired.
    pub fn observe_window(&mut self, s: &WindowSample) -> usize {
        let window = self.windows_seen;
        self.windows_seen += 1;
        let in_baseline = window < u64::from(self.rules.baseline_windows);
        if in_baseline {
            self.baseline_attr_j += s.attributed_j;
            self.baseline_completed += s.completed;
        }
        let before = self.alerts.len();
        let window_secs = self.window_ns as f64 / 1e9;

        // Rule 1 — cap-headroom exhaustion. Physical (no attribution
        // warm-up), so it runs from window 0.
        if let Some(cap) = s.cap_w.filter(|c| *c > 0.0) {
            let power_w = s.active_j / window_secs;
            let headroom = 1.0 - power_w / cap;
            let breached = headroom < self.rules.cap_headroom_frac;
            if self.states[AlertKind::CapBurn.index()].step(
                breached,
                self.rules.fire_after,
                self.rules.clear_after,
            ) {
                self.alerts.push(Alert {
                    t_ns: s.end_ns,
                    kind: AlertKind::CapBurn,
                    value: headroom,
                    threshold: self.rules.cap_headroom_frac,
                    window,
                });
            }
        }

        // Rule 2 — joules/request regression vs the learned baseline.
        // Windows with no completions carry no per-request signal and
        // leave the streaks untouched.
        if !in_baseline && s.completed > 0 {
            let base = self.baseline_j_per_req();
            if base > 0.0 {
                let j_per_req = s.attributed_j / s.completed as f64;
                let ratio = j_per_req / base;
                let breached = ratio > self.rules.regression_mult;
                if self.states[AlertKind::EnergyRegression.index()].step(
                    breached,
                    self.rules.fire_after,
                    self.rules.clear_after,
                ) {
                    self.alerts.push(Alert {
                        t_ns: s.end_ns,
                        kind: AlertKind::EnergyRegression,
                        value: ratio,
                        threshold: self.rules.regression_mult,
                        window,
                    });
                }
            }
        }

        // Rule 3 — attribution residual anomaly. Skipped during the
        // baseline windows while meter delay and model warm-up settle.
        if !in_baseline && s.active_j > 1e-9 {
            let residual = (s.active_j - s.attributed_j).abs() / s.active_j;
            let breached = residual > self.rules.residual_frac;
            if self.states[AlertKind::ResidualAnomaly.index()].step(
                breached,
                self.rules.fire_after,
                self.rules.clear_after,
            ) {
                self.alerts.push(Alert {
                    t_ns: s.end_ns,
                    kind: AlertKind::ResidualAnomaly,
                    value: residual,
                    threshold: self.rules.residual_frac,
                    window,
                });
            }
        }

        self.alerts.len() - before
    }
}

/// The aggregate observability artifact of one run: named quantile
/// sketches, named time series, and the fired alerts, all byte-stable.
///
/// Key conventions (slash-separated scopes):
/// `latency_s/fleet`, `latency_s/app/<name>`, `latency_s/tenant/<id>`,
/// `energy_per_req_j/fleet`, `energy_per_req_j/app/<name>`,
/// `power_w/fleet`, `headroom/fleet`, `j_per_req/fleet`,
/// `residual/fleet`, `completed/fleet`, `shed/fleet`,
/// `degrade/fleet`, `energy_j/node/<nnnn>`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ObsReport {
    /// Monitor/rollup window width, nanoseconds of simulated time.
    pub window_ns: u64,
    /// Simulated duration covered, nanoseconds.
    pub sim_ns: u64,
    /// Named quantile sketches, key-sorted.
    pub sketches: BTreeMap<String, QuantileSketch>,
    /// Named time series, key-sorted.
    pub series: BTreeMap<String, Rollup>,
    /// Fired alerts in firing order.
    pub alerts: Vec<Alert>,
}

impl ObsReport {
    /// An empty report with the given window width.
    pub fn new(window_ns: u64, sim_ns: u64) -> ObsReport {
        ObsReport { window_ns, sim_ns, ..ObsReport::default() }
    }

    /// The sketch at `key`, created empty on first touch.
    pub fn sketch(&mut self, key: &str) -> &mut QuantileSketch {
        self.sketches.entry(key.to_string()).or_default()
    }

    /// The series at `key`, created with the report window on first
    /// touch.
    pub fn rollup(&mut self, key: &str) -> &mut Rollup {
        let w = self.window_ns.max(1);
        self.series.entry(key.to_string()).or_insert_with(|| Rollup::new(w))
    }

    /// Folds another report into this one key-wise (sketches and series
    /// merge; alerts append). Used by `pc-obs` to fold multi-file
    /// inputs in argument order.
    pub fn merge(&mut self, other: &ObsReport) {
        for (k, s) in &other.sketches {
            self.sketches.entry(k.clone()).or_default().merge(s);
        }
        for (k, r) in &other.series {
            self.series
                .entry(k.clone())
                .or_insert_with(|| Rollup::new(r.bucket_ns()))
                .merge(r);
        }
        self.alerts.extend_from_slice(&other.alerts);
    }

    /// Alerts of `kind` fired.
    pub fn alert_count(&self, kind: AlertKind) -> usize {
        self.alerts.iter().filter(|a| a.kind == kind).count()
    }

    /// Byte-stable single-line JSON encoding (the `.obs.json` artifact).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\"obs\":1,\"window_ns\":");
        out.push_str(&self.window_ns.to_string());
        out.push_str(",\"sim_ns\":");
        out.push_str(&self.sim_ns.to_string());
        out.push_str(",\"sketches\":[");
        for (n, (k, s)) in self.sketches.iter().enumerate() {
            if n > 0 {
                out.push(',');
            }
            out.push_str("{\"key\":\"");
            escape_into(&mut out, k);
            out.push_str("\",\"sketch\":");
            s.encode_into(&mut out);
            out.push('}');
        }
        out.push_str("],\"series\":[");
        for (n, (k, r)) in self.series.iter().enumerate() {
            if n > 0 {
                out.push(',');
            }
            out.push_str("{\"key\":\"");
            escape_into(&mut out, k);
            out.push_str("\",\"rollup\":");
            r.encode_into(&mut out);
            out.push('}');
        }
        out.push_str("],\"alerts\":[");
        for (n, a) in self.alerts.iter().enumerate() {
            if n > 0 {
                out.push(',');
            }
            out.push_str("{\"t_ns\":");
            out.push_str(&a.t_ns.to_string());
            out.push_str(",\"kind\":\"");
            out.push_str(a.kind.name());
            out.push_str("\",\"value\":");
            push_f64(&mut out, a.value);
            out.push_str(",\"threshold\":");
            push_f64(&mut out, a.threshold);
            out.push_str(",\"window\":");
            out.push_str(&a.window.to_string());
            out.push('}');
        }
        out.push_str("]}\n");
        out
    }

    /// Parses a report back from its JSON encoding.
    pub fn from_json(text: &str) -> Result<ObsReport, String> {
        let v: serde_json::Value =
            serde_json::from_str(text.trim()).map_err(|e| format!("malformed obs json: {e}"))?;
        if v.get("obs").and_then(|o| o.as_u64()) != Some(1) {
            return Err("not an obs report (missing \"obs\":1 marker)".to_string());
        }
        let mut report = ObsReport::new(u64_field(&v, "window_ns")?, u64_field(&v, "sim_ns")?);
        for entry in v.get("sketches").and_then(|s| s.as_array()).ok_or("missing sketches")? {
            let key = str_field(entry, "key")?;
            let sketch = entry.get("sketch").ok_or("sketch entry missing body")?;
            report.sketches.insert(key, QuantileSketch::decode(sketch)?);
        }
        for entry in v.get("series").and_then(|s| s.as_array()).ok_or("missing series")? {
            let key = str_field(entry, "key")?;
            let rollup = entry.get("rollup").ok_or("series entry missing body")?;
            report.series.insert(key, Rollup::decode(rollup)?);
        }
        for entry in v.get("alerts").and_then(|a| a.as_array()).ok_or("missing alerts")? {
            let kind = AlertKind::from_name(&str_field(entry, "kind")?)
                .ok_or("unknown alert kind")?;
            report.alerts.push(Alert {
                t_ns: u64_field(entry, "t_ns")?,
                kind,
                value: f64_field(entry, "value")?,
                threshold: f64_field(entry, "threshold")?,
                window: u64_field(entry, "window")?,
            });
        }
        Ok(report)
    }

    /// Deterministic human-readable rendering (the `pc-obs report`
    /// output; pinned by `ci/obs_report.golden`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "obs report: sim {:.3} s, window {} ms\n",
            self.sim_ns as f64 / 1e9,
            self.window_ns / 1_000_000
        ));
        out.push_str(&format!("alerts: {}\n", self.alerts.len()));
        for a in &self.alerts {
            out.push_str(&format!(
                "  [{}] t={:.3}s window={} value={:.4} threshold={:.4}\n",
                a.kind.name(),
                a.t_ns as f64 / 1e9,
                a.window,
                a.value,
                a.threshold
            ));
        }
        out.push_str(&format!("sketches: {}\n", self.sketches.len()));
        for (k, s) in &self.sketches {
            out.push_str(&format!(
                "  {k}: n={} mean={:.6} p50={:.6} p90={:.6} p99={:.6} max={:.6}\n",
                s.count(),
                s.mean(),
                s.quantile(0.50),
                s.quantile(0.90),
                s.quantile(0.99),
                s.max()
            ));
        }
        out.push_str(&format!("series: {}\n", self.series.len()));
        for (k, r) in &self.series {
            let n = r.total_count();
            let mean = if n == 0 { 0.0 } else { r.total_sum() / n as f64 };
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for (_, c) in r.iter() {
                lo = lo.min(c.min);
                hi = hi.max(c.max);
            }
            if n == 0 {
                lo = 0.0;
                hi = 0.0;
            }
            out.push_str(&format!(
                "  {k}: cells={} n={n} mean={mean:.6} min={lo:.6} max={hi:.6}\n",
                r.len()
            ));
        }
        out
    }
}

/// Where one request's joules accrued: one leaf of the provenance
/// flamegraph (node → incarnation → container → segment).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProvenanceEntry {
    /// Node index the container ran on.
    pub node: u32,
    /// Node incarnation (0 before any crash) the container was created
    /// in.
    pub incarnation: u32,
    /// Request context id.
    pub ctx: u64,
    /// Workload label, or -1 when unlabeled.
    pub label: i64,
    /// CPU/memory energy attributed at full duty, Joules.
    pub cpu_j: f64,
    /// CPU/memory energy attributed while duty-cycle throttled, Joules.
    pub throttled_j: f64,
    /// Attributed peripheral I/O energy, Joules.
    pub io_j: f64,
}

/// Renders provenance entries in folded-stack (flamegraph) format:
/// one `frame;frame;...;frame value` line per non-empty segment, with
/// values in integer microjoules. Lines are emitted in (node,
/// incarnation, ctx, segment) order, so the export is byte-stable.
pub fn provenance_folded(entries: &[ProvenanceEntry]) -> String {
    let mut sorted: Vec<&ProvenanceEntry> = entries.iter().collect();
    sorted.sort_by_key(|e| (e.node, e.incarnation, e.ctx));
    let mut out = String::new();
    for e in sorted {
        for (segment, joules) in
            [("cpu", e.cpu_j), ("throttled", e.throttled_j), ("io", e.io_j)]
        {
            let uj = (joules * 1e6).round() as u64;
            if uj == 0 {
                continue;
            }
            out.push_str(&format!(
                "node{:04};inc{};ctx{};{segment} {uj}\n",
                e.node, e.incarnation, e.ctx
            ));
        }
    }
    out
}

/// Renders a folded-stack provenance export as an indented text tree
/// with microjoule totals and percentages (the `pc-trace flame` view).
/// Children print in descending-total order (ties by name) so hot paths
/// lead.
pub fn render_flame(folded: &str) -> String {
    #[derive(Default)]
    struct TreeNode {
        total: u64,
        children: BTreeMap<String, TreeNode>,
    }
    let mut root = TreeNode::default();
    let mut malformed = 0usize;
    for line in folded.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let Some((stack, value)) = line.rsplit_once(' ') else {
            malformed += 1;
            continue;
        };
        let Ok(value) = value.parse::<u64>() else {
            malformed += 1;
            continue;
        };
        root.total += value;
        let mut cursor = &mut root;
        for frame in stack.split(';') {
            cursor = cursor.children.entry(frame.to_string()).or_default();
            cursor.total += value;
        }
    }
    fn render(node: &TreeNode, grand_total: u64, depth: usize, out: &mut String) {
        let mut kids: Vec<(&String, &TreeNode)> = node.children.iter().collect();
        kids.sort_by(|a, b| b.1.total.cmp(&a.1.total).then_with(|| a.0.cmp(b.0)));
        for (name, child) in kids {
            let pct = if grand_total == 0 {
                0.0
            } else {
                child.total as f64 / grand_total as f64 * 100.0
            };
            out.push_str(&format!(
                "{}{name} {} uJ ({pct:.1}%)\n",
                "  ".repeat(depth),
                child.total
            ));
            render(child, grand_total, depth + 1, out);
        }
    }
    let mut out = format!("total {} uJ\n", root.total);
    if malformed > 0 {
        out.push_str(&format!("malformed lines: {malformed}\n"));
    }
    render(&root, root.total, 0, &mut out);
    out
}

fn u64_field(v: &serde_json::Value, key: &str) -> Result<u64, String> {
    v.get(key).and_then(|f| f.as_u64()).ok_or_else(|| format!("missing u64 field {key}"))
}

fn f64_field(v: &serde_json::Value, key: &str) -> Result<f64, String> {
    v.get(key).and_then(|f| f.as_f64()).ok_or_else(|| format!("missing f64 field {key}"))
}

fn str_field(v: &serde_json::Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(|f| f.as_str())
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field {key}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sketch_quantiles_within_relative_error() {
        let mut s = QuantileSketch::new();
        for i in 1..=10_000 {
            s.observe(i as f64 / 100.0); // 0.01 .. 100.0
        }
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999] {
            let exact = f64::max(q * 10_000.0, 1.0).floor() / 100.0;
            let est = s.quantile(q);
            assert!(
                (est - exact).abs() / exact < 0.025,
                "q={q}: estimate {est} vs exact {exact}"
            );
        }
        assert_eq!(s.count(), 10_000);
        assert!((s.mean() - 50.005).abs() / 50.005 < 0.02, "mean within relative error");
        assert!(s.bucket_count() < 1000, "sketch must stay bounded");
    }

    #[test]
    fn sketch_merge_matches_serial_and_is_associative() {
        let vals: Vec<f64> = (1..=999).map(|i| (i as f64).sqrt()).collect();
        let mut serial = QuantileSketch::new();
        for &v in &vals {
            serial.observe(v);
        }
        let sketch_of = |chunk: &[f64]| {
            let mut s = QuantileSketch::new();
            for &v in chunk {
                s.observe(v);
            }
            s
        };
        let (a, b, c) = (sketch_of(&vals[..100]), sketch_of(&vals[100..500]), sketch_of(&vals[500..]));
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right, "merge must be associative");
        assert_eq!(left, serial, "merged parts must equal the serial sketch");
    }

    #[test]
    fn sketch_handles_zero_negative_and_nan() {
        let mut s = QuantileSketch::new();
        s.observe(f64::NAN);
        s.observe(f64::INFINITY);
        assert_eq!(s.count(), 0);
        s.observe(0.0);
        s.observe(-5.0);
        s.observe(10.0);
        assert_eq!(s.count(), 3);
        assert_eq!(s.quantile(0.0), 0.0);
        assert!((s.quantile(1.0) - 10.0).abs() / 10.0 < 0.02);
        assert_eq!(s.min(), -5.0);
    }

    #[test]
    fn rollup_buckets_by_time_and_merges_cellwise() {
        let mut a = Rollup::new(100);
        a.observe(10, 1.0);
        a.observe(50, 3.0);
        a.observe(150, 5.0);
        let mut b = Rollup::new(100);
        b.observe(70, 7.0);
        b.observe(250, 2.0);
        a.merge(&b);
        let c0 = a.cell(0).unwrap();
        assert_eq!(c0.count, 3);
        assert_eq!(c0.sum, 11.0);
        assert_eq!(c0.min, 1.0);
        assert_eq!(c0.max, 7.0);
        assert_eq!(a.cell(1).unwrap().count, 1);
        assert_eq!(a.cell(2).unwrap().sum, 2.0);
        assert_eq!(a.len(), 3);
        assert_eq!(a.total_count(), 5);
    }

    #[test]
    fn monitor_cap_burn_fires_with_hysteresis_and_clears() {
        let mut m = BurnRateMonitor::new(
            SloRules { fire_after: 2, clear_after: 2, ..SloRules::standard() },
            1_000_000_000,
        );
        let w = |end_ns, active_j, cap| WindowSample {
            end_ns,
            active_j,
            attributed_j: active_j,
            completed: 10,
            cap_w: Some(cap),
        };
        // 100 W cap; 97 J per 1-second-equivalent window = 3% headroom.
        assert_eq!(m.observe_window(&w(1, 97.0, 100.0)), 0, "one breach is not enough");
        assert_eq!(m.observe_window(&w(2, 97.0, 100.0)), 1, "second consecutive breach fires");
        assert_eq!(m.observe_window(&w(3, 97.0, 100.0)), 0, "active rule must not re-fire");
        // One clean window then a breach: streak broken both ways.
        assert_eq!(m.observe_window(&w(4, 50.0, 100.0)), 0);
        assert_eq!(m.observe_window(&w(5, 97.0, 100.0)), 0, "still active, no re-fire");
        // Two clean windows clear; two breaches re-fire.
        m.observe_window(&w(6, 50.0, 100.0));
        m.observe_window(&w(7, 50.0, 100.0));
        m.observe_window(&w(8, 97.0, 100.0));
        assert_eq!(m.observe_window(&w(9, 97.0, 100.0)), 1, "cleared rule re-fires");
        assert_eq!(m.alerts().len(), 2);
        assert!(m.alerts().iter().all(|a| a.kind == AlertKind::CapBurn));
        assert_eq!(m.alerts()[0].window, 1);
    }

    #[test]
    fn monitor_regression_compares_to_baseline() {
        let rules = SloRules { baseline_windows: 2, fire_after: 1, ..SloRules::standard() };
        let mut m = BurnRateMonitor::new(rules, 1_000_000_000);
        let w = |end_ns, attr, completed| WindowSample {
            end_ns,
            active_j: attr,
            attributed_j: attr,
            completed,
            cap_w: None,
        };
        // Baseline: 1 J/request.
        m.observe_window(&w(1, 10.0, 10));
        m.observe_window(&w(2, 10.0, 10));
        assert!((m.baseline_j_per_req() - 1.0).abs() < 1e-12);
        assert_eq!(m.observe_window(&w(3, 12.0, 10)), 0, "1.2x is under the 1.5x threshold");
        assert_eq!(m.observe_window(&w(4, 20.0, 10)), 1, "2x regression fires");
        assert_eq!(m.alerts()[0].kind, AlertKind::EnergyRegression);
        assert!((m.alerts()[0].value - 2.0).abs() < 1e-12);
        // Empty windows carry no signal either way.
        assert_eq!(m.observe_window(&w(5, 0.0, 0)), 0);
    }

    #[test]
    fn monitor_residual_skips_baseline_then_fires() {
        let rules = SloRules { baseline_windows: 1, fire_after: 2, ..SloRules::standard() };
        let mut m = BurnRateMonitor::new(rules, 1_000_000_000);
        let w = |end_ns, active, attr| WindowSample {
            end_ns,
            active_j: active,
            attributed_j: attr,
            completed: 5,
            cap_w: None,
        };
        // Window 0 is baseline: a residual breach there must not count.
        // (Attributed joules per request stay flat at 1 J/req across all
        // windows so the regression rule stays quiet and only the residual
        // rule is under test.)
        assert_eq!(m.observe_window(&w(1, 10.0, 5.0)), 0);
        assert_eq!(m.observe_window(&w(2, 10.0, 5.0)), 0, "first counted breach");
        assert_eq!(m.observe_window(&w(3, 10.0, 5.0)), 1, "second breach fires");
        assert_eq!(m.alerts()[0].kind, AlertKind::ResidualAnomaly);
        assert!((m.alerts()[0].value - 0.5).abs() < 1e-12);
    }

    #[test]
    fn monitor_is_deterministic() {
        let samples: Vec<WindowSample> = (0..50)
            .map(|i| WindowSample {
                end_ns: (i + 1) * 250_000_000,
                active_j: 20.0 + (i % 7) as f64 * 3.0,
                attributed_j: 19.0 + (i % 5) as f64 * 3.0,
                completed: 40 + i % 11,
                cap_w: Some(25.0),
            })
            .collect();
        let run = || {
            let mut m = BurnRateMonitor::new(SloRules::standard(), 250_000_000);
            for s in &samples {
                m.observe_window(s);
            }
            m.alerts().to_vec()
        };
        assert_eq!(run(), run(), "same sample stream must yield identical alerts");
    }

    #[test]
    fn report_round_trips_and_merges() {
        let mut r = ObsReport::new(250_000_000, 4_000_000_000);
        for i in 0..500 {
            r.sketch("latency_s/fleet").observe(0.001 * (1 + i % 40) as f64);
            r.rollup("power_w/fleet").observe(i * 8_000_000, 30.0 + (i % 9) as f64);
        }
        r.alerts.push(Alert {
            t_ns: 1_000_000_000,
            kind: AlertKind::CapBurn,
            value: 0.02,
            threshold: 0.05,
            window: 3,
        });
        let json = r.to_json();
        let back = ObsReport::from_json(&json).expect("round trip");
        assert_eq!(back, r);
        assert_eq!(back.to_json(), json, "re-encoding must be byte-identical");

        // Key-wise merge of two half-reports equals the whole.
        let mut a = ObsReport::new(250_000_000, 4_000_000_000);
        let mut b = ObsReport::new(250_000_000, 4_000_000_000);
        for i in 0..500 {
            let half = if i % 2 == 0 { &mut a } else { &mut b };
            half.sketch("latency_s/fleet").observe(0.001 * (1 + i % 40) as f64);
            half.rollup("power_w/fleet").observe(i * 8_000_000, 30.0 + (i % 9) as f64);
        }
        a.alerts.push(r.alerts[0]);
        a.merge(&b);
        assert_eq!(a.to_json(), json);
    }

    #[test]
    fn report_render_is_stable() {
        let mut r = ObsReport::new(100_000_000, 1_000_000_000);
        r.sketch("latency_s/fleet").observe(0.01);
        r.rollup("power_w/fleet").observe(50_000_000, 42.0);
        let a = r.render();
        let b = r.render();
        assert_eq!(a, b);
        assert!(a.contains("latency_s/fleet"));
        assert!(a.contains("alerts: 0"));
    }

    #[test]
    fn provenance_folded_is_sorted_and_skips_empty_segments() {
        let entries = vec![
            ProvenanceEntry {
                node: 2,
                incarnation: 0,
                ctx: 7,
                label: 1,
                cpu_j: 0.001,
                throttled_j: 0.0,
                io_j: 0.0005,
            },
            ProvenanceEntry {
                node: 0,
                incarnation: 1,
                ctx: 3,
                label: -1,
                cpu_j: 0.002,
                throttled_j: 0.0001,
                io_j: 0.0,
            },
        ];
        let folded = provenance_folded(&entries);
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(
            lines,
            vec![
                "node0000;inc1;ctx3;cpu 2000",
                "node0000;inc1;ctx3;throttled 100",
                "node0002;inc0;ctx7;cpu 1000",
                "node0002;inc0;ctx7;io 500",
            ]
        );
        let flame = render_flame(&folded);
        assert!(flame.starts_with("total 3600 uJ\n"));
        assert!(flame.contains("node0000 2100 uJ (58.3%)"));
        assert!(flame.contains("  inc1 2100 uJ"));
    }
}
