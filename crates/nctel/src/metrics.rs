//! Unified metrics: lock-free counters/gauges and log-bucketed latency
//! histograms behind a named [`Registry`], with Prometheus-text and JSON
//! exporters.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc`
//! clones around atomics: the hot path is a single relaxed atomic op,
//! never a lock. The registry itself only locks on registration and
//! export, both cold paths. Handles can also be created *detached*
//! (unregistered) so library types work standalone and only surface in
//! an exporter when their owner wires them to a registry.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing `u64` counter. Cloning shares the cell.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Creates a detached (unregistered) counter starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed gauge that can move both ways. Cloning shares the cell.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Creates a detached (unregistered) gauge starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `d` (may be negative).
    #[inline]
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of log2 buckets: value `v` lands in bucket `⌈log2(v+1)⌉`, so
/// bucket 0 holds exactly 0, bucket k holds (2^(k-1), 2^k].
const BUCKETS: usize = 65;

#[derive(Debug)]
struct HistogramCells {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

/// A lock-free histogram over `u64` observations (typically latencies in
/// nanoseconds) with logarithmic buckets. Cloning shares the cells.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramCells>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(HistogramCells {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }))
    }
}

/// Point-in-time summary of a [`Histogram`]: totals plus quantile
/// estimates. Each quantile is linearly interpolated within its log2
/// bucket (assuming observations spread uniformly across the bucket's
/// range), so under a roughly uniform in-bucket distribution the
/// estimate is within one bucket slot of the truth; in the adversarial
/// worst case it still never leaves the bucket (≤2× relative error).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total number of observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Interpolated estimate of the 50th percentile.
    pub p50: u64,
    /// Interpolated estimate of the 99th percentile.
    pub p99: u64,
    /// Interpolated estimate of the 99.9th percentile.
    pub p999: u64,
}

impl Histogram {
    /// Creates a detached (unregistered) histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        let idx = (64 - v.leading_zeros()) as usize; // 0 for v==0
        self.0.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Upper bound of bucket `idx` (its largest representable value).
    fn bucket_upper(idx: usize) -> u64 {
        if idx == 0 {
            0
        } else if idx >= 64 {
            u64::MAX
        } else {
            1u64 << idx
        }
    }

    /// Value `v` such that at least `q` of observations are ≤ `v`,
    /// linearly interpolated within the target log2 bucket, given the
    /// already-loaded bucket counts.
    fn quantile(counts: &[u64; BUCKETS], total: u64, q: f64) -> u64 {
        if total == 0 {
            return 0;
        }
        let rank = ((total as f64) * q).ceil() as u64;
        let rank = rank.clamp(1, total);
        let mut seen = 0u64;
        for (idx, &c) in counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                return Self::interpolate(idx, rank - seen, c);
            }
            seen += c;
        }
        Self::bucket_upper(BUCKETS - 1)
    }

    /// Linear interpolation within bucket `idx`: the `r`-th (1-based) of
    /// its `c` observations is estimated at `lo + (hi - lo)·r/c`, i.e.
    /// the observations are assumed to spread uniformly across the
    /// bucket's `(lo, hi]` range. A single-observation bucket reports
    /// its upper edge, matching the pre-interpolation behaviour.
    fn interpolate(idx: usize, r: u64, c: u64) -> u64 {
        if idx == 0 || idx >= 64 {
            // Bucket 0 holds exactly {0}; the top bucket's upper edge is
            // not representable, so no interpolation span exists.
            return Self::bucket_upper(idx);
        }
        let lo = 1u64 << (idx - 1);
        let span = lo; // hi - lo == 2^(idx-1)
        lo + ((span as u128 * r as u128) / c as u128) as u64
    }

    /// Takes a consistent-enough snapshot (concurrent observers may land
    /// between loads; totals are never behind the buckets by more than
    /// the in-flight increments).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut counts = [0u64; BUCKETS];
        for (i, b) in self.0.buckets.iter().enumerate() {
            counts[i] = b.load(Ordering::Relaxed);
        }
        let total: u64 = counts.iter().sum();
        HistogramSnapshot {
            count: self.0.count.load(Ordering::Relaxed),
            sum: self.0.sum.load(Ordering::Relaxed),
            p50: Self::quantile(&counts, total, 0.50),
            p99: Self::quantile(&counts, total, 0.99),
            p999: Self::quantile(&counts, total, 0.999),
        }
    }
}

#[derive(Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A named collection of metrics. Registration is get-or-create: asking
/// twice for the same name yields handles sharing one cell, so distinct
/// subsystems (e.g. a transport and the runtime wrapping it) can safely
/// converge on one registry.
///
/// Names are dotted paths (`ncpr.sender.retransmits`); the Prometheus
/// exporter rewrites dots to underscores. A name may carry a trailing
/// label block in canonical Prometheus form — build it with [`labeled`]
/// (`host.windows_sent{tenant="a"}`): the exporter then groups every
/// labelled variant of one base name under a single family declaration,
/// which is how multi-tenant deployments break out goodput and
/// retransmits per tenant on one shared registry.
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Gets or creates the counter called `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric type.
    pub fn counter(&self, name: &str) -> Counter {
        let mut m = self.metrics.lock().unwrap();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::new()))
        {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Gets or creates the gauge called `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric type.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut m = self.metrics.lock().unwrap();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge::new()))
        {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Gets or creates the histogram called `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric type.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut m = self.metrics.lock().unwrap();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::new()))
        {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Registers an existing (possibly detached) counter under `name`,
    /// replacing a previously registered *counter* of the same name.
    /// Lets library types hand their internal cells to an owner's
    /// registry after construction.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric type —
    /// silently shadowing a gauge or histogram with a counter would
    /// corrupt every exporter consumer, exactly like the get-or-create
    /// constructors panic on type confusion.
    pub fn register_counter(&self, name: &str, c: &Counter) {
        let mut m = self.metrics.lock().unwrap();
        if let Some(existing) = m.get(name) {
            assert!(
                matches!(existing, Metric::Counter(_)),
                "metric {name:?} already registered with a different type"
            );
        }
        m.insert(name.to_string(), Metric::Counter(c.clone()));
    }

    /// Registers an existing histogram under `name` (see
    /// [`Registry::register_counter`]).
    ///
    /// # Panics
    /// If `name` is already registered as a different metric type.
    pub fn register_histogram(&self, name: &str, h: &Histogram) {
        let mut m = self.metrics.lock().unwrap();
        if let Some(existing) = m.get(name) {
            assert!(
                matches!(existing, Metric::Histogram(_)),
                "metric {name:?} already registered with a different type"
            );
        }
        m.insert(name.to_string(), Metric::Histogram(h.clone()));
    }

    /// Value of counter `name`, or `None` if absent / not a counter.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        match self.metrics.lock().unwrap().get(name) {
            Some(Metric::Counter(c)) => Some(c.get()),
            _ => None,
        }
    }

    /// Renders every metric in Prometheus text exposition format, in
    /// deterministic (sorted-by-name) order. Registry names are
    /// sanitized to the spec's `[a-zA-Z_:][a-zA-Z0-9_:]*` (dots and any
    /// other illegal characters become underscores, a leading digit is
    /// prefixed with `_`); when two registry names collapse onto one
    /// sanitized family, later ones get a deterministic `_2`, `_3`, …
    /// suffix so the output never declares a family twice. Histograms
    /// expose `_count`, `_sum` and quantile samples as a `summary`.
    ///
    /// Names carrying a [`labeled`] block share one family per `(base
    /// name, type)` pair: every `sim.delivered{tenant="…"}` sample lands
    /// under a single `# TYPE sim_delivered counter` declaration, so the
    /// strict parser (and a real Prometheus scrape) accepts the
    /// per-tenant breakdown.
    pub fn render_prometheus(&self) -> String {
        struct Family {
            pname: String,
            kind: &'static str,
            samples: String,
        }
        let m = self.metrics.lock().unwrap();
        let mut families: Vec<Family> = Vec::new();
        // (base registry name, type) → family index: labelled variants
        // of one base join the family their base + type claimed.
        let mut by_key: BTreeMap<(String, &'static str), usize> = BTreeMap::new();
        let mut used: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
        for (name, metric) in m.iter() {
            let (base, labels) = split_labels(name);
            let kind = match metric {
                Metric::Counter(_) => "counter",
                Metric::Gauge(_) => "gauge",
                Metric::Histogram(_) => "summary",
            };
            let idx = *by_key.entry((base.to_string(), kind)).or_insert_with(|| {
                let mut pname = sanitize_prometheus_name(base);
                if used.contains(&pname) {
                    let mut i = 2u32;
                    while used.contains(&format!("{pname}_{i}")) {
                        i += 1;
                    }
                    pname = format!("{pname}_{i}");
                }
                used.insert(pname.clone());
                families.push(Family {
                    pname,
                    kind,
                    samples: String::new(),
                });
                families.len() - 1
            });
            let f = &mut families[idx];
            let pname = f.pname.clone();
            match metric {
                Metric::Counter(c) => {
                    f.samples
                        .push_str(&format!("{pname}{labels} {}\n", c.get()));
                }
                Metric::Gauge(g) => {
                    f.samples
                        .push_str(&format!("{pname}{labels} {}\n", g.get()));
                }
                Metric::Histogram(h) => {
                    let s = h.snapshot();
                    // Quantile samples merge the user labels with the
                    // quantile label; _sum/_count keep the user labels.
                    let inner = labels.trim_start_matches('{').trim_end_matches('}');
                    let sep = if inner.is_empty() { "" } else { "," };
                    f.samples.push_str(&format!(
                        "{pname}{{{inner}{sep}quantile=\"0.5\"}} {}\n\
                         {pname}{{{inner}{sep}quantile=\"0.99\"}} {}\n\
                         {pname}{{{inner}{sep}quantile=\"0.999\"}} {}\n\
                         {pname}_sum{labels} {}\n\
                         {pname}_count{labels} {}\n",
                        s.p50, s.p99, s.p999, s.sum, s.count
                    ));
                }
            }
        }
        let mut out = String::new();
        for f in &families {
            out.push_str(&format!("# TYPE {} {}\n", f.pname, f.kind));
            out.push_str(&f.samples);
        }
        out
    }

    /// Renders every metric as a JSON object keyed by metric name, in
    /// deterministic order. Counters/gauges map to numbers, histograms
    /// to `{count, sum, p50, p99, p999}` objects. Keys are proper JSON
    /// string literals (quotes, backslashes and control characters in
    /// metric names are escaped).
    pub fn render_json(&self) -> String {
        let m = self.metrics.lock().unwrap();
        let mut out = String::from("{");
        for (i, (name, metric)) in m.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let key = crate::scope::json::escape(name);
            match metric {
                Metric::Counter(c) => out.push_str(&format!("{key}:{}", c.get())),
                Metric::Gauge(g) => out.push_str(&format!("{key}:{}", g.get())),
                Metric::Histogram(h) => {
                    let s = h.snapshot();
                    out.push_str(&format!(
                        "{key}:{{\"count\":{},\"sum\":{},\"p50\":{},\"p99\":{},\"p999\":{}}}",
                        s.count, s.sum, s.p50, s.p99, s.p999
                    ));
                }
            }
        }
        out.push('}');
        out
    }
}

/// Builds the canonical labelled registry name `base{k="v",…}`: the
/// form [`Registry::render_prometheus`] groups into one family per base
/// name. Label values are escaped per the exposition format (`\\`,
/// `\"`, `\n`); an empty label set returns the base unchanged.
///
/// ```
/// use nctel::metrics::labeled;
/// assert_eq!(
///     labeled("host.windows_sent", &[("tenant", "a"), ("host", "w1")]),
///     "host.windows_sent{tenant=\"a\",host=\"w1\"}"
/// );
/// ```
pub fn labeled(base: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return base.to_string();
    }
    let mut out = String::with_capacity(base.len() + labels.len() * 16);
    out.push_str(base);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
    out
}

/// Splits a registry name into its base and label block: the inverse of
/// [`labeled`]'s concatenation. Names without a well-formed trailing
/// `{…}` block are all base (the braces then sanitize to underscores).
fn split_labels(name: &str) -> (&str, &str) {
    if let Some(open) = name.find('{') {
        if open > 0 && name.ends_with('}') {
            return (&name[..open], &name[open..]);
        }
    }
    (name, "")
}

/// Rewrites a registry name into a legal Prometheus metric name
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`): every other character becomes `_`, and
/// a leading digit gets an `_` prefix. Empty names become `_`.
fn sanitize_prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        if ok {
            out.push(c);
        } else if i == 0 && c.is_ascii_digit() {
            out.push('_');
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// One sample line from the Prometheus text format.
#[derive(Clone, Debug, PartialEq)]
pub struct PromSample {
    /// Sample name (family name, possibly with `_sum` / `_count`).
    pub name: String,
    /// Label pairs in source order.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

/// One metric family parsed from the Prometheus text format.
#[derive(Clone, Debug, PartialEq)]
pub struct PromFamily {
    /// Family name from the `# TYPE` line.
    pub name: String,
    /// Declared type (`counter`, `gauge`, `summary`, …).
    pub kind: String,
    /// The family's samples.
    pub samples: Vec<PromSample>,
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Byte offset of the first `needle` in `s` that is not inside a quoted
/// string (escape-aware: `\x` inside quotes never ends the quote).
fn find_unquoted(s: &str, needle: char) -> Option<usize> {
    let mut in_quotes = false;
    let mut escaped = false;
    for (i, c) in s.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_quotes => escaped = true,
            '"' => in_quotes = !in_quotes,
            c if c == needle && !in_quotes => return Some(i),
            _ => {}
        }
    }
    None
}

/// Splits a label-set body on top-level commas only — commas inside
/// quoted label values stay part of their pair. Empty pairs (trailing
/// comma) are dropped.
fn split_label_pairs(body: &str) -> Vec<&str> {
    let mut pairs = Vec::new();
    let mut rest = body;
    while !rest.is_empty() {
        match find_unquoted(rest, ',') {
            Some(i) => {
                if i > 0 {
                    pairs.push(&rest[..i]);
                }
                rest = &rest[i + 1..];
            }
            None => {
                pairs.push(rest);
                break;
            }
        }
    }
    pairs
}

/// A strict parser for the Prometheus text exposition format, used to
/// regression-test [`Registry::render_prometheus`] (and handy for
/// checking any scrape output).
///
/// Enforced rules: every sample must follow a `# TYPE` declaration and
/// belong to that family (exact name, or `_sum`/`_count` for summaries
/// and histograms); metric and label names must match the spec
/// character sets; label values must be properly quoted with only the
/// spec's escapes (`\\`, `\"`, `\n`); values must parse as floats; a
/// family may not be declared twice.
pub fn parse_prometheus(text: &str) -> Result<Vec<PromFamily>, String> {
    let mut families: Vec<PromFamily> = Vec::new();
    let mut seen: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    for (lineno, line) in text.lines().enumerate() {
        let err = |msg: &str| Err(format!("line {}: {msg}: {line:?}", lineno + 1));
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split(' ');
            let (Some(name), Some(kind), None) = (parts.next(), parts.next(), parts.next()) else {
                return err("malformed TYPE line");
            };
            if !valid_metric_name(name) {
                return err("illegal family name");
            }
            if !matches!(
                kind,
                "counter" | "gauge" | "histogram" | "summary" | "untyped"
            ) {
                return err("unknown family type");
            }
            if !seen.insert(name.to_string()) {
                return err("family declared twice");
            }
            families.push(PromFamily {
                name: name.to_string(),
                kind: kind.to_string(),
                samples: Vec::new(),
            });
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP or comment
        }
        let Some(family) = families.last_mut() else {
            return err("sample before any TYPE declaration");
        };
        // name[{labels}] value
        let (name_part, rest) = match (line.find('{'), line.find(' ')) {
            (Some(b), Some(s)) if b < s => line.split_at(b),
            (_, Some(s)) => line.split_at(s),
            _ => return err("missing value"),
        };
        if !valid_metric_name(name_part) {
            return err("illegal sample name");
        }
        let member = name_part == family.name
            || ((family.kind == "summary" || family.kind == "histogram")
                && (name_part == format!("{}_sum", family.name)
                    || name_part == format!("{}_count", family.name)
                    || (family.kind == "histogram"
                        && name_part == format!("{}_bucket", family.name))));
        if !member {
            return err("sample does not belong to the current family");
        }
        let mut rest = rest;
        let mut labels = Vec::new();
        if let Some(body) = rest.strip_prefix('{') {
            // The closing brace must be found with quote awareness:
            // label *values* may legally contain `}` (and `,`) inside
            // their quotes, so a plain `find('}')` would truncate them.
            let Some(close) = find_unquoted(body, '}') else {
                return err("unterminated label set");
            };
            let (label_body, after) = body.split_at(close);
            rest = &after[1..];
            for pair in split_label_pairs(label_body) {
                let Some((lname, lval)) = pair.split_once('=') else {
                    return err("label without '='");
                };
                if !valid_label_name(lname) {
                    return err("illegal label name");
                }
                let Some(quoted) = lval.strip_prefix('"').and_then(|v| v.strip_suffix('"')) else {
                    return err("label value not quoted");
                };
                let mut val = String::new();
                let mut chars = quoted.chars();
                while let Some(c) = chars.next() {
                    if c == '"' {
                        return err("unescaped quote in label value");
                    }
                    if c == '\\' {
                        match chars.next() {
                            Some('\\') => val.push('\\'),
                            Some('"') => val.push('"'),
                            Some('n') => val.push('\n'),
                            _ => return err("illegal escape in label value"),
                        }
                    } else {
                        val.push(c);
                    }
                }
                labels.push((lname.to_string(), val));
            }
        }
        let value_text = rest.trim_start_matches(' ');
        if value_text.is_empty() || value_text.contains(' ') {
            // (timestamps are legal Prometheus but our exporter never
            // emits them, so the strict parser rejects extra fields)
            return err("expected exactly one value");
        }
        let value = match value_text {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            "NaN" => f64::NAN,
            v => v
                .parse::<f64>()
                .map_err(|_| format!("line {}: bad float {v:?}", lineno + 1))?,
        };
        family.samples.push(PromSample {
            name: name_part.to_string(),
            labels,
            value,
        });
    }
    Ok(families)
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("metrics", &self.metrics.lock().unwrap().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_share_cells_by_name() {
        let r = Registry::new();
        let a = r.counter("x.hits");
        let b = r.counter("x.hits");
        a.add(3);
        b.inc();
        assert_eq!(a.get(), 4);
        assert_eq!(r.counter_value("x.hits"), Some(4));
        assert_eq!(r.counter_value("x.misses"), None);
    }

    #[test]
    fn detached_counter_can_be_registered_later() {
        let c = Counter::new();
        c.add(7);
        let r = Registry::new();
        r.register_counter("late", &c);
        c.inc();
        assert_eq!(r.counter_value("late"), Some(8));
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::new();
        g.set(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn histogram_quantiles_interpolate_within_buckets() {
        let h = Histogram::new();
        for _ in 0..99 {
            h.observe(100); // bucket (64,128], 99 observations
        }
        h.observe(1_000_000); // sole observation in (2^19, 2^20]
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 99 * 100 + 1_000_000);
        // p50 → rank 50 of 99 in (64,128]: 64 + 64·50/99 = 96.
        assert_eq!(s.p50, 96);
        // p99 → rank 99 of 99 in the same bucket: the upper edge.
        assert_eq!(s.p99, 128);
        // p999 → the lone top observation: its bucket's upper edge.
        assert_eq!(s.p999, 1 << 20);
    }

    #[test]
    fn histogram_interpolation_bounds_relative_error() {
        // Uniform-ish spread: values 257..=512 fill bucket (256,512]
        // with an arithmetic progression. Interpolated quantiles must
        // land near the true order statistics — well inside the 2×
        // worst case of the old bucket-upper-bound estimate.
        let h = Histogram::new();
        for v in 257..=511u64 {
            h.observe(v); // 255 observations, all in one bucket
        }
        let s = h.snapshot();
        for (q, est) in [(0.50f64, s.p50), (0.99, s.p99), (0.999, s.p999)] {
            let rank = ((255.0 * q).ceil() as u64).clamp(1, 255);
            let truth = 256 + rank; // rank-th smallest of 257..=511
            let rel = (est as f64 - truth as f64).abs() / truth as f64;
            assert!(
                rel <= 0.005,
                "q={q}: est {est} vs truth {truth} (rel err {rel:.4})"
            );
        }

        // Adversarial: every observation piled at the bucket's bottom
        // edge + 1. Interpolation can't know that, but the estimate
        // must never leave the bucket: relative error stays < 2×.
        let h = Histogram::new();
        for _ in 0..1000 {
            h.observe(257);
        }
        let s = h.snapshot();
        for est in [s.p50, s.p99, s.p999] {
            assert!((257..=512).contains(&est), "estimate {est} left bucket");
            assert!((est as f64) / 257.0 < 2.0);
        }
    }

    #[test]
    fn histogram_handles_zero_and_empty() {
        let h = Histogram::new();
        assert_eq!(h.snapshot(), HistogramSnapshot::default());
        h.observe(0);
        let s = h.snapshot();
        assert_eq!((s.count, s.sum, s.p50, s.p999), (1, 0, 0, 0));
    }

    #[test]
    fn exporters_are_deterministic_and_sorted() {
        let r = Registry::new();
        r.counter("b.two").add(2);
        r.counter("a.one").inc();
        r.gauge("c.depth").set(-5);
        r.histogram("d.lat").observe(100);
        let prom = r.render_prometheus();
        let a = prom.find("a_one 1").unwrap();
        let b = prom.find("b_two 2").unwrap();
        let c = prom.find("c_depth -5").unwrap();
        assert!(a < b && b < c, "sorted order:\n{prom}");
        assert!(prom.contains("d_lat{quantile=\"0.99\"} 128"));
        let json = r.render_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"a.one\":1"));
        assert!(json.contains("\"d.lat\":{\"count\":1,\"sum\":100,"));
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_confusion_panics() {
        let r = Registry::new();
        r.counter("x");
        r.gauge("x");
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn register_over_different_type_panics() {
        let r = Registry::new();
        r.gauge("x");
        r.register_counter("x", &Counter::new());
    }

    #[test]
    fn register_same_type_replaces() {
        let r = Registry::new();
        r.counter("x").add(3);
        let fresh = Counter::new();
        fresh.add(10);
        r.register_counter("x", &fresh);
        assert_eq!(r.counter_value("x"), Some(10));
        r.register_histogram("h", &Histogram::new());
    }

    #[test]
    fn prometheus_names_are_sanitized_to_spec() {
        assert_eq!(sanitize_prometheus_name("a.b.c"), "a_b_c");
        assert_eq!(
            sanitize_prometheus_name("udp/mal-formed μs"),
            "udp_mal_formed__s"
        );
        assert_eq!(sanitize_prometheus_name("9lives"), "_9lives");
        assert_eq!(sanitize_prometheus_name(""), "_");
        assert_eq!(sanitize_prometheus_name("ok:name_1"), "ok:name_1");
    }

    #[test]
    fn exporter_round_trips_through_strict_parser() {
        let r = Registry::new();
        r.counter("ncpr.sender.retransmits").add(4);
        r.counter("udp/mal-formed").inc(); // illegal chars
        r.counter("9starts.with.digit").add(2); // leading digit
        r.gauge("sim.depth").set(-3);
        r.histogram("e2e.lat").observe(100);
        let text = r.render_prometheus();
        let families = parse_prometheus(&text).expect("strict parse");
        let names: Vec<&str> = families.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "_9starts_with_digit",
                "e2e_lat",
                "ncpr_sender_retransmits",
                "sim_depth",
                "udp_mal_formed"
            ]
        );
        let summary = families.iter().find(|f| f.name == "e2e_lat").unwrap();
        assert_eq!(summary.kind, "summary");
        let quantiles: Vec<&PromSample> = summary
            .samples
            .iter()
            .filter(|s| s.labels.iter().any(|(k, _)| k == "quantile"))
            .collect();
        assert_eq!(quantiles.len(), 3);
        assert_eq!(quantiles[0].labels[0], ("quantile".into(), "0.5".into()));
        assert!(summary.samples.iter().any(|s| s.name == "e2e_lat_count"));
        let c = families
            .iter()
            .find(|f| f.name == "ncpr_sender_retransmits")
            .unwrap();
        assert_eq!(c.samples[0].value, 4.0);
    }

    #[test]
    fn sanitized_name_collisions_stay_unique_families() {
        let r = Registry::new();
        r.counter("a.b").add(1);
        r.counter("a_b").add(2);
        r.counter("a-b").add(3);
        let text = r.render_prometheus();
        let families = parse_prometheus(&text).expect("no duplicate families");
        let names: Vec<&str> = families.iter().map(|f| f.name.as_str()).collect();
        // BTreeMap order: "a-b" < "a.b" < "a_b" — first takes the clean
        // name, later ones get deterministic suffixes.
        assert_eq!(names, vec!["a_b", "a_b_2", "a_b_3"]);
        assert_eq!(families[0].samples[0].value, 3.0);
        assert_eq!(families[1].samples[0].value, 1.0);
        assert_eq!(families[2].samples[0].value, 2.0);
    }

    #[test]
    fn labeled_samples_share_one_family() {
        let r = Registry::new();
        r.counter(&labeled("sim.delivered", &[("tenant", "a")]))
            .add(3);
        r.counter(&labeled("sim.delivered", &[("tenant", "b")]))
            .add(5);
        r.counter("sim.delivered").add(8); // unlabelled total
        r.histogram(&labeled("e2e.lat", &[("tenant", "a")]))
            .observe(100);
        let text = r.render_prometheus();
        let families = parse_prometheus(&text).expect("strict parse:\n{text}");
        let sim = families.iter().find(|f| f.name == "sim_delivered").unwrap();
        assert_eq!(sim.kind, "counter");
        assert_eq!(sim.samples.len(), 3);
        let by_tenant: Vec<(Vec<(String, String)>, f64)> = sim
            .samples
            .iter()
            .map(|s| (s.labels.clone(), s.value))
            .collect();
        assert!(by_tenant.contains(&(vec![], 8.0)));
        assert!(by_tenant.contains(&(vec![("tenant".into(), "a".into())], 3.0)));
        assert!(by_tenant.contains(&(vec![("tenant".into(), "b".into())], 5.0)));
        // Labelled histograms merge user labels with quantile labels.
        let lat = families.iter().find(|f| f.name == "e2e_lat").unwrap();
        let q = lat
            .samples
            .iter()
            .find(|s| s.labels.iter().any(|(k, _)| k == "quantile"))
            .unwrap();
        assert!(q.labels.contains(&("tenant".into(), "a".into())));
        assert!(lat
            .samples
            .iter()
            .any(|s| s.name == "e2e_lat_count" && s.labels == vec![("tenant".into(), "a".into())]));
    }

    #[test]
    fn labeled_escapes_values() {
        assert_eq!(labeled("x", &[]), "x");
        let name = labeled("x.y", &[("t", "a\"b\\c\nd")]);
        let r = Registry::new();
        r.counter(&name).inc();
        let families = parse_prometheus(&r.render_prometheus()).expect("parses");
        assert_eq!(families[0].samples[0].labels[0].1, "a\"b\\c\nd");
    }

    #[test]
    fn parser_keeps_braces_and_commas_inside_label_values() {
        // `}` and `,` are legal *inside* quoted label values; the
        // quote-aware scan must not end the label set (or split the
        // pair) early.
        let r = Registry::new();
        r.counter(&labeled("x.y", &[("a", "v1,v2}"), ("b", "{q=\"z\"}")]))
            .add(3);
        let text = r.render_prometheus();
        let families = parse_prometheus(&text).expect("strict parse:\n{text}");
        let labels = &families[0].samples[0].labels;
        assert_eq!(labels[0], ("a".to_string(), "v1,v2}".to_string()));
        assert_eq!(labels[1], ("b".to_string(), "{q=\"z\"}".to_string()));
    }

    #[test]
    fn strict_parser_rejects_spec_violations() {
        // Sample without a family.
        assert!(parse_prometheus("orphan 1\n").is_err());
        // Duplicate family declaration.
        assert!(parse_prometheus("# TYPE a counter\na 1\n# TYPE a counter\na 2\n").is_err());
        // Sample outside its family.
        assert!(parse_prometheus("# TYPE a counter\nb 1\n").is_err());
        // Illegal name.
        assert!(parse_prometheus("# TYPE a.b counter\na.b 1\n").is_err());
        // Unquoted label value.
        assert!(parse_prometheus("# TYPE a summary\na{quantile=0.5} 1\n").is_err());
        // Bad float.
        assert!(parse_prometheus("# TYPE a counter\na one\n").is_err());
        // Legal input parses.
        let ok = parse_prometheus("# TYPE a summary\na{quantile=\"0.5\"} 1\na_sum 2\na_count 1\n")
            .unwrap();
        assert_eq!(ok[0].samples.len(), 3);
    }

    #[test]
    fn json_keys_are_escaped() {
        let r = Registry::new();
        r.counter("we\"ird\\name").add(7);
        r.histogram("plain.lat").observe(3);
        let doc = crate::scope::json::parse(&r.render_json()).expect("valid JSON");
        assert_eq!(doc.get("we\"ird\\name").unwrap().as_u64(), Some(7));
        assert_eq!(
            doc.get("plain.lat").unwrap().get("count").unwrap().as_u64(),
            Some(1)
        );
    }
}
