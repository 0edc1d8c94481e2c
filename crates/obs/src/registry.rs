//! Named-metric registry and text exporters.
//!
//! A [`Registry`] maps stable metric names to shared handles. Components
//! register on construction (`get-or-create`, so two components naming
//! the same metric share one handle) and record through the returned
//! `Arc` without ever touching the registry lock again.
//!
//! Two export formats:
//! - [`Registry::render_prometheus`] — Prometheus text exposition
//!   (cumulative `_bucket{le=...}` histogram series).
//! - [`Registry::render_json`] — one JSON object per line, for log
//!   shipping and the bench harness.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock, RwLock};

use crate::metrics::{Counter, Gauge, Histogram, HISTOGRAM_BUCKETS};

/// A shared handle to one named metric.
#[derive(Debug, Clone)]
pub enum Metric {
    /// Monotonic count.
    Counter(Arc<Counter>),
    /// Signed level.
    Gauge(Arc<Gauge>),
    /// log₂ distribution.
    Histogram(Arc<Histogram>),
}

/// Named-metric lookup table.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: RwLock<BTreeMap<String, Metric>>,
    help: RwLock<BTreeMap<String, String>>,
}

/// Escapes a metric HELP docstring for the Prometheus text exposition:
/// `\` → `\\` and line feed → `\n`, so arbitrary text cannot break the
/// one-line comment structure or inject fake series.
pub fn escape_help(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Builds the canonical registry name of a **labeled** metric:
/// `family{key="value",...}` with label values escaped. Two call sites
/// naming the same family and labels therefore share one handle, and the
/// exporters render every member of a family under a single
/// `# TYPE`/`# HELP` header (histograms splice the labels next to `le`).
///
/// Label *keys* must be plain identifiers (letters, digits, `_`); values
/// may be arbitrary and are escaped.
///
/// ```
/// use swag_obs::labeled_name;
/// assert_eq!(
///     labeled_name("swag_op_micros", &[("op", "index_scan")]),
///     "swag_op_micros{op=\"index_scan\"}"
/// );
/// ```
pub fn labeled_name(family: &str, labels: &[(&str, &str)]) -> String {
    debug_assert!(
        !family.contains('{') && !labels.is_empty(),
        "labeled_name takes a bare family plus at least one label"
    );
    let mut out = String::with_capacity(family.len() + 16 * labels.len());
    out.push_str(family);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        debug_assert!(
            k.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
            "label key {k:?} must be an identifier"
        );
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(&escape_label_value(v));
        out.push('"');
    }
    out.push('}');
    out
}

/// Splits a registry name into `(family, labels)` — the inverse of
/// [`labeled_name`]. Bare names return `(name, None)`; the label part is
/// returned *with* its braces stripped (`op="index_scan"`).
pub(crate) fn split_labels(name: &str) -> (&str, Option<&str>) {
    match name.find('{') {
        Some(open) if name.ends_with('}') => (&name[..open], Some(&name[open + 1..name.len() - 1])),
        _ => (name, None),
    }
}

/// Escapes a label value for the Prometheus text exposition: `\` → `\\`,
/// `"` → `\"`, and line feed → `\n` — the three characters that would
/// otherwise terminate the quoted value or the line early.
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The process-wide registry used by default-constructed components.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// The counter named `name`, creating it on first use.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        match self.register(name, || Metric::Counter(Arc::new(Counter::new()))) {
            Metric::Counter(c) => c,
            other => panic!("metric {name:?} is a {}, not a counter", kind(&other)),
        }
    }

    /// The gauge named `name`, creating it on first use.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        match self.register(name, || Metric::Gauge(Arc::new(Gauge::new()))) {
            Metric::Gauge(g) => g,
            other => panic!("metric {name:?} is a {}, not a gauge", kind(&other)),
        }
    }

    /// The histogram named `name`, creating it on first use.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different kind.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        match self.register(name, || Metric::Histogram(Arc::new(Histogram::new()))) {
            Metric::Histogram(h) => h,
            other => panic!("metric {name:?} is a {}, not a histogram", kind(&other)),
        }
    }

    fn register(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        if let Some(m) = self.get(name) {
            return m;
        }
        let mut metrics = self.metrics.write().unwrap_or_else(|e| e.into_inner());
        metrics.entry(name.to_string()).or_insert_with(make).clone()
    }

    /// Attaches a HELP docstring to `name`, emitted (escaped) as a
    /// `# HELP` comment in the Prometheus exposition. Overwrites any
    /// previous help text; the metric need not exist yet.
    pub fn set_help(&self, name: &str, help: &str) {
        self.help
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .insert(name.to_string(), help.to_string());
    }

    /// The raw (unescaped) HELP docstring for `name`, if set.
    pub fn help(&self, name: &str) -> Option<String> {
        self.help
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
            .cloned()
    }

    /// Looks up an existing metric by name.
    pub fn get(&self, name: &str) -> Option<Metric> {
        self.metrics
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
            .cloned()
    }

    /// All registered names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.metrics
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .keys()
            .cloned()
            .collect()
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.read().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether no metrics are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Renders the Prometheus text exposition format. Members of a
    /// labeled family (names built by [`labeled_name`]) are emitted under
    /// one `# TYPE`/`# HELP` header; `# HELP` resolves through the full
    /// name first, then the bare family, so one `set_help` call covers
    /// every label combination.
    pub fn render_prometheus(&self) -> String {
        let metrics = self.metrics.read().unwrap_or_else(|e| e.into_inner());
        let help = self.help.read().unwrap_or_else(|e| e.into_inner());
        let mut out = String::new();
        let mut headed: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
        for (name, metric) in metrics.iter() {
            let (family, labels) = split_labels(name);
            if headed.insert(family) {
                if let Some(text) = help.get(name).or_else(|| help.get(family)) {
                    out.push_str(&format!("# HELP {family} {}\n", escape_help(text)));
                }
                out.push_str(&format!("# TYPE {family} {}\n", kind(metric)));
            }
            // `series!(suffix, extra-label)` renders one sample line of
            // this family member, splicing its labels back in.
            macro_rules! series {
                ($suffix:expr, $extra:expr, $value:expr) => {{
                    let extra: &str = $extra;
                    out.push_str(family);
                    out.push_str($suffix);
                    match (labels, extra.is_empty()) {
                        (None, true) => {}
                        (None, false) => {
                            out.push('{');
                            out.push_str(extra);
                            out.push('}');
                        }
                        (Some(l), true) => {
                            out.push('{');
                            out.push_str(l);
                            out.push('}');
                        }
                        (Some(l), false) => {
                            out.push('{');
                            out.push_str(l);
                            out.push(',');
                            out.push_str(extra);
                            out.push('}');
                        }
                    }
                    out.push_str(&format!(" {}\n", $value));
                }};
            }
            match metric {
                Metric::Counter(c) => series!("", "", c.get()),
                Metric::Gauge(g) => series!("", "", g.get()),
                Metric::Histogram(h) => {
                    let snap = h.snapshot();
                    let mut cumulative = 0u64;
                    let top = highest_used_bucket(&snap.buckets);
                    for (i, &n) in snap.buckets.iter().enumerate().take(top + 1) {
                        cumulative += n;
                        let le = format!(
                            "le=\"{}\"",
                            escape_label_value(&Histogram::bucket_bound(i).to_string())
                        );
                        series!("_bucket", le.as_str(), cumulative);
                    }
                    series!("_bucket", "le=\"+Inf\"", snap.count);
                    series!("_sum", "", snap.sum);
                    series!("_count", "", snap.count);
                }
            }
        }
        out
    }

    /// Renders one JSON object per metric per line (JSON lines).
    pub fn render_json(&self) -> String {
        let metrics = self.metrics.read().unwrap_or_else(|e| e.into_inner());
        let mut out = String::new();
        for (name, metric) in metrics.iter() {
            let name = json_escape(name);
            match metric {
                Metric::Counter(c) => {
                    out.push_str(&format!(
                        "{{\"name\":\"{name}\",\"type\":\"counter\",\"value\":{}}}\n",
                        c.get()
                    ));
                }
                Metric::Gauge(g) => {
                    out.push_str(&format!(
                        "{{\"name\":\"{name}\",\"type\":\"gauge\",\"value\":{}}}\n",
                        g.get()
                    ));
                }
                Metric::Histogram(h) => {
                    let s = h.snapshot();
                    out.push_str(&format!(
                        "{{\"name\":\"{name}\",\"type\":\"histogram\",\"count\":{},\"sum\":{},\"mean\":{:.3},\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}}}\n",
                        s.count, s.sum, s.mean(), s.p50(), s.p90(), s.p99(), s.max
                    ));
                }
            }
        }
        out
    }
}

/// Escapes a string for embedding in a JSON string literal (labeled
/// metric names contain `"`).
pub(crate) fn json_escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn kind(metric: &Metric) -> &'static str {
    match metric {
        Metric::Counter(_) => "counter",
        Metric::Gauge(_) => "gauge",
        Metric::Histogram(_) => "histogram",
    }
}

/// Index of the highest non-empty bucket (0 when all empty), used to
/// truncate the exported bucket series.
fn highest_used_bucket(buckets: &[u64; HISTOGRAM_BUCKETS]) -> usize {
    buckets.iter().rposition(|&n| n > 0).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_shared_handles() {
        let reg = Registry::new();
        let a = reg.counter("swag_test_total");
        let b = reg.counter("swag_test_total");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        reg.counter("swag_test_total");
        reg.gauge("swag_test_total");
    }

    #[test]
    fn prometheus_rendering_shapes() {
        let reg = Registry::new();
        reg.counter("swag_queries_total").add(5);
        reg.gauge("swag_queue_depth").set(-2);
        let h = reg.histogram("swag_query_micros");
        h.record(3);
        h.record(100);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE swag_queries_total counter"));
        assert!(text.contains("swag_queries_total 5"));
        assert!(text.contains("swag_queue_depth -2"));
        assert!(text.contains("# TYPE swag_query_micros histogram"));
        assert!(text.contains("swag_query_micros_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("swag_query_micros_sum 103"));
        assert!(text.contains("swag_query_micros_count 2"));
        // Cumulative buckets are non-decreasing.
        let cums: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("swag_query_micros_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(cums.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn json_rendering_is_one_object_per_line() {
        let reg = Registry::new();
        reg.counter("swag_a_total").inc();
        reg.histogram("swag_b_micros").record(7);
        let text = reg.render_json();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'));
            assert!(line.contains("\"name\":"));
        }
        assert!(text.contains("\"type\":\"histogram\""));
        assert!(text.contains("\"p50\":7"));
    }

    #[test]
    fn help_text_is_emitted_before_type() {
        let reg = Registry::new();
        reg.counter("swag_queries_total").add(1);
        reg.set_help("swag_queries_total", "Total queries served.");
        let text = reg.render_prometheus();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "# HELP swag_queries_total Total queries served.");
        assert_eq!(lines[1], "# TYPE swag_queries_total counter");
        assert_eq!(
            reg.help("swag_queries_total").unwrap(),
            "Total queries served."
        );
        // Help for an unregistered metric is stored but not rendered.
        reg.set_help("swag_ghost", "never registered");
        assert!(!reg.render_prometheus().contains("ghost"));
    }

    #[test]
    fn hostile_help_cannot_break_exposition_structure() {
        let reg = Registry::new();
        reg.counter("swag_evil_total").add(7);
        // A help string trying to inject a fake series via a newline, to
        // truncate the line with a backslash, and to confuse quoting.
        reg.set_help(
            "swag_evil_total",
            "line one\nswag_fake_total 999\nback\\slash \"quoted\"",
        );
        let text = reg.render_prometheus();
        // The newline is escaped: no injected series line exists.
        assert!(!text.contains("\nswag_fake_total"));
        assert!(text.contains(
            "# HELP swag_evil_total line one\\nswag_fake_total 999\\nback\\\\slash \"quoted\""
        ));
        // Every line is still a comment or a sample of the real metric.
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.starts_with("swag_evil_total"),
                "unexpected line {line:?}"
            );
        }
    }

    #[test]
    fn escapers_cover_backslash_quote_and_newline() {
        assert_eq!(escape_help("a\\b\nc\"d"), "a\\\\b\\nc\"d");
        assert_eq!(escape_label_value("a\\b\nc\"d"), "a\\\\b\\nc\\\"d");
        assert_eq!(escape_help("plain"), "plain");
        assert_eq!(escape_label_value(""), "");
    }

    #[test]
    fn labeled_name_escapes_values() {
        assert_eq!(
            labeled_name("swag_op", &[("op", "index_scan"), ("shard", "3")]),
            "swag_op{op=\"index_scan\",shard=\"3\"}"
        );
        assert_eq!(
            labeled_name("swag_op", &[("op", "a\"b\\c")]),
            "swag_op{op=\"a\\\"b\\\\c\"}"
        );
        assert_eq!(
            split_labels("swag_op{op=\"x\"}"),
            ("swag_op", Some("op=\"x\""))
        );
        assert_eq!(split_labels("swag_op"), ("swag_op", None));
    }

    #[test]
    fn labeled_family_renders_under_one_header() {
        let reg = Registry::new();
        reg.counter(&labeled_name("swag_hits_total", &[("src", "index")]))
            .add(3);
        reg.counter(&labeled_name("swag_hits_total", &[("src", "delta")]))
            .add(1);
        reg.set_help("swag_hits_total", "Hits by origin.");
        let text = reg.render_prometheus();
        assert_eq!(
            text.matches("# TYPE swag_hits_total counter").count(),
            1,
            "one TYPE header for the whole family: {text}"
        );
        assert_eq!(text.matches("# HELP swag_hits_total").count(), 1);
        assert!(text.contains("swag_hits_total{src=\"index\"} 3"));
        assert!(text.contains("swag_hits_total{src=\"delta\"} 1"));
    }

    #[test]
    fn labeled_histogram_splices_le_after_labels() {
        let reg = Registry::new();
        let h = reg.histogram(&labeled_name("swag_op_micros", &[("op", "ranking")]));
        h.record(3);
        h.record(100);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE swag_op_micros histogram"));
        assert!(text.contains("swag_op_micros_bucket{op=\"ranking\",le=\"+Inf\"} 2"));
        assert!(text.contains("swag_op_micros_sum{op=\"ranking\"} 103"));
        assert!(text.contains("swag_op_micros_count{op=\"ranking\"} 2"));
        // Cumulative buckets are still non-decreasing.
        let cums: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("swag_op_micros_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(cums.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn labeled_names_render_as_valid_json() {
        let reg = Registry::new();
        reg.counter(&labeled_name("swag_hits_total", &[("src", "index")]))
            .inc();
        let text = reg.render_json();
        assert!(text.contains("\"name\":\"swag_hits_total{src=\\\"index\\\"}\""));
    }

    /// Checks Prometheus text-format structure: HELP/TYPE at most once per
    /// family with HELP first, every series after its family's TYPE,
    /// every value parseable.
    fn assert_valid_exposition(body: &str) {
        use std::collections::HashSet;
        let mut helped: HashSet<&str> = HashSet::new();
        let mut typed: HashSet<&str> = HashSet::new();
        for line in body.lines().filter(|l| !l.is_empty()) {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let fam = rest.split(' ').next().expect("family after HELP");
                assert!(helped.insert(fam), "duplicate HELP for {fam}:\n{body}");
                assert!(!typed.contains(fam), "HELP after TYPE for {fam}");
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split(' ');
                let fam = parts.next().expect("family after TYPE");
                let kind = parts.next().expect("kind after family");
                assert!(
                    ["counter", "gauge", "histogram"].contains(&kind),
                    "bad TYPE kind {kind}"
                );
                assert!(typed.insert(fam), "duplicate TYPE for {fam}:\n{body}");
                continue;
            }
            assert!(!line.starts_with('#'), "unknown comment line {line:?}");
            // A series line: `name value` or `name{labels} value`.
            let name_end = line
                .find('{')
                .or_else(|| line.find(' '))
                .unwrap_or_else(|| panic!("no value on {line:?}"));
            let name = &line[..name_end];
            let family = ["_bucket", "_sum", "_count"]
                .iter()
                .find_map(|s| name.strip_suffix(s).filter(|f| typed.contains(f)))
                .unwrap_or(name);
            assert!(
                typed.contains(family),
                "series {name} precedes its TYPE header:\n{body}"
            );
            let value = line.rsplit(' ').next().expect("value field");
            assert!(
                value.parse::<f64>().is_ok() || value == "+Inf",
                "unparseable sample value {value:?} on {line:?}"
            );
        }
        assert!(!typed.is_empty(), "no families rendered");
    }

    #[test]
    fn exposition_is_structurally_valid() {
        let reg = Registry::new();
        reg.set_help("swag_query_micros", "End-to-end query latency.");
        reg.set_help("swag_op_micros", "Per-operator wall time.");
        let q = reg.histogram("swag_query_micros");
        // Two members of one labeled family: one header between them.
        let scan = reg.histogram(&labeled_name("swag_op_micros", &[("op", "index_scan")]));
        let rank = reg.histogram(&labeled_name("swag_op_micros", &[("op", "ranking")]));
        let nasty = reg.counter(&labeled_name(
            "swag_hits_total",
            &[("src", "de\"lta\\n\npath")],
        ));
        for i in 0..200u64 {
            q.record(10 + i % 7);
            scan.record(3 + i % 5);
            rank.record(i);
            nasty.inc();
        }
        let body = reg.render_prometheus();
        assert_valid_exposition(&body);

        // Histogram triplets under one family header.
        assert_eq!(
            body.matches("# TYPE swag_query_micros histogram").count(),
            1
        );
        assert!(body.contains("swag_query_micros_bucket{le=\"+Inf\"} 200"));
        assert!(body.contains("swag_query_micros_sum "));
        assert!(body.contains("swag_query_micros_count 200"));
        // Labeled family: le spliced after the base labels.
        assert!(body.contains("swag_op_micros_bucket{op=\"index_scan\",le=\"+Inf\"} 200"));
        // HELP text made it through.
        assert!(body.contains("# HELP swag_query_micros End-to-end query latency."));
        // The nasty label value survives exactly as escaped at registration.
        assert!(
            body.contains("swag_hits_total{src=\"de\\\"lta\\\\n\\npath\"} 200"),
            "escaping mangled:\n{body}"
        );
    }

    #[test]
    fn names_are_sorted() {
        let reg = Registry::new();
        reg.counter("swag_z");
        reg.counter("swag_a");
        assert_eq!(
            reg.names(),
            vec!["swag_a".to_string(), "swag_z".to_string()]
        );
    }
}
