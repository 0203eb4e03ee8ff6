//! The process-wide metric registry: named, labeled families of
//! counters, gauges, and histograms, rendered in Prometheus text
//! exposition format.
//!
//! Handles are `Arc`s — registering the same name+labels twice returns
//! the **same** underlying metric, so instrumentation sites can call
//! `registry.counter(...)` lazily without coordinating ownership.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

use crate::metric::{Counter, Gauge, Histogram};

/// A collection of named metric families.
///
/// Most code uses [`Registry::global`]; components that need isolation
/// (for example the serve-layer stats, which are asserted exactly in
/// tests) construct their own with [`Registry::new`].
///
/// ```
/// use rck_obs::Registry;
///
/// let reg = Registry::new();
/// let done = reg.counter_with(
///     "rck_demo_worker_jobs",
///     "jobs finished per worker",
///     &[("worker", "3")],
/// );
/// done.add(7);
/// let text = reg.render();
/// assert!(text.contains("# TYPE rck_demo_worker_jobs counter"));
/// assert!(text.contains("rck_demo_worker_jobs{worker=\"3\"} 7"));
/// ```
#[derive(Debug, Default)]
pub struct Registry {
    families: Mutex<BTreeMap<String, Family>>,
}

#[derive(Debug)]
struct Family {
    help: String,
    kind: Kind,
    /// Keyed by the rendered label string (`{a="x",b="y"}` or "").
    members: BTreeMap<String, Metric>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Arc<Registry> {
        Arc::new(Registry::default())
    }

    /// The process-wide registry used by the kernel and farm
    /// instrumentation statics.
    pub fn global() -> &'static Arc<Registry> {
        GLOBAL.get_or_init(Registry::new)
    }

    /// Get or create an unlabeled counter.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.counter_with(name, help, &[])
    }

    /// Get or create a counter with the given label pairs.
    ///
    /// # Panics
    /// Panics if `name` is invalid or already registered as a different
    /// metric kind.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.member(name, help, Kind::Counter, labels, || {
            Metric::Counter(Arc::new(Counter::new()))
        }) {
            Metric::Counter(c) => c,
            _ => unreachable!(),
        }
    }

    /// Get or create an unlabeled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.gauge_with(name, help, &[])
    }

    /// Get or create a gauge with the given label pairs.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.member(name, help, Kind::Gauge, labels, || {
            Metric::Gauge(Arc::new(Gauge::new()))
        }) {
            Metric::Gauge(g) => g,
            _ => unreachable!(),
        }
    }

    /// Get or create an unlabeled histogram over `bounds`.
    pub fn histogram(&self, name: &str, help: &str, bounds: &[f64]) -> Arc<Histogram> {
        self.histogram_with(name, help, bounds, &[])
    }

    /// Get or create a histogram with the given label pairs.
    ///
    /// # Panics
    /// Panics if the same name+labels was registered with different
    /// bucket bounds.
    pub fn histogram_with(
        &self,
        name: &str,
        help: &str,
        bounds: &[f64],
        labels: &[(&str, &str)],
    ) -> Arc<Histogram> {
        let m = self.member(name, help, Kind::Histogram, labels, || {
            Metric::Histogram(Arc::new(Histogram::new(bounds)))
        });
        match m {
            Metric::Histogram(h) => {
                assert_eq!(
                    h.bounds(),
                    bounds,
                    "histogram {name} re-registered with different bounds"
                );
                h
            }
            _ => unreachable!(),
        }
    }

    /// Drop the series `name{labels}`, and its family once no series is
    /// left, so a label whose value has a bounded life (a tenant, a
    /// connection) stops rendering when its owner goes. A handle taken
    /// earlier keeps counting unseen; registering the series again
    /// starts it from zero. Returns whether the series existed.
    pub fn remove(&self, name: &str, labels: &[(&str, &str)]) -> bool {
        let mut families = self.families.lock().unwrap();
        let Some(family) = families.get_mut(name) else {
            return false;
        };
        let removed = family.members.remove(&label_string(labels)).is_some();
        if family.members.is_empty() {
            families.remove(name);
        }
        removed
    }

    fn member(
        &self,
        name: &str,
        help: &str,
        kind: Kind,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Metric,
    ) -> Metric {
        validate_name(name);
        for (k, _) in labels {
            validate_name(k);
        }
        let key = label_string(labels);
        let mut families = self.families.lock().unwrap();
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind,
            members: BTreeMap::new(),
        });
        assert_eq!(
            family.kind,
            kind,
            "metric {name} already registered as a {}",
            family.kind.as_str()
        );
        family.members.entry(key).or_insert_with(make).clone()
    }

    /// Render every family in Prometheus text exposition format.
    ///
    /// Families and members are emitted in sorted order, so the output
    /// is deterministic for a given set of values.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let families = self.families.lock().unwrap();
        for (name, family) in families.iter() {
            out.push_str(&format!("# HELP {name} {}\n", family.help));
            out.push_str(&format!("# TYPE {name} {}\n", family.kind.as_str()));
            for (labels, metric) in &family.members {
                match metric {
                    Metric::Counter(c) => {
                        out.push_str(&format!("{name}{labels} {}\n", c.get()));
                    }
                    Metric::Gauge(g) => {
                        out.push_str(&format!("{name}{labels} {}\n", g.get()));
                    }
                    Metric::Histogram(h) => {
                        let snap = h.snapshot();
                        let mut cum = 0u64;
                        for (ix, &bound) in snap.bounds.iter().enumerate() {
                            cum += snap.counts[ix];
                            out.push_str(&format!(
                                "{name}_bucket{} {cum}\n",
                                with_label(labels, "le", &format_bound(bound))
                            ));
                        }
                        out.push_str(&format!(
                            "{name}_bucket{} {}\n",
                            with_label(labels, "le", "+Inf"),
                            snap.count
                        ));
                        out.push_str(&format!("{name}_sum{labels} {}\n", snap.sum));
                        out.push_str(&format!("{name}_count{labels} {}\n", snap.count));
                    }
                }
            }
        }
        out
    }
}

fn validate_name(name: &str) {
    let mut chars = name.chars();
    let ok_first = chars
        .next()
        .map(|c| c.is_ascii_alphabetic() || c == '_')
        .unwrap_or(false);
    let ok_rest = name
        .chars()
        .skip(1)
        .all(|c| c.is_ascii_alphanumeric() || c == '_');
    assert!(
        ok_first && ok_rest,
        "invalid metric or label name {name:?}: want [a-zA-Z_][a-zA-Z0-9_]*"
    );
}

fn escape_label_value(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn label_string(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut pairs: Vec<(&str, &str)> = labels.to_vec();
    pairs.sort();
    let inner: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    format!("{{{}}}", inner.join(","))
}

/// Splice one more `key="value"` pair into an already-rendered label
/// string (used for the histogram `le` label).
fn with_label(labels: &str, key: &str, value: &str) -> String {
    if labels.is_empty() {
        format!("{{{key}=\"{value}\"}}")
    } else {
        // labels looks like {a="x"} — insert before the closing brace.
        format!("{},{key}=\"{value}\"}}", &labels[..labels.len() - 1])
    }
}

/// Render a bucket bound the way Prometheus clients do: shortest exact
/// decimal (Rust's default f64 Display is already shortest-roundtrip).
fn format_bound(b: f64) -> String {
    format!("{b}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_and_labels_share_the_metric() {
        let reg = Registry::new();
        let a = reg.counter("rck_test_shared", "help");
        let b = reg.counter("rck_test_shared", "other help ignored");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn labeled_members_are_distinct() {
        let reg = Registry::new();
        let w0 = reg.counter_with("rck_test_jobs", "h", &[("worker", "0")]);
        let w1 = reg.counter_with("rck_test_jobs", "h", &[("worker", "1")]);
        w0.add(5);
        w1.add(9);
        let text = reg.render();
        assert!(text.contains("rck_test_jobs{worker=\"0\"} 5"));
        assert!(text.contains("rck_test_jobs{worker=\"1\"} 9"));
        // One HELP/TYPE header for the family, not per member.
        assert_eq!(text.matches("# TYPE rck_test_jobs counter").count(), 1);
    }

    #[test]
    fn label_order_does_not_matter() {
        let reg = Registry::new();
        let a = reg.counter_with("rck_test_lo", "h", &[("a", "1"), ("b", "2")]);
        let b = reg.counter_with("rck_test_lo", "h", &[("b", "2"), ("a", "1")]);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn histogram_renders_cumulative_buckets() {
        let reg = Registry::new();
        let h = reg.histogram("rck_test_lat", "latency", &[0.1, 1.0]);
        h.observe(0.05);
        h.observe(0.5);
        h.observe(5.0);
        let text = reg.render();
        assert!(text.contains("# TYPE rck_test_lat histogram"));
        assert!(text.contains("rck_test_lat_bucket{le=\"0.1\"} 1"));
        assert!(text.contains("rck_test_lat_bucket{le=\"1\"} 2"));
        assert!(text.contains("rck_test_lat_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("rck_test_lat_sum 5.55"));
        assert!(text.contains("rck_test_lat_count 3"));
    }

    #[test]
    fn removed_series_stop_rendering_and_restart_from_zero() {
        let reg = Registry::new();
        reg.counter_with("rck_t_jobs", "h", &[("tenant", "a")])
            .add(3);
        reg.counter_with("rck_t_jobs", "h", &[("tenant", "b")])
            .add(5);
        assert!(reg.remove("rck_t_jobs", &[("tenant", "a")]));
        assert!(!reg.remove("rck_t_jobs", &[("tenant", "a")]));
        let text = reg.render();
        assert!(!text.contains("tenant=\"a\""));
        assert!(text.contains("rck_t_jobs{tenant=\"b\"} 5"));
        assert!(reg.remove("rck_t_jobs", &[("tenant", "b")]));
        assert_eq!(reg.render(), "", "an empty family is dropped");
        reg.counter_with("rck_t_jobs", "h", &[("tenant", "a")])
            .inc();
        assert!(reg.render().contains("rck_t_jobs{tenant=\"a\"} 1"));
    }

    #[test]
    fn gauge_renders_negative_values() {
        let reg = Registry::new();
        let g = reg.gauge("rck_test_depth", "queue depth");
        g.set(-3);
        assert!(reg.render().contains("rck_test_depth -3"));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_conflict_panics() {
        let reg = Registry::new();
        let _ = reg.counter("rck_test_conflict", "h");
        let _ = reg.gauge("rck_test_conflict", "h");
    }

    #[test]
    #[should_panic(expected = "different bounds")]
    fn histogram_bounds_conflict_panics() {
        let reg = Registry::new();
        let _ = reg.histogram("rck_test_hb", "h", &[1.0]);
        let _ = reg.histogram("rck_test_hb", "h", &[2.0]);
    }

    #[test]
    #[should_panic(expected = "invalid metric")]
    fn bad_name_rejected() {
        let reg = Registry::new();
        let _ = reg.counter("rck test spaces", "h");
    }

    #[test]
    fn label_values_are_escaped() {
        let reg = Registry::new();
        let c = reg.counter_with("rck_test_esc", "h", &[("path", "a\"b\\c")]);
        c.inc();
        assert!(reg
            .render()
            .contains("rck_test_esc{path=\"a\\\"b\\\\c\"} 1"));
    }

    #[test]
    fn global_registry_is_a_singleton() {
        let a = Registry::global();
        let b = Registry::global();
        assert!(Arc::ptr_eq(a, b));
    }
}
