//! The workspace's JSON writer, plus a human-readable table for
//! [`ObsSnapshot`].
//!
//! The observability snapshot, the serving stats, the WAL, breaker and
//! fleet-health views and the conformance counterexample dumps all write
//! through this module: [`ToJson`] values write themselves with
//! [`object`], [`write_escaped`] and the impls below. Integral floats
//! print without `.0`, and non-finite floats, which JSON cannot express,
//! print as `null`. The crate sits below every other workspace crate and
//! depends on nothing, so the writer is hand-rolled. The snapshot schema
//! is versioned through [`crate::snapshot::OBS_SCHEMA_VERSION`] and
//! documented in `DESIGN.md` §5e.
//!
//! ```
//! use stod_obs::json::{self, ToJson};
//!
//! struct Point { x: f64, y: f64 }
//! impl ToJson for Point {
//!     fn write_json(&self, out: &mut String) {
//!         json::object(out, |o| {
//!             o.field("x", &self.x).field("y", &self.y);
//!         });
//!     }
//! }
//! assert_eq!(json::to_string(&Point { x: 1.0, y: 2.5 }), r#"{"x":1,"y":2.5}"#);
//! ```

use crate::metrics::HistogramSnap;
use crate::snapshot::{CounterSnap, GaugeSnap, ObsSnapshot, SpanSnap, TraceEventSnap};
use std::fmt::Write as _;

/// A value that writes itself as JSON.
pub trait ToJson {
    /// Appends this value's JSON text to `out`.
    fn write_json(&self, out: &mut String);
}

/// Renders any [`ToJson`] value as a JSON string.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    value.write_json(&mut out);
    out
}

/// Appends a JSON string literal (with escaping) to `out`.
pub fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Builder for one JSON object; see [`object`].
pub struct ObjectBuilder<'a> {
    out: &'a mut String,
    first: bool,
}

impl ObjectBuilder<'_> {
    /// Appends one `"key":value` member.
    pub fn field<T: ToJson + ?Sized>(&mut self, key: &str, value: &T) -> &mut Self {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        write_escaped(self.out, key);
        self.out.push(':');
        value.write_json(self.out);
        self
    }
}

/// Appends `{…}`, letting `f` add the members through the builder.
pub fn object(out: &mut String, f: impl FnOnce(&mut ObjectBuilder<'_>)) {
    out.push('{');
    f(&mut ObjectBuilder { out, first: true });
    out.push('}');
}

macro_rules! to_json_display {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}

to_json_display!(u32, u64, usize, i64, bool);

macro_rules! to_json_float {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String) {
                if self.is_finite() {
                    let _ = write!(out, "{self}");
                } else {
                    out.push_str("null");
                }
            }
        }
    )*};
}

to_json_float!(f32, f64);

impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        write_escaped(out, self);
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        write_escaped(out, self);
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            v.write_json(out);
        }
        out.push(']');
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

impl ToJson for SpanSnap {
    fn write_json(&self, out: &mut String) {
        object(out, |o| {
            o.field("path", &self.path)
                .field("count", &self.count)
                .field("total_ns", &self.total_ns)
                .field("min_ns", &self.min_ns)
                .field("max_ns", &self.max_ns);
        });
    }
}

impl ToJson for CounterSnap {
    fn write_json(&self, out: &mut String) {
        object(out, |o| {
            o.field("name", &self.name).field("value", &self.value);
        });
    }
}

impl ToJson for GaugeSnap {
    fn write_json(&self, out: &mut String) {
        object(out, |o| {
            o.field("name", &self.name)
                .field("value", &self.value)
                .field("min", &self.min)
                .field("max", &self.max)
                .field("updates", &self.updates);
        });
    }
}

impl ToJson for HistogramSnap {
    fn write_json(&self, out: &mut String) {
        object(out, |o| {
            o.field("name", &self.name)
                .field("count", &self.count)
                .field("total", &self.total)
                .field("max", &self.max)
                .field("p50", &self.p50)
                .field("p90", &self.p90)
                .field("p99", &self.p99);
        });
    }
}

impl ToJson for TraceEventSnap {
    fn write_json(&self, out: &mut String) {
        object(out, |o| {
            o.field("path", &self.path)
                .field("thread", &self.thread)
                .field("start_ns", &self.start_ns)
                .field("dur_ns", &self.dur_ns);
        });
    }
}

impl ToJson for ObsSnapshot {
    fn write_json(&self, out: &mut String) {
        object(out, |o| {
            o.field("schema", &self.schema)
                .field("mode", &self.mode)
                .field("spans", &self.spans)
                .field("counters", &self.counters)
                .field("gauges", &self.gauges)
                .field("histograms", &self.histograms)
                .field("dropped_trace_events", &self.dropped_trace_events)
                .field("trace", &self.trace);
        });
    }
}

impl ObsSnapshot {
    /// Renders the snapshot as a JSON object (schema version
    /// [`crate::snapshot::OBS_SCHEMA_VERSION`]).
    pub fn to_json(&self) -> String {
        to_string(self)
    }

    /// Renders the snapshot as an aligned, human-readable table: spans
    /// (count, total, mean, min, max), then counters, gauges and
    /// histogram percentiles.
    pub fn render_table(&self) -> String {
        fn ms(ns: u64) -> String {
            format!("{:.3}", ns as f64 / 1e6)
        }
        let mut t = String::new();
        if !self.spans.is_empty() {
            let w = self
                .spans
                .iter()
                .map(|s| s.path.len())
                .max()
                .unwrap_or(0)
                .max(4);
            let _ = writeln!(
                t,
                "{:<w$}  {:>9}  {:>12}  {:>10}  {:>10}  {:>10}",
                "span", "count", "total_ms", "mean_ms", "min_ms", "max_ms"
            );
            for s in &self.spans {
                let _ = writeln!(
                    t,
                    "{:<w$}  {:>9}  {:>12}  {:>10}  {:>10}  {:>10}",
                    s.path,
                    s.count,
                    ms(s.total_ns),
                    ms(s.mean_ns()),
                    ms(s.min_ns),
                    ms(s.max_ns)
                );
            }
        }
        if !self.counters.is_empty() {
            let w = self
                .counters
                .iter()
                .map(|c| c.name.len())
                .max()
                .unwrap_or(0)
                .max(7);
            let _ = writeln!(t, "{:<w$}  {:>14}", "counter", "value");
            for c in &self.counters {
                let _ = writeln!(t, "{:<w$}  {:>14}", c.name, c.value);
            }
        }
        if !self.gauges.is_empty() {
            let w = self
                .gauges
                .iter()
                .map(|g| g.name.len())
                .max()
                .unwrap_or(0)
                .max(5);
            let _ = writeln!(
                t,
                "{:<w$}  {:>10}  {:>10}  {:>10}  {:>8}",
                "gauge", "value", "min", "max", "updates"
            );
            for g in &self.gauges {
                let _ = writeln!(
                    t,
                    "{:<w$}  {:>10}  {:>10}  {:>10}  {:>8}",
                    g.name, g.value, g.min, g.max, g.updates
                );
            }
        }
        if !self.histograms.is_empty() {
            let w = self
                .histograms
                .iter()
                .map(|h| h.name.len())
                .max()
                .unwrap_or(0)
                .max(9);
            let _ = writeln!(
                t,
                "{:<w$}  {:>9}  {:>12}  {:>10}  {:>10}  {:>10}  {:>12}",
                "histogram", "count", "mean", "p50", "p90", "p99", "max"
            );
            for h in &self.histograms {
                let _ = writeln!(
                    t,
                    "{:<w$}  {:>9}  {:>12}  {:>10}  {:>10}  {:>10}  {:>12}",
                    h.name,
                    h.count,
                    h.mean(),
                    h.p50,
                    h.p90,
                    h.p99,
                    h.max
                );
            }
        }
        if self.dropped_trace_events > 0 {
            let _ = writeln!(t, "(dropped {} trace events)", self.dropped_trace_events);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::{object, to_string};
    use crate::{snapshot, ObsMode};

    #[test]
    fn json_escaping() {
        let mut out = String::new();
        super::write_escaped(&mut out, "a\"b\\c\nd\te\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
        assert_eq!(to_string("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
        assert_eq!(to_string(&String::from("ok")), r#""ok""#);
        assert_eq!(to_string("\r\u{1f}"), "\"\\r\\u001f\"");
    }

    #[test]
    fn primitives_and_collections() {
        assert_eq!(to_string(&42u32), "42");
        assert_eq!(to_string(&-3i64), "-3");
        assert_eq!(to_string(&true), "true");
        assert_eq!(to_string(&2.5f64), "2.5");
        assert_eq!(to_string(&1.0f64), "1");
        assert_eq!(to_string(&0.1f32), "0.1");
        assert_eq!(to_string(&f64::NAN), "null");
        assert_eq!(to_string(&f32::NEG_INFINITY), "null");
        assert_eq!(to_string(&vec![1u64, 2, 3]), "[1,2,3]");
        assert_eq!(to_string(&vec!["a", "b"]), r#"["a","b"]"#);
        assert_eq!(to_string(&None::<u32>), "null");
        assert_eq!(to_string(&Some(7usize)), "7");
    }

    #[test]
    fn object_builder_comma_placement() {
        let mut out = String::new();
        object(&mut out, |o| {
            o.field("a", &1u32);
            o.field("b", "x");
            o.field("c", [1u64, 2].as_slice());
        });
        assert_eq!(out, r#"{"a":1,"b":"x","c":[1,2]}"#);
        let mut empty = String::new();
        object(&mut empty, |_| {});
        assert_eq!(empty, "{}");
    }

    #[test]
    fn snapshot_json_is_wellformed_and_versioned() {
        crate::with_mode(ObsMode::On, || {
            snapshot::reset();
            {
                let _s = crate::span!("js/span");
            }
            crate::count("js/counter", 7);
            crate::gauge_set("js/gauge", -3);
            crate::observe("js/hist", 1000);
            let js = snapshot::snapshot().to_json();
            assert!(js.starts_with("{\"schema\":1,"), "{js}");
            assert!(js.contains("\"mode\":\"on\""));
            assert!(js.contains("\"path\":\"js/span\""));
            assert!(js.contains("\"name\":\"js/counter\",\"value\":7"));
            assert!(js.contains("\"name\":\"js/gauge\",\"value\":-3"));
            assert!(js.contains("\"name\":\"js/hist\",\"count\":1"));
            assert!(js.ends_with("]}"));
            // Balanced braces/brackets (no nested strings contain them here).
            let opens = js.matches('{').count();
            let closes = js.matches('}').count();
            assert_eq!(opens, closes);
        });
    }

    #[test]
    fn table_lists_all_sections() {
        crate::with_mode(ObsMode::On, || {
            snapshot::reset();
            {
                let _s = crate::span!("tb/span");
            }
            crate::count("tb/counter", 1);
            crate::gauge_set("tb/gauge", 2);
            crate::observe("tb/hist", 3);
            let table = snapshot::snapshot().render_table();
            for needle in [
                "tb/span",
                "tb/counter",
                "tb/gauge",
                "tb/hist",
                "total_ms",
                "p99",
            ] {
                assert!(table.contains(needle), "missing {needle} in:\n{table}");
            }
        });
    }
}
