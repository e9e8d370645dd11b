//! The one JSON object writer, and the per-request run report built on
//! it.
//!
//! Every one-line object this crate renders — a flock's meta, the
//! server's `stats`, a coordinator's fleet rollup, the acknowledgement
//! of a `load`/`gen`/`sync`/`append`/`retract`/`fingerprint` — is
//! written key by key through [`JsonObject`], so a key lives in exactly
//! one place and every string is escaped on the way.
//!
//! The two reports keep to their own facts: a request's meta
//! ([`json_report`]) says how *that* request was answered — the plan
//! strategy, rows, spills, whether the cache answered — and is the same
//! shape for a local `qfsh --report json` run and a server response;
//! server-wide counters are reported by `stats` alone. The retrying
//! client is the only party that knows its retry count, and appends
//! `"retries"` itself.
//!
//! Hand-rolled: the offline build carries no serialization dependency.

use std::fmt::{Display, Write as _};

use qf_core::ExecStats;

/// A one-line JSON object under construction. Keys are written in call
/// order; [`JsonObject::finish`] closes the object.
#[derive(Debug, Default)]
pub struct JsonObject {
    /// The members written so far, without the braces.
    out: String,
}

impl JsonObject {
    /// An empty object.
    pub fn new() -> JsonObject {
        JsonObject::default()
    }

    /// Continue a rendered one-line object: keys added land before its
    /// closing brace. `None` when `rendered` is not an object.
    pub fn reopen(rendered: &str) -> Option<JsonObject> {
        let members = rendered.trim().strip_prefix('{')?.strip_suffix('}')?;
        Some(JsonObject {
            out: members.trim().to_string(),
        })
    }

    fn key(mut self, key: &str) -> JsonObject {
        if !self.out.is_empty() {
            self.out.push(',');
        }
        escape_into(&mut self.out, key);
        self.out.push(':');
        self
    }

    /// A bare value: a number or a boolean.
    pub fn value(self, key: &str, value: impl Display) -> JsonObject {
        let mut o = self.key(key);
        let _ = write!(o.out, "{value}");
        o
    }

    /// A string, escaped.
    pub fn string(self, key: &str, value: &str) -> JsonObject {
        let mut o = self.key(key);
        escape_into(&mut o.out, value);
        o
    }

    /// A 64-bit fingerprint, as a 16-digit hex string.
    pub fn hex(self, key: &str, value: u64) -> JsonObject {
        self.string(key, &format!("{value:016x}"))
    }

    /// An array of strings, each escaped.
    pub fn strings<'a>(self, key: &str, values: impl IntoIterator<Item = &'a str>) -> JsonObject {
        let mut o = self.key(key);
        o.out.push('[');
        for (i, v) in values.into_iter().enumerate() {
            if i > 0 {
                o.out.push(',');
            }
            escape_into(&mut o.out, v);
        }
        o.out.push(']');
        o
    }

    /// An array of objects.
    pub fn objects(self, key: &str, values: impl IntoIterator<Item = JsonObject>) -> JsonObject {
        let rendered: Vec<String> = values.into_iter().map(JsonObject::finish).collect();
        self.value(key, format_args!("[{}]", rendered.join(",")))
    }

    /// Close the object.
    pub fn finish(self) -> String {
        format!("{{{}}}", self.out)
    }
}

/// One evaluation's own facts as an open [`JsonObject`]: a coordinator
/// adds how it sharded the request before finishing it.
pub fn json_report(
    strategy: &str,
    results: usize,
    elapsed_ms: u128,
    stats: &ExecStats,
    resumed_steps: usize,
    tsv_skipped: u64,
    cache_hit: bool,
) -> JsonObject {
    let degradations = stats.degradations.iter().map(|d| {
        JsonObject::new()
            .string("stage", &d.stage)
            .string("detail", &d.detail)
    });
    JsonObject::new()
        .string("strategy", strategy)
        .value("results", results)
        .value("elapsed_ms", elapsed_ms)
        .value("rows", stats.rows)
        .value("bytes", stats.bytes)
        .value("workers", stats.workers)
        .value("spilled_bytes", stats.spilled_bytes)
        .value("spills", stats.spills)
        .value("resumed_steps", resumed_steps)
        .value("io_retries", stats.io_retries)
        .value("corruption_recoveries", stats.corruption_recoveries)
        .value("spill_files_live", stats.spill_files_live)
        .value("tsv_skipped_lines", tsv_skipped)
        .value("cache_hit", cache_hit)
        .objects("degradations", degradations)
}

/// Scan a one-line JSON object for a non-negative integer field. Only
/// as strong as the reports this crate itself renders need — exact key
/// match at top level of a flat object, digits only.
pub fn json_u64(obj: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let at = obj.find(&pat)? + pat.len();
    let rest = &obj[at..];
    let end = rest
        .char_indices()
        .find(|(_, c)| !c.is_ascii_digit())
        .map_or(rest.len(), |(i, _)| i);
    rest[..end].parse().ok()
}

/// Append `s` to `out` as a quoted, minimally escaped JSON string.
fn escape_into(out: &mut String, s: &str) {
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

#[cfg(test)]
mod tests {
    use super::*;

    /// The meta reports the request alone: none of the server-wide
    /// counters `stats` reports, and no client retry placeholder.
    #[test]
    fn report_is_one_json_line_with_cache_keys() {
        let out = json_report("cache", 3, 12, &ExecStats::default(), 0, 0, true).finish();
        assert!(out.starts_with('{') && out.ends_with('}'));
        assert!(!out.contains('\n'));
        for key in [
            "\"strategy\":\"cache\"",
            "\"results\":3",
            "\"cache_hit\":true",
        ] {
            assert!(out.contains(key), "missing {key} in {out}");
        }
        for key in [
            "cache_hits",
            "cache_misses",
            "rejected",
            "timeouts",
            "cancelled",
            "conn_rejected",
            "retries",
            "queue_depth_max",
            "delta_applied",
            "delta_maintained",
            "delta_rebuilds",
            "recheck_tuples",
            "wal_records",
            "wal_bytes",
            "snapshots",
            "compactions",
            "recovered_records",
            "recovery_ms",
        ] {
            assert!(!out.contains(&format!("\"{key}\":")), "{key} in {out}");
        }
    }

    #[test]
    fn writer_escapes_every_string() {
        let obj = JsonObject::new()
            .value("hits", 12)
            .string("nested", "a\"b\\c\n")
            .hex("fp", 0xab)
            .strings("addrs", ["x", "y\"z"])
            .objects("d", [JsonObject::new().value("k", true)])
            .finish();
        assert_eq!(
            obj,
            "{\"hits\":12,\"nested\":\"a\\\"b\\\\c\\n\",\"fp\":\"00000000000000ab\",\
             \"addrs\":[\"x\",\"y\\\"z\"],\"d\":[{\"k\":true}]}"
        );
        assert_eq!(JsonObject::new().finish(), "{}");
    }

    #[test]
    fn extend_and_scan_json() {
        let grow = |s: &str| JsonObject::reopen(s).map(|o| o.value("retries", 2).finish());
        assert_eq!(
            grow("{\"a\":1}").as_deref(),
            Some("{\"a\":1,\"retries\":2}")
        );
        assert_eq!(grow("{}").as_deref(), Some("{\"retries\":2}"));
        assert_eq!(grow("not json"), None);
        let obj = "{\"cache_hits\":12,\"timeouts\":0,\"nested\":\"x\"}";
        assert_eq!(json_u64(obj, "cache_hits"), Some(12));
        assert_eq!(json_u64(obj, "timeouts"), Some(0));
        assert_eq!(json_u64(obj, "absent"), None);
        assert_eq!(json_u64("{\"k\":\"str\"}", "k"), None);
    }
}
