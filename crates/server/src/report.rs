//! The one-line JSON run report, shared between local `qfsh` runs and
//! server responses so tooling parses one shape everywhere.
//!
//! Hand-rolled: the offline build carries no serialization dependency.

use std::fmt::Write as _;

use qf_core::ExecStats;
use qf_storage::WalStats;

/// Cache/admission accounting attached to every report. Local runs use
/// [`CacheReport::default`] (all zeros, no cache in play); server
/// responses fill in the per-request flags and server-wide counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheReport {
    /// This request was answered from the result cache.
    pub cache_hit: bool,
    /// Server-wide result-cache hits so far.
    pub cache_hits: u64,
    /// Server-wide result-cache misses so far.
    pub cache_misses: u64,
    /// Server-wide admission rejections (overload + over-budget).
    pub rejected: u64,
    /// Server-wide deadline expiries (queue, eval, or reply stage).
    pub timeouts: u64,
    /// Server-wide jobs stopped early by client disconnect.
    pub cancelled: u64,
    /// Server-wide connections shed at the connection cap.
    pub conn_rejected: u64,
    /// Client-side retry attempts for this session (0 in server-side
    /// reports; filled in by the retrying client's own report).
    pub retries: u64,
    /// High-water mark of the admission queue depth.
    pub queue_depth_max: u64,
    /// Server-wide `append`/`retract` batches applied through the
    /// delta path (each batch counts once, whatever it touched).
    pub delta_applied: u64,
    /// Server-wide cached results incrementally maintained in place by
    /// a delta batch (no recompute, no cache drop).
    pub delta_maintained: u64,
    /// Server-wide cached results dropped by a delta batch — not
    /// maintainable, or maintenance failed and fell back to recompute.
    pub delta_rebuilds: u64,
    /// Server-wide tuples rescanned by the bounded MIN/MAX re-check
    /// during delta maintenance.
    pub recheck_tuples: u64,
    /// Durability counters (all zeros when the server runs without a
    /// `--data-dir`: no WAL in play).
    pub wal: WalStats,
}

/// Render one evaluation as a single-line JSON object.
#[allow(clippy::too_many_arguments)]
pub fn json_report(
    strategy: &str,
    results: usize,
    elapsed_ms: u128,
    stats: &ExecStats,
    resumed_steps: usize,
    tsv_skipped: u64,
    cache: &CacheReport,
) -> String {
    let degradations: Vec<String> = stats
        .degradations
        .iter()
        .map(|d| {
            format!(
                "{{\"stage\":\"{}\",\"detail\":\"{}\"}}",
                json_escape(&d.stage),
                json_escape(&d.detail)
            )
        })
        .collect();
    format!(
        "{{\"strategy\":\"{}\",\"results\":{},\"elapsed_ms\":{},\"rows\":{},\"bytes\":{},\
         \"workers\":{},\"spilled_bytes\":{},\"spills\":{},\"resumed_steps\":{},\
         \"io_retries\":{},\"corruption_recoveries\":{},\"spill_files_live\":{},\
         \"tsv_skipped_lines\":{},\"cache_hit\":{},\"cache_hits\":{},\
         \"cache_misses\":{},\"rejected\":{},\"timeouts\":{},\"cancelled\":{},\
         \"conn_rejected\":{},\"retries\":{},\"queue_depth_max\":{},\"delta_applied\":{},\
         \"delta_maintained\":{},\"delta_rebuilds\":{},\"recheck_tuples\":{},\"wal_records\":{},\
         \"wal_bytes\":{},\"snapshots\":{},\"compactions\":{},\"recovered_records\":{},\
         \"recovery_ms\":{},\"degradations\":[{}]}}",
        json_escape(strategy),
        results,
        elapsed_ms,
        stats.rows,
        stats.bytes,
        stats.workers,
        stats.spilled_bytes,
        stats.spills,
        resumed_steps,
        stats.io_retries,
        stats.corruption_recoveries,
        stats.spill_files_live,
        tsv_skipped,
        cache.cache_hit,
        cache.cache_hits,
        cache.cache_misses,
        cache.rejected,
        cache.timeouts,
        cache.cancelled,
        cache.conn_rejected,
        cache.retries,
        cache.queue_depth_max,
        cache.delta_applied,
        cache.delta_maintained,
        cache.delta_rebuilds,
        cache.recheck_tuples,
        cache.wal.wal_records,
        cache.wal.wal_bytes,
        cache.wal.snapshots,
        cache.wal.compactions,
        cache.wal.recovered_records,
        cache.wal.recovery_ms,
        degradations.join(",")
    )
}

/// Append extra `"key":value,…` fields to a one-line JSON object
/// (shard coordinators extend base reports with `shard_*` rollups
/// without reparsing them).
pub fn extend_json(obj: &str, extra: &str) -> String {
    let trimmed = obj.trim_end();
    match trimmed.strip_suffix('}') {
        Some(head) if head.trim_end().ends_with('{') => format!("{}{extra}}}", head.trim_end()),
        Some(head) => format!("{head},{extra}}}"),
        None => format!("{{{extra}}}"),
    }
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

/// Minimal JSON string escaping.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_is_one_json_line_with_cache_keys() {
        let out = json_report(
            "cache",
            3,
            12,
            &ExecStats::default(),
            0,
            0,
            &CacheReport {
                cache_hit: true,
                cache_hits: 2,
                cache_misses: 1,
                rejected: 0,
                timeouts: 5,
                cancelled: 6,
                conn_rejected: 7,
                retries: 8,
                queue_depth_max: 4,
                delta_applied: 13,
                delta_maintained: 14,
                delta_rebuilds: 15,
                recheck_tuples: 16,
                wal: WalStats {
                    wal_records: 9,
                    wal_bytes: 640,
                    snapshots: 2,
                    compactions: 1,
                    recovered_records: 3,
                    recovery_ms: 11,
                },
            },
        );
        assert!(out.starts_with('{') && out.ends_with('}'));
        assert!(!out.contains('\n'));
        for key in [
            "\"strategy\":\"cache\"",
            "\"results\":3",
            "\"cache_hit\":true",
            "\"cache_hits\":2",
            "\"cache_misses\":1",
            "\"rejected\":0",
            "\"timeouts\":5",
            "\"cancelled\":6",
            "\"conn_rejected\":7",
            "\"retries\":8",
            "\"queue_depth_max\":4",
            "\"delta_applied\":13",
            "\"delta_maintained\":14",
            "\"delta_rebuilds\":15",
            "\"recheck_tuples\":16",
            "\"wal_records\":9",
            "\"wal_bytes\":640",
            "\"snapshots\":2",
            "\"compactions\":1",
            "\"recovered_records\":3",
            "\"recovery_ms\":11",
        ] {
            assert!(out.contains(key), "missing {key} in {out}");
        }
    }

    #[test]
    fn extend_and_scan_json() {
        assert_eq!(extend_json("{\"a\":1}", "\"b\":2"), "{\"a\":1,\"b\":2}");
        assert_eq!(extend_json("{}", "\"b\":2"), "{\"b\":2}");
        let obj = "{\"cache_hits\":12,\"timeouts\":0,\"nested\":\"x\"}";
        assert_eq!(json_u64(obj, "cache_hits"), Some(12));
        assert_eq!(json_u64(obj, "timeouts"), Some(0));
        assert_eq!(json_u64(obj, "absent"), None);
        assert_eq!(json_u64("{\"k\":\"str\"}", "k"), None);
    }
}
