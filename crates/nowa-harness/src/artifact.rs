//! Versioned envelope for benchmark artifacts (`BENCH_*.json`).
//!
//! Every JSON artifact the harness writes carries the same self-describing
//! header so downstream tooling (CI gates, plotting scripts) can check what
//! it is reading before trusting the numbers:
//!
//! * `schema` — the artifact kind (`nowa-bench-profile`);
//! * `schema_version` — bumped on breaking layout changes;
//! * `timestamp_unix_s` — when the run finished;
//! * `host` — the machine that produced it (numbers are host-relative).

use std::collections::BTreeMap;
use std::time::{SystemTime, UNIX_EPOCH};

use nowa_trace::json::Json;

/// Current version of every `BENCH_*.json` layout. Bump on breaking
/// changes to an artifact's structure (additive fields do not count).
pub const SCHEMA_VERSION: u64 = 1;

/// Hostname for the artifact envelope: the kernel's, falling back to the
/// `HOSTNAME` environment variable, then `"unknown"`.
pub fn host() -> String {
    std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|s| s.trim().to_string())
        .ok()
        .filter(|s| !s.is_empty())
        .or_else(|| std::env::var("HOSTNAME").ok())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Seconds since the Unix epoch (0 if the clock is before it).
pub fn timestamp_unix_s() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// Wraps `body` in the versioned envelope: the returned object is `body`
/// plus the `schema`/`schema_version`/`timestamp_unix_s`/`host` header
/// fields at top level (existing body keys of those names are overwritten).
pub fn envelope(schema: &str, mut body: BTreeMap<String, Json>) -> Json {
    body.insert("schema".into(), Json::Str(schema.into()));
    body.insert("schema_version".into(), Json::Num(SCHEMA_VERSION as f64));
    body.insert(
        "timestamp_unix_s".into(),
        Json::Num(timestamp_unix_s() as f64),
    );
    body.insert("host".into(), Json::Str(host()));
    Json::Obj(body)
}

/// Writes an artifact to `path`, reporting the outcome on
/// stdout/stderr the way every `nowa-bench` writer does.
pub fn write(path: &str, artifact: &Json) {
    match std::fs::write(path, artifact.render()) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("failed to write {path}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_adds_header_fields() {
        let mut body = BTreeMap::new();
        body.insert("payload".to_string(), Json::Num(7.0));
        let json = envelope("nowa-bench-test", body);
        assert_eq!(
            json.get("schema").and_then(Json::as_str),
            Some("nowa-bench-test")
        );
        assert_eq!(
            json.get("schema_version").and_then(Json::as_num),
            Some(SCHEMA_VERSION as f64)
        );
        assert!(json.get("timestamp_unix_s").and_then(Json::as_num).unwrap() > 0.0);
        assert!(!json.get("host").and_then(Json::as_str).unwrap().is_empty());
        assert_eq!(json.get("payload").and_then(Json::as_num), Some(7.0));
        // The envelope must survive a render → parse round trip.
        let parsed = Json::parse(&json.render()).unwrap();
        assert_eq!(
            parsed.get("schema_version").and_then(Json::as_num),
            Some(1.0)
        );
    }
}
