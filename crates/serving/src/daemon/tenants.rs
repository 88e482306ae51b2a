//! Per-tenant API keys and token-bucket quota accounting.
//!
//! The daemon optionally loads a tenant file (`--tenants FILE`): a JSON
//! array of tenant specs:
//!
//! ```json
//! [
//!   {"name": "team-a", "key": "ka-123", "rate_per_sec": 50.0, "burst": 100.0},
//!   {"name": "team-b", "key": "kb-456", "rate_per_sec": 5.0}
//! ]
//! ```
//!
//! With a tenant file loaded, every request must carry a known `auth`
//! key or it is rejected `unauthorized`. Query ops additionally spend
//! one token per query (a batch of N spends N) from the tenant's token
//! bucket — `burst` tokens capacity (default: one second of rate),
//! refilled continuously at `rate_per_sec`. An empty bucket yields
//! `quota_exhausted` with a `retry_after_ms` hint computed from the
//! refill rate, so well-behaved clients back off exactly as long as
//! needed. Without a tenant file the daemon is open: every request
//! passes with no accounting.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use serde::Value;

/// One tenant's static configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    pub name: String,
    /// The API key clients present in the `auth` field.
    pub key: String,
    /// Steady-state refill rate, tokens (= queries) per second.
    pub rate_per_sec: f64,
    /// Bucket capacity: the largest burst the tenant can spend at once.
    pub burst: f64,
}

struct Bucket {
    name: String,
    rate: f64,
    burst: f64,
    tokens: f64,
    last: Instant,
}

/// Outcome of a tenant check.
#[derive(Debug, Clone, PartialEq)]
pub enum TenantDecision {
    /// Admit; carries the tenant name (None when the book is open).
    Ok(Option<String>),
    /// No tenant file match for the presented (or missing) key.
    Unauthorized,
    /// Bucket empty — retry once enough tokens have refilled.
    Exhausted { retry_after_ms: u64 },
}

/// The daemon's view of its tenants. `None` buckets = open access.
pub struct TenantBook {
    buckets: Option<Mutex<HashMap<String, Bucket>>>,
}

impl TenantBook {
    /// An open book: no auth, no accounting.
    pub fn unrestricted() -> Self {
        TenantBook { buckets: None }
    }

    pub fn from_specs(specs: Vec<TenantSpec>) -> Self {
        let now = Instant::now();
        let map = specs
            .into_iter()
            .map(|s| {
                let burst = if s.burst > 0.0 { s.burst } else { s.rate_per_sec };
                (
                    s.key,
                    Bucket {
                        name: s.name,
                        rate: s.rate_per_sec.max(1e-6),
                        burst: burst.max(1.0),
                        tokens: burst.max(1.0),
                        last: now,
                    },
                )
            })
            .collect();
        TenantBook {
            buckets: Some(Mutex::new(map)),
        }
    }

    /// Load a tenant file. Errors are strings so the CLI can surface
    /// them directly.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read tenants file {}: {e}", path.display()))?;
        let value: Value = serde_json::from_str(&text)
            .map_err(|e| format!("tenants file {}: {e}", path.display()))?;
        let Value::Seq(items) = value else {
            return Err(format!(
                "tenants file {} must be a JSON array of tenant objects",
                path.display()
            ));
        };
        let mut specs = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            let field_str = |k: &str| match item.get_field(k) {
                Some(Value::Str(s)) => Some(s.clone()),
                _ => None,
            };
            let field_f64 = |k: &str| match item.get_field(k) {
                Some(Value::Float(f)) => Some(*f),
                Some(Value::Int(n)) => Some(*n as f64),
                Some(Value::UInt(n)) => Some(*n as f64),
                _ => None,
            };
            let name = field_str("name").ok_or(format!("tenant #{i}: missing 'name'"))?;
            let key = field_str("key").ok_or(format!("tenant #{i}: missing 'key'"))?;
            let rate_per_sec = field_f64("rate_per_sec")
                .filter(|r| *r > 0.0)
                .ok_or(format!("tenant #{i}: 'rate_per_sec' must be > 0"))?;
            let burst = field_f64("burst").unwrap_or(rate_per_sec);
            specs.push(TenantSpec {
                name,
                key,
                rate_per_sec,
                burst,
            });
        }
        if specs.is_empty() {
            return Err(format!("tenants file {} lists no tenants", path.display()));
        }
        Ok(Self::from_specs(specs))
    }

    /// Authenticate `auth` and spend `cost` tokens.
    pub fn check(&self, auth: Option<&str>, cost: f64) -> TenantDecision {
        let Some(buckets) = &self.buckets else {
            return TenantDecision::Ok(None);
        };
        let Some(key) = auth else {
            return TenantDecision::Unauthorized;
        };
        let mut map = buckets.lock().unwrap_or_else(|e| e.into_inner());
        let Some(bucket) = map.get_mut(key) else {
            return TenantDecision::Unauthorized;
        };
        let now = Instant::now();
        // `saturating_duration_since` guards against a clock that reads
        // earlier than `last` (Instant is monotonic per the docs, but
        // platform bugs and suspend/resume have violated that in
        // practice) — a backwards step refills nothing instead of
        // panicking or draining the bucket.
        let dt = now.saturating_duration_since(bucket.last).as_secs_f64();
        bucket.last = now;
        bucket.tokens = refill(bucket.tokens, bucket.rate, bucket.burst, dt);
        if bucket.tokens >= cost {
            bucket.tokens -= cost;
            return TenantDecision::Ok(Some(bucket.name.clone()));
        }
        let deficit = cost - bucket.tokens;
        let retry_after_ms = ((deficit / bucket.rate) * 1e3).ceil().max(1.0) as u64;
        TenantDecision::Exhausted { retry_after_ms }
    }
}

/// Pure refill step: add `rate * dt` tokens, saturating at `burst`.
/// Defensive about degenerate elapsed times: zero or negative `dt`
/// refills nothing, and an overflowing accumulation (huge `dt`, e.g. a
/// bucket untouched for months on a suspend-happy laptop) clamps to a
/// full bucket instead of propagating a non-finite token count that
/// would poison every later comparison.
fn refill(tokens: f64, rate: f64, burst: f64, dt: f64) -> f64 {
    if dt.is_nan() || dt <= 0.0 {
        return tokens.min(burst);
    }
    let refilled = tokens + rate * dt;
    if refilled.is_finite() {
        refilled.min(burst)
    } else {
        burst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str, key: &str, rate: f64, burst: f64) -> TenantSpec {
        TenantSpec {
            name: name.into(),
            key: key.into(),
            rate_per_sec: rate,
            burst,
        }
    }

    #[test]
    fn open_book_admits_everyone() {
        let book = TenantBook::unrestricted();
        assert_eq!(book.check(None, 100.0), TenantDecision::Ok(None));
        assert_eq!(book.check(Some("any"), 100.0), TenantDecision::Ok(None));
    }

    #[test]
    fn unknown_or_missing_key_is_unauthorized() {
        let book = TenantBook::from_specs(vec![spec("a", "ka", 10.0, 10.0)]);
        assert_eq!(book.check(None, 1.0), TenantDecision::Unauthorized);
        assert_eq!(book.check(Some("nope"), 1.0), TenantDecision::Unauthorized);
    }

    #[test]
    fn burst_spends_then_exhausts_with_retry_hint() {
        // Tiny refill rate so the bucket cannot recover mid-test.
        let book = TenantBook::from_specs(vec![spec("a", "ka", 0.001, 5.0)]);
        for _ in 0..5 {
            assert_eq!(
                book.check(Some("ka"), 1.0),
                TenantDecision::Ok(Some("a".into()))
            );
        }
        match book.check(Some("ka"), 1.0) {
            TenantDecision::Exhausted { retry_after_ms } => {
                // ~1 token / 0.001 per sec ≈ 1000 s of refill needed.
                assert!(retry_after_ms >= 1000, "hint {retry_after_ms} too small");
            }
            other => panic!("expected Exhausted, got {other:?}"),
        }
    }

    #[test]
    fn batch_cost_spends_bucket_at_once() {
        let book = TenantBook::from_specs(vec![spec("a", "ka", 0.001, 10.0)]);
        assert!(matches!(
            book.check(Some("ka"), 8.0),
            TenantDecision::Ok(_)
        ));
        assert!(matches!(
            book.check(Some("ka"), 8.0),
            TenantDecision::Exhausted { .. }
        ));
    }

    #[test]
    fn control_ops_cost_zero_but_still_authenticate() {
        let book = TenantBook::from_specs(vec![spec("a", "ka", 0.001, 1.0)]);
        assert_eq!(book.check(Some("ka"), 1.0), TenantDecision::Ok(Some("a".into())));
        // Bucket is now empty, but zero-cost checks still pass.
        assert_eq!(book.check(Some("ka"), 0.0), TenantDecision::Ok(Some("a".into())));
        assert_eq!(book.check(Some("xx"), 0.0), TenantDecision::Unauthorized);
    }

    #[test]
    fn refill_is_monotonic_clock_safe() {
        // Zero elapsed time adds nothing.
        assert_eq!(refill(3.0, 10.0, 5.0, 0.0), 3.0);
        // A backwards/negative step (clock anomaly) adds nothing either.
        assert_eq!(refill(3.0, 10.0, 5.0, -4.0), 3.0);
        // NaN elapsed time is treated as "no time passed".
        assert_eq!(refill(3.0, 10.0, 5.0, f64::NAN), 3.0);
        // Normal refill accumulates at `rate`.
        assert_eq!(refill(1.0, 2.0, 100.0, 3.0), 7.0);
        // Accumulation saturates at `burst` ...
        assert_eq!(refill(1.0, 10.0, 5.0, 60.0), 5.0);
        // ... even when the product overflows to infinity.
        assert_eq!(refill(1.0, f64::MAX, 5.0, f64::MAX), 5.0);
        // Tokens above burst (e.g. after a config reload that shrank
        // the bucket) clamp back down rather than persisting.
        assert_eq!(refill(9.0, 1.0, 5.0, 0.0), 5.0);
    }

    #[test]
    fn loads_tenant_file() {
        let dir = std::env::temp_dir().join(format!(
            "sommelier-tenants-test-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tenants.json");
        std::fs::write(
            &path,
            r#"[{"name": "t1", "key": "k1", "rate_per_sec": 5.0, "burst": 7.0},
               {"name": "t2", "key": "k2", "rate_per_sec": 2.0}]"#,
        )
        .unwrap();
        let book = TenantBook::load(&path).unwrap();
        assert_eq!(book.check(None, 0.0), TenantDecision::Unauthorized);
        assert_eq!(book.check(Some("k1"), 7.0), TenantDecision::Ok(Some("t1".into())));
        assert_eq!(book.check(Some("k2"), 2.0), TenantDecision::Ok(Some("t2".into())));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_malformed_tenant_file() {
        let dir = std::env::temp_dir().join(format!(
            "sommelier-tenants-bad-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tenants.json");
        std::fs::write(&path, r#"[{"name": "t1", "key": "k1", "rate_per_sec": 0}]"#).unwrap();
        let err = TenantBook::load(&path).err().expect("zero rate must fail");
        assert!(err.contains("rate_per_sec"));
        std::fs::write(&path, r#"{"not": "an array"}"#).unwrap();
        let err = TenantBook::load(&path).err().expect("non-array must fail");
        assert!(err.contains("array"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
