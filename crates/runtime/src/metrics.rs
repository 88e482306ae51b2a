//! Quality-of-result (QoR) measurement.
//!
//! Paper Section 4.1: "the QoR goal is just the optimization objective for
//! model training. Otherwise, we compute the l2 distance between the
//! outputs from the two models on the same input, then average this
//! distance over the dataset as the default QoR difference." For
//! classification tasks QoR is top-1 accuracy and the inter-model metric
//! is the *agreement ratio* — the statistic behind Figure 3's observation
//! that models agree with each other more than they agree with the ground
//! truth.

use sommelier_graph::task::OutputStyle;
use sommelier_tensor::{ops, Tensor};

/// Process-wide named monotonic counters.
///
/// The reproduction's subsystems (the parallel index build, the query
/// engine, the durability layer) publish operational counters
/// here so tooling — the CLI, the benchmark harness, tests — can read
/// them without threading handles through every layer. Counters are
/// *observability*, not state: nothing in the system reads a counter to
/// make a decision, so the registry being process-global cannot affect
/// results.
///
/// Well-known names (kept in sync with README's metrics table):
/// `index.pair_analyses`, `index.models_indexed`,
/// `query.candidates_scored`, `index.resource.range_scans` (raised by
/// the range API, never by a served query); from the durability layer:
/// `recovery.loads`, `recovery.rebuilds`, `recovery.quarantined`,
/// `recovery.resave_failures`.
pub mod counters {
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex, OnceLock};

    type Registry = Mutex<BTreeMap<String, Arc<AtomicU64>>>;

    static REGISTRY: OnceLock<Registry> = OnceLock::new();

    fn registry() -> &'static Registry {
        REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
    }

    /// Get (or create) the counter registered under `name`. The handle
    /// can be cached and bumped without further registry locking.
    pub fn counter(name: &str) -> Arc<AtomicU64> {
        let mut map = registry().lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(AtomicU64::new(0))),
        )
    }

    /// A counter for a per-request path: declared as a `static` at the
    /// call site, it resolves its handle on first use and from then on
    /// a bump is one relaxed atomic — no registry lock, no allocation
    /// of the name. Same registry entry as [`add`]/[`set`]/[`get`] under
    /// that name, so readers cannot tell the difference.
    pub struct CachedCounter {
        name: &'static str,
        handle: OnceLock<Arc<AtomicU64>>,
    }

    impl CachedCounter {
        pub const fn new(name: &'static str) -> Self {
            CachedCounter {
                name,
                handle: OnceLock::new(),
            }
        }

        fn handle(&self) -> &AtomicU64 {
            self.handle.get_or_init(|| counter(self.name))
        }

        /// Add `delta` to the counter.
        pub fn add(&self, delta: u64) {
            self.handle().fetch_add(delta, Ordering::Relaxed);
        }

        /// Overwrite the counter.
        pub fn set(&self, value: u64) {
            self.handle().store(value, Ordering::Relaxed);
        }
    }

    /// Add `delta` to the named counter.
    pub fn add(name: &str, delta: u64) {
        counter(name).fetch_add(delta, Ordering::Relaxed);
    }

    /// Overwrite the named counter (used by subsystems that publish a
    /// snapshot of internally tracked atomics).
    pub fn set(name: &str, value: u64) {
        counter(name).store(value, Ordering::Relaxed);
    }

    /// Current value of the named counter (0 if never registered).
    pub fn get(name: &str) -> u64 {
        let map = registry().lock().unwrap_or_else(|e| e.into_inner());
        map.get(name)
            .map(|c| c.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// All registered counters, sorted by name.
    ///
    /// Tear-resistant: the registry lock keeps the *set* of counters
    /// stable, and the values are re-read until two consecutive passes
    /// agree — a snapshot taken while writers are quiescent (the normal
    /// case: end of a bench phase, after a batch) is guaranteed
    /// internally consistent, and a snapshot racing live writers
    /// converges to a single coherent read instead of mixing reads that
    /// are many updates apart. (True cross-counter atomicity is
    /// impossible while handles update lock-free; bounded stabilization
    /// is the strongest property compatible with never slowing the hot
    /// path.)
    pub fn snapshot() -> Vec<(String, u64)> {
        let map = registry().lock().unwrap_or_else(|e| e.into_inner());
        let read = || -> Vec<(String, u64)> {
            map.iter()
                .map(|(k, v)| (k.clone(), v.load(Ordering::SeqCst)))
                .collect()
        };
        let mut prev = read();
        for _ in 0..4 {
            let next = read();
            if next == prev {
                break;
            }
            prev = next;
        }
        prev
    }

    /// Zero every registered counter. Existing handles stay valid (the
    /// atomics are reset in place, not replaced), so cached handles and
    /// the registry can never disagree.
    pub fn reset() {
        let map = registry().lock().unwrap_or_else(|e| e.into_inner());
        for v in map.values() {
            v.store(0, Ordering::SeqCst);
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::sync::MutexGuard;

        /// The registry is process-global and `reset()` touches every
        /// counter, so counter tests serialize on this lock.
        fn serialize() -> MutexGuard<'static, ()> {
            static LOCK: Mutex<()> = Mutex::new(());
            LOCK.lock().unwrap_or_else(|e| e.into_inner())
        }

        #[test]
        fn counters_register_add_and_snapshot() {
            let _guard = serialize();
            let name = "test.metrics.counter_a";
            assert_eq!(get(name), 0);
            add(name, 3);
            add(name, 4);
            assert_eq!(get(name), 7);
            set(name, 2);
            assert_eq!(get(name), 2);
            let snap = snapshot();
            assert!(snap.iter().any(|(k, v)| k == name && *v == 2));
            // Sorted by name.
            assert!(snap.windows(2).all(|w| w[0].0 <= w[1].0));
            set(name, 0);
        }

        #[test]
        fn counter_handles_share_state() {
            let _guard = serialize();
            let name = "test.metrics.counter_b";
            let h1 = counter(name);
            let h2 = counter(name);
            h1.fetch_add(5, Ordering::Relaxed);
            assert_eq!(h2.load(Ordering::Relaxed), 5);
        }

        #[test]
        fn reset_zeroes_counters_but_keeps_handles_live() {
            let _guard = serialize();
            let name = "test.metrics.counter_c";
            let handle = counter(name);
            add(name, 9);
            reset();
            assert_eq!(get(name), 0);
            // The pre-reset handle still drives the registered counter.
            handle.fetch_add(2, Ordering::Relaxed);
            assert_eq!(get(name), 2);
            reset();
        }

        #[test]
        fn cached_counter_is_the_named_registry_entry() {
            let _guard = serialize();
            static CACHED: CachedCounter = CachedCounter::new("test.metrics.counter_d");
            let name = "test.metrics.counter_d";
            add(name, 1);
            CACHED.add(4);
            assert_eq!(get(name), 5);
            CACHED.set(2);
            add(name, 1);
            assert_eq!(get(name), 3);
            // `reset` zeroes in place, so the resolved handle stays live.
            reset();
            CACHED.add(7);
            assert_eq!(get(name), 7);
            reset();
        }
    }
}

/// Latency histograms: named, mergeable bucket counts of per-operation
/// timings with p50/p90/p99 reads.
///
/// The batched query path and the daemon record here so tooling can
/// report tail latency without threading timers through the engine. Like
/// [`counters`], the registry is process-global observability state.
///
/// Each serving thread accumulates into a private fixed-size bucket array
/// ([`LocalRecorder`]: no lock, no allocation) and periodically merges it
/// into a shared [`Histogram`] with one relaxed atomic add per non-empty
/// bucket. Quantiles are read from the merged buckets at bounded relative
/// error (bucket bounds grow by √2).
pub mod latency {
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex, OnceLock};

    /// Quantile summary of one histogram.
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct LatencyQuantiles {
        /// Recorded samples.
        pub count: usize,
        /// Median, in the recorded unit.
        pub p50: f64,
        /// 90th percentile.
        pub p90: f64,
        /// 99th percentile.
        pub p99: f64,
    }

    /// Zero every merged histogram. Handles stay valid (buckets are
    /// zeroed in place, not replaced), mirroring [`super::counters::reset`].
    pub fn reset() {
        let map = histograms().lock().unwrap_or_else(|e| e.into_inner());
        for h in map.values() {
            h.reset();
        }
    }

    // -----------------------------------------------------------------
    // Mergeable histograms
    // -----------------------------------------------------------------

    /// Bucket count of the mergeable histograms. With √2 growth per
    /// bucket from a 1 µs base, 64 buckets span 1 µs … ~50 min.
    pub const HIST_BUCKETS: usize = 64;
    const HIST_BASE_MS: f64 = 1e-3;

    /// The bucket a millisecond sample lands in. Non-finite and
    /// non-positive samples clamp to bucket 0.
    fn bucket_of(ms: f64) -> usize {
        // NaN and non-positive samples clamp to bucket 0 (note the
        // comparison is false for NaN).
        if ms <= HIST_BASE_MS || ms.is_nan() {
            return 0;
        }
        let idx = ((ms / HIST_BASE_MS).log2() * 2.0).floor() as i64 + 1;
        idx.clamp(0, (HIST_BUCKETS - 1) as i64) as usize
    }

    /// Upper bound (ms) of a bucket — the value quantile reads report.
    fn bound_ms(bucket: usize) -> f64 {
        HIST_BASE_MS * 2f64.powf(bucket as f64 / 2.0)
    }

    /// A shared latency histogram: fixed log-scaled buckets behind
    /// relaxed atomics. Writers either [`Histogram::record`] directly
    /// (one atomic add) or batch through a [`LocalRecorder`] and merge.
    pub struct Histogram {
        buckets: [AtomicU64; HIST_BUCKETS],
        count: AtomicU64,
    }

    impl Default for Histogram {
        fn default() -> Self {
            Histogram {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                count: AtomicU64::new(0),
            }
        }
    }

    impl Histogram {
        pub fn new() -> Self {
            Self::default()
        }

        /// Record one millisecond sample (one relaxed atomic add).
        pub fn record(&self, ms: f64) {
            self.buckets[bucket_of(ms)].fetch_add(1, Ordering::Relaxed);
            self.count.fetch_add(1, Ordering::Relaxed);
        }

        /// Fold a local recorder's buckets in: one atomic add per
        /// non-empty bucket, however many samples it batched.
        pub fn merge(&self, local: &LocalRecorder) {
            for (i, &n) in local.buckets.iter().enumerate() {
                if n > 0 {
                    self.buckets[i].fetch_add(n, Ordering::Relaxed);
                }
            }
            if local.count > 0 {
                self.count.fetch_add(local.count, Ordering::Relaxed);
            }
        }

        /// Total merged samples.
        pub fn count(&self) -> u64 {
            self.count.load(Ordering::Relaxed)
        }

        /// Zero every bucket in place.
        pub fn reset(&self) {
            for b in &self.buckets {
                b.store(0, Ordering::Relaxed);
            }
            self.count.store(0, Ordering::Relaxed);
        }

        fn quantile(&self, counts: &[u64; HIST_BUCKETS], total: u64, q: f64) -> f64 {
            let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
            let mut seen = 0u64;
            for (i, &n) in counts.iter().enumerate() {
                seen += n;
                if seen >= rank {
                    return bound_ms(i);
                }
            }
            bound_ms(HIST_BUCKETS - 1)
        }

        /// Merged quantiles (`None` when empty). Values are bucket
        /// upper bounds, so each quantile is within a √2 factor of the
        /// exact statistic.
        pub fn quantiles(&self) -> Option<LatencyQuantiles> {
            let counts: [u64; HIST_BUCKETS] =
                std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed));
            let total: u64 = counts.iter().sum();
            if total == 0 {
                return None;
            }
            Some(LatencyQuantiles {
                count: total as usize,
                p50: self.quantile(&counts, total, 0.50),
                p90: self.quantile(&counts, total, 0.90),
                p99: self.quantile(&counts, total, 0.99),
            })
        }
    }

    /// A thread-private recorder: a plain bucket array with no locking
    /// and no allocation on [`LocalRecorder::record`]. Flush into a
    /// shared [`Histogram`] at whatever cadence suits the caller (the
    /// daemon flushes every 64 requests and on connection close).
    #[derive(Clone)]
    pub struct LocalRecorder {
        buckets: [u64; HIST_BUCKETS],
        count: u64,
    }

    impl Default for LocalRecorder {
        fn default() -> Self {
            LocalRecorder {
                buckets: [0; HIST_BUCKETS],
                count: 0,
            }
        }
    }

    impl LocalRecorder {
        pub fn new() -> Self {
            Self::default()
        }

        /// Record one millisecond sample. No lock, no allocation.
        pub fn record(&mut self, ms: f64) {
            self.buckets[bucket_of(ms)] += 1;
            self.count += 1;
        }

        /// Samples recorded since the last flush.
        pub fn len(&self) -> u64 {
            self.count
        }

        pub fn is_empty(&self) -> bool {
            self.count == 0
        }

        /// Merge into `target` and clear this recorder.
        pub fn flush_into(&mut self, target: &Histogram) {
            if self.count == 0 {
                return;
            }
            target.merge(self);
            self.buckets = [0; HIST_BUCKETS];
            self.count = 0;
        }
    }

    type HistRegistry = Mutex<BTreeMap<String, Arc<Histogram>>>;

    static HISTOGRAMS: OnceLock<HistRegistry> = OnceLock::new();

    fn histograms() -> &'static HistRegistry {
        HISTOGRAMS.get_or_init(|| Mutex::new(BTreeMap::new()))
    }

    /// Get (or create) the shared histogram registered under `name`.
    /// The handle can be cached and recorded/merged into without
    /// further registry locking.
    pub fn histogram(name: &str) -> Arc<Histogram> {
        let mut map = histograms().lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    /// Quantiles of the named merged histogram (`None` if empty or
    /// never registered).
    pub fn quantiles(name: &str) -> Option<LatencyQuantiles> {
        let map = histograms().lock().unwrap_or_else(|e| e.into_inner());
        map.get(name).and_then(|h| h.quantiles())
    }

    /// All non-empty merged histograms with their quantiles, sorted by
    /// name.
    pub fn histogram_snapshot() -> Vec<(String, LatencyQuantiles)> {
        let handles: Vec<(String, Arc<Histogram>)> = {
            let map = histograms().lock().unwrap_or_else(|e| e.into_inner());
            map.iter().map(|(k, v)| (k.clone(), Arc::clone(v))).collect()
        };
        handles
            .into_iter()
            .filter_map(|(n, h)| h.quantiles().map(|q| (n, q)))
            .collect()
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::sync::MutexGuard;

        /// `reset()` zeroes every histogram, so latency tests serialize.
        fn serialize() -> MutexGuard<'static, ()> {
            static LOCK: Mutex<()> = Mutex::new(());
            LOCK.lock().unwrap_or_else(|e| e.into_inner())
        }

        #[test]
        fn histogram_quantiles_within_bucket_error() {
            let _guard = serialize();
            let h = Histogram::new();
            for v in 1..=1000 {
                h.record(v as f64);
            }
            let q = h.quantiles().unwrap();
            assert_eq!(q.count, 1000);
            // Bucket bounds grow by √2, so each quantile reads the
            // upper bound of the bucket the exact value falls in:
            // within a factor of √2 above, never below.
            for (approx, exact) in [(q.p50, 500.0), (q.p90, 900.0), (q.p99, 990.0)] {
                assert!(approx >= exact, "{approx} < exact {exact}");
                assert!(approx <= exact * 1.4143, "{approx} > √2·{exact}");
            }
        }

        #[test]
        fn local_recorders_merge_across_threads() {
            let _guard = serialize();
            let h = histogram("test.hist.merge");
            h.reset();
            let threads: Vec<_> = (0..4)
                .map(|t| {
                    let h = Arc::clone(&h);
                    std::thread::spawn(move || {
                        let mut local = LocalRecorder::new();
                        for i in 0..250 {
                            local.record((t * 250 + i) as f64 * 0.01 + 0.01);
                            if local.len() == 64 {
                                local.flush_into(&h);
                            }
                        }
                        local.flush_into(&h);
                        assert!(local.is_empty());
                    })
                })
                .collect();
            for t in threads {
                t.join().unwrap();
            }
            let q = quantiles("test.hist.merge").unwrap();
            assert_eq!(q.count, 1000);
            assert!(q.p50 <= q.p90 && q.p90 <= q.p99);
            reset();
        }

        #[test]
        fn reset_zeroes_histograms_but_keeps_handles_live() {
            let _guard = serialize();
            let h = histogram("test.hist.reset");
            h.record(5.0);
            assert_eq!(h.count(), 1);
            reset();
            assert_eq!(h.count(), 0);
            assert!(quantiles("test.hist.reset").is_none());
            // The pre-reset handle still feeds the registered histogram.
            h.record(2.0);
            assert_eq!(quantiles("test.hist.reset").unwrap().count, 1);
            reset();
        }

        #[test]
        fn degenerate_samples_land_in_bucket_zero() {
            let h = Histogram::new();
            h.record(0.0);
            h.record(-3.0);
            h.record(f64::NAN);
            h.record(1e-9);
            let q = h.quantiles().unwrap();
            assert_eq!(q.count, 4);
            assert!(q.p99 <= 1e-3 + f64::EPSILON);
        }
    }
}

/// Reset every metrics surface (counters and latency histograms) to
/// zero, so a measured phase starts from a clean slate.
pub fn reset() {
    counters::reset();
    latency::reset();
}

/// Top-1 predictions for a batch of classification outputs.
pub fn top1_predictions(outputs: &Tensor) -> Vec<usize> {
    (0..outputs.rows()).map(|r| outputs.argmax_row(r)).collect()
}

/// Fraction of rows whose top-1 prediction matches the label.
/// Panics if lengths disagree; returns 1.0 for an empty batch.
pub fn top1_accuracy(outputs: &Tensor, labels: &[usize]) -> f64 {
    assert_eq!(outputs.rows(), labels.len(), "labels must match batch");
    if labels.is_empty() {
        return 1.0;
    }
    let correct = top1_predictions(outputs)
        .iter()
        .zip(labels)
        .filter(|(p, l)| p == l)
        .count();
    correct as f64 / labels.len() as f64
}

/// Fraction of rows where two models produce the same top-1 prediction
/// (the off-diagonal entries of paper Figure 3).
pub fn agreement_ratio(a: &Tensor, b: &Tensor) -> f64 {
    assert_eq!(a.rows(), b.rows(), "batches must match");
    if a.rows() == 0 {
        return 1.0;
    }
    let pa = top1_predictions(a);
    let pb = top1_predictions(b);
    let same = pa.iter().zip(&pb).filter(|(x, y)| x == y).count();
    same as f64 / a.rows() as f64
}

/// The default QoR *difference* between two models' outputs on the same
/// inputs, per the task's output style:
///
/// * classification → disagreement ratio (1 − agreement);
/// * regression → mean row-wise l2 distance, normalized by the mean output
///   norm so thresholds are scale-free.
pub fn qor_difference(style: OutputStyle, a: &Tensor, b: &Tensor) -> f64 {
    match style {
        OutputStyle::Classification => 1.0 - agreement_ratio(a, b),
        OutputStyle::Regression => {
            let raw = ops::mean_row_l2_distance(a, b);
            let scale = mean_row_norm(a).max(1e-12);
            raw / scale
        }
    }
}

fn mean_row_norm(t: &Tensor) -> f64 {
    if t.rows() == 0 {
        return 0.0;
    }
    let total: f64 = (0..t.rows())
        .map(|r| {
            t.row(r)
                .iter()
                .map(|&x| (x as f64) * (x as f64))
                .sum::<f64>()
                .sqrt()
        })
        .sum();
    total / t.rows() as f64
}

/// QoR (higher is better) of outputs against ground truth, per style:
/// classification → accuracy; regression → `1 / (1 + normalized error)` so
/// it lands in `(0, 1]`.
pub fn qor_against_truth(style: OutputStyle, outputs: &Tensor, truth: &GroundTruth) -> f64 {
    match (style, truth) {
        (OutputStyle::Classification, GroundTruth::Labels(labels)) => {
            top1_accuracy(outputs, labels)
        }
        (OutputStyle::Regression, GroundTruth::Targets(targets)) => {
            let err = qor_difference(OutputStyle::Regression, targets, outputs);
            1.0 / (1.0 + err)
        }
        _ => panic!("ground-truth kind does not match the task's output style"),
    }
}

/// Ground truth for a validation batch.
#[derive(Clone, Debug)]
pub enum GroundTruth {
    /// Class labels for classification tasks.
    Labels(Vec<usize>),
    /// Target vectors for regression tasks.
    Targets(Tensor),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(rows: usize, cols: usize, v: Vec<f32>) -> Tensor {
        Tensor::from_vec(rows, cols, v)
    }

    #[test]
    fn top1_accuracy_counts_matches() {
        let out = t(3, 2, vec![0.9, 0.1, 0.2, 0.8, 0.6, 0.4]);
        assert!((top1_accuracy(&out, &[0, 1, 1]) - 2.0 / 3.0).abs() < 1e-12);
        assert!((top1_accuracy(&out, &[0, 1, 0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn agreement_is_symmetric_and_reflexive() {
        let a = t(2, 2, vec![0.9, 0.1, 0.2, 0.8]);
        let b = t(2, 2, vec![0.7, 0.3, 0.9, 0.1]);
        assert_eq!(agreement_ratio(&a, &a), 1.0);
        assert_eq!(agreement_ratio(&a, &b), agreement_ratio(&b, &a));
        assert!((agreement_ratio(&a, &b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn classification_qor_difference_is_disagreement() {
        let a = t(2, 2, vec![0.9, 0.1, 0.2, 0.8]);
        let b = t(2, 2, vec![0.7, 0.3, 0.9, 0.1]);
        assert!(
            (qor_difference(OutputStyle::Classification, &a, &b) - 0.5).abs() < 1e-12
        );
    }

    #[test]
    fn regression_qor_difference_is_scale_free() {
        let a = t(1, 2, vec![3.0, 4.0]); // norm 5
        let b = t(1, 2, vec![3.0, 3.0]); // distance 1
        let d = qor_difference(OutputStyle::Regression, &a, &b);
        assert!((d - 0.2).abs() < 1e-6);
        // Scaling both outputs leaves the normalized difference unchanged.
        let a10 = a.map(|x| x * 10.0);
        let b10 = b.map(|x| x * 10.0);
        let d10 = qor_difference(OutputStyle::Regression, &a10, &b10);
        assert!((d - d10).abs() < 1e-6);
    }

    #[test]
    fn qor_against_truth_regression_in_unit_interval() {
        let target = t(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        let perfect = qor_against_truth(
            OutputStyle::Regression,
            &target,
            &GroundTruth::Targets(target.clone()),
        );
        assert!((perfect - 1.0).abs() < 1e-12);
        let noisy = t(2, 2, vec![0.5, 0.5, 0.5, 0.5]);
        let q = qor_against_truth(
            OutputStyle::Regression,
            &noisy,
            &GroundTruth::Targets(target),
        );
        assert!(q > 0.0 && q < 1.0);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn mismatched_ground_truth_panics() {
        let out = t(1, 2, vec![1.0, 0.0]);
        let _ = qor_against_truth(
            OutputStyle::Classification,
            &out,
            &GroundTruth::Targets(out.clone()),
        );
    }

    #[test]
    fn empty_batches_are_vacuously_perfect() {
        let e = Tensor::zeros(0, 3);
        assert_eq!(top1_accuracy(&e, &[]), 1.0);
        assert_eq!(agreement_ratio(&e, &e), 1.0);
    }
}
