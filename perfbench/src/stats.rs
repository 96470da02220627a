//! Sample statistics used by every workload: percentiles with their sample
//! count, the tail-percentile rule, goodput and open-loop lateness.

/// Percentile `p` (0..=100) of `samples` by linear interpolation between
/// the two closest ranks. `None` for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// Median of `samples`.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// The percentiles a report may quote, lowest first.
const LADDER: [f64; 5] = [50.0, 90.0, 95.0, 99.0, 99.9];

/// Samples that must lie beyond a quoted percentile.
pub const MIN_BEYOND: f64 = 10.0;

/// The highest percentile of [`LADDER`] with at least [`MIN_BEYOND`]
/// samples beyond it in a sample of `n`, or `None` when even the median
/// has fewer (n < 20).
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rev()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= MIN_BEYOND - 1e-9)
}

/// Whether percentile `p` is quotable for a sample of `n`.
pub fn supports(n: usize, p: f64) -> bool {
    tail_percentile(n).is_some_and(|t| t >= p)
}

/// A latency sample summarised the way reports quote it: the median, the
/// highest percentile with enough samples beyond it, and the count.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// `(percentile, value)` of the quotable tail, if any.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarises `samples`; `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let p50 = median(samples)?;
        let tail =
            tail_percentile(samples.len()).and_then(|p| percentile(samples, p).map(|v| (p, v)));
        Some(Summary {
            n: samples.len(),
            p50,
            tail,
        })
    }
}

/// Jobs finished within `limit_ms` per second of a `schedule_s`-long
/// schedule. `latencies_ms[i]` is `None` for a job that failed or was
/// refused: it counts as a miss, exactly like a late job.
pub fn goodput(latencies_ms: &[Option<f64>], limit_ms: f64, schedule_s: f64) -> f64 {
    let good = latencies_ms
        .iter()
        .filter(|l| l.is_some_and(|ms| ms <= limit_ms))
        .count();
    good as f64 / schedule_s
}

/// Open-loop accounting for one request: when it was due, when the
/// generator actually submitted it, and when its outcome was observed
/// (all in ms from the schedule origin).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Scheduled send time.
    pub due_ms: f64,
    /// Actual submit time (never before `due_ms`).
    pub sent_ms: f64,
    /// Outcome observed; `None` if refused or failed.
    pub done_ms: Option<f64>,
}

impl Request {
    /// Latency charged to the request: from when it was *due*, so a
    /// generator stall is charged to every request it delayed.
    pub fn latency_ms(&self) -> Option<f64> {
        self.done_ms.map(|d| d - self.due_ms)
    }

    /// How late the generator sent the request.
    pub fn lag_ms(&self) -> f64 {
        (self.sent_ms - self.due_ms).max(0.0)
    }
}

/// Largest generator lag over `requests` (0 for none).
pub fn max_lag_ms(requests: &[Request]) -> f64 {
    requests.iter().map(Request::lag_ms).fold(0.0, f64::max)
}

/// Minimum over `errors` of `-log2(err)`: the precision, in bits, of the
/// worst output. An exact output (error 0) contributes 52 bits.
pub fn precision_bits(errors: &[f64]) -> f64 {
    errors
        .iter()
        .map(|&e| if e > 0.0 { -e.log2() } else { 52.0 })
        .fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&s, 100.0), Some(4.0));
        assert_eq!(median(&s), Some(2.5));
        assert_eq!(percentile(&s, 25.0), Some(1.75));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[7.0]), Some(7.0));
    }

    #[test]
    fn summary_states_its_sample_count() {
        let s: Vec<f64> = (1..=200).map(f64::from).collect();
        let sum = Summary::of(&s).expect("non-empty");
        assert_eq!(sum.n, 200);
        assert_eq!(sum.p50, 100.5);
        let (p, v) = sum.tail.expect("200 samples support p95");
        assert_eq!(p, 95.0);
        assert!((v - 190.05).abs() < 1e-9);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert!(supports(200, 95.0));
        assert!(!supports(199, 95.0));
        assert!(!supports(10, 50.0));
    }

    #[test]
    fn goodput_counts_refused_and_failed_jobs_as_misses() {
        let lat = [
            Some(100.0),
            Some(500.0),
            Some(501.0),
            None,
            Some(20.0),
            None,
        ];
        // 3 within the 500 ms limit over a 2 s schedule.
        assert_eq!(goodput(&lat, 500.0, 2.0), 1.5);
        assert_eq!(goodput(&[None, None], 500.0, 1.0), 0.0);
    }

    #[test]
    fn open_loop_latency_is_charged_from_the_due_time() {
        // The generator stalled 300 ms before sending; the server then
        // answered in 10 ms. The request still waited 310 ms.
        let r = Request {
            due_ms: 1000.0,
            sent_ms: 1300.0,
            done_ms: Some(1310.0),
        };
        assert_eq!(r.latency_ms(), Some(310.0));
        assert_eq!(r.lag_ms(), 300.0);
        let refused = Request {
            due_ms: 0.0,
            sent_ms: 0.5,
            done_ms: None,
        };
        assert_eq!(refused.latency_ms(), None);
        assert_eq!(max_lag_ms(&[r, refused]), 300.0);
        assert_eq!(max_lag_ms(&[]), 0.0);
    }

    #[test]
    fn precision_is_the_worst_output() {
        assert_eq!(precision_bits(&[0.25, 0.5 / 1024.0]), 2.0);
        assert_eq!(precision_bits(&[0.0]), 52.0);
    }
}
