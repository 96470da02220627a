//! Benchmark-side spans: one per call into a layer, recorded in memory
//! and written as JSON when the run ends.
//!
//! A span has a name, a start and end (ns from the run's origin), the
//! span that caused it and the job it belongs to. Each job has one root
//! span named `job`; the root's self time is the job's *unattributed*
//! time, so a job's self times always account for its whole wall time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Job id of spans recorded outside any job (set-up).
pub const NO_JOB: u64 = u64::MAX;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `ckks.encrypt`.
    pub name: &'static str,
    /// Start, ns from the tracer's origin.
    pub start_ns: u64,
    /// End, ns from the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Job the span belongs to ([`NO_JOB`] for set-up).
    pub job: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// How one job's wall time splits between layers.
#[derive(Debug, Clone)]
pub struct JobAttribution {
    /// Job id.
    pub job: u64,
    /// Root span duration.
    pub wall_ns: u64,
    /// Self time per span name, the root's excluded.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Root self time: wall time no layer span covers.
    pub unattributed_ns: u64,
}

/// In-memory span recorder. When off, every call is a no-op.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    job: u64,
}

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            job: NO_JOB,
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span at `now`, nested in the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> Option<usize> {
        self.enter_at(name, Instant::now())
    }

    /// Opens a span that started at `start` (an open-loop job starts when
    /// it was due, which may be before the generator got to it).
    pub fn enter_at(&mut self, name: &'static str, start: Instant) -> Option<usize> {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        let start_ns = self.ns(start);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            job: self.job,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes span `id` at `now`.
    pub fn exit(&mut self, id: Option<usize>) {
        self.exit_at(id, Instant::now());
    }

    /// Closes span `id` at `end`.
    pub fn exit_at(&mut self, id: Option<usize>, end: Instant) {
        if let Some(id) = id {
            let end_ns = self.ns(end);
            self.spans[id].end_ns = end_ns;
            self.open.retain(|&o| o != id);
        }
    }

    /// Records a closed span from `start` to `end` under `parent`.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            job: self.job,
        });
        Some(self.spans.len() - 1)
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Opens the root span of job `job`; later spans belong to it.
    pub fn begin_job(&mut self, job: u64) -> Option<usize> {
        self.begin_job_at(job, Instant::now())
    }

    /// [`Tracer::begin_job`] with an explicit start.
    pub fn begin_job_at(&mut self, job: u64, start: Instant) -> Option<usize> {
        self.job = job;
        self.enter_at("job", start)
    }

    /// Closes a job's root span.
    pub fn end_job(&mut self, root: Option<usize>) {
        self.end_job_at(root, Instant::now());
    }

    /// [`Tracer::end_job`] with an explicit end.
    pub fn end_job_at(&mut self, root: Option<usize>, end: Instant) {
        self.exit_at(root, end);
        self.job = NO_JOB;
    }

    /// Sets the job later spans belong to, without a root span (a
    /// generator thread interleaving many jobs).
    pub fn set_job(&mut self, job: u64) {
        self.job = job;
    }

    /// Durations in ms of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals clipped to it.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        self.spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut iv: Vec<(u64, u64)> = children[i]
                    .iter()
                    .map(|&c| {
                        let c = &self.spans[c];
                        (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                    })
                    .filter(|(a, b)| b > a)
                    .collect();
                iv.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for (a, b) in iv {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.dur_ns() - covered
            })
            .collect()
    }

    /// Splits every job's wall time into per-layer self times plus the
    /// unattributed remainder, and checks that they add up exactly.
    ///
    /// # Errors
    ///
    /// Names the job whose span self times do not sum to its wall time
    /// (a span outside its parent or overlapping a sibling).
    pub fn attribution(&self) -> Result<Vec<JobAttribution>, String> {
        let self_ns = self.self_times_ns();
        let mut jobs: BTreeMap<u64, JobAttribution> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == "job" && s.parent.is_none() {
                jobs.insert(
                    s.job,
                    JobAttribution {
                        job: s.job,
                        wall_ns: s.dur_ns(),
                        self_ns: BTreeMap::new(),
                        unattributed_ns: self_ns[i],
                    },
                );
            }
        }
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == "job" && s.parent.is_none() {
                continue;
            }
            if let Some(a) = jobs.get_mut(&s.job) {
                *a.self_ns.entry(s.name).or_default() += self_ns[i];
            }
        }
        for a in jobs.values() {
            let sum: u64 = a.self_ns.values().sum::<u64>() + a.unattributed_ns;
            if sum != a.wall_ns {
                return Err(format!(
                    "job {}: span self times sum to {sum} ns, wall time is {} ns",
                    a.job, a.wall_ns
                ));
            }
        }
        Ok(jobs.into_values().collect())
    }

    /// Every span as a JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let job = if s.job == NO_JOB {
                "null".to_string()
            } else {
                s.job.to_string()
            };
            let _ = write!(
                out,
                "\n{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"job\": {job}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("\n]");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_times_plus_unattributed_equal_wall_time() {
        let mut t = Tracer::new(true);
        let t0 = Instant::now();
        let root = t.begin_job_at(7, t0);
        let a = t.enter_at("a", t0 + Duration::from_micros(10));
        t.record(
            "b",
            t0 + Duration::from_micros(20),
            t0 + Duration::from_micros(50),
            a,
        );
        t.exit_at(a, t0 + Duration::from_micros(60));
        t.record(
            "c",
            t0 + Duration::from_micros(70),
            t0 + Duration::from_micros(90),
            root,
        );
        t.end_job_at(root, t0 + Duration::from_micros(100));
        let jobs = t.attribution().expect("nested spans add up");
        assert_eq!(jobs.len(), 1);
        let j = &jobs[0];
        assert_eq!(j.wall_ns, 100_000);
        assert_eq!(j.self_ns["a"], 20_000);
        assert_eq!(j.self_ns["b"], 30_000);
        assert_eq!(j.self_ns["c"], 20_000);
        assert_eq!(j.unattributed_ns, 30_000);
    }

    #[test]
    fn overlapping_children_are_not_double_counted() {
        let mut t = Tracer::new(true);
        let t0 = Instant::now();
        let root = t.begin_job_at(1, t0);
        t.record("x", t0, t0 + Duration::from_micros(40), root);
        t.record(
            "y",
            t0 + Duration::from_micros(30),
            t0 + Duration::from_micros(60),
            root,
        );
        t.end_job_at(root, t0 + Duration::from_micros(100));
        // Root self time is 40 us, but x + y claim 70 us of a 100 us job.
        let err = t.attribution().expect_err("overlap must be reported");
        assert!(err.contains("job 1"), "{err}");
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let root = t.begin_job(3);
        assert_eq!(t.span("a", || 5), 5);
        t.end_job(root);
        assert!(t.durations_ms("a").is_empty());
        assert!(t.attribution().expect("empty").is_empty());
        assert_eq!(t.to_json(), "[\n]");
    }
}
