//! Process-level and registry readings taken from outside the program:
//! `getrusage`, `/proc/self/status`, and deltas of the telemetry series
//! the program already keeps.

use softlora_telemetry::{HistogramSnapshot, RegistrySnapshot};

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` as Linux lays it out on 64-bit targets.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// Whole-process CPU time and context switches at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Usage {
    /// User + system CPU seconds, all threads.
    pub cpu_s: f64,
    /// Voluntary + involuntary context switches, all threads.
    pub ctx_switches: u64,
}

impl Usage {
    pub fn now() -> Usage {
        let mut ru = std::mem::MaybeUninit::<Rusage>::zeroed();
        // SAFETY: `Rusage` matches the kernel's 64-bit `struct rusage`
        // layout (two timevals then fourteen longs), the pointer is valid
        // for writes of that size, and RUSAGE_SELF is a valid selector.
        let rc = unsafe { getrusage(RUSAGE_SELF, ru.as_mut_ptr()) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
        // SAFETY: getrusage returned 0, so it filled the struct (and it
        // was zero-initialised besides).
        let ru = unsafe { ru.assume_init() };
        let tv = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
        Usage { cpu_s: tv(&ru.utime) + tv(&ru.stime), ctx_switches: (ru.nvcsw + ru.nivcsw) as u64 }
    }

    pub fn since(&self, before: &Usage) -> Usage {
        Usage {
            cpu_s: self.cpu_s - before.cpu_s,
            ctx_switches: self.ctx_switches - before.ctx_switches,
        }
    }
}

/// One-second windows over a run: wall-clock figures are medians over
/// the windows, so a transient disturbance from outside the benchmark
/// moves one window rather than the whole figure.
pub struct Windows {
    period: std::time::Duration,
    marks: Vec<(std::time::Instant, Usage, u64)>,
}

impl Windows {
    pub fn start(groups: u64) -> Self {
        let period = std::time::Duration::from_secs(1);
        Windows { period, marks: vec![(std::time::Instant::now(), Usage::now(), groups)] }
    }

    /// Closes the current window if it is a period old.
    pub fn tick(&mut self, groups: u64) {
        let last = self.marks.last().expect("started").0;
        if last.elapsed() >= self.period {
            self.marks.push((std::time::Instant::now(), Usage::now(), groups));
        }
    }

    /// Groups per second and CPU ms per group over one span, from the end
    /// of window `skip` to the last mark.
    pub fn span(&self, skip: usize) -> (f64, f64) {
        let (t0, u0, g0) = &self.marks[skip.min(self.marks.len() - 1)];
        let (t1, u1, g1) = self.marks.last().expect("started");
        let groups = (g1 - g0) as f64;
        let rate = crate::stats::ratio(groups, (*t1 - *t0).as_secs_f64());
        (rate, crate::stats::ratio(u1.since(u0).cpu_s * 1e3, groups))
    }

    /// Per full window: groups per second and CPU ms per group (windows
    /// that finished no group give no CPU figure).
    pub fn rates(&self) -> (Vec<f64>, Vec<f64>) {
        let mut rate = Vec::new();
        let mut cpu = Vec::new();
        for w in self.marks.windows(2) {
            let ((t0, u0, g0), (t1, u1, g1)) = (&w[0], &w[1]);
            let groups = (g1 - g0) as f64;
            rate.push(groups / (*t1 - *t0).as_secs_f64());
            if groups > 0.0 {
                cpu.push(u1.since(u0).cpu_s * 1e3 / groups);
            }
        }
        (rate, cpu)
    }
}

/// A `kB` (or plain count) field of `/proc/self/status`.
fn status_field(name: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
}

/// Peak resident set (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Resets `VmHWM` to the current resident set, so a later reading covers
/// only what follows (`/proc/self/clear_refs`, Linux 4.0 and later).
/// Where the reset is refused, `VmHWM` keeps counting from process start.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Live thread count (`Threads`).
pub fn threads() -> u64 {
    status_field("Threads").unwrap_or(0)
}

/// Samples the thread count every few milliseconds until stopped; the
/// peak is the run's `run.threads_peak`.
pub struct ThreadWatch {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    handle: std::thread::JoinHandle<u64>,
}

impl ThreadWatch {
    pub fn start() -> Self {
        use std::sync::atomic::Ordering;
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flag = std::sync::Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut peak = 0;
            while !flag.load(Ordering::Relaxed) {
                peak = peak.max(threads());
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            peak
        });
        ThreadWatch { stop, handle }
    }

    /// Peak thread count seen, excluding the watcher itself.
    pub fn finish(self) -> u64 {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        self.handle.join().expect("thread watcher panicked").saturating_sub(1)
    }
}

/// Registry deltas between two snapshots. Every accessor merges **all**
/// labelled series of a family, so per-shard or per-listener series are
/// never read one at a time.
pub struct Delta<'a> {
    pub before: &'a RegistrySnapshot,
    pub after: &'a RegistrySnapshot,
}

impl Delta<'_> {
    pub fn counter(&self, family: &str) -> u64 {
        self.after.counter_sum(family).saturating_sub(self.before.counter_sum(family))
    }

    /// The family's histogram delta, merged across every label set, or
    /// only across series whose `label` equals `value` when given.
    pub fn histogram(&self, family: &str, label: Option<(&str, &str)>) -> HistogramSnapshot {
        let matches = |s: &&softlora_telemetry::SeriesSnapshot| {
            s.name == family && label.is_none_or(|(k, v)| s.label(k) == Some(v))
        };
        let mut total = HistogramSnapshot::empty();
        for series in self.after.series.iter().filter(matches) {
            let Some(h) = series.value.as_histogram() else { continue };
            let mut delta = *h;
            if let Some(prior) = self
                .before
                .series
                .iter()
                .find(|s| s.key() == series.key())
                .and_then(|s| s.value.as_histogram())
            {
                for (d, p) in delta.buckets.iter_mut().zip(prior.buckets.iter()) {
                    *d -= p;
                }
                delta.count -= prior.count;
                delta.sum -= prior.sum;
            }
            total.merge(&delta);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_readings_are_live() {
        let a = Usage::now();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        let b = Usage::now();
        assert!(b.cpu_s >= a.cpu_s);
        assert!(peak_rss_mb() > 0.0);
        let ballast = vec![1u8; 64 << 20];
        std::hint::black_box(&ballast);
        let high = peak_rss_mb();
        drop(ballast);
        reset_peak_rss();
        assert!(peak_rss_mb() < high - 32.0, "the reset drops the freed ballast");
        assert!(threads() >= 1);
    }

    #[test]
    fn histogram_delta_merges_every_labelled_series() {
        let registry = softlora_telemetry::Registry::new();
        let a = registry.histogram_with("lat", &[("shard", "0")]);
        let b = registry.histogram_with("lat", &[("shard", "1")]);
        a.record(100);
        let before = registry.snapshot();
        a.record(200);
        b.record(300);
        b.record(400);
        registry.counter_with("n", &[("shard", "1")]).add(5);
        let after = registry.snapshot();
        let d = Delta { before: &before, after: &after };
        let h = d.histogram("lat", None);
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 900);
        assert_eq!(d.histogram("lat", Some(("shard", "1"))).count, 2);
        assert_eq!(d.counter("n"), 5);
    }
}
