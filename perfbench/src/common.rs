//! Shared plumbing: run settings, metric records, percentiles, the host
//! clock, peak RSS, spans timed from outside the library, and the
//! modeled-clock metrics taken from `MemStats` and `ScheduleReport`
//! deltas.

use pinatubo_mem::MemStats;
use pinatubo_runtime::ScheduleReport;
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// The host clock every host-time metric uses: CPU seconds consumed by
/// all threads of this process (`CLOCK_PROCESS_CPUTIME_ID`).
///
/// Unlike wall time it leaves out the time a virtual machine's
/// hypervisor takes the vCPUs away (steal): on a shared VM that swings
/// wall-clock throughput by up to 3× between runs of unchanged code,
/// while this clock moves about 10% (see `README.md`). The benchmark's
/// threads never spin while they wait, so an idle wait does not count.
#[must_use]
pub fn host_now() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` through the
    // pointer, which points at a live, writable `Timespec` laid out like
    // the 64-bit Linux `struct timespec` (two 64-bit fields).
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is always available on Linux");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Machine-wide `(steal, total)` CPU ticks from `/proc/stat`.
///
/// # Errors
///
/// When `/proc/stat` is unreadable or malformed.
pub fn cpu_ticks() -> Result<(u64, u64), String> {
    let stat = std::fs::read_to_string("/proc/stat")
        .map_err(|e| format!("cannot read /proc/stat: {e}"))?;
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|l| {
            l.split_whitespace()
                .filter_map(|f| f.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    match fields.get(7) {
        Some(&steal) => Ok((steal, fields.iter().take(8).sum())),
        None => Err("no steal column in /proc/stat".into()),
    }
}

/// Input size of a run. `Full` is what the benchmark command measures;
/// `Small` is the correctness-only size the package's own tests run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured size.
    Full,
    /// A few-second, correctness-only size.
    Small,
}

/// One run's settings, straight from the command line.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Workload seed: every input is a pure function of it.
    pub seed: u64,
    /// Minimum wall-clock length of the timed phase.
    pub seconds: f64,
    /// Report per-layer metrics (spans timed around each layer's calls)
    /// instead of the end-to-end ones.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
}

impl RunConfig {
    /// Set-up repetitions whose median becomes `setup_s`.
    #[must_use]
    pub fn setup_reps(&self) -> usize {
        match self.scale {
            Scale::Full => 5,
            Scale::Small => 1,
        }
    }

    /// Units every timed phase completes at least, so that the p99
    /// latency has at least ten samples beyond it.
    #[must_use]
    pub fn min_units(&self) -> u64 {
        match self.scale {
            Scale::Full => 1000,
            Scale::Small => 0,
        }
    }
}

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Shorthand constructor.
#[must_use]
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Units (served batches, queries, kernel jobs) attempted.
    pub attempted: u64,
    /// Units whose operation returned an error.
    pub failed: u64,
    /// Output-check failures; the run is correct only when empty.
    pub check_errors: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.check_errors.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Nearest-rank percentile of ascending `sorted` samples (`p` in 0..=100).
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples (mean of the middle pair for even counts).
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The process's resident-set high-water mark in MB (`VmHWM`).
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or carries no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Runs `build` `reps` times, keeps the last result and returns it with
/// the median host time ([`host_now`]) of one build in seconds. Earlier
/// results are dropped before the next build starts.
///
/// # Errors
///
/// The first error `build` returns.
pub fn setup_median<T>(
    reps: usize,
    mut build: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(reps);
    let mut kept = None;
    for _ in 0..reps.max(1) {
        drop(kept.take());
        let t0 = host_now();
        kept = Some(build()?);
        times.push(host_now() - t0);
    }
    Ok((kept.expect("at least one build"), median(&times)))
}

/// Accumulated host time ([`host_now`]) of the calls into one layer,
/// timed from the benchmark around each public call. Disabled spans cost
/// one branch.
#[derive(Debug, Default, Clone, Copy)]
pub struct Span {
    on: bool,
    /// Total seconds inside the spanned calls.
    pub total: f64,
    /// Spanned calls.
    pub calls: u64,
}

impl Span {
    /// A span that records only when `on`.
    #[must_use]
    pub fn new(on: bool) -> Self {
        Span {
            on,
            ..Span::default()
        }
    }

    /// Runs `f`, adding its duration when the span is on.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t0 = host_now();
        let out = f();
        self.total += host_now() - t0;
        self.calls += 1;
        out
    }

    /// Total seconds.
    #[must_use]
    pub fn secs(&self) -> f64 {
        self.total
    }

    /// Mean milliseconds per call (0 without calls).
    #[must_use]
    pub fn mean_ms(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.secs() * 1e3 / self.calls as f64
        }
    }
}

/// Scheduler-side modeled sums over a window of batches.
#[derive(Debug, Default, Clone, Copy)]
pub struct SchedSums {
    /// Sum of per-batch makespans (ns).
    pub makespan_ns: f64,
    /// tRRD/tFAW activation-ledger delay (ns).
    pub rrd_faw_stall_ns: f64,
    /// Waits for a busy bus or GDL slot (ns).
    pub bus_conflict_stall_ns: f64,
    /// Makespan recovered by command interleaving (ns).
    pub interleave_recovered_ns: f64,
}

impl SchedSums {
    /// Adds one batch's report.
    pub fn add(&mut self, report: &ScheduleReport) {
        self.makespan_ns += report.makespan_ns;
        self.rrd_faw_stall_ns += report.makespan.rrd_faw_stall_ns;
        self.bus_conflict_stall_ns += report.makespan.bus_conflict_stall_ns;
        self.interleave_recovered_ns += report.makespan.interleave_recovered_ns;
    }

    /// Ops issued one at a time: the makespan is the serial time and
    /// nothing overlaps.
    #[must_use]
    pub fn serial(delta: &MemStats) -> Self {
        SchedSums {
            makespan_ns: delta.time_ns,
            ..SchedSums::default()
        }
    }
}

/// The three modeled end-to-end metrics of a window.
#[must_use]
pub fn modeled_end_to_end(delta: &MemStats, sched: &SchedSums) -> Vec<Metric> {
    vec![
        metric("modeled_time_us", delta.time_ns / 1e3, "model-us"),
        metric("modeled_makespan_us", sched.makespan_ns / 1e3, "model-us"),
        metric(
            "modeled_energy_uj",
            delta.total_energy_pj() / 1e6,
            "model-uJ",
        ),
    ]
}

/// The modeled per-layer breakdown of a window: time by command class,
/// scheduler stalls, and the memory's event and recovery counters.
#[must_use]
pub fn modeled_layers(delta: &MemStats, sched: &SchedSums) -> Vec<Metric> {
    let t = &delta.time;
    let e = &delta.events;
    let r = &delta.reliability;
    let us = |ns: f64| ns / 1e3;
    vec![
        metric("model.activate_us", us(t.activate_ns), "model-us"),
        metric("model.sense_us", us(t.sense_ns), "model-us"),
        metric("model.write_us", us(t.write_ns), "model-us"),
        metric("model.gdl_us", us(t.gdl_ns), "model-us"),
        metric("model.precharge_us", us(t.precharge_ns), "model-us"),
        metric("model.stall_us", us(t.stall_ns), "model-us"),
        metric("model.ecc_us", us(t.ecc_ns), "model-us"),
        metric("model.bus_us", us(t.bus_ns), "model-us"),
        metric("model.mrs_us", us(t.mrs_ns), "model-us"),
        metric(
            "sched.rrd_faw_stall_us",
            us(sched.rrd_faw_stall_ns),
            "model-us",
        ),
        metric(
            "sched.bus_conflict_stall_us",
            us(sched.bus_conflict_stall_ns),
            "model-us",
        ),
        metric(
            "sched.interleave_recovered_us",
            us(sched.interleave_recovered_ns),
            "model-us",
        ),
        metric("mem.rows_activated", e.rows_activated as f64, "count"),
        metric("mem.multi_activates", e.multi_activates as f64, "count"),
        metric("mem.row_writes", e.row_writes as f64, "count"),
        metric("mem.mode_sets", e.mode_sets as f64, "count"),
        metric("mem.bus_bursts", e.bus_bursts as f64, "count"),
        metric(
            "mem.row_pages_copied",
            delta.row_pages_copied as f64,
            "count",
        ),
        metric("mem.physical_senses", r.physical_senses as f64, "count"),
        metric("mem.sense_retries", r.sense_retries as f64, "count"),
        metric("mem.rmw_fallbacks", r.rmw_fallbacks as f64, "count"),
        metric("mem.fan_in_splits", r.fan_in_splits as f64, "count"),
        metric(
            "mem.ecc_corrected_bits",
            r.ecc_corrected_bits as f64,
            "count",
        ),
    ]
}

/// Host-clock layer metrics every traced run prints; a workload that
/// does not call a layer directly leaves its entries at zero.
#[derive(Debug, Default)]
pub struct HostLayers {
    /// `serve.submit_us`: mean per `ServeSession::submit` call.
    pub serve_submit_us: f64,
    /// `serve.advance_ms`: mean per `ServeSession::advance` call.
    pub serve_advance_ms: f64,
    /// `serve.rounds`: scheduler rounds in the timed phase.
    pub serve_rounds: f64,
    /// `serve.queue_full`: `QueueFull` rejections in the timed phase.
    pub serve_queue_full: f64,
    /// `serve.admit_ratio`: admitted submissions over attempts.
    pub serve_admit_ratio: f64,
    /// `pool.replay_s`: the dispatch log through a one-worker session.
    pub pool_replay_s: f64,
    /// `pool.self_s`: `pool.replay_s` minus the serial replay.
    pub pool_self_s: f64,
    /// `scheduler.plan_ms`: mean `plan_batch` time per batch.
    pub plan_ms: f64,
    /// `scheduler.plan_share`: planning time over the timed phase.
    pub plan_share: f64,
    /// `microcode.compile_ms`: mean per `compile` call.
    pub compile_ms: f64,
    /// `exec.serial_replay_s`: the dispatch log through
    /// `execute_batch_serial`.
    pub serial_replay_s: f64,
    /// `exec.execute_ms`: mean per `execute_batch*` call, minus planning.
    pub execute_ms: f64,
    /// `database.query_ms`: mean per `run_query`.
    pub query_ms: f64,
    /// `database.filtered_query_ms`: mean per `run_query_filtered`.
    pub filtered_query_ms: f64,
    /// `database.build_s`: `BitmapIndex::build` plus `ValueColumn::build`
    /// (one set-up; data generation and stores included).
    pub database_build_s: f64,
    /// `fault.overhead_s`: faulted query time minus a fault-free twin's.
    pub fault_overhead_s: f64,
    /// `system.new_s`: `PimSystem::new` (one set-up).
    pub system_new_s: f64,
    /// `system.store_s`: setup stores (one set-up).
    pub store_s: f64,
    /// `system.load_s`: loads made by the output checks.
    pub load_s: f64,
    /// `unattributed_s`: timed-phase wall time no span covers.
    pub unattributed_s: f64,
    /// `traced.units_per_s`: throughput of the traced run itself.
    pub traced_units_per_s: f64,
    /// `wall.units_per_s`: the traced run's units over its wall time.
    pub wall_units_per_s: f64,
    /// `host.steal_share`: machine CPU time stolen by the hypervisor
    /// during the timed phase, as a share of all CPU time.
    pub steal_share: f64,
}

impl HostLayers {
    /// The host-clock per-layer metrics, in `BENCHMARK.json` order.
    #[must_use]
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            metric("serve.submit_us", self.serve_submit_us, "us"),
            metric("serve.advance_ms", self.serve_advance_ms, "ms"),
            metric("serve.rounds", self.serve_rounds, "count"),
            metric("serve.queue_full", self.serve_queue_full, "count"),
            metric("serve.admit_ratio", self.serve_admit_ratio, "ratio"),
            metric("pool.replay_s", self.pool_replay_s, "s"),
            metric("pool.self_s", self.pool_self_s, "s"),
            metric("scheduler.plan_ms", self.plan_ms, "ms"),
            metric("scheduler.plan_share", self.plan_share, "ratio"),
            metric("microcode.compile_ms", self.compile_ms, "ms"),
            metric("exec.serial_replay_s", self.serial_replay_s, "s"),
            metric("exec.execute_ms", self.execute_ms, "ms"),
            metric("database.query_ms", self.query_ms, "ms"),
            metric("database.filtered_query_ms", self.filtered_query_ms, "ms"),
            metric("database.build_s", self.database_build_s, "s"),
            metric("fault.overhead_s", self.fault_overhead_s, "s"),
            metric("system.new_s", self.system_new_s, "s"),
            metric("system.store_s", self.store_s, "s"),
            metric("system.load_s", self.load_s, "s"),
            metric("unattributed_s", self.unattributed_s, "s"),
            metric("traced.units_per_s", self.traced_units_per_s, "1/s"),
            metric("wall.units_per_s", self.wall_units_per_s, "1/s"),
            metric("host.steal_share", self.steal_share, "ratio"),
        ]
    }
}

/// Groups of consecutive units the timed phase is cut into for
/// `units_per_s`.
const GROUPS: usize = 20;

/// Host-time record of a timed phase: when it started, on the wall
/// clock (which bounds the run length) and on the host clock, and each
/// completed unit's latency and completion time on the host clock.
#[derive(Debug)]
pub struct UnitClock {
    wall_start: Instant,
    start: f64,
    steal_start: (u64, u64),
    latencies_s: Vec<f64>,
    done_at_s: Vec<f64>,
}

impl UnitClock {
    /// Starts the timed phase.
    ///
    /// # Errors
    ///
    /// When `/proc/stat` is unreadable.
    pub fn start() -> Result<Self, String> {
        Ok(UnitClock {
            wall_start: Instant::now(),
            steal_start: cpu_ticks()?,
            start: host_now(),
            latencies_s: Vec::new(),
            done_at_s: Vec::new(),
        })
    }

    /// When the timed phase started, on the wall clock.
    #[must_use]
    pub fn wall_started(&self) -> Instant {
        self.wall_start
    }

    /// Host seconds since the timed phase started.
    #[must_use]
    pub fn elapsed_s(&self) -> f64 {
        host_now() - self.start
    }

    /// Wall seconds since the timed phase started.
    #[must_use]
    pub fn wall_elapsed_s(&self) -> f64 {
        self.wall_start.elapsed().as_secs_f64()
    }

    /// Share of the machine's CPU time stolen by the hypervisor since the
    /// timed phase started.
    ///
    /// # Errors
    ///
    /// When `/proc/stat` is unreadable.
    pub fn steal_share(&self) -> Result<f64, String> {
        let (steal, total) = cpu_ticks()?;
        let (steal0, total0) = self.steal_start;
        Ok((steal - steal0) as f64 / (total - total0).max(1) as f64)
    }

    /// Records a unit that began at host time `began` and completed at
    /// `done` (both from [`host_now`]).
    pub fn record(&mut self, began: f64, done: f64) {
        self.latencies_s.push(done - began);
        self.done_at_s.push(done - self.start);
    }

    /// Units recorded.
    #[must_use]
    pub fn units(&self) -> u64 {
        self.latencies_s.len() as u64
    }

    /// Completed units per second: the timed phase is cut into
    /// [`GROUPS`] runs of equally many consecutive units, and the median
    /// group rate is reported, so that a host stall in a few groups does
    /// not move it (the plain mean with fewer units than groups).
    #[must_use]
    pub fn units_per_s(&self, timed_s: f64) -> f64 {
        let n = self.done_at_s.len();
        if n < GROUPS {
            return n as f64 / timed_s;
        }
        let size = n / GROUPS;
        let rates: Vec<f64> = (0..GROUPS)
            .map(|g| {
                let from = if g == 0 {
                    0.0
                } else {
                    self.done_at_s[g * size - 1]
                };
                let to = self.done_at_s[(g + 1) * size - 1];
                size as f64 / (to - from).max(f64::MIN_POSITIVE)
            })
            .collect();
        median(&rates)
    }

    /// The host-time end-to-end metrics. `peak_rss_mb` is the high-water
    /// mark read when the fixed window of units completed (see
    /// [`peak_rss_mb`]), so that it measures a fixed amount of work.
    #[must_use]
    pub fn end_to_end(mut self, setup_s: f64, timed_s: f64, peak_rss_mb: f64) -> Vec<Metric> {
        let units_per_s = self.units_per_s(timed_s);
        self.latencies_s.sort_by(f64::total_cmp);
        let lat = &self.latencies_s;
        vec![
            metric("setup_s", setup_s, "s"),
            metric("units_per_s", units_per_s, "1/s"),
            metric("latency_p50_ms", percentile(lat, 50.0) * 1e3, "ms"),
            metric("latency_p99_ms", percentile(lat, 99.0) * 1e3, "ms"),
            metric("peak_rss_mb", peak_rss_mb, "MB"),
        ]
    }
}

/// Whether the timed phase may stop: at least `seconds` of wall time have
/// passed and the fixed windows are complete.
#[must_use]
pub fn time_up(start: Instant, seconds: f64, window_done: bool) -> bool {
    window_done && start.elapsed().as_secs_f64() >= seconds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn throughput_is_the_median_group_rate() {
        let mut clock = UnitClock::start().expect("clock");
        let t0 = clock.start;
        // 40 units, one every 10 ms, except a 1 s stall before unit 20.
        let mut at = t0;
        for u in 0..40 {
            at += if u == 20 { 1.0 } else { 0.01 };
            clock.record(at, at);
        }
        let rate = clock.units_per_s(1.39);
        assert!((rate - 100.0).abs() < 1e-6, "{rate}");
        assert_eq!(UnitClock::start().expect("clock").units_per_s(2.0), 0.0);
    }

    #[test]
    fn host_clock_advances_with_work() {
        let t0 = host_now();
        let mut x = 1u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(host_now() > t0, "{x}");
        let (steal, total) = cpu_ticks().expect("ticks");
        assert!(steal <= total && total > 0);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let out = Outcome {
            attempted: 3,
            failed: 0,
            check_errors: Vec::new(),
            metrics: vec![metric("setup_s", 0.25, "s")],
        };
        assert_eq!(
            out.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
