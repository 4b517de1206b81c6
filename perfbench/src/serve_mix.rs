//! `serve_mix`: 64 tenants (database filters, BFS frontier steps and
//! compiled 8-bit integer kernels on 2^16-bit vectors, weights 1–4)
//! served by `PimServer` as a closed loop. One unit is a served batch.
//!
//! Each tenant keeps one batch outstanding. The session has one worker
//! and syncs every round, and the DRR quantum covers the largest batch,
//! so the `advance()` after a batch is admitted completes it. A unit's
//! latency runs from the tenant's first `submit` attempt (so `QueueFull`
//! backpressure counts) to the return of that `advance()`.

use crate::common::{
    host_now, modeled_end_to_end, modeled_layers, peak_rss_mb, setup_median, time_up, HostLayers,
    Outcome, RunConfig, Scale, SchedSums, Span, UnitClock,
};
use pinatubo_core::rng::SimRng;
use pinatubo_core::{BitwiseOp, PinatuboConfig};
use pinatubo_mem::{MemConfig, MemStats};
use pinatubo_runtime::microcode::{CompileOptions, MicroProgram, TransposedVec};
use pinatubo_runtime::scheduler::BatchRequest;
use pinatubo_runtime::{MappingPolicy, PimBitVec, PimSystem};
use pinatubo_serve::{PimServer, ServeConfig, ServeError, TenantConfig, TenantId};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Largest batch a tenant submits, in requests; the DRR quantum.
const MAX_BATCH: usize = 8;
/// Scheduler rounds in the fixed modeled window.
const MODEL_ROUNDS: u64 = 64;
/// Served batches after which the peak RSS is read (at the end of that
/// round). Served state grows with every batch, so the reading is taken
/// at a fixed amount of work rather than at the end of the timed phase.
const RSS_UNITS: u64 = 100_000;
const INT_WIDTH: u32 = 8;

struct Shape {
    tenants: usize,
    vec_bits: u64,
}

fn shape(scale: Scale) -> Shape {
    match scale {
        Scale::Full => Shape {
            tenants: 64,
            vec_bits: 1 << 16,
        },
        Scale::Small => Shape {
            tenants: 9,
            vec_bits: 1000,
        },
    }
}

fn sys() -> PimSystem {
    PimSystem::new(
        MemConfig::pcm_default(),
        PinatuboConfig::default(),
        MappingPolicy::ChannelRotate,
    )
}

/// Host bit-vector, one bool per bit (the layout `store`/`load` use).
type Bits = Vec<bool>;

fn zip_with(a: &[bool], b: &[bool], f: impl Fn(bool, bool) -> bool) -> Bits {
    a.iter().zip(b).map(|(&x, &y)| f(x, y)).collect()
}

/// A tenant's stream and the host model of what it computes.
enum Model {
    /// Batch `j` (mod 3): `t = c_j & c_{j+1}; o = t | c_{j+2}`.
    Filter {
        cols: [Bits; 3],
        t: PimBitVec,
        o: PimBitVec,
    },
    /// Batch `i` (mod 6) reads visited `v[i % 2]` and writes the other:
    /// `n = !v; t = m_i | m_{i+1}; f = t & n; v' = v | f`.
    Bfs {
        masks: [Bits; 3],
        visited0: Bits,
        v: [PimBitVec; 2],
        n: PimBitVec,
        t: PimBitVec,
        f: PimBitVec,
    },
    /// The compiled kernel `sum = a + b` (wrapping), `mask = a >= b`,
    /// chunked into admission-sized batches.
    IntVec {
        a: Vec<u64>,
        b: Vec<u64>,
        sum: TransposedVec,
        mask: PimBitVec,
    },
}

struct Tenant {
    id: TenantId,
    /// One cycle of the stream; the tenant submits it round-robin and
    /// stops only at a cycle boundary.
    cycle: Vec<Arc<Vec<BatchRequest>>>,
    model: Model,
}

fn req(op: BitwiseOp, operands: &[&PimBitVec], dst: &PimBitVec) -> BatchRequest {
    BatchRequest {
        op,
        operands: operands.iter().map(|&v| v.clone()).collect(),
        dst: dst.clone(),
    }
}

struct Setup {
    server: PimServer,
    tenants: Vec<Tenant>,
    store: Span,
    new_s: f64,
}

fn build_tenant(
    server: &mut PimServer,
    store: &mut Span,
    i: usize,
    bits: u64,
    seed: u64,
) -> Result<Tenant, ServeError> {
    let mut rng = SimRng::seed_from_u64(seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let random = |rng: &mut SimRng| -> Bits { (0..bits).map(|_| rng.gen_bit()).collect() };
    let kind = ["filter", "bfs", "intvec"][i % 3];
    let id = server.register(TenantConfig {
        name: format!("{kind}-{i}"),
        weight: 1 + (i % 4) as u64,
        row_quota: 96,
    });
    let (cycle, model) = match i % 3 {
        0 => {
            let g = server.alloc_group(id, 5, bits)?;
            let cols = [random(&mut rng), random(&mut rng), random(&mut rng)];
            for (vec, data) in g.iter().zip(&cols) {
                store.time(|| server.store(vec, data))?;
            }
            let (t, o) = (&g[3], &g[4]);
            let cycle = (0..3)
                .map(|j| {
                    Arc::new(vec![
                        req(BitwiseOp::And, &[&g[j], &g[(j + 1) % 3]], t),
                        req(BitwiseOp::Or, &[t, &g[(j + 2) % 3]], o),
                    ])
                })
                .collect();
            let model = Model::Filter {
                cols,
                t: t.clone(),
                o: o.clone(),
            };
            (cycle, model)
        }
        1 => {
            let g = server.alloc_group(id, 8, bits)?;
            let masks = [random(&mut rng), random(&mut rng), random(&mut rng)];
            let visited0 = random(&mut rng);
            for (vec, data) in g.iter().zip(masks.iter().chain([&visited0])) {
                store.time(|| server.store(vec, data))?;
            }
            let (n, t, f) = (&g[5], &g[6], &g[7]);
            let cycle = (0..6)
                .map(|s| {
                    let (v, next) = (&g[3 + s % 2], &g[3 + (s + 1) % 2]);
                    Arc::new(vec![
                        req(BitwiseOp::Not, &[v], n),
                        req(BitwiseOp::Or, &[&g[s % 3], &g[(s + 1) % 3]], t),
                        req(BitwiseOp::And, &[t, n], f),
                        req(BitwiseOp::Or, &[v, f], next),
                    ])
                })
                .collect();
            let model = Model::Bfs {
                masks,
                visited0,
                v: [g[3].clone(), g[4].clone()],
                n: n.clone(),
                t: t.clone(),
                f: f.clone(),
            };
            (cycle, model)
        }
        _ => {
            let va = server.alloc_transposed(id, bits, INT_WIDTH)?;
            let vb = server.alloc_transposed(id, bits, INT_WIDTH)?;
            let sum = server.alloc_transposed(id, bits, INT_WIDTH)?;
            let mask = server.alloc_group(id, 1, bits)?.remove(0);
            let max = (1u64 << INT_WIDTH) - 1;
            let a: Vec<u64> = (0..bits).map(|_| rng.gen_range_u64(0, max + 1)).collect();
            let b: Vec<u64> = (0..bits).map(|_| rng.gen_range_u64(0, max + 1)).collect();
            store.time(|| server.store_lanes(&va, &a))?;
            store.time(|| server.store_lanes(&vb, &b))?;
            let programs = [
                MicroProgram::add(&va, &vb, &sum),
                MicroProgram::cmp_ge(&va, &vb, &mask),
            ];
            let requests = server.compile(id, &programs, CompileOptions::optimized())?;
            let cycle = requests
                .chunks(MAX_BATCH)
                .map(|c| Arc::new(c.to_vec()))
                .collect();
            (cycle, Model::IntVec { a, b, sum, mask })
        }
    };
    Ok(Tenant { id, cycle, model })
}

fn setup(cfg: &RunConfig) -> Result<Setup, String> {
    let shape = shape(cfg.scale);
    let t0 = host_now();
    let system = sys();
    let new_s = host_now() - t0;
    let mut server = PimServer::new(
        system,
        ServeConfig {
            workers: 1,
            channel_queue_capacity: 32,
            quantum: MAX_BATCH as u64,
            sync_every_rounds: 1,
        },
    );
    let mut store = Span::new(cfg.trace);
    let tenants = (0..shape.tenants)
        .map(|i| build_tenant(&mut server, &mut store, i, shape.vec_bits, cfg.seed))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("serve_mix setup: {e}"))?;
    Ok(Setup {
        server,
        tenants,
        store,
        new_s,
    })
}

/// Expected contents of a tenant's output vectors after `batches`
/// completed batches (a whole number of cycles).
fn expected(model: &Model, batches: u64) -> Vec<(PimBitVec, Bits)> {
    match model {
        Model::Filter { cols, t, o } => {
            let j = ((batches + 2) % 3) as usize;
            let tb = zip_with(&cols[j], &cols[(j + 1) % 3], |x, y| x & y);
            let ob = zip_with(&tb, &cols[(j + 2) % 3], |x, y| x | y);
            vec![(t.clone(), tb), (o.clone(), ob)]
        }
        Model::Bfs {
            masks,
            visited0,
            v,
            n,
            t,
            f,
        } => {
            let mut visited = [visited0.clone(), vec![false; visited0.len()]];
            let (mut nb, mut tb, mut fb) = (Bits::new(), Bits::new(), Bits::new());
            for s in 0..batches as usize {
                let cur = s % 2;
                nb = visited[cur].iter().map(|&x| !x).collect();
                tb = zip_with(&masks[s % 3], &masks[(s + 1) % 3], |x, y| x | y);
                fb = zip_with(&tb, &nb, |x, y| x & y);
                visited[1 - cur] = zip_with(&visited[cur], &fb, |x, y| x | y);
            }
            let [v0, v1] = visited;
            vec![
                (v[0].clone(), v0),
                (v[1].clone(), v1),
                (n.clone(), nb),
                (t.clone(), tb),
                (f.clone(), fb),
            ]
        }
        Model::IntVec { a, b, sum, mask } => {
            let lane_mask = (1u64 << INT_WIDTH) - 1;
            let mut out: Vec<(PimBitVec, Bits)> = sum
                .planes()
                .iter()
                .enumerate()
                .map(|(k, plane)| {
                    let bits = a
                        .iter()
                        .zip(b)
                        .map(|(&x, &y)| ((x + y) & lane_mask) >> k & 1 == 1)
                        .collect();
                    (plane.clone(), bits)
                })
                .collect();
            out.push((mask.clone(), a.iter().zip(b).map(|(x, y)| x >= y).collect()));
            out
        }
    }
}

/// Compares two systems' statistics: event counters and fault ledgers
/// exactly, time and energy to rounding.
fn stats_parity(served: &MemStats, serial: &MemStats) -> Option<String> {
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-6 * a.abs().max(b.abs()).max(1.0);
    if served.events != serial.events {
        Some(format!(
            "served event counters {:?} differ from the serial replay's {:?}",
            served.events, serial.events
        ))
    } else if served.reliability != serial.reliability {
        Some("served reliability ledger differs from the serial replay's".into())
    } else if !close(served.time_ns, serial.time_ns)
        || !close(served.total_energy_pj(), serial.total_energy_pj())
    {
        Some(format!(
            "served time/energy {} ns / {} pJ differ from the serial replay's {} ns / {} pJ",
            served.time_ns,
            served.total_energy_pj(),
            serial.time_ns,
            serial.total_energy_pj()
        ))
    } else {
        None
    }
}

/// Runs the workload and checks its outputs.
///
/// # Errors
///
/// Set-up failures and an unreadable peak RSS.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    run_with(cfg, false)
}

/// [`run`], optionally corrupting one expected bit before the output
/// check (the mutation test: the check must then fail).
pub(crate) fn run_with(cfg: &RunConfig, corrupt_expected: bool) -> Result<Outcome, String> {
    let (s, setup_s) = setup_median(cfg.setup_reps(), || setup(cfg))?;
    let Setup {
        mut server,
        tenants,
        store,
        new_s,
    } = s;
    let n = tenants.len();
    let mut submit = Span::new(cfg.trace);
    let mut advance = Span::new(cfg.trace);
    let mut completed = vec![0u64; n];
    let mut first_try: Vec<Option<f64>> = vec![None; n];
    let mut outstanding = vec![false; n];
    let (mut attempts, mut queue_full, mut rounds) = (0u64, 0u64, 0u64);
    let (mut units, mut failed) = (0u64, 0u64);
    let mut check_errors = Vec::new();
    // Dispatch-log length at the end of each round (dispatch order is
    // completion order here: every admitted batch completes in the
    // round that dispatches it).
    let mut round_ends: Vec<usize> = Vec::new();
    let mut rss_mb = None;

    let mut clock = UnitClock::start()?;
    let mut session = server.open();
    let mut draining = false;
    loop {
        // One clock reading per submission pass: the first attempts made
        // in this pass all start here.
        let pass_start = host_now();
        for (i, tenant) in tenants.iter().enumerate() {
            let cycle_len = tenant.cycle.len() as u64;
            if outstanding[i] || (draining && completed[i] > 0 && completed[i] % cycle_len == 0) {
                continue;
            }
            let slab = Arc::clone(&tenant.cycle[(completed[i] % cycle_len) as usize]);
            first_try[i].get_or_insert(pass_start);
            attempts += 1;
            match submit.time(|| session.submit(tenant.id, slab)) {
                Ok(()) => outstanding[i] = true,
                Err(ServeError::QueueFull { .. }) => queue_full += 1,
                Err(e) => return Err(format!("serve_mix submit: {e}")),
            }
        }
        let batch_count = outstanding.iter().filter(|&&o| o).count();
        if batch_count == 0 {
            if draining {
                break;
            }
            return Err("serve_mix: no tenant could submit".into());
        }
        let result = advance.time(|| session.advance());
        let now = host_now();
        rounds += 1;
        match result {
            Ok(done) if done == batch_count => {}
            Ok(done) => check_errors.push(format!(
                "round {rounds}: advance completed {done} of {batch_count} admitted batches"
            )),
            Err(e) => {
                failed += batch_count as u64;
                check_errors.push(format!("round {rounds}: advance failed: {e}"));
                break;
            }
        }
        for i in 0..n {
            if std::mem::take(&mut outstanding[i]) {
                let t0 = first_try[i]
                    .take()
                    .expect("submitted batches have a first try");
                clock.record(t0, now);
                completed[i] += 1;
                units += 1;
            }
        }
        round_ends.push(units as usize);
        let rss_window = match cfg.scale {
            Scale::Full => RSS_UNITS,
            Scale::Small => 0,
        };
        if rss_mb.is_none() && rounds >= MODEL_ROUNDS && units >= rss_window {
            rss_mb = Some(peak_rss_mb()?);
        }
        let window_done = rss_mb.is_some() && units >= cfg.min_units();
        draining = draining || time_up(clock.wall_started(), cfg.seconds, window_done);
    }
    let finished = session.finish();
    let timed_s = clock.elapsed_s();
    let wall_s = clock.wall_elapsed_s();
    let steal_share = clock.steal_share()?;
    if let Err(e) = finished {
        check_errors.push(format!("session finish failed: {e}"));
    }
    let attempted = units + failed;

    // Serial replay on a fresh, identically configured system: the
    // oracle for bits, statistics and fault ledgers, and the source of
    // the modeled window (its per-batch schedule reports).
    let mut reference = sys();
    for (vec, bits) in server.store_log() {
        reference
            .store(vec, bits)
            .map_err(|e| format!("serve_mix replay store: {e}"))?;
    }
    let base = *reference.stats();
    let window_batches = round_ends
        .get(
            (MODEL_ROUNDS as usize)
                .min(round_ends.len())
                .saturating_sub(1),
        )
        .copied()
        .unwrap_or(0);
    let mut window = MemStats::default();
    let mut sched = SchedSums::default();
    let mut serial_replay = Span::new(cfg.trace);
    for (k, record) in server.dispatch_log().iter().enumerate() {
        match serial_replay.time(|| reference.execute_batch_serial(&record.requests)) {
            Ok(report) if k < window_batches => sched.add(&report),
            Ok(_) => {}
            Err(e) => {
                check_errors.push(format!("serial replay of batch {k} failed: {e}"));
                break;
            }
        }
        if k + 1 == window_batches {
            window = *reference.stats() - base;
        }
    }
    if let Some(e) = stats_parity(server.system().stats(), reference.stats()) {
        check_errors.push(e);
    }

    // Output checks: every tenant's outputs against the host model, and
    // every written vector against the serial replay.
    let mut load = Span::new(cfg.trace);
    for (i, tenant) in tenants.iter().enumerate() {
        for (k, (vec, mut want)) in expected(&tenant.model, completed[i])
            .into_iter()
            .enumerate()
        {
            if corrupt_expected && i == n / 2 && k == 0 {
                want[0] = !want[0];
            }
            let got = load.time(|| server.system().load(&vec));
            if got != want {
                check_errors.push(format!(
                    "tenant {i} output {k} differs from the host model after {} batches",
                    completed[i]
                ));
            }
        }
    }
    let written: BTreeMap<u64, PimBitVec> = server
        .dispatch_log()
        .iter()
        .flat_map(|d| d.requests.iter().map(|r| (r.dst.id(), r.dst.clone())))
        .collect();
    for (id, vec) in &written {
        if load.time(|| server.system().load(vec)) != reference.load(vec) {
            check_errors.push(format!("vector {id} differs from the serial replay"));
        }
    }

    let metrics = if cfg.trace {
        // One-worker session replay of the same dispatch log with one
        // sync per round, and the planner timed on every batch.
        let mut pooled = sys();
        for (vec, bits) in server.store_log() {
            pooled
                .store(vec, bits)
                .map_err(|e| format!("serve_mix pool replay store: {e}"))?;
        }
        let log = server.dispatch_log();
        let t0 = host_now();
        {
            let mut session = pooled.open_session_with_workers(1);
            let mut from = 0;
            for &end in &round_ends {
                for record in &log[from..end] {
                    session
                        .submit_batch_shared(&record.requests)
                        .map_err(|e| format!("serve_mix pool replay: {e}"))?;
                }
                session
                    .sync()
                    .map_err(|e| format!("serve_mix pool replay sync: {e}"))?;
                from = end;
            }
            session
                .close()
                .map_err(|e| format!("serve_mix pool replay close: {e}"))?;
        }
        let pool_replay_s = host_now() - t0;
        let mut plan = Span::new(true);
        for record in log {
            plan.time(|| reference.plan_batch(&record.requests));
        }
        let mut host = HostLayers {
            serve_submit_us: submit.mean_ms() * 1e3,
            serve_advance_ms: advance.mean_ms(),
            serve_rounds: rounds as f64,
            serve_queue_full: queue_full as f64,
            serve_admit_ratio: (attempts - queue_full) as f64 / attempts as f64,
            pool_replay_s,
            pool_self_s: pool_replay_s - serial_replay.secs(),
            plan_ms: plan.mean_ms(),
            plan_share: plan.secs() / timed_s,
            serial_replay_s: serial_replay.secs(),
            system_new_s: new_s,
            store_s: store.secs(),
            load_s: load.secs(),
            unattributed_s: timed_s - submit.secs() - advance.secs(),
            traced_units_per_s: units as f64 / timed_s,
            wall_units_per_s: units as f64 / wall_s,
            steal_share,
            ..HostLayers::default()
        }
        .metrics();
        host.extend(modeled_layers(&window, &sched));
        host
    } else {
        let rss_mb = rss_mb.unwrap_or_default();
        let mut m = clock.end_to_end(setup_s, timed_s, rss_mb);
        m.extend(modeled_end_to_end(&window, &sched));
        m
    };
    Ok(Outcome {
        attempted,
        failed,
        check_errors,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64) -> RunConfig {
        RunConfig {
            seed,
            seconds: 0.0,
            trace: false,
            scale: Scale::Small,
        }
    }

    #[test]
    fn small_run_passes_its_checks() {
        for seed in [1, 0xBEEF] {
            let out = run(&small(seed)).expect("run");
            assert!(out.check_errors.is_empty(), "{:?}", out.check_errors);
            assert_eq!(out.failed, 0);
            assert!(out.attempted > 0);
        }
    }

    #[test]
    fn traced_small_run_passes_its_checks() {
        let cfg = RunConfig {
            trace: true,
            ..small(3)
        };
        let out = run(&cfg).expect("run");
        assert!(out.check_errors.is_empty(), "{:?}", out.check_errors);
        assert!(out.metrics.iter().any(|m| m.name == "pool.replay_s"));
    }

    #[test]
    fn corrupted_expectation_fails_the_check() {
        let out = run_with(&small(1), true).expect("run");
        assert_eq!(out.check_errors.len(), 1, "{:?}", out.check_errors);
        assert!(out.check_errors[0].contains("host model"));
    }
}
