//! `ukernel16`: the shared 16-bit µ-kernel (add, sub, min, max, cmp_ge,
//! cmp_lt over one operand pair) on full 2^19-lane rows. One unit is a
//! kernel job: `microcode::compile` → `execute_batch_with_workers` (one
//! worker) → `CompiledBatch::release`. No faults are injected.

use crate::common::{
    host_now, modeled_end_to_end, modeled_layers, peak_rss_mb, setup_median, time_up, HostLayers,
    Outcome, RunConfig, Scale, SchedSums, Span, UnitClock,
};
use pinatubo_core::rng::SimRng;
use pinatubo_core::PinatuboConfig;
use pinatubo_mem::{MemConfig, MemStats};
use pinatubo_runtime::microcode::{self, CompileOptions, MicroProgram, TransposedVec};
use pinatubo_runtime::{MappingPolicy, PimBitVec, PimSystem};

const WIDTH: u32 = 16;
const MASK: u64 = (1 << WIDTH) - 1;
/// Units in the fixed modeled window (the modeled metrics cover these).
const MODEL_UNITS: u64 = 4;

fn lanes(scale: Scale) -> u64 {
    match scale {
        Scale::Full => 1 << 19,
        // Not a multiple of 64, so the row tail is exercised.
        Scale::Small => 4097,
    }
}

/// Operand lanes with the wrap/borrow corners pinned at the front.
fn operands(seed: u64, lanes: u64) -> (Vec<u64>, Vec<u64>) {
    let mut rng = SimRng::seed_from_u64(seed ^ 0x16B1_7000);
    let mut draw = || {
        (0..lanes)
            .map(|_| rng.next_u64() & MASK)
            .collect::<Vec<u64>>()
    };
    let (mut a, mut b) = (draw(), draw());
    let pins = [
        (0, 0),
        (MASK, 1),
        (0, MASK),
        (MASK, MASK),
        (1, 0),
        (0x8000, 0x7FFF),
    ];
    for (i, (pa, pb)) in pins.into_iter().enumerate().take(lanes as usize) {
        a[i] = pa;
        b[i] = pb;
    }
    (a, b)
}

/// The kernel's outputs, as loaded from memory or as computed on the
/// host with wrapping 16-bit arithmetic.
#[derive(Debug, Clone, PartialEq)]
struct Lanes {
    add: Vec<u64>,
    sub: Vec<u64>,
    min: Vec<u64>,
    max: Vec<u64>,
    ge: Vec<bool>,
    lt: Vec<bool>,
}

fn host_model(a: &[u64], b: &[u64]) -> Lanes {
    let zip = || a.iter().zip(b);
    Lanes {
        add: zip().map(|(&x, &y)| x.wrapping_add(y) & MASK).collect(),
        sub: zip().map(|(&x, &y)| x.wrapping_sub(y) & MASK).collect(),
        min: zip().map(|(&x, &y)| x.min(y)).collect(),
        max: zip().map(|(&x, &y)| x.max(y)).collect(),
        ge: zip().map(|(&x, &y)| x >= y).collect(),
        lt: zip().map(|(&x, &y)| x < y).collect(),
    }
}

fn first_diff<T: PartialEq + std::fmt::Debug>(
    name: &str,
    want: &[T],
    got: &[T],
    errors: &mut Vec<String>,
) {
    if want.len() != got.len() {
        errors.push(format!(
            "{name}: {} lanes, expected {}",
            got.len(),
            want.len()
        ));
    } else if let Some(i) = (0..want.len()).find(|&i| want[i] != got[i]) {
        errors.push(format!(
            "{name}: lane {i} is {:?}, expected {:?}",
            got[i], want[i]
        ));
    }
}

fn verify(want: &Lanes, got: &Lanes) -> Vec<String> {
    let mut errors = Vec::new();
    first_diff("add", &want.add, &got.add, &mut errors);
    first_diff("sub", &want.sub, &got.sub, &mut errors);
    first_diff("min", &want.min, &got.min, &mut errors);
    first_diff("max", &want.max, &got.max, &mut errors);
    first_diff("cmp_ge", &want.ge, &got.ge, &mut errors);
    first_diff("cmp_lt", &want.lt, &got.lt, &mut errors);
    errors
}

struct Setup {
    sys: PimSystem,
    a: Vec<u64>,
    b: Vec<u64>,
    programs: Vec<MicroProgram>,
    outs: [TransposedVec; 4],
    masks: [PimBitVec; 2],
    store: Span,
    new_s: f64,
}

fn setup(cfg: &RunConfig) -> Result<Setup, String> {
    let n = lanes(cfg.scale);
    let t0 = host_now();
    let mut sys = PimSystem::new(
        MemConfig::pcm_default(),
        PinatuboConfig::default(),
        MappingPolicy::SubarrayFirst,
    );
    let new_s = host_now() - t0;
    let (a, b) = operands(cfg.seed, n);
    let err = |e| format!("ukernel16 setup: {e}");
    let va = sys.alloc_transposed(n, WIDTH).map_err(err)?;
    let vb = sys.alloc_transposed(n, WIDTH).map_err(err)?;
    let mut store = Span::new(cfg.trace);
    store.time(|| sys.store_lanes(&va, &a)).map_err(err)?;
    store.time(|| sys.store_lanes(&vb, &b)).map_err(err)?;
    let mut out = || sys.alloc_transposed(n, WIDTH).map_err(err);
    let outs = [out()?, out()?, out()?, out()?];
    let masks = [sys.alloc(n).map_err(err)?, sys.alloc(n).map_err(err)?];
    let programs = vec![
        MicroProgram::add(&va, &vb, &outs[0]),
        MicroProgram::sub(&va, &vb, &outs[1]),
        MicroProgram::min(&va, &vb, &outs[2]),
        MicroProgram::max(&va, &vb, &outs[3]),
        MicroProgram::cmp_ge(&va, &vb, &masks[0]),
        MicroProgram::cmp_lt(&va, &vb, &masks[1]),
    ];
    Ok(Setup {
        sys,
        a,
        b,
        programs,
        outs,
        masks,
        store,
        new_s,
    })
}

/// Runs the workload and checks its outputs.
///
/// # Errors
///
/// Set-up failures (allocation, stores) and an unreadable peak RSS.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    run_with(cfg, false)
}

/// [`run`], optionally corrupting one expected value before the output
/// check (the mutation test: the check must then fail).
pub(crate) fn run_with(cfg: &RunConfig, corrupt_expected: bool) -> Result<Outcome, String> {
    let (mut s, setup_s) = setup_median(cfg.setup_reps(), || setup(cfg))?;
    let mut compile = Span::new(cfg.trace);
    let mut plan = Span::new(cfg.trace);
    let mut execute = Span::new(cfg.trace);
    let mut release = Span::new(cfg.trace);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let window_start = *s.sys.stats();
    let mut window = MemStats::default();
    let mut sched = SchedSums::default();
    let target = MODEL_UNITS.max(cfg.min_units());
    let mut rss_mb = 0.0;

    let mut clock = UnitClock::start()?;
    while !time_up(clock.wall_started(), cfg.seconds, attempted >= target) {
        let t0 = host_now();
        attempted += 1;
        let batch = match compile
            .time(|| microcode::compile(&s.programs, CompileOptions::optimized(), &mut s.sys))
        {
            Ok(batch) => batch,
            Err(_) => {
                failed += 1;
                continue;
            }
        };
        if cfg.trace {
            // The executor plans again internally; this probe times that
            // planning from outside and is subtracted from `execute`.
            plan.time(|| s.sys.plan_batch(batch.requests()));
        }
        let report = execute.time(|| s.sys.execute_batch_with_workers(batch.requests(), 1));
        release.time(|| batch.release(&mut s.sys));
        clock.record(t0, host_now());
        match report {
            Ok(report) if attempted <= MODEL_UNITS => sched.add(&report),
            Ok(_) => {}
            Err(_) => failed += 1,
        }
        if attempted == MODEL_UNITS {
            window = *s.sys.stats() - window_start;
        }
        if attempted == target {
            rss_mb = peak_rss_mb()?;
        }
    }
    let timed_s = clock.elapsed_s();
    let wall_s = clock.wall_elapsed_s();
    let steal_share = clock.steal_share()?;

    let mut want = host_model(&s.a, &s.b);
    if corrupt_expected {
        let mid = want.sub.len() / 2;
        want.sub[mid] ^= 1;
    }
    let mut load = Span::new(cfg.trace);
    let got = load.time(|| Lanes {
        add: s.sys.load_lanes(&s.outs[0]),
        sub: s.sys.load_lanes(&s.outs[1]),
        min: s.sys.load_lanes(&s.outs[2]),
        max: s.sys.load_lanes(&s.outs[3]),
        ge: s.sys.load(&s.masks[0]),
        lt: s.sys.load(&s.masks[1]),
    });
    let check_errors = verify(&want, &got);

    let metrics = if cfg.trace {
        let attributed = compile.secs() + plan.secs() + execute.secs() + release.secs();
        let unit_host = compile.secs() + execute.secs() + release.secs();
        let mut host = HostLayers {
            plan_ms: plan.mean_ms(),
            plan_share: plan.secs() / unit_host,
            compile_ms: compile.mean_ms(),
            execute_ms: execute.mean_ms() - plan.mean_ms(),
            system_new_s: s.new_s,
            store_s: s.store.secs(),
            load_s: load.secs(),
            unattributed_s: timed_s - attributed,
            traced_units_per_s: attempted as f64 / timed_s,
            wall_units_per_s: attempted as f64 / wall_s,
            steal_share,
            ..HostLayers::default()
        }
        .metrics();
        host.extend(modeled_layers(&window, &sched));
        host
    } else {
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
            assert_eq!(out.attempted, MODEL_UNITS);
        }
    }

    #[test]
    fn corrupted_expectation_fails_the_check() {
        let out = run_with(&small(1), true).expect("run");
        assert_eq!(out.check_errors.len(), 1, "{:?}", out.check_errors);
        assert!(out.check_errors[0].starts_with("sub:"));
    }

    #[test]
    fn host_model_wraps_at_16_bits() {
        let m = host_model(&[MASK, 0], &[1, 1]);
        assert_eq!(m.add, vec![0, 1]);
        assert_eq!(m.sub, vec![MASK - 1, MASK]);
        assert_eq!(m.ge, vec![true, false]);
        assert_eq!(m.lt, vec![false, true]);
    }
}
