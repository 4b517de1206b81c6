//! `fastbit_secded`: the paper's FastBit bitmap-index app at STAR scale
//! (2^20 events, 4 attributes × 16 bins, full 2^19-bit rows) on memory
//! protected by SEC-DED with transient sense faults injected. One unit
//! is a query; queries run one at a time, and every fourth one is a
//! `run_query_filtered` pushdown.

use crate::common::{
    host_now, modeled_end_to_end, modeled_layers, peak_rss_mb, setup_median, time_up, HostLayers,
    Outcome, RunConfig, Scale, SchedSums, Span, UnitClock,
};
use pinatubo_apps::database::{BitmapIndex, Query, TableSpec, ValueColumn};
use pinatubo_core::rng::SimRng;
use pinatubo_core::PinatuboConfig;
use pinatubo_mem::{MemConfig, MemStats, ReliabilityConfig};
use pinatubo_nvm::fault::FaultModel;
use pinatubo_runtime::{MappingPolicy, PimSystem};

/// Queries per round: three plain ones, then one filtered pushdown.
const ROUND: usize = 4;
/// Queries in the fixed modeled window: one pass over the distinct
/// queries of the full-size stream.
const MODEL_QUERIES: u64 = 256;
/// Bits per value of the measure column the pushdown filters on.
const VALUE_WIDTH: u32 = 8;
/// Transient flip probability per sensed bit (single-row reads,
/// two-row OR, two-row AND).
const TRANSIENT_RATE: f64 = 1e-6;

struct Shape {
    spec: TableSpec,
    /// Distinct queries; the stream cycles through them.
    distinct: usize,
}

fn shape(scale: Scale, seed: u64) -> Shape {
    let spec = match scale {
        Scale::Full => TableSpec {
            seed,
            ..TableSpec::star_like()
        },
        Scale::Small => TableSpec {
            rows: 5000,
            attributes: 3,
            bins: 8,
            seed,
        },
    };
    let distinct = match scale {
        Scale::Full => 256,
        Scale::Small => 32,
    };
    Shape { spec, distinct }
}

fn sys(seed: u64, faults: bool) -> PimSystem {
    let mut mem = MemConfig::pcm_default();
    if faults {
        mem.fault_model = FaultModel::with_seed(seed ^ 0xFA17_5EED).with_transients(
            TRANSIENT_RATE,
            TRANSIENT_RATE,
            TRANSIENT_RATE,
        );
    }
    mem.reliability = ReliabilityConfig::protected_secded();
    PimSystem::new(mem, PinatuboConfig::default(), MappingPolicy::SubarrayFirst)
}

/// One query of the stream: filtered ones carry the pushdown threshold.
#[derive(Debug, Clone)]
struct StreamQuery {
    query: Query,
    min_value: Option<u64>,
}

/// The distinct queries of the stream. Range widths are stratified:
/// for every attribute each width `1..=bins` occurs equally often (up to
/// the remainder), so every seed gets the same mix of narrow and wide
/// ORs; positions, order and pushdown thresholds come from the seed.
fn queries(spec: &TableSpec, distinct: usize, seed: u64) -> Vec<StreamQuery> {
    let mut rng = SimRng::seed_from_u64(seed ^ 0x0DB_0DB);
    let bins = spec.bins;
    let widths: Vec<Vec<usize>> = (0..spec.attributes)
        .map(|_| {
            let mut w: Vec<usize> = (0..distinct).map(|k| 1 + k % bins).collect();
            for i in (1..w.len()).rev() {
                w.swap(i, rng.gen_index(i + 1));
            }
            w
        })
        .collect();
    (0..distinct)
        .map(|k| {
            let ranges = widths
                .iter()
                .map(|w| {
                    let lo = rng.gen_index(bins - w[k] + 1);
                    (lo as u8, (lo + w[k] - 1) as u8)
                })
                .collect();
            StreamQuery {
                query: Query { ranges },
                min_value: (k % ROUND == ROUND - 1).then(|| rng.gen_range_u64(0, 1 << VALUE_WIDTH)),
            }
        })
        .collect()
}

struct Setup {
    sys: PimSystem,
    index: BitmapIndex,
    column: ValueColumn,
    new_s: f64,
    build_s: f64,
}

fn setup(spec: TableSpec, seed: u64, faults: bool) -> Result<Setup, String> {
    let err = |e| format!("fastbit_secded setup: {e}");
    let t0 = host_now();
    let mut sys = sys(seed, faults);
    let new_s = host_now() - t0;
    let t1 = host_now();
    let index = BitmapIndex::build(spec, &mut sys).map_err(err)?;
    let values = ValueColumn::synthetic_values(spec.rows, VALUE_WIDTH, seed ^ 0x00E4_E267);
    let column = ValueColumn::build(values, VALUE_WIDTH, &mut sys).map_err(err)?;
    Ok(Setup {
        sys,
        index,
        column,
        new_s,
        build_s: host_now() - t1,
    })
}

/// Runs the stream's queries `0..count` on `s`, returning each count.
fn run_queries(s: &mut Setup, stream: &[StreamQuery], count: usize) -> Result<Vec<u64>, String> {
    (0..count)
        .map(|k| {
            let q = &stream[k % stream.len()];
            match q.min_value {
                None => s.index.run_query(&q.query, &mut s.sys),
                Some(min) => s
                    .index
                    .run_query_filtered(&q.query, &s.column, min, &mut s.sys),
            }
            .map(|o| o.count)
            .map_err(|e| format!("twin query {k}: {e}"))
        })
        .collect()
}

/// Runs the workload and checks its outputs.
///
/// # Errors
///
/// Set-up failures and an unreadable peak RSS.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    run_with(cfg, false)
}

/// [`run`], optionally corrupting one expected count before the output
/// check (the mutation test: the check must then fail).
pub(crate) fn run_with(cfg: &RunConfig, corrupt_expected: bool) -> Result<Outcome, String> {
    let shape = shape(cfg.scale, cfg.seed);
    let (mut s, setup_s) = setup_median(cfg.setup_reps(), || setup(shape.spec, cfg.seed, true))?;
    let stream = queries(&shape.spec, shape.distinct, cfg.seed);
    let mut plain = Span::new(cfg.trace);
    let mut filtered = Span::new(cfg.trace);
    // Per stream position: the count each query returned (None: failed).
    let mut counts: Vec<Option<u64>> = Vec::new();
    let window_start = *s.sys.stats();
    let mut window = MemStats::default();

    let mut clock = UnitClock::start()?;
    let target = MODEL_QUERIES.max(cfg.min_units());
    let mut rss_mb = 0.0;
    while !time_up(
        clock.wall_started(),
        cfg.seconds,
        counts.len() as u64 >= target,
    ) {
        for _ in 0..ROUND {
            let q = &stream[counts.len() % stream.len()];
            let t0 = host_now();
            let outcome = match q.min_value {
                None => plain.time(|| s.index.run_query(&q.query, &mut s.sys)),
                Some(min) => filtered.time(|| {
                    s.index
                        .run_query_filtered(&q.query, &s.column, min, &mut s.sys)
                }),
            };
            clock.record(t0, host_now());
            counts.push(outcome.ok().map(|o| o.count));
            if counts.len() as u64 == MODEL_QUERIES {
                window = *s.sys.stats() - window_start;
            }
            if counts.len() as u64 == target {
                rss_mb = peak_rss_mb()?;
            }
        }
    }
    let timed_s = clock.elapsed_s();
    let wall_s = clock.wall_elapsed_s();
    let steal_share = clock.steal_share()?;
    let attempted = counts.len() as u64;
    let failed = counts.iter().filter(|c| c.is_none()).count() as u64;

    // Scalar ground truth, once per distinct query.
    let mut truth: Vec<u64> = stream
        .iter()
        .map(|q| match q.min_value {
            None => s.index.count_reference(&q.query),
            Some(min) => s.index.count_reference_filtered(&q.query, &s.column, min),
        })
        .collect();
    if corrupt_expected {
        truth[0] += 1;
    }
    let mut check_errors: Vec<String> = counts
        .iter()
        .enumerate()
        .filter_map(|(k, &c)| {
            let want = truth[k % truth.len()];
            match c {
                Some(got) if got != want => {
                    Some(format!("query {k}: count {got}, ground truth {want}"))
                }
                _ => None,
            }
        })
        .collect();
    let rel = s.sys.stats().reliability;
    if rel.silent_wrong_bits != 0 || rel.uncorrectable_errors != 0 {
        check_errors.push(format!(
            "fault ledger: {} silent wrong bits, {} uncorrectable errors",
            rel.silent_wrong_bits, rel.uncorrectable_errors
        ));
    }

    let metrics = if cfg.trace {
        // The same queries on a fault-free twin (same protection, no
        // injected faults): what the fault/ECC path costs the host.
        let mut twin = setup(shape.spec, cfg.seed, false)?;
        let t0 = host_now();
        run_queries(&mut twin, &stream, counts.len())?;
        let twin_s = host_now() - t0;
        let mut host = HostLayers {
            query_ms: plain.mean_ms(),
            filtered_query_ms: filtered.mean_ms(),
            fault_overhead_s: plain.secs() + filtered.secs() - twin_s,
            system_new_s: s.new_s,
            database_build_s: s.build_s,
            unattributed_s: timed_s - plain.secs() - filtered.secs(),
            traced_units_per_s: attempted as f64 / timed_s,
            wall_units_per_s: attempted as f64 / wall_s,
            steal_share,
            ..HostLayers::default()
        }
        .metrics();
        host.extend(modeled_layers(&window, &SchedSums::default()));
        host
    } else {
        let mut m = clock.end_to_end(setup_s, timed_s, rss_mb);
        m.extend(modeled_end_to_end(&window, &SchedSums::serial(&window)));
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
            assert_eq!(out.attempted, MODEL_QUERIES);
        }
    }

    #[test]
    fn corrupted_expectation_fails_the_check() {
        let out = run_with(&small(1), true).expect("run");
        assert!(!out.check_errors.is_empty());
        assert!(out.check_errors.iter().all(|e| e.contains("ground truth")));
    }

    #[test]
    fn every_fourth_query_is_a_pushdown() {
        let shape = shape(Scale::Small, 9);
        let stream = queries(&shape.spec, shape.distinct, 9);
        for (k, q) in stream.iter().enumerate() {
            assert_eq!(q.min_value.is_some(), k % ROUND == ROUND - 1);
        }
    }
}
