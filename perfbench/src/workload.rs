//! Workload generators. Every op list is a pure function of `(workload, seed)`.
//!
//! Each workload is a fixed mix of op *templates*: a template pins the
//! structure of one spec (shape, windows, slots, axis lengths, report mode),
//! and the seed draws every value inside it (loads, periods, ALOHA `p`, RNG
//! seeds, retry budgets). Holding the mix fixed is what makes the figures of
//! two seeds comparable: the op-time distribution is a mixture of
//! [`CYCLE`] equally weighted templates, and with 15 of them both the median
//! (7.5 templates) and the 90th percentile (13.5 templates) fall in the middle
//! of one template's mass rather than on a boundary between two.

use std::fmt::Write as _;

/// Templates per cycle; the closed loop only stops at cycle boundaries, so
/// every run weights every template equally.
pub const CYCLE: usize = 15;

/// Distinct sweep specs per workload: three cycles' worth of draws, issued
/// round-robin. Each is verified against its reference once per run.
const SWEEP_DISTINCT: usize = 3 * CYCLE;

/// New search specs per session cycle; the remaining slots repeat an earlier
/// spec of the session.
const SEARCH_NEW_PER_CYCLE: usize = 12;

/// Distinct search specs in a session's pool. More than the 64-entry search
/// tier holds, so a pool entry issued again after wrapping has been evicted
/// by a tier reset in between and runs cold.
const SEARCH_POOL: usize = 96;

/// What one op submits.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OpKind {
    /// A sweep spec, through `SweepSpec::parse_spec` and `run_sweep`.
    Sweep,
    /// A search spec, through `SearchSpec::parse_spec` and `run_search`.
    Search,
}

/// One op: a spec as JSON text.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Op {
    /// Which engine entry point serves the spec.
    pub kind: OpKind,
    /// The spec document.
    pub spec: String,
}

/// The benchmark's workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// Tiling-MAC sweeps over mixed shapes, fresh caches per op.
    TilingCold,
    /// Slotted-ALOHA lane sweeps, mostly streaming, fresh caches per op.
    AlohaLanes,
    /// Schedule searches sharing one set of caches across the session.
    SearchSession,
}

/// Every workload, in the order `--workload all` runs them.
pub const WORKLOADS: [Workload; 3] = [
    Workload::TilingCold,
    Workload::AlohaLanes,
    Workload::SearchSession,
];

impl Workload {
    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TilingCold => "tiling-cold",
            Workload::AlohaLanes => "aloha-lanes",
            Workload::SearchSession => "search-session",
        }
    }

    /// Whether all ops of a run share one `SweepCaches` (otherwise each op
    /// gets fresh caches, as every `engine-cli` invocation does).
    pub fn shares_caches(self) -> bool {
        self == Workload::SearchSession
    }

    /// Engine workers the closed loop and its traced pass run at: `Some(1)`
    /// pins one worker, `None` keeps the engine's default (`nproc`).
    ///
    /// `tiling-cold` and `search-session` spend most of an op in compile
    /// tiers and searches that run on one thread. On a shared 2-vCPU host
    /// their speed at 2 workers hung on whether the second vCPU was free
    /// (1.5× slower than at 1 worker in one spell, up to 1.4× faster in
    /// another), and their figures spread 2–3× wider from run to run. At
    /// `nproc` they measured the host's scheduler more than the engine.
    /// `aloha-lanes` keeps `nproc`, because parallel band dispatch is what it
    /// measures, and the known band-split panic shows only with more than
    /// one worker.
    pub fn workers(self) -> Option<usize> {
        match self {
            Workload::TilingCold | Workload::SearchSession => Some(1),
            Workload::AlohaLanes => None,
        }
    }

    /// The distinct specs of this workload under `seed`.
    pub fn generate(self, seed: u64) -> Vec<Op> {
        match self {
            Workload::TilingCold => (0..SWEEP_DISTINCT)
                .map(|i| tiling_op(i % CYCLE, &mut Draw::new(seed, i, CYCLE, SWEEP_DISTINCT)))
                .collect(),
            Workload::AlohaLanes => (0..SWEEP_DISTINCT)
                .map(|i| aloha_op(i % CYCLE, &mut Draw::new(seed, i, CYCLE, SWEEP_DISTINCT)))
                .collect(),
            Workload::SearchSession => (0..SEARCH_POOL)
                .map(|i| {
                    let mut draw = Draw::new(seed, i, SEARCH_NEW_PER_CYCLE, SEARCH_POOL);
                    search_op(i % SEARCH_NEW_PER_CYCLE, &mut draw)
                })
                .collect(),
        }
    }

    /// The distinct spec issued at closed-loop position `position`.
    ///
    /// Sweep workloads issue their specs round-robin. A search session
    /// issues [`SEARCH_NEW_PER_CYCLE`] pool entries per cycle in pool order,
    /// then repeats three specs of the previous cycle (of the first cycle,
    /// in cycle 0), which the search tier answers unless a tier reset came
    /// in between.
    pub fn distinct_at(self, position: usize) -> usize {
        match self {
            Workload::TilingCold | Workload::AlohaLanes => position % SWEEP_DISTINCT,
            Workload::SearchSession => {
                let (cycle, slot) = (position / CYCLE, position % CYCLE);
                let fresh = if slot < SEARCH_NEW_PER_CYCLE {
                    cycle * SEARCH_NEW_PER_CYCLE + slot
                } else {
                    cycle.saturating_sub(1) * SEARCH_NEW_PER_CYCLE
                        + (slot - SEARCH_NEW_PER_CYCLE) * 4
                };
                fresh % SEARCH_POOL
            }
        }
    }

    /// Closed-loop positions after which the op sequence repeats: position
    /// `p` and `p + period` issue the same spec. In a search session the
    /// spec also meets the same stage of the pool's cycle through the
    /// shared caches (from the second period on).
    pub fn period(self) -> usize {
        match self {
            Workload::TilingCold | Workload::AlohaLanes => SWEEP_DISTINCT,
            Workload::SearchSession => SEARCH_POOL / SEARCH_NEW_PER_CYCLE * CYCLE,
        }
    }

    /// How many distinct specs positions `0..positions` touch: they are
    /// always a prefix of the list [`Workload::generate`] returns.
    pub fn distinct_used(self, positions: usize) -> usize {
        (0..positions)
            .map(|p| self.distinct_at(p) + 1)
            .max()
            .unwrap_or(0)
    }
}

/// The draws of one distinct spec: SplitMix64 over `(seed, spec index)`, so
/// the inputs depend on nothing but the arguments, plus the spec's stratum.
///
/// The `k`-th spec of a template draws its cost-relevant values (loads,
/// periods, ALOHA `p`) from the `k`-th of equal slices of each range, so
/// every seed covers every range evenly and the cost mix stays the same
/// while the values change.
struct Draw {
    state: u64,
    stratum: u64,
    strata: u64,
}

impl Draw {
    /// The draws of spec `index` of `specs`, cycling over `templates`.
    fn new(seed: u64, index: usize, templates: usize, specs: usize) -> Draw {
        let mut draw = Draw {
            state: seed ^ (index as u64).wrapping_mul(0xD1B5_4A32_D192_ED03),
            stratum: (index / templates) as u64,
            strata: (specs / templates) as u64,
        };
        draw.next();
        draw
    }

    /// The next 64 random bits.
    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform integer in `lo..=hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }

    /// A uniform value in this spec's slice of `[lo, hi)` (slice `shift`
    /// places further on, wrapping), rounded to four decimals so the spec
    /// text states it exactly.
    fn unit(&mut self, lo: f64, hi: f64, shift: u64) -> f64 {
        let width = (hi - lo) / self.strata as f64;
        let start = lo + width * ((self.stratum + shift) % self.strata) as f64;
        let x = start + (self.next() >> 11) as f64 / (1u64 << 53) as f64 * width;
        (x * 1e4).round() / 1e4
    }

    /// `n` distinct integers from this spec's slice of `lo..=hi`, ascending.
    fn sliced(&mut self, n: usize, lo: u64, hi: u64) -> Vec<u64> {
        let span = hi - lo + 1;
        let start = lo + span * self.stratum / self.strata;
        let end = lo + span * (self.stratum + 1) / self.strata - 1;
        self.distinct(n, start, end)
    }

    /// `n` distinct integers drawn from `lo..=hi`, ascending.
    fn distinct(&mut self, n: usize, lo: u64, hi: u64) -> Vec<u64> {
        let mut out: Vec<u64> = Vec::with_capacity(n);
        while out.len() < n {
            let v = self.range(lo, hi);
            if !out.contains(&v) {
                out.push(v);
            }
        }
        out.sort_unstable();
        out
    }
}

const MOORE: &str = r#"{"kind":"ball","dim":2,"radius":1,"metric":"chebyshev"}"#;
const PLUS: &str = r#"{"kind":"ball","dim":2,"radius":1,"metric":"manhattan"}"#;
const MANHATTAN2: &str = r#"{"kind":"ball","dim":2,"radius":2,"metric":"manhattan"}"#;
const HEX7: &str = r#"{"kind":"hex7"}"#;
const ANTENNA: &str = r#"{"kind":"antenna"}"#;
const CHEBYSHEV3: &str = r#"{"kind":"ball","dim":3,"radius":1,"metric":"chebyshev"}"#;

/// The traffic family of a template.
#[derive(Clone, Copy)]
enum Traffic {
    Bernoulli,
    Periodic,
    Staggered,
}

/// The fixed structure of one sweep template.
struct SweepTemplate {
    shape: &'static str,
    windows: &'static [u64],
    slots: u64,
    traffic: Traffic,
    traffic_values: usize,
    seeds: usize,
    retries: usize,
    /// `None` for full mode, else the streaming `group_by` axes.
    group_by: Option<&'static [&'static str]>,
}

/// `tiling-cold`: six shapes, full and streaming, 12 Bernoulli templates of
/// 15 and three periodic/staggered ones. Columns: shape, windows, slots,
/// traffic, traffic values, seeds, retry budgets, streaming `group_by`
/// (`None`: full mode).
#[rustfmt::skip]
const TILING: [SweepTemplate; CYCLE] = [
    sweep(MOORE,      &[48],     512,  Traffic::Bernoulli, 2, 4, 2, None),
    sweep(PLUS,       &[64],     256,  Traffic::Bernoulli, 2, 4, 3, Some(&["load", "retries"])),
    sweep(MANHATTAN2, &[40],     512,  Traffic::Bernoulli, 1, 6, 2, None),
    sweep(HEX7,       &[32, 48], 512,  Traffic::Bernoulli, 2, 3, 2, Some(&["window", "load"])),
    sweep(ANTENNA,    &[56],     384,  Traffic::Bernoulli, 2, 4, 2, None),
    sweep(CHEBYSHEV3, &[12],     256,  Traffic::Bernoulli, 2, 3, 2, Some(&["load"])),
    sweep(MOORE,      &[64],     512,  Traffic::Periodic,  2, 4, 2, None),
    sweep(PLUS,       &[48],     512,  Traffic::Bernoulli, 3, 4, 2, None),
    sweep(MANHATTAN2, &[56],     256,  Traffic::Bernoulli, 2, 4, 1, Some(&["load"])),
    sweep(HEX7,       &[64],     384,  Traffic::Staggered, 2, 4, 3, Some(&["traffic", "retries"])),
    sweep(ANTENNA,    &[40],     512,  Traffic::Bernoulli, 2, 5, 2, Some(&["seed"])),
    sweep(CHEBYSHEV3, &[10, 14], 256,  Traffic::Bernoulli, 1, 4, 2, None),
    sweep(MOORE,      &[32],     1024, Traffic::Bernoulli, 2, 4, 3, Some(&["retries"])),
    sweep(MANHATTAN2, &[48],     512,  Traffic::Staggered, 2, 4, 2, None),
    sweep(PLUS,       &[40, 56], 384,  Traffic::Bernoulli, 2, 3, 2, None),
];

/// `aloha-lanes`: seed counts log-spread over 2–256, mostly streaming and
/// grouped by traffic × retries, Bernoulli and staggered traffic. Columns as
/// for [`TILING`].
#[rustfmt::skip]
const ALOHA: [SweepTemplate; CYCLE] = [
    sweep(MOORE, &[16], 256, Traffic::Bernoulli, 3, 2,   4, Some(&["traffic", "retries"])),
    sweep(MOORE, &[16], 256, Traffic::Staggered, 2, 4,   2, Some(&["traffic", "retries"])),
    sweep(MOORE, &[12], 256, Traffic::Bernoulli, 3, 8,   3, Some(&["traffic", "retries"])),
    sweep(MOORE, &[12], 256, Traffic::Bernoulli, 2, 16,  5, Some(&["traffic", "retries"])),
    sweep(MOORE, &[12], 256, Traffic::Staggered, 2, 32,  3, None),
    sweep(MOORE, &[12], 192, Traffic::Bernoulli, 1, 64,  4, Some(&["traffic", "retries"])),
    sweep(MOORE, &[8],  256, Traffic::Bernoulli, 2, 128, 2, Some(&["traffic", "retries"])),
    sweep(MOORE, &[8],  192, Traffic::Staggered, 1, 256, 2, Some(&["traffic", "retries"])),
    sweep(MOORE, &[16], 256, Traffic::Bernoulli, 2, 3,   3, Some(&["traffic", "retries"])),
    sweep(MOORE, &[16], 192, Traffic::Staggered, 3, 6,   2, None),
    sweep(MOORE, &[12], 256, Traffic::Bernoulli, 2, 12,  4, Some(&["traffic", "retries"])),
    sweep(MOORE, &[12], 192, Traffic::Staggered, 3, 24,  4, Some(&["traffic", "retries"])),
    sweep(MOORE, &[12], 128, Traffic::Bernoulli, 2, 48,  2, Some(&["traffic", "retries"])),
    sweep(MOORE, &[8],  192, Traffic::Bernoulli, 2, 96,  3, Some(&["traffic", "retries"])),
    sweep(MOORE, &[8],  128, Traffic::Staggered, 1, 192, 3, None),
];

#[allow(clippy::too_many_arguments)]
const fn sweep(
    shape: &'static str,
    windows: &'static [u64],
    slots: u64,
    traffic: Traffic,
    traffic_values: usize,
    seeds: usize,
    retries: usize,
    group_by: Option<&'static [&'static str]>,
) -> SweepTemplate {
    SweepTemplate {
        shape,
        windows,
        slots,
        traffic,
        traffic_values,
        seeds,
        retries,
        group_by,
    }
}

fn join<T: ToString>(items: &[T]) -> String {
    items
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

/// The `"traffic"` object of a template, with values drawn from `rng`.
fn traffic_json(traffic: Traffic, values: usize, rng: &mut Draw) -> String {
    match traffic {
        Traffic::Bernoulli => {
            let mut loads: Vec<f64> = Vec::with_capacity(values);
            while loads.len() < values {
                let load = rng.unit(0.01, 0.12, 0);
                if !loads.contains(&load) {
                    loads.push(load);
                }
            }
            format!(r#"{{"kind":"bernoulli","loads":[{}]}}"#, join(&loads))
        }
        Traffic::Periodic | Traffic::Staggered => {
            let kind = if matches!(traffic, Traffic::Periodic) {
                "periodic"
            } else {
                "staggered"
            };
            let periods = rng.sliced(values, 4, 32);
            format!(r#"{{"kind":"{kind}","periods":[{}]}}"#, join(&periods))
        }
    }
}

fn sweep_spec(name: &str, t: &SweepTemplate, mac: &str, rng: &mut Draw) -> String {
    let traffic = traffic_json(t.traffic, t.traffic_values, rng);
    let base = rng.range(1, 1 << 31);
    let seeds: Vec<u64> = (0..t.seeds as u64).map(|s| base + s).collect();
    let retries = rng.distinct(t.retries, 0, 8);
    let mut spec = format!(
        r#"{{"name":"{name}","shape":{},"windows":[{}],"slots":{},"mac":{mac},"traffic":{traffic},"seeds":[{}],"retries":[{}]"#,
        t.shape,
        join(t.windows),
        t.slots,
        join(&seeds),
        join(&retries),
    );
    if let Some(axes) = t.group_by {
        let axes: Vec<String> = axes.iter().map(|a| format!("\"{a}\"")).collect();
        write!(
            spec,
            r#","mode":"streaming","group_by":[{}]"#,
            axes.join(",")
        )
        .expect("writing to a String cannot fail");
    }
    spec.push('}');
    spec
}

fn tiling_op(template: usize, rng: &mut Draw) -> Op {
    let name = format!("tiling-cold-{template}");
    Op {
        kind: OpKind::Sweep,
        spec: sweep_spec(&name, &TILING[template], r#"{"kind":"tiling"}"#, rng),
    }
}

fn aloha_op(template: usize, rng: &mut Draw) -> Op {
    let name = format!("aloha-lanes-{template}");
    let mac = format!(r#"{{"kind":"aloha","p":{}}}"#, rng.unit(0.08, 0.3, 1));
    Op {
        kind: OpKind::Sweep,
        spec: sweep_spec(&name, &ALOHA[template], &mac, rng),
    }
}

/// `search-session`: four shapes × three windows, one template each, with
/// objectives, traffic and grid values varied.
fn search_op(template: usize, rng: &mut Draw) -> Op {
    const SHAPES: [&str; 4] = [MOORE, PLUS, HEX7, ANTENNA];
    const WINDOWS: [u64; 3] = [8, 12, 16];
    const OBJECTIVES: [&str; 6] = [
        "latency_p99",
        "delivery",
        "energy",
        "latency_p50",
        "period",
        "latency_p90",
    ];
    let shape = SHAPES[template % 4];
    let window = WINDOWS[template / 4];
    let objective = OBJECTIVES[template % OBJECTIVES.len()];
    let traffic = if template % 4 == 3 {
        traffic_json(Traffic::Staggered, 2, rng)
    } else {
        traffic_json(Traffic::Bernoulli, 1 + template % 2, rng)
    };
    let base = rng.range(1, 1 << 31);
    let seeds: Vec<u64> = (0..4).map(|s| base + s).collect();
    let retries = rng.distinct(1 + template % 2, 0, 4);
    Op {
        kind: OpKind::Search,
        spec: format!(
            r#"{{"name":"search-session-{template}","shape":{shape},"window":{window},"slots":256,"traffic":{traffic},"seeds":[{}],"retries":[{}],"objective":"{objective}"}}"#,
            join(&seeds),
            join(&retries),
        ),
    }
}
