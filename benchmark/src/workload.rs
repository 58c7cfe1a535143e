//! The three workloads: their thread plan and the spec texts generated
//! from the workload seed.  The service only ever sees the generated JSON.

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's figures at paper scale (3–8 APs), many short jobs in a
    /// closed loop against a `JobQueue`, each resubmitted once as a cache hit.
    PaperBatch,
    /// One 1024-AP / 8192-client `enterprise_office` floor, static.
    Metro1024Ap,
    /// The 64-AP / 512-client floor with every client on a random-waypoint
    /// walk and antenna-aware re-association every round.
    Mobility64Ap,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperBatch,
        Workload::Metro1024Ap,
        Workload::Mobility64Ap,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperBatch => "paper_batch",
            Workload::Metro1024Ap => "metro_1024ap",
            Workload::Mobility64Ap => "mobility_64ap",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Jobs in one pass over the workload: the set the setup pass builds,
    /// the traced pass runs and the result digest covers.  The untraced
    /// closed loop cycles through it at ever-new seeds.
    pub fn cycle_len(self) -> usize {
        match self {
            Workload::PaperBatch => PAPER_EXPERIMENTS.len(),
            Workload::Metro1024Ap | Workload::Mobility64Ap => 1,
        }
    }
}

/// How a run spends its threads.  `sweep_threads × workers ≤ nproc`.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Available parallelism of the machine.
    pub nproc: usize,
    /// `JobQueue` worker threads.
    pub workers: usize,
    /// Closed-loop clients, each keeping one job outstanding.
    pub clients: usize,
    /// Sweep threads per job: `"threads"` in session specs and
    /// `MIDAS_THREADS` for the direct runners.
    pub sweep_threads: usize,
}

impl Plan {
    /// The untraced run: `paper_batch` keeps `nproc` single-threaded jobs
    /// in flight; the single-job workloads run one job at a time with
    /// `nproc` sweep threads.
    pub fn untraced(workload: Workload, nproc: usize) -> Plan {
        match workload {
            Workload::PaperBatch => Plan {
                nproc,
                workers: nproc,
                clients: nproc,
                sweep_threads: 1,
            },
            Workload::Metro1024Ap => Plan {
                nproc,
                workers: 1,
                clients: 1,
                sweep_threads: nproc,
            },
            Workload::Mobility64Ap => Plan {
                nproc,
                workers: 1,
                clients: 1,
                sweep_threads: nproc,
            },
        }
    }

    /// The traced run is serial (one worker, one client, one sweep
    /// thread), so spans nest and self times add up to the wall time.
    pub fn traced(nproc: usize) -> Plan {
        Plan {
            nproc,
            workers: 1,
            clients: 1,
            sweep_threads: 1,
        }
    }

    /// The start-up assertion: never more compute threads than CPUs.
    pub fn check(&self) -> Result<(), String> {
        if self.sweep_threads * self.workers > self.nproc {
            return Err(format!(
                "sweep threads ({}) x queue workers ({}) exceeds nproc ({})",
                self.sweep_threads, self.workers, self.nproc
            ));
        }
        Ok(())
    }
}

/// One `paper_batch` cycle: every paper figure at the library's bench
/// scale, each job at its own seed.  The session-driven kinds appear three
/// times, so they carry most of the cycle's compute and the median job is
/// a compute-bound Fig. 15 run: sub-10 ms jobs are dominated by file-system
/// and thread-wakeup latency, which drifts by tens of percent from minute
/// to minute on a shared VM.  Fig. 13, the slowest kind by far, appears
/// twice (2 of 18 jobs), so the p95 job falls inside its cluster rather
/// than on the gap below it.
const PAPER_EXPERIMENTS: [&str; 18] = [
    r#"{"kind":"fig08_09_capacity","environment":"office_a","antennas":4,"topologies":60}"#,
    r#"{"kind":"fig08_09_capacity","environment":"office_b","antennas":4,"topologies":60}"#,
    r#"{"kind":"fig10_smart_precoding","topologies":60}"#,
    r#"{"kind":"fig11_optimal_comparison","topologies":20,"stale_csi":false}"#,
    r#"{"kind":"fig12_simultaneous_tx","topologies":30}"#,
    FIG13,
    r#"{"kind":"fig14_packet_tagging","topologies":60}"#,
    r#"{"kind":"sec534_hidden_terminals","deployments":10}"#,
    FIG15,
    FIG16_GRAPH,
    FIG16_PHYSICAL,
    FIG15,
    FIG16_GRAPH,
    FIG16_PHYSICAL,
    FIG13,
    FIG15,
    FIG16_GRAPH,
    FIG16_PHYSICAL,
];

const FIG13: &str = r#"{"kind":"fig13_deadzone","deployments":10}"#;
const FIG15: &str = r#"{"kind":"fig15_three_ap_end_to_end","topologies":30,"rounds":15,"contention":{"model":"graph"}}"#;
const FIG16_GRAPH: &str = r#"{"kind":"fig16_eight_ap_simulation","topologies":15,"rounds":10,"contention":{"model":"graph"}}"#;
const FIG16_PHYSICAL: &str = r#"{"kind":"fig16_eight_ap_simulation","topologies":15,"rounds":10,"contention":{"model":"physical","cs_threshold_dbm":-86.0,"capture_margin_db":10.0,"sensing_sigma_db":3.0}}"#;

/// `DynamicsSpec::roaming_walk(1.4)` as spec JSON.
const ROAMING_WALK: &str = r#"{"mobility":{"model":"random_waypoint","speed_mps":1.4,"pause_rounds":0},"mobile_fraction":1.0,"reassociation":{"policy":"antenna_aware","hysteresis_db":3.0},"period_rounds":1}"#;

/// The spec text of job `index` at workload seed `seed`.  `nproc` sizes
/// the mobility floor's topology count (a multiple of the trial threads of
/// the untraced run); `threads` is the sweep-thread pin of this run, which
/// does not enter the cache key, so traced and untraced runs compute the
/// same results.
pub fn spec_text(
    workload: Workload,
    seed: u64,
    index: usize,
    nproc: usize,
    threads: usize,
) -> String {
    let job_seed = mix_seed(seed, index as u64);
    let session_knobs =
        format!(r#""engine":"counter","traffic":{{"model":"full_buffer"}},"threads":{threads}"#);
    match workload {
        Workload::PaperBatch => {
            let experiment = PAPER_EXPERIMENTS[index % PAPER_EXPERIMENTS.len()];
            if experiment.contains(r#""rounds""#) {
                format!(r#"{{"experiment":{experiment},"seed":{job_seed},{session_knobs}}}"#)
            } else {
                format!(r#"{{"experiment":{experiment},"seed":{job_seed}}}"#)
            }
        }
        Workload::Metro1024Ap => format!(
            r#"{{"experiment":{{"kind":"enterprise_scaling","scenario":"enterprise_office","aps":1024,"topologies":1,"rounds":10}},"seed":{job_seed},{session_knobs}}}"#
        ),
        Workload::Mobility64Ap => format!(
            r#"{{"experiment":{{"kind":"enterprise_scaling","scenario":"enterprise_office","aps":64,"topologies":{nproc},"rounds":20}},"seed":{job_seed},{session_knobs},"dynamics":{ROAMING_WALK}}}"#
        ),
    }
}

/// A per-job seed: splitmix64 of the workload seed and the job index, kept
/// below 2^48 so it is exact in any JSON reader.
fn mix_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) & ((1 << 48) - 1)
}
