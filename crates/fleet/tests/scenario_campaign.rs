//! Acceptance suite for scenario-scripted campaigns.
//!
//! Pins the four contracts the scenario language makes to the fleet
//! engine:
//!
//! 1. **Enum parity** — a campaign whose population is sugar for a
//!    canonical script produces the byte-identical `FleetReport` when
//!    driven by the script instead of the legacy environment enums.
//! 2. **Determinism** — a scripted campaign's report is identical across
//!    runs, worker counts 1–4, and a kill/resume boundary.
//! 3. **Goldens** — every shipped registry scenario matches its committed
//!    golden `FleetReport` byte for byte (bless with `SOLARML_BLESS=1`).
//! 4. **Incremental precision** — a one-token script edit
//!    (`p: 0.3` → `p: 0.35`) re-runs exactly the node-days whose content
//!    keys the edit moved: store misses == key-diffed affected count.

use std::path::PathBuf;

use solarml_fleet::{
    resume_campaign, run_campaign, run_campaign_cached, run_campaign_durable, CampaignCheckpoints,
    CampaignConfig, CampaignError, Dist, NodeDayStore, NodeDayTask, PopulationSpec,
    FLEET_SEED_CYCLE,
};
use solarml_scenario::{registry, Scenario};
use solarml_sim::seed::derive_seed;

/// Node count for the golden campaigns: small enough that all 14 shipped
/// scenarios stay fast in debug builds, large enough to mix buckets.
const GOLDEN_NODES: usize = 8;
const GOLDEN_SEED: u64 = 7;

/// The campaign every golden fixture was generated with. This must track
/// the CLI's default (`CampaignConfig::new`, the full-fidelity
/// representative population), because CI compares
/// `solarml-cli scenario run <name> --nodes 8 --seed 7` output byte-for-byte
/// against these fixtures. Worker and chunk counts differ from the CLI's
/// deliberately: reports are invariant to both.
fn golden_cfg(scenario: Scenario) -> CampaignConfig {
    let mut cfg = CampaignConfig::new(GOLDEN_NODES, GOLDEN_SEED);
    cfg.workers = 2;
    cfg.chunk = 4;
    cfg.population.scenario = Some(scenario);
    cfg
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/scenarios")
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "solarml-scenario-{tag}-{}-{}",
        std::process::id(),
        if cfg!(debug_assertions) { "dbg" } else { "rel" }
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn parse(src: &str) -> Scenario {
    Scenario::parse(src).expect("test script parses")
}

#[test]
fn script_path_matches_enum_path_byte_for_byte() {
    // An all-office population at a constant peak is sugar for
    // `office(peak: 520 lux)`; the two paths must not differ by a bit.
    let mut enum_cfg = CampaignConfig::smoke(24, 0xB17E);
    enum_cfg.workers = 2;
    enum_cfg.population.outdoor_share = 0.0;
    enum_cfg.population.office_share = 1.0;
    enum_cfg.population.home_share = 0.0;
    enum_cfg.population.office_peak_lux = Dist::Constant(520.0);

    let mut script_cfg = enum_cfg.clone();
    script_cfg.population.scenario = Some(parse("office(peak: 520 lux)"));

    let enum_report = run_campaign(&enum_cfg);
    let script_report = run_campaign(&script_cfg);
    assert_eq!(
        enum_report.to_json(),
        script_report.to_json(),
        "script path must reproduce the enum path byte-for-byte"
    );

    // Same for the home environment.
    let mut enum_home = enum_cfg.clone();
    enum_home.population.office_share = 0.0;
    enum_home.population.home_share = 1.0;
    enum_home.population.home_peak_lux = Dist::Constant(310.0);
    let mut script_home = enum_home.clone();
    script_home.population.scenario = Some(parse("home(peak: 310 lux)"));
    assert_eq!(
        run_campaign(&enum_home).to_json(),
        run_campaign(&script_home).to_json()
    );
}

#[test]
fn scripted_campaigns_are_worker_count_and_resume_invariant() {
    let entry = registry::find("monsoon_season").expect("shipped");
    let reference = {
        let mut cfg = golden_cfg(entry.scenario.clone());
        cfg.workers = 1;
        run_campaign(&cfg).to_json()
    };
    for workers in 2..=4 {
        let mut cfg = golden_cfg(entry.scenario.clone());
        cfg.workers = workers;
        assert_eq!(
            reference,
            run_campaign(&cfg).to_json(),
            "report drifted at {workers} workers"
        );
    }

    // Kill the campaign mid-run, resume it, and demand the same bytes.
    let dir = scratch_dir("resume");
    let cfg = golden_cfg(entry.scenario.clone());
    let mut ckpt = CampaignCheckpoints::new(&dir);
    ckpt.every_nodes = 3;
    ckpt.abort_after_nodes = Some(5);
    match run_campaign_durable(&cfg, &ckpt) {
        Err(CampaignError::Aborted { nodes_done }) => assert_eq!(nodes_done, 5),
        other => panic!("expected the harness abort, got {other:?}"),
    }
    ckpt.abort_after_nodes = None;
    let resumed = resume_campaign(&cfg, &ckpt).expect("resume");
    assert_eq!(reference, resumed.to_json(), "resume boundary moved bytes");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shipped_scenarios_match_their_golden_reports() {
    let bless = std::env::var_os("SOLARML_BLESS").is_some();
    let dir = golden_dir();
    if bless {
        std::fs::create_dir_all(&dir).expect("golden dir");
    }
    for entry in registry::all() {
        // Trailing newline matches the CLI's `--out` writer, so CI can
        // `cmp` a `scenario run` report directly against the fixture.
        let report = run_campaign(&golden_cfg(entry.scenario.clone())).to_json() + "\n";
        let path = dir.join(format!("{}.json", entry.name));
        if bless {
            #[allow(
                clippy::disallowed_methods,
                reason = "blessing rewrites a checked-in fixture; no crash-safety contract"
            )]
            std::fs::write(&path, &report).expect("write golden");
            continue;
        }
        let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden for `{}` ({e}); regenerate with \
                 SOLARML_BLESS=1 cargo test -p solarml-fleet --test scenario_campaign",
                entry.name
            )
        });
        assert_eq!(
            golden, report,
            "`{}` drifted from its golden FleetReport",
            entry.name
        );
    }
}

#[test]
fn scenario_edit_reruns_exactly_the_affected_node_days() {
    const NODES: usize = 48;
    const SEED: u64 = 0x0ED1;
    let base_spec = {
        let mut p = PopulationSpec::smoke();
        p.interaction_count = Dist::Constant(2.0);
        p.scenario = Some(parse(
            "overlay(office_table(peak: 800 lux), markov_clouds(p: 0.3))",
        ));
        p
    };
    let edited_spec = {
        let mut p = base_spec.clone();
        // The one-token edit under test.
        p.scenario = Some(parse(
            "overlay(office_table(peak: 800 lux), markov_clouds(p: 0.35))",
        ));
        p
    };

    // Key-diff the two specs: the nodes whose resolved inputs the edit
    // actually reached. markov_clouds draws its gate and factor for every
    // hour unconditionally, so a node is affected only when one of its 24
    // gate draws falls inside (0.30, 0.35] — a strict subset of the fleet.
    let affected = (0..NODES)
        .filter(|&node| {
            let seed = derive_seed(SEED, FLEET_SEED_CYCLE, node);
            NodeDayTask::resolve(&base_spec, node, seed).key()
                != NodeDayTask::resolve(&edited_spec, node, seed).key()
        })
        .count();
    assert!(affected > 0, "the edit must reach at least one node-day");
    assert!(
        affected < NODES,
        "a one-token edit must not invalidate the whole fleet"
    );

    let dir = scratch_dir("edit");
    let store = NodeDayStore::open(&dir).expect("open store");
    let mut cfg = CampaignConfig::smoke(NODES, SEED);
    cfg.workers = 2;
    cfg.population = base_spec;
    let cold = run_campaign_cached(&cfg, &store);
    assert_eq!(store.stats().misses, NODES as u64, "cold run computes all");
    assert!(cold.failed.is_empty());

    store.reset_stats();
    cfg.population = edited_spec;
    let warm = run_campaign_cached(&cfg, &store);
    let stats = store.stats();
    assert!(warm.failed.is_empty());
    assert_eq!(
        stats.misses, affected as u64,
        "store must recompute exactly the key-diffed node-days"
    );
    assert_eq!(
        stats.hits,
        (NODES - affected) as u64,
        "every unaffected node-day must replay from the store"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
