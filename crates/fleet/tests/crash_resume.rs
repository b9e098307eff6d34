//! The crash-safety acceptance suite: a killed campaign resumes to the
//! byte-identical report, at any kill point, any worker count, and through
//! every corruption the recovery path claims to survive.
//!
//! Two kill mechanisms are exercised:
//!
//! * the deterministic `abort_after_nodes` harness hook, which clips a
//!   wave so the abort lands on an *exact* (even chunk-misaligned) node
//!   count — this sweeps many kill points cheaply in-process;
//! * one real `SIGKILL` delivered to a child process mid-campaign, the
//!   thing the hook is a stand-in for.
//!
//! Like `determinism.rs`, sizes scale with the build profile so `cargo
//! test` stays fast while the release suite (and CI) runs a larger sweep.

use std::path::{Path, PathBuf};

use solarml_fleet::{
    cached_node, campaign_fingerprint, load_latest, resume_campaign, resume_campaign_verbose,
    run_campaign, run_campaign_cached, run_campaign_durable, run_campaign_durable_with,
    simulate_node, CampaignCheckpoints, CampaignConfig, CampaignError, CheckpointError,
    FleetReport, NodeDayStore,
};

const SEED: u64 = 0xC4A5_4ED0;

/// Campaign size for the kill-point sweep, profile-scaled.
const N: usize = if cfg!(debug_assertions) { 40 } else { 160 };

/// Child-process campaign size for the real-SIGKILL test.
const SIGKILL_N: usize = if cfg!(debug_assertions) { 48 } else { 256 };

/// Env var carrying the checkpoint dir into the re-exec'd child.
const CRASH_CHILD_ENV: &str = "SOLARML_FLEET_CRASH_CHILD_DIR";

/// A unique scratch directory under the target-adjacent temp root.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "solarml-crash-{tag}-{}-{}",
        std::process::id(),
        if cfg!(debug_assertions) { "dbg" } else { "rel" }
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn sweep_cfg() -> CampaignConfig {
    let mut cfg = CampaignConfig::smoke(N, SEED);
    cfg.chunk = 3; // deliberately misaligned with every kill point below
    cfg.workers = 1;
    cfg
}

fn checkpoints(dir: &Path) -> CampaignCheckpoints {
    let mut ckpt = CampaignCheckpoints::new(dir);
    ckpt.every_nodes = 8;
    ckpt
}

/// Kills a durable run at exactly `kill` node-days via the harness hook.
fn kill_at(cfg: &CampaignConfig, dir: &Path, kill: u64) {
    let mut ckpt = checkpoints(dir);
    ckpt.abort_after_nodes = Some(kill);
    match run_campaign_durable(cfg, &ckpt) {
        Err(CampaignError::Aborted { nodes_done }) => {
            assert_eq!(nodes_done, kill, "kill point must land exactly");
        }
        other => panic!("expected Aborted at {kill}, got {other:?}"),
    }
}

#[test]
fn kill_at_any_point_resumes_byte_identically_at_worker_counts_1_and_4() {
    let cfg = sweep_cfg();
    let baseline = run_campaign(&cfg);
    let baseline_json = baseline.to_json();

    // Chunk is 3 and the wave is a multiple of it, so 1 and N-1 are both
    // mid-chunk kill points; N/2 lands mid-wave.
    let kill_points = [1u64, (N / 2) as u64, (N - 1) as u64];
    for kill in kill_points {
        for resume_workers in [1usize, 4] {
            let dir = scratch_dir(&format!("kill{kill}w{resume_workers}"));
            kill_at(&cfg, &dir, kill);

            let mut resumed_cfg = cfg.clone();
            resumed_cfg.workers = resume_workers;
            let report = resume_campaign(&resumed_cfg, &checkpoints(&dir))
                .expect("resume after harness kill");
            assert_eq!(
                report.to_json(),
                baseline_json,
                "kill at {kill}, resumed on {resume_workers} workers"
            );
            assert_eq!(report, baseline);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn corrupt_newest_snapshot_is_skipped_and_its_range_recomputed() {
    let cfg = sweep_cfg();
    let baseline_json = run_campaign(&cfg).to_json();
    let dir = scratch_dir("corrupt-newest");
    kill_at(&cfg, &dir, (N - 4) as u64);

    let mut snapshots = snapshot_files(&dir);
    assert!(
        snapshots.len() >= 2,
        "need an older snapshot to fall back to, found {snapshots:?}"
    );
    // Flip one payload byte in the newest snapshot.
    let newest = snapshots.pop().expect("newest snapshot");
    let mut bytes = std::fs::read(&newest).expect("read snapshot");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    #[allow(
        clippy::disallowed_methods,
        reason = "the test tears the snapshot on purpose"
    )]
    std::fs::write(&newest, &bytes).expect("re-write corrupted snapshot");

    let (report, resumed) = resume_campaign_verbose(&cfg, &checkpoints(&dir), &simulate_node)
        .expect("resume past corruption");
    assert_eq!(resumed.skipped.len(), 1, "exactly the mangled file skipped");
    assert!(
        resumed.skipped[0].contains("corrupt") || resumed.skipped[0].contains("malformed"),
        "skip reason is operator-readable: {}",
        resumed.skipped[0]
    );
    assert!(
        resumed.snapshot.nodes_done < (N - 4) as u64,
        "resume fell back to an older snapshot"
    );
    assert_eq!(report.to_json(), baseline_json);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn abort_and_resume_through_a_store_is_byte_identical() {
    let cfg = sweep_cfg();
    let baseline_json = run_campaign(&cfg).to_json();
    let dir = scratch_dir("store-resume");
    let (ckpt_dir, store_dir) = (dir.join("ckpt"), dir.join("store"));
    let kill = (N / 2) as u64;

    let store = NodeDayStore::open(&store_dir).expect("open store");
    let mut ckpt = checkpoints(&ckpt_dir);
    ckpt.abort_after_nodes = Some(kill);
    match run_campaign_durable_with(&cfg, &ckpt, &cached_node(&store)) {
        Err(CampaignError::Aborted { nodes_done }) => assert_eq!(nodes_done, kill),
        other => panic!("expected Aborted at {kill}, got {other:?}"),
    }
    // Lose the newest snapshot, as if the kill landed between the store
    // persists and the snapshot write: the resume refolds node-days the
    // store already holds.
    let newest = snapshot_files(&ckpt_dir).pop().expect("a snapshot");
    std::fs::remove_file(&newest).expect("drop newest snapshot");

    let store = NodeDayStore::open(&store_dir).expect("reopen store");
    let (report, resumed) =
        resume_campaign_verbose(&cfg, &checkpoints(&ckpt_dir), &cached_node(&store))
            .expect("resume through the store");
    assert!(resumed.snapshot.nodes_done < kill);
    assert_eq!(report.to_json(), baseline_json);
    let stats = store.stats();
    assert_eq!(stats.hits, kill - resumed.snapshot.nodes_done, "{stats:?}");
    assert_eq!(stats.misses, N as u64 - kill, "{stats:?}");

    // Every node-day is now stored: a cached rerun is all hits.
    store.reset_stats();
    assert_eq!(run_campaign_cached(&cfg, &store).to_json(), baseline_json);
    assert_eq!(store.stats().misses, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn all_snapshots_corrupt_is_a_typed_error_listing_the_rejects() {
    let cfg = sweep_cfg();
    let dir = scratch_dir("all-corrupt");
    kill_at(&cfg, &dir, (N / 2) as u64);

    let snapshots = snapshot_files(&dir);
    assert!(!snapshots.is_empty());
    for path in &snapshots {
        #[allow(
            clippy::disallowed_methods,
            reason = "the test clobbers every snapshot on purpose"
        )]
        std::fs::write(path, b"not a checkpoint at all").expect("clobber snapshot");
    }
    match resume_campaign(&cfg, &checkpoints(&dir)) {
        Err(CampaignError::Checkpoint(CheckpointError::NoCheckpoint { corrupt, .. })) => {
            assert_eq!(corrupt.len(), snapshots.len(), "every reject is listed");
        }
        other => panic!("expected NoCheckpoint, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn foreign_spec_snapshot_is_a_hard_spec_mismatch() {
    let cfg = sweep_cfg();
    let dir = scratch_dir("foreign");
    kill_at(&cfg, &dir, (N / 2) as u64);

    let mut foreign = cfg.clone();
    foreign.seed ^= 0xDEAD_BEEF;
    match resume_campaign(&foreign, &checkpoints(&dir)) {
        Err(CampaignError::Checkpoint(CheckpointError::SpecMismatch {
            expected, found, ..
        })) => {
            assert_eq!(expected, campaign_fingerprint(&foreign));
            assert_eq!(found, campaign_fingerprint(&cfg));
        }
        other => panic!("expected SpecMismatch, got {other:?}"),
    }
    // Changing only run-shape knobs is NOT foreign: same fingerprint.
    let mut reshaped = cfg.clone();
    reshaped.workers = 7;
    reshaped.chunk = 1;
    assert!(resume_campaign(&reshaped, &checkpoints(&dir)).is_ok());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fresh_durable_run_refuses_an_occupied_dir_and_resume_refuses_a_missing_one() {
    let cfg = sweep_cfg();
    let dir = scratch_dir("occupied");
    kill_at(&cfg, &dir, 8);
    match run_campaign_durable(&cfg, &checkpoints(&dir)) {
        Err(CampaignError::Checkpoint(CheckpointError::DirNotEmpty { .. })) => {}
        other => panic!("expected DirNotEmpty, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);

    let missing = dir.join("never-created");
    match resume_campaign(&cfg, &checkpoints(&missing)) {
        Err(CampaignError::Checkpoint(CheckpointError::MissingDir { .. })) => {}
        other => panic!("expected MissingDir, got {other:?}"),
    }
}

#[test]
fn completed_durable_campaign_resumes_to_the_same_report_without_rework() {
    let cfg = sweep_cfg();
    let dir = scratch_dir("completed");
    let finished = run_campaign_durable(&cfg, &checkpoints(&dir)).expect("uninterrupted");
    // The final snapshot records full coverage…
    let resumed = load_latest(&dir, campaign_fingerprint(&cfg)).expect("final snapshot");
    assert_eq!(resumed.snapshot.nodes_done, N as u64);
    // …so resuming is a pure reload.
    let again = resume_campaign(&cfg, &checkpoints(&dir)).expect("resume of complete run");
    assert_eq!(again.to_json(), finished.to_json());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Snapshot files in `dir`, oldest first.
fn snapshot_files(dir: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("checkpoint dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("ckpt-") && n.ends_with(".bin"))
        })
        .collect();
    out.sort();
    out
}

fn sigkill_cfg() -> CampaignConfig {
    let mut cfg = CampaignConfig::smoke(SIGKILL_N, SEED ^ 0x519_4111);
    cfg.chunk = 1;
    cfg.workers = 1;
    cfg
}

/// Child half of the SIGKILL test: re-exec'd by
/// [`a_real_sigkill_mid_campaign_resumes_byte_identically`] with
/// [`CRASH_CHILD_ENV`] set; a no-op under a normal test run.
#[test]
fn sigkill_child_campaign_worker() {
    let Ok(dir) = std::env::var(CRASH_CHILD_ENV) else {
        return;
    };
    let mut ckpt = CampaignCheckpoints::new(dir);
    ckpt.every_nodes = 1; // checkpoint every wave so the parent sees progress fast
                          // The parent SIGKILLs us mid-run; if we finish first the test still
                          // passes (resume of a complete campaign reloads the final snapshot).
    let _ = run_campaign_durable(&sigkill_cfg(), &ckpt);
}

#[test]
fn a_real_sigkill_mid_campaign_resumes_byte_identically() {
    let cfg = sigkill_cfg();
    let baseline: FleetReport = run_campaign(&cfg);
    let dir = scratch_dir("sigkill");

    let exe = std::env::current_exe().expect("test binary path");
    let mut child = std::process::Command::new(exe)
        .args(["sigkill_child_campaign_worker", "--exact", "--nocapture"])
        .env(CRASH_CHILD_ENV, &dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn child campaign");

    // Wait for the first durable snapshot, then kill -9.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    loop {
        if !snapshot_files(&dir).is_empty() {
            break;
        }
        if let Some(status) = child.try_wait().expect("child poll") {
            assert!(
                status.success() && !snapshot_files(&dir).is_empty(),
                "child exited ({status}) before writing a snapshot"
            );
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no snapshot appeared within the deadline"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let _ = child.kill(); // SIGKILL on unix; no cleanup handlers run
    let _ = child.wait();

    // Resume on a different worker count than the child ran with.
    let mut resumed_cfg = cfg.clone();
    resumed_cfg.workers = 4;
    let report =
        resume_campaign(&resumed_cfg, &CampaignCheckpoints::new(&dir)).expect("resume after kill");
    assert_eq!(
        report.to_json(),
        baseline.to_json(),
        "post-SIGKILL resume must reproduce the uninterrupted report byte-for-byte"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
