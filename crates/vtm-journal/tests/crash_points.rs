//! Crash-point fault injection: a process can die after *any* byte of the
//! journal reaches disk. Whatever the cut point, replay must recover exactly
//! the complete-frame prefix — byte-identical to an uninterrupted run over
//! the same prefix, pinned by FNV state digests — or return a typed error.
//! Never a panic, never a silently divergent state.

use vtm_journal::{
    replay_frames, replay_journal, scan_journal_bytes, JournalError, JournalFrame, JournalWriter,
    ReplayOptions, ScanMode,
};
use vtm_rl::env::ActionSpace;
use vtm_rl::ppo::{PpoAgent, PpoConfig};
use vtm_rl::snapshot::PolicySnapshot;
use vtm_serve::{PricingService, QuoteRequest, ServiceConfig};

const FEATURES: usize = 2;

fn policy(seed: u64) -> PolicySnapshot {
    PpoAgent::new(
        PpoConfig::new(4, 1).with_seed(seed),
        ActionSpace::scalar(5.0, 50.0),
    )
    .snapshot()
}

/// A small capacity, so the digest also pins eviction bookkeeping — the
/// state a naive recovery would lose.
fn config() -> ServiceConfig {
    ServiceConfig::new(2, FEATURES).with_session_capacity(4)
}

fn request(i: u64) -> QuoteRequest {
    QuoteRequest::new(
        i % 5,
        vec![(i % 7) as f64 * 0.125, ((i * 3) % 11) as f64 * 0.09],
    )
}

/// Journals `total` requests to a temp file and returns the raw bytes plus
/// the reference digest after every prefix length: `digests[k]` is the
/// state digest an uninterrupted service holds after quoting requests
/// `0..k`.
fn record(tag: &str, snap: &PolicySnapshot, total: u64) -> (Vec<u8>, Vec<u64>) {
    let path = std::env::temp_dir().join(format!(
        "vtm_crash_points_{tag}_{}.vtmj",
        std::process::id()
    ));
    let mut journal = JournalWriter::create(&path).unwrap();
    let live = PricingService::from_snapshot(snap, config()).unwrap();
    let mut digests = vec![live.state_digest()];
    for i in 0..total {
        let req = request(i);
        journal.append(&req).unwrap();
        live.quote_batch(std::slice::from_ref(&req)).unwrap();
        digests.push(live.state_digest());
    }
    journal.sync().unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    (bytes, digests)
}

/// Exhaustive small run: cut the journal at EVERY byte offset. Recovery
/// must come back with exactly the complete-frame prefix and reconstruct
/// its digest; strict scans must name the torn frame.
#[test]
fn every_byte_offset_recovers_to_the_last_complete_frame() {
    let snap = policy(41);
    let total = 8u64;
    let (bytes, digests) = record("every_byte", &snap, total);
    let frame_len = JournalFrame::framed_len(FEATURES);
    assert_eq!(bytes.len(), total as usize * frame_len);

    for cut in 0..=bytes.len() {
        let truncated = &bytes[..cut];
        let complete = cut / frame_len;
        let torn = (cut % frame_len) as u64;

        // RecoverTail: every complete frame survives, the torn remainder is
        // reported, nothing panics.
        let scanned = scan_journal_bytes(truncated, ScanMode::RecoverTail)
            .unwrap_or_else(|e| panic!("cut at byte {cut}: recover-tail scan failed: {e}"));
        assert_eq!(scanned.frames.len(), complete, "cut at byte {cut}");
        assert_eq!(scanned.truncated_tail, torn, "cut at byte {cut}");

        // The recovered prefix replays to the uninterrupted run's digest.
        let service = PricingService::from_snapshot(&snap, config()).unwrap();
        let applied = replay_frames(&service, &scanned.frames, 0, 3).unwrap();
        assert_eq!(applied, complete as u64);
        assert_eq!(
            service.state_digest(),
            digests[complete],
            "cut at byte {cut}: replayed state diverged from the uninterrupted run"
        );

        // Strict mode: a clean boundary is fine, a torn tail is a typed
        // error naming the exact frame.
        match scan_journal_bytes(truncated, ScanMode::Strict) {
            Ok(scanned) => {
                assert_eq!(
                    torn, 0,
                    "cut at byte {cut}: strict scan accepted a torn tail"
                );
                assert_eq!(scanned.frames.len(), complete);
            }
            Err(JournalError::Frame { index, source }) => {
                assert_ne!(
                    torn, 0,
                    "cut at byte {cut}: strict scan rejected a clean journal"
                );
                assert_eq!(index, complete, "cut at byte {cut}");
                assert!(
                    matches!(source, vtm_nn::codec::CodecError::Truncated { .. }),
                    "cut at byte {cut}: unexpected source {source}"
                );
            }
            Err(other) => panic!("cut at byte {cut}: unexpected error {other}"),
        }
    }
}

/// Larger run: cut at every frame boundary (and a few mid-frame offsets),
/// going through real files and the full `replay_journal` path.
#[test]
fn frame_boundary_cuts_replay_through_files() {
    let snap = policy(42);
    let total = 96u64;
    let (bytes, digests) = record("boundaries", &snap, total);
    let frame_len = JournalFrame::framed_len(FEATURES);
    let path = std::env::temp_dir().join(format!(
        "vtm_crash_points_boundary_{}.vtmj",
        std::process::id()
    ));

    for k in 0..=total as usize {
        for extra in [0usize, 1, frame_len / 2, frame_len - 1] {
            let cut = (k * frame_len + extra).min(bytes.len());
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let service = PricingService::from_snapshot(&snap, config()).unwrap();
            let report = replay_journal(&service, &path, None, &ReplayOptions::default()).unwrap();
            let complete = cut / frame_len;
            assert_eq!(report.total_frames, complete as u64, "cut at byte {cut}");
            assert_eq!(report.frames_applied, complete as u64);
            assert_eq!(report.truncated_tail, (cut % frame_len) as u64);
            assert_eq!(report.state_digest, digests[complete], "cut at byte {cut}");
        }
    }
    std::fs::remove_file(&path).unwrap();
}

/// The full crash → recover → resume cycle: truncate mid-frame, re-open
/// with `JournalWriter::recover`, append the lost requests again, and end
/// at the uninterrupted run's exact digest.
#[test]
fn recover_and_resume_reaches_the_uninterrupted_digest() {
    let snap = policy(43);
    let total = 24u64;
    let (bytes, digests) = record("resume", &snap, total);
    let frame_len = JournalFrame::framed_len(FEATURES);
    let path = std::env::temp_dir().join(format!(
        "vtm_crash_points_resume_{}.vtmj",
        std::process::id()
    ));
    for crash_after in [0u64, 5, 11, 23] {
        // Crash 13 bytes into the frame after `crash_after` complete frames.
        let cut = (crash_after as usize * frame_len + 13).min(bytes.len());
        std::fs::write(&path, &bytes[..cut]).unwrap();

        let mut journal = JournalWriter::recover(&path).unwrap();
        assert_eq!(journal.frames(), crash_after);
        // The restarted process replays the journal to rebuild its state,
        // then keeps serving (and journaling) where it left off.
        let service = PricingService::from_snapshot(&snap, config()).unwrap();
        let report = replay_journal(&service, &path, None, &ReplayOptions::default()).unwrap();
        assert_eq!(report.state_digest, digests[crash_after as usize]);
        for i in crash_after..total {
            let req = request(i);
            journal.append(&req).unwrap();
            service.quote_batch(std::slice::from_ref(&req)).unwrap();
        }
        journal.sync().unwrap();
        assert_eq!(
            service.state_digest(),
            digests[total as usize],
            "crash after {crash_after} frames: resumed run diverged"
        );
        // And the repaired journal now replays to the same final digest.
        let fresh = PricingService::from_snapshot(&snap, config()).unwrap();
        let report = replay_journal(&fresh, &path, None, &ReplayOptions::default()).unwrap();
        assert_eq!(report.total_frames, total);
        assert_eq!(report.state_digest, digests[total as usize]);
    }
    std::fs::remove_file(&path).unwrap();
}
