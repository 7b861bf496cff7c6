//! Persistent-store crash-recovery contract:
//!
//! * a kill/restart round-trip preserves the whole index;
//! * a torn tail (crash mid-append) is detected, reported, trimmed,
//!   and the log stays appendable;
//! * a corrupted complete entry is *skipped and reported* — never a
//!   panic, never silently served, and never fatal to its neighbours;
//! * lost framing (garbage where a header should be) truncates the
//!   rest of the log and is counted as torn bytes;
//! * an entry replay could not read back (an empty key, a result over
//!   16 MiB) is refused at `put`, so it never costs its neighbours.

use std::fs::OpenOptions;
use std::io::{Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use maeri_runtime::JobKey;
use maeri_serve::store::{ResultStore, StoredResult};

static COUNTER: AtomicU64 = AtomicU64::new(0);

fn temp_log(tag: &str) -> PathBuf {
    let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!(
        "maeri-store-recovery-{}-{unique}-{tag}.log",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

fn key(byte: u8) -> JobKey {
    JobKey::from_bytes(vec![byte, byte ^ 0x5a, 7])
}

fn result(label: &str, cycles: u64) -> StoredResult {
    StoredResult {
        ok: true,
        kind: "run".to_owned(),
        label: label.to_owned(),
        cycles,
        detail: format!("run label={label} cycles={cycles}"),
    }
}

#[test]
fn restart_round_trip_preserves_the_index() {
    let path = temp_log("roundtrip");
    {
        let (store, report) = ResultStore::open(&path).expect("fresh open");
        assert_eq!(report.entries, 0);
        for i in 0..10u8 {
            store
                .put(&key(i), &result(&format!("job{i}"), u64::from(i) * 100 + 1))
                .expect("append");
        }
        assert_eq!(store.len(), 10);
        // Dropping the store is the "kill": no shutdown handshake.
    }
    let (store, report) = ResultStore::open(&path).expect("reopen");
    assert_eq!(report.entries, 10, "every entry replays");
    assert_eq!(report.truncated_bytes, 0, "clean log has no torn tail");
    assert_eq!(report.skipped, 0, "clean log skips nothing");
    assert_eq!(store.len(), 10);
    for i in 0..10u8 {
        let got = store.get(&key(i)).expect("key survives restart");
        assert_eq!(got, result(&format!("job{i}"), u64::from(i) * 100 + 1));
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn torn_tail_is_trimmed_and_the_log_stays_appendable() {
    let path = temp_log("torn");
    {
        let (store, _) = ResultStore::open(&path).expect("fresh open");
        store.put(&key(1), &result("keep1", 11)).expect("append");
        store.put(&key(2), &result("keep2", 22)).expect("append");
    }
    let clean_len = std::fs::metadata(&path).expect("stat").len();
    // Simulate a crash mid-append: a valid header whose body never
    // finished hitting the disk.
    {
        let mut file = OpenOptions::new().append(true).open(&path).expect("append");
        file.write_all(&0x5245_414Du32.to_le_bytes())
            .expect("magic");
        file.write_all(&8u32.to_le_bytes()).expect("key len");
        file.write_all(&64u32.to_le_bytes()).expect("payload len");
        file.write_all(b"par").expect("partial key");
    }
    let (store, report) = ResultStore::open(&path).expect("recovery");
    assert_eq!(report.entries, 2, "complete entries survive");
    assert_eq!(report.truncated_bytes, 15, "torn bytes are counted");
    assert_eq!(report.skipped, 0);
    assert_eq!(store.get(&key(2)).expect("index intact").label, "keep2");
    // The torn tail was trimmed, so a new append lands on a clean
    // frame boundary and a further reopen sees all three entries.
    store
        .put(&key(3), &result("after", 33))
        .expect("append after trim");
    assert!(std::fs::metadata(&path).expect("stat").len() > clean_len);
    drop(store);
    let (store, report) = ResultStore::open(&path).expect("second reopen");
    assert_eq!(report.entries, 3);
    assert_eq!(report.truncated_bytes, 0);
    assert_eq!(store.get(&key(3)).expect("new entry").label, "after");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn corrupted_entry_is_skipped_and_reported_not_fatal() {
    let path = temp_log("corrupt");
    {
        let (store, _) = ResultStore::open(&path).expect("fresh open");
        store.put(&key(1), &result("victim", 42)).expect("append");
        store.put(&key(2), &result("survivor", 7)).expect("append");
    }
    // Flip one byte in the middle of the *first* entry's payload; its
    // length framing stays intact, so only that entry is lost.
    let first_len = {
        let mut bytes = Vec::new();
        std::fs::File::open(&path)
            .expect("open")
            .read_to_end(&mut bytes)
            .expect("read");
        let total = bytes.len();
        bytes[total / 4] ^= 0xff;
        std::fs::write(&path, &bytes).expect("write back");
        total
    };
    let (store, report) = ResultStore::open(&path).expect("corruption is survivable");
    assert_eq!(report.skipped, 1, "the flipped entry is counted");
    assert_eq!(report.entries, 1, "its neighbour replays");
    assert_eq!(report.truncated_bytes, 0, "framing never broke");
    assert!(store.get(&key(1)).is_none(), "corrupt data is never served");
    assert_eq!(store.get(&key(2)).expect("survivor").label, "survivor");
    // The store stays writable: re-running the victim job repairs it.
    store
        .put(&key(1), &result("victim", 42))
        .expect("re-append over intact framing");
    assert!(std::fs::metadata(&path).expect("stat").len() > first_len as u64);
    drop(store);
    let (store, report) = ResultStore::open(&path).expect("third open");
    assert_eq!(report.entries, 2, "repair persisted");
    assert_eq!(report.skipped, 1, "the dead entry still sits in the log");
    assert_eq!(store.get(&key(1)).expect("repaired").label, "victim");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn garbage_prefix_truncates_as_lost_framing() {
    let path = temp_log("garbage");
    std::fs::write(&path, b"this is not a maeri store log at all....").expect("seed garbage");
    let (store, report) = ResultStore::open(&path).expect("garbage is survivable");
    assert_eq!(report.entries, 0);
    assert_eq!(report.skipped, 0);
    assert_eq!(report.truncated_bytes, 40, "the whole file is unframed");
    assert!(store.is_empty());
    // The garbage was trimmed: the log is a fresh, appendable file.
    store.put(&key(9), &result("fresh", 1)).expect("append");
    drop(store);
    let (_, report) = ResultStore::open(&path).expect("reopen");
    assert_eq!(report.entries, 1);
    assert_eq!(report.truncated_bytes, 0);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn unreadable_entries_are_refused_and_their_neighbours_survive() {
    let path = temp_log("refused");
    {
        let (store, _) = ResultStore::open(&path).expect("fresh open");
        store.put(&key(1), &result("before", 1)).expect("append");
        let empty_key = JobKey::from_bytes(Vec::new());
        assert!(store.put(&empty_key, &result("empty", 2)).is_err());
        let huge = StoredResult {
            detail: "x".repeat(16 * 1024 * 1024),
            ..result("huge", 3)
        };
        assert!(store.put(&key(3), &huge).is_err(), "over 16 MiB");
        store.put(&key(4), &result("after", 4)).expect("append");
        assert_eq!(store.len(), 2);
    }
    let (store, report) = ResultStore::open(&path).expect("reopen");
    assert_eq!(report.entries, 2, "both good entries replay");
    assert_eq!(report.truncated_bytes, 0, "nothing unreadable was written");
    assert_eq!(
        store.get(&key(4)).expect("after the refusals").label,
        "after"
    );
    let _ = std::fs::remove_file(&path);
}
