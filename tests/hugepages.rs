//! Large operands live on transparent huge pages, counted from
//! `/proc/self/smaps`.
//!
//! `AlignedVec` aligns every buffer of 2 MiB or more to 2 MiB and
//! advises it `MADV_HUGEPAGE` before its first touch. This file checks
//! what the kernel made of that: the mapping that holds a large buffer
//! carries the `hg` flag and a small buffer's does not, and the store's
//! `Y` behind an `Engine` is backed by huge pages, so random neighbour
//! row gathers stop paying a page walk per row.
//!
//! One test function does every step in order: a small buffer is mapped
//! before anything large has been freed, so the allocator cannot place
//! it in memory an earlier large buffer advised. The file stays out of
//! the AddressSanitizer job, whose allocator maps memory its own way.
//! When huge pages are off (`[never]`), or the platform has no
//! `/proc/self/smaps`, the test says why and passes without checking.
//!
//! The `hg` flags are the code's doing and always checked. How much of
//! `Y` the kernel then backs with huge pages also depends on the host:
//! when its `defrag` setting does not compact memory on a fault in an
//! advised range (`[never]`, `[defer]`), or it has too few free 2 MiB
//! blocks, a fault falls back to 4 KiB pages. There the test prints
//! `Y`'s share and why it is not held to 90 %.

use fusedmm::prelude::*;
use fusedmm::sparse::AlignedVec;

const HUGE_PAGE: usize = 2 << 20;

/// One mapping of `/proc/self/smaps`: its address range, `VmFlags` and
/// `AnonHugePages` in bytes.
struct Vma {
    start: usize,
    end: usize,
    flags: Vec<String>,
    anon_huge_bytes: usize,
}

fn mappings() -> Vec<Vma> {
    let text = std::fs::read_to_string("/proc/self/smaps").expect("read /proc/self/smaps");
    let mut out: Vec<Vma> = Vec::new();
    for line in text.lines() {
        let mut words = line.split_whitespace();
        let Some(first) = words.next() else { continue };
        if let Some((lo, hi)) = first.split_once('-').filter(|_| !first.ends_with(':')) {
            let hex = |s: &str| usize::from_str_radix(s, 16).expect("hex address");
            out.push(Vma { start: hex(lo), end: hex(hi), flags: Vec::new(), anon_huge_bytes: 0 });
            continue;
        }
        let vma = out.last_mut().expect("a field line follows a range line");
        match first {
            "VmFlags:" => vma.flags = words.map(str::to_owned).collect(),
            "AnonHugePages:" => {
                let kb: usize = words.next().expect("a size").parse().expect("kB");
                vma.anon_huge_bytes = kb * 1024;
            }
            _ => {}
        }
    }
    out
}

/// The mapping that holds `addr`.
fn mapping_of(addr: *const f32) -> Vma {
    let addr = addr as usize;
    mappings()
        .into_iter()
        .find(|v| v.start <= addr && addr < v.end)
        .expect("the buffer lies in a mapping")
}

/// Why huge pages cannot be checked here, if they cannot.
fn unavailable() -> Option<String> {
    let path = "/sys/kernel/mm/transparent_hugepage/enabled";
    match std::fs::read_to_string(path) {
        Ok(mode) if mode.contains("[never]") => Some(format!("{path} reads {}", mode.trim())),
        Ok(_) if std::fs::metadata("/proc/self/smaps").is_ok() => None,
        Ok(_) => Some("no /proc/self/smaps".into()),
        Err(e) => Some(format!("no transparent huge pages ({path}: {e})")),
    }
}

/// Free blocks of 2 MiB or more in `/proc/buddyinfo`, counted in 2 MiB
/// pages (a block of order 9 + k holds 2^k of them).
fn free_huge_pages() -> Option<usize> {
    let info = std::fs::read_to_string("/proc/buddyinfo").ok()?;
    let mut pages = 0;
    for line in info.lines() {
        // "Node 0, zone   Normal  <free blocks of order 0> ... <order 10>"
        let counts = line.split_whitespace().skip(4);
        for (order, count) in counts.enumerate().skip(9) {
            pages += count.parse::<usize>().ok()? << (order - 9);
        }
    }
    Some(pages)
}

/// Why a fault in an advised range may get 4 KiB pages on this host
/// although the code is right, if it may: `defrag` does not compact on
/// such a fault, or fewer than `pages` 2 MiB blocks are free.
fn may_fall_back(pages: usize) -> Option<String> {
    let path = "/sys/kernel/mm/transparent_hugepage/defrag";
    let defrag = std::fs::read_to_string(path).unwrap_or_default();
    if defrag.contains("[never]") || defrag.contains("[defer]") {
        return Some(format!("{path} reads {}", defrag.trim()));
    }
    match free_huge_pages() {
        Some(free) if free >= pages => None,
        Some(free) => Some(format!("{free} free 2 MiB blocks, fewer than {pages}")),
        None => Some("no readable /proc/buddyinfo".into()),
    }
}

#[test]
fn large_operands_are_backed_by_huge_pages() {
    if let Some(why) = unavailable() {
        println!("skipped: {why}");
        return;
    }

    // A 1 MiB buffer keeps ordinary pages; a 64 MiB one is advised.
    let small = AlignedVec::zeroed((1 << 20) / 4);
    let large = AlignedVec::zeroed((64 << 20) / 4);
    assert!(
        !mapping_of(small.as_ptr()).flags.iter().any(|f| f == "hg"),
        "a 1 MiB buffer must not be advised onto huge pages"
    );
    let vma = mapping_of(large.as_ptr());
    assert!(vma.flags.iter().any(|f| f == "hg"), "64 MiB buffer's VmFlags: {:?}", vma.flags);
    drop((small, large));

    // The store's `Y` after `Engine::new` at the 2^15 x 128 shape. `X`
    // and `Y` take 8 huge pages each; ask for twice that free, read
    // before either is allocated.
    let (n, d) = (1usize << 15, 128);
    let fall_back = may_fall_back(4 * (n * d * 4 / HUGE_PAGE));
    let a = rmat(&RmatConfig::new(n, 8 * n).with_seed(3));
    let x = random_features(n, d, 0.5, 1);
    let y = random_features(n, d, 0.5, 2);
    let engine = Engine::new(a, x, y, OpSet::sigmoid_embedding(None), EngineConfig::default());
    let epoch = engine.store().snapshot();
    let y = epoch.y().as_slice();
    let whole = y.len() * 4 / HUGE_PAGE * HUGE_PAGE;
    let vma = mapping_of(y.as_ptr());
    assert!(vma.flags.iter().any(|f| f == "hg"), "Y's VmFlags: {:?}", vma.flags);
    let covered = vma.end.min(y.as_ptr() as usize + whole) - vma.start.max(y.as_ptr() as usize);
    assert_eq!(covered, whole, "Y's whole 2 MiB pages lie in one mapping");
    let share = format!(
        "{} of Y's {} bytes in whole 2 MiB pages are AnonHugePages",
        vma.anon_huge_bytes, whole
    );
    match fall_back {
        Some(why) => println!("{share}; not held to 90 %: {why}"),
        None => assert!(vma.anon_huge_bytes * 10 >= whole * 9, "{share} (need >= 90 %)"),
    }
}
