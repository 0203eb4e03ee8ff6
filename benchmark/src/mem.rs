//! Memory readings for the traced run: peak RSS from the kernel, peak
//! heap from a counting allocator that only the traced binary installs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Each counter on a cache line of its own: every allocating thread
/// writes `CURRENT`, almost none writes `PEAK`.
#[repr(align(64))]
struct Padded(AtomicUsize);

static CURRENT: Padded = Padded(AtomicUsize::new(0));
static PEAK: Padded = Padded(AtomicUsize::new(0));

fn grow(bytes: usize) {
    let now = CURRENT.0.fetch_add(bytes, Ordering::Relaxed) + bytes;
    if now > PEAK.0.load(Ordering::Relaxed) {
        PEAK.0.fetch_max(now, Ordering::Relaxed);
    }
}

/// `System` plus two relaxed counters (live bytes and their high-water
/// mark). Install with `#[global_allocator]` in the traced binary only:
/// the untraced binary, which produces every end-to-end number, must not
/// pay for the counting.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are plain
// statistics that never influence which memory is returned.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is the caller's, passed through as is.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        CURRENT.0.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` was returned by `System.alloc` with this layout
        // (our `alloc`/`realloc` only ever hand out `System` pointers).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: same pointer, layout and size the caller vouched for.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                CURRENT
                    .0
                    .fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

/// High-water mark of live heap bytes; 0 when [`CountingAlloc`] is not
/// the global allocator.
pub fn peak_heap_bytes() -> usize {
    PEAK.0.load(Ordering::Relaxed)
}

/// Peak resident set size of this process in bytes (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}
