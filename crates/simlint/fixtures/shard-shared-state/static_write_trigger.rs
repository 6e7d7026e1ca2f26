// Fixture: triggers `shard-shared-state` at the declaration of an
// atomic static. The static is soundly synchronized (SeqCst), but safe
// code can only write a static through interior mutability, so every
// static sim code could write is caught where it is declared: one
// finding, on the `AtomicU64` type, none at the write site.

use std::sync::atomic::{AtomicU64, Ordering};

static EVENT_COUNT: AtomicU64 = AtomicU64::new(0);

pub fn bump() {
    EVENT_COUNT.fetch_add(1, Ordering::SeqCst);
}
