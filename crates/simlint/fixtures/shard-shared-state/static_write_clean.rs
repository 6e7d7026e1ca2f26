// Fixture: clean under `shard-shared-state`. A plain immutable static
// cannot be written from safe code, so reading it is fine.

static EVENT_LIMIT: u64 = 1_000_000;

pub fn limit() -> u64 {
    EVENT_LIMIT
}
