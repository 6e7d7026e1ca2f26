// Fixture: a sim-state write inside a mutually recursive pair must be
// found through the cycle. `drain_b` writes the queue and calls back
// into `drain_a`; the observation-gated call to `drain_a` reports
// exactly ONE `observer-purity` finding.

pub struct Config {
    pub trace: bool,
}

pub struct Queue {
    pub depth: u64,
}

pub struct Sys {
    pub cfg: Config,
    pub queue: Queue,
}

fn drain_a(q: &mut Queue, n: u64) {
    if n > 0 {
        drain_b(q, n - 1);
    }
}

fn drain_b(q: &mut Queue, n: u64) {
    q.depth += 1;
    drain_a(q, n);
}

impl Sys {
    pub fn on_event(&mut self) {
        if self.cfg.trace {
            drain_a(&mut self.queue, 3);
        }
    }
}
