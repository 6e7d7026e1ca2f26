// Fixture: the same mutual recursion as recursive_trigger.rs, but the
// written field belongs to a probe declared observation-only via
// `simlint::state(observer)` — the cycle's summary stays pure.

pub struct Config {
    pub trace: bool,
}

// simlint::state(observer)
pub struct Probe {
    pub samples: u64,
}

pub struct Sys {
    pub cfg: Config,
    pub probe: Probe,
}

fn sample_a(p: &mut Probe, n: u64) {
    if n > 0 {
        sample_b(p, n - 1);
    }
}

fn sample_b(p: &mut Probe, n: u64) {
    p.samples += 1;
    sample_a(p, n);
}

impl Sys {
    pub fn on_event(&mut self) {
        if self.cfg.trace {
            sample_a(&mut self.probe, 3);
        }
    }
}
