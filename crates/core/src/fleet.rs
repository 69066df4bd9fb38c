//! A per-worker cache of parked cores.
//!
//! Sweep, sampling and verification workloads run thousands of short
//! programs, each on its own [`Core`]. Constructing a core per program
//! dominates short runs — every queue, matrix, cache and predictor table
//! is allocated from scratch. A [`Fleet`] keeps finished cores parked
//! and hands one out per run: a parked core whose configuration is
//! [`CoreConfig::same_shape`] with the requested one is revived through
//! [`Core::reset_with`] — allocation-free after warm-up, and behaviourally
//! a fresh core (pinned by the `reset` and `fleet` test suites) — and a
//! new core is built only when no parked shape matches.
//!
//! The campaign server holds one fleet per worker thread, the sampler one
//! per interval worker, and the verification campaigns one per campaign
//! thread.

use crate::config::CoreConfig;
use crate::pipeline::Core;
use orinoco_isa::Emulator;

/// A cache of parked [`Core`]s, at most one per configuration shape. See
/// the module docs.
#[derive(Default)]
pub struct Fleet {
    parked: Vec<Core>,
}

impl Fleet {
    /// An empty fleet.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Parked cores (observability for reuse tests: a warmed-up fleet
    /// stops growing).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.parked.len()
    }

    /// Hands `body` a core running `emu` under `cfg` and parks the core
    /// again afterwards.
    ///
    /// The core is a parked same-shape core revived through
    /// [`Core::reset_with`], or a new one when no shape matches. While
    /// `body` runs the core is out of the fleet, so a panic in the
    /// revival or in `body` drops it during unwinding — a core that
    /// unwound mid-cycle holds broken invariants and is never revived —
    /// and leaves the fleet usable for the next handout.
    pub fn with_lane<R>(
        &mut self,
        cfg: CoreConfig,
        emu: Emulator,
        body: impl FnOnce(&mut Core) -> R,
    ) -> R {
        let mut core = match self.parked.iter().position(|c| c.config().same_shape(&cfg)) {
            Some(i) => {
                let mut core = self.parked.swap_remove(i);
                core.reset_with(emu, cfg);
                core
            }
            None => Core::new(emu, cfg),
        };
        let result = body(&mut core);
        self.parked.push(core);
        result
    }
}
